"""Smoke tests: every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES,
                         ids=lambda path: path.stem)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()  # examples narrate what they do


def test_examples_cover_required_scenarios():
    names = {path.stem for path in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3


def _run(script_name):
    script = pathlib.Path(__file__).resolve().parent.parent / \
        "examples" / script_name
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_quickstart_emits_observability():
    stdout = _run("quickstart.py")
    assert "trace of the online request:" in stdout
    assert "deployment.execute" in stdout
    assert "counter   online.requests" in stdout
    assert "histogram online.request.ms" in stdout


def test_cluster_operations_emits_stitched_trace():
    stdout = _run("cluster_operations.py")
    assert "stitched request trace:" in stdout
    assert "deployment.execute" in stdout
    assert "tablet=tablet-" in stdout  # tablet-side span in the trace
    assert "tablet.rpc.writes{tablet=tablet-0}" in stdout
