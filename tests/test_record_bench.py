"""``record_bench`` rewrites its own figure's entry and no other byte."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture()
def util(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_util", ROOT / "benchmarks" / "_util.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BENCH_RESULTS_PATH",
                        tmp_path / "BENCH_online.json")
    monkeypatch.setattr(module, "_recording", True)
    monkeypatch.setattr(module, "_result_guard", None)
    return module


# Hand-written entries: keys out of order, nested objects, a list.
LEDGER = """{
  "fig_a": {
    "z_ms": 1.5,
    "a_ms": 2.0
  },
  "pr9_ledger": {
    "claim": "write_p50_ms",
    "pairs": [1, 2, 3],
    "medians": {"parent": 0.134, "change": 0.102}
  },
  "fig_b": {"only": 1}
}
"""


def test_one_figure_rewrites_only_its_entry(util):
    util.BENCH_RESULTS_PATH.write_text(LEDGER)
    util.record_bench("fig_a", a_ms=3.25, new_ms=0.1234567)
    text = util.BENCH_RESULTS_PATH.read_text()
    start = LEDGER.index('"pr9_ledger"')
    assert text.endswith(LEDGER[start - 2:])  # everything after fig_a
    assert text.startswith('{\n  "fig_a": {\n    "z_ms": 1.5,\n'
                           '    "a_ms": 3.25,\n    "new_ms": 0.123457\n'
                           '  },\n')
    assert json.loads(text)["fig_a"] == {"z_ms": 1.5, "a_ms": 3.25,
                                         "new_ms": 0.123457}


def test_a_new_figure_is_added_last(util):
    util.BENCH_RESULTS_PATH.write_text(LEDGER)
    util.record_bench("fig_c", qps=10)
    text = util.BENCH_RESULTS_PATH.read_text()
    head = LEDGER[:LEDGER.rindex("}", 0, -2) + 1]
    assert text == head + ',\n  "fig_c": {\n    "qps": 10\n  }\n}\n'
    assert list(json.loads(text)) == ["fig_a", "pr9_ledger", "fig_b",
                                      "fig_c"]


def test_an_empty_or_missing_file_starts_the_object(util):
    util.record_bench("fig_a", x=1)
    assert json.loads(util.BENCH_RESULTS_PATH.read_text()) \
        == {"fig_a": {"x": 1}}
    util.BENCH_RESULTS_PATH.write_text("{}\n")
    util.record_bench("fig_a", x=2)
    assert json.loads(util.BENCH_RESULTS_PATH.read_text()) \
        == {"fig_a": {"x": 2}}


def _without_entry(text, name):
    """``text``'s lines with top-level entry ``name``'s lines dropped."""
    lines = text.splitlines()
    start = lines.index(f'  "{name}": {{')
    end = next(index for index in range(start, len(lines))
               if lines[index] in ("  },", "  }"))
    return lines[:start] + lines[end + 1:]


def test_the_checked_in_ledger_keeps_every_other_entry(util):
    original = (ROOT / "BENCH_online.json").read_text()
    util.BENCH_RESULTS_PATH.write_text(original)
    util.record_bench("fig13_skew", skew4_seconds=0.5)
    text = util.BENCH_RESULTS_PATH.read_text()
    before, after = json.loads(original), json.loads(text)
    assert list(after) == list(before)
    assert after["fig13_skew"] == dict(before["fig13_skew"],
                                       skew4_seconds=0.5)
    assert _without_entry(text, "fig13_skew") \
        == _without_entry(original, "fig13_skew")
