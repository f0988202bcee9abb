"""``tools/profile.py`` runs end to end and prints its splits.

Smoke runs at a tiny ``--rounds``: ``--path put`` prints the profile,
the unprofiled µs per put (in memory and with the WAL) and one line per
step of a put; ``--path wire`` prints the per-thread tables, the pair
segment's line and the warm per-boundary split of a read; ``--path
scan`` prints the storage scans per read, each window's scan and fold
µs, and the memo ledger (values folded raw and summaries answered from
memos, for a key's first, second and later reads after a write).
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STEPS = ("check", "route", "leader apply", "binlog append",
         "follower catch-up", "the rest")


def test_put_path_smoke():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile.py"), "--path", "put",
         "--rounds", "40", "--top", "3"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = result.stdout.splitlines()
    assert any(line.startswith("=== put path, 40 operations")
               for line in lines)
    (head,) = [index for index, line in enumerate(lines)
               if re.match(r"=== put path — [\d.]+ us per put unprofiled, "
                           r"[\d.]+ us with the WAL", line)]
    split = [re.fullmatch(r"\s+(.+?)\s+-?[\d.]+ us", line)
             for line in lines[head + 1:head + 1 + len(STEPS)]]
    assert [match and match.group(1) for match in split] == list(STEPS)


BOUNDARIES = ("NameServer.request_batch", "FrontendServer(max_wait_ms=0)",
              "wire round trip")


def test_wire_path_smoke():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile.py"), "--path",
         "wire", "--rounds", "40"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = result.stdout.splitlines()
    assert any(line.startswith("=== wire path, wire_point, 40 reads (0 "
                               "wrong)") for line in lines)
    (pair,) = [match for match in (re.fullmatch(
        r"=== wire path, wire_point, pair: 2 connections x 40 ops \(0 "
        r"wrong\), (\d+) ops/s, ([\d.]+) server CPU-ms/op, mean batch "
        r"([\d.]+) ===", line) for line in lines) if match]
    assert int(pair.group(1)) > 0 and float(pair.group(2)) > 0
    assert 1.0 <= float(pair.group(3)) <= 2.0  # two closed loops
    (head,) = [index for index, line in enumerate(lines)
               if line == "=== wire path, warm split of 40 reads: median "
                          "us per read at each boundary ==="]
    split = [re.fullmatch(r"(.+?)\s+([\d.]+) us  \(\+-?[\d.]+\)", line)
             for line in lines[head + 1:head + 1 + len(BOUNDARIES)]]
    assert [match and match.group(1) for match in split] \
        == list(BOUNDARIES)
    assert all(float(match.group(2)) > 0 for match in split)


def test_scan_path_smoke():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile.py"), "--path",
         "scan", "--rounds", "30", "--top", "3"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = result.stdout.splitlines()
    (head,) = [index for index, line in enumerate(lines) if re.fullmatch(
        r"=== scan path — split of 30 traced reads: 1\.00 storage scans "
        r"per read, [\d.]+ us per read ===", line)]
    # The 200-row window is a cut of the 2,000-row window's scan.
    assert re.fullmatch(r"\s+wl\s+scan\s+[\d.]+ us \(\s*[\d.]+ in the "
                        r"tablet\)\s+fold\s+[\d.]+ us", lines[head + 1])
    assert re.fullmatch(r"\s+ws\s+cut from wl\s+fold\s+[\d.]+ us",
                        lines[head + 2])
    # The memo ledger: a key's first read after a write folds its tail
    # and edges raw; the repeats answer them from memos.
    assert re.fullmatch(r"=== scan path — memo ledger: \d+ writes a key, "
                        r"each followed by \d+ reads; per read ===",
                        lines[head + 3])
    ledger = [re.fullmatch(
        r"\s+(first read after a write|second read|each later read)\s+"
        r"([\d.]+) values folded raw, summaries from a memo: tail "
        r"([\d.]+), cut ([\d.]+), sealed ([\d.]+); \s*[\d.]+ us", line)
        for line in lines[head + 4:head + 7]]
    assert [match and match.group(1) for match in ledger] \
        == ["first read after a write", "second read", "each later read"]
    first, second, later = ([float(value) for value in match.groups()[1:]]
                            for match in ledger)
    # raw values, then summaries from the tail, cut and sealed memos
    assert first[1] == first[2] == 0 and first[3] > 0
    assert second[1] == 0 and second[3] > 0
    assert later[1] > 0 and later[2] > 0 and later[3] > 0
    assert later[0] < first[0] / 100
    assert re.fullmatch(r"=== scan path — p50 \d+ us over 30 unprofiled "
                        r"operations ===", lines[-1])
