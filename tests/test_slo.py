"""Tests for the SLO-driven paced-load harness (repro.bench.slo)."""

import threading
import time

import pytest

from repro import OpenMLDB
from repro.bench import PacedResult, paced_loop, slo_search
from repro.workloads import adctr


class TestPacedLoop:
    def test_validation(self):
        noop = lambda context, index: None  # noqa: E731
        with pytest.raises(ValueError, match="at least one client"):
            paced_loop(0, 100.0, 0.1, noop)
        with pytest.raises(ValueError, match="must be positive"):
            paced_loop(2, 0.0, 0.1, noop)
        with pytest.raises(ValueError, match="must be positive"):
            paced_loop(2, 100.0, 0.0, noop)

    def test_holds_the_target_rate(self):
        result = paced_loop(4, 200.0, 0.5,
                            lambda context, index: None)
        assert result.offered == result.completed == 100
        assert not result.errors and not result.timed_out
        # A no-op backend keeps the schedule: achieved ~= target.
        assert result.achieved_qps == pytest.approx(200.0, rel=0.25)
        # And scheduled-start latencies are tiny — no backlog built up.
        assert result.stats().tp99 < 50.0

    def test_coordinated_omission_charges_backlog_to_the_system(self):
        # One client, 10ms schedule, 30ms service time: the generator
        # falls further behind every request, and because latency is
        # measured from the *scheduled* start the backlog shows up as
        # linearly growing latency — not as a flat 30ms.
        result = paced_loop(1, 100.0, 0.2,
                            lambda context, index: time.sleep(0.03))
        assert result.completed == 20
        assert result.latencies[-1] > result.latencies[0] + 0.2
        assert result.stats().tp99 > 300.0   # ms; service time is 30ms
        # The schedule could not be held: achieved < target.
        assert result.achieved_qps < 50.0

    def test_failing_setup_aborts_immediately(self):
        started = time.perf_counter()

        def bad_setup(cid):
            raise RuntimeError(f"client {cid} cannot connect")

        result = paced_loop(4, 100.0, 5.0,
                            lambda context, index: None,
                            setup=bad_setup, join_timeout=60.0)
        # Not 5s of duration, not 60s of join_timeout: immediate.
        assert time.perf_counter() - started < 2.0
        assert not result.timed_out
        assert result.completed == 0
        assert len(result.errors) == 4
        assert all("cannot connect" in str(e) for e in result.errors)

    def test_teardown_runs_once_per_created_context(self):
        torn = []
        result = paced_loop(3, 60.0, 0.1,
                            lambda context, index: None,
                            setup=lambda cid: f"ctx{cid}",
                            teardown=torn.append)
        assert not result.errors
        assert sorted(torn) == ["ctx0", "ctx1", "ctx2"]

    def test_call_errors_recorded_not_fatal(self):
        def flaky(context, index):
            if index % 5 == 0:
                raise RuntimeError("shed")

        result = paced_loop(2, 100.0, 0.2, flaky)
        assert result.offered == 20
        assert result.completed == 16
        assert len(result.errors) == 4
        assert result.error_rate == pytest.approx(0.2)

    def test_achieved_qps_rejects_zero_wall(self):
        result = PacedResult(target_qps=10.0, offered=0, latencies=[],
                             errors=[], wall_seconds=0.0)
        with pytest.raises(ValueError, match="achieved_qps undefined"):
            result.achieved_qps


class TestSLOSearch:
    def test_validation(self):
        noop = lambda context, index: None  # noqa: E731
        with pytest.raises(ValueError, match="budget_p99_ms"):
            slo_search(noop, budget_p99_ms=0.0)
        with pytest.raises(ValueError, match="growth"):
            slo_search(noop, budget_p99_ms=10.0, growth=1.0)

    def test_finds_capacity_of_a_serial_backend(self):
        # A lock + 2ms sleep caps the backend near 500 QPS regardless
        # of client count; the search must land clearly below the cap
        # and clearly above the floor.
        lock = threading.Lock()

        def call(context, index):
            with lock:
                time.sleep(0.002)

        seen = []
        report = slo_search(call, budget_p99_ms=50.0, clients=4,
                            duration=0.3, start_qps=100.0, growth=2.0,
                            refine_rounds=2, max_steps=8,
                            on_step=seen.append)
        assert seen == report.steps          # on_step saw every rung
        assert any(not step.met for step in report.steps)
        best = report.best
        assert best is not None and best.met
        assert 80.0 < report.sustained_qps < 700.0
        # Every non-met step explains itself.
        for step in report.steps:
            assert step.met or step.reason != "ok"
            assert len(step.row()) == 5

    def test_max_qps_caps_the_ramp(self):
        report = slo_search(lambda context, index: None,
                            budget_p99_ms=100.0, clients=2,
                            duration=0.1, start_qps=50.0,
                            max_qps=100.0, max_steps=6)
        assert report.best is not None
        assert report.best.target_qps == 100.0
        assert max(step.target_qps for step in report.steps) <= 100.0

    def test_impossible_budget_reports_no_best(self):
        report = slo_search(lambda context, index: time.sleep(0.02),
                            budget_p99_ms=0.001, clients=1,
                            duration=0.1, start_qps=20.0, max_steps=2)
        assert report.best is None
        assert report.sustained_qps == 0.0
        assert all(not step.met for step in report.steps)


def test_slo_smoke_ctr_workload():
    """Tiny end-to-end SLO run over the ad CTR workload (make smoke)."""
    config = adctr.AdCTRConfig(campaigns=40, heavy_hitters=3,
                               events=1_500)
    db = OpenMLDB()
    db.create_table(adctr.TABLE, adctr.SCHEMA, indexes=[adctr.INDEX])
    db.deploy("ctr", adctr.feature_sql())
    for row in adctr.generate_impressions(config):
        db.insert(adctr.TABLE, row)
    requests = list(adctr.generate_requests(config, requests=256))
    try:
        report = slo_search(
            lambda context, index: db.request_row(
                "ctr", requests[index % len(requests)]),
            budget_p99_ms=100.0, clients=2, duration=0.25,
            start_qps=50.0, max_qps=400.0, refine_rounds=1,
            max_steps=5)
    finally:
        db.close()
    assert report.steps
    met = [step for step in report.steps if step.met]
    assert met, f"no rung met the SLO: {[s.reason for s in report.steps]}"
    assert report.sustained_qps > 0.0
