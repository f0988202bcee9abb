"""SLO-driven closed-loop benchmark — highest sustained QPS in budget.

The operator's question: how much bid-request traffic can the serving
path sustain while p99 stays inside a fixed latency budget?  Paced
clients offer a *target* rate (latency measured from scheduled start,
so backlog is charged to the system — the coordinated-omission
correction), and :func:`~repro.bench.slo_search` ramps then binary
searches the highest rate that still meets the SLO.

The backend is the full serving stack from PR 3: a simulated cluster
behind a :class:`~repro.serving.FrontendServer` whose
``default_timeout_ms`` equals the budget, so past saturation requests
shed typed errors (``OverloadError`` / ``DeadlineExceededError``)
instead of queueing — the search reads the error rate as "over
capacity" rather than waiting for the tail to blow out.

Recorded as ``fig_slo`` in ``BENCH_online.json``.
"""

from __future__ import annotations

import pytest

from _util import record_bench
from repro.bench import slo_search
from repro.cluster import NameServer, TabletServer
from repro.serving import FrontendServer
from repro.workloads import adctr

BUDGET_P99_MS = 50.0

CONFIG = adctr.AdCTRConfig(campaigns=120, heavy_hitters=4,
                           hot_fraction=0.7, events=6_000)


@pytest.fixture(scope="module")
def ctr_cluster():
    cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(2)])
    cluster.create_table(adctr.TABLE, adctr.SCHEMA, [adctr.INDEX],
                         partitions=2, replicas=1)
    for row in adctr.generate_impressions(CONFIG):
        cluster.put(adctr.TABLE, row)
    cluster.deploy("ctr", adctr.feature_sql())
    yield cluster
    cluster.close()


@pytest.mark.benchmark(group="fig_slo")
def test_fig_slo_sustained_qps(benchmark, ctr_cluster):
    requests = list(adctr.generate_requests(CONFIG, requests=512))

    with FrontendServer(ctr_cluster, max_batch=8,
                        max_wait_ms=0.5, max_queue=64,
                        default_timeout_ms=BUDGET_P99_MS) as frontend:
        report = slo_search(
            lambda context, index: frontend.request(
                "ctr", requests[index % len(requests)]),
            budget_p99_ms=BUDGET_P99_MS, clients=4, duration=0.4,
            start_qps=50.0, growth=2.0, refine_rounds=2,
            max_steps=8)

    print(f"\nSLO search (p99 budget {BUDGET_P99_MS:g} ms):")
    for step in report.steps:
        print(f"  target {step.target_qps:8,.0f} qps -> achieved "
              f"{step.achieved_qps:8,.0f}, p99 {step.p99_ms:8.2f} ms, "
              f"errors {step.error_rate:6.1%}  "
              f"[{'MET' if step.met else step.reason}]")

    best = report.best
    assert best is not None, \
        f"no rung met the SLO: {[s.reason for s in report.steps]}"
    assert report.sustained_qps > 25.0
    # The search must have found the edge, not just run out of steps.
    assert any(not step.met for step in report.steps)
    print(f"  sustained: {report.sustained_qps:,.0f} qps inside "
          f"{BUDGET_P99_MS:g} ms")

    benchmark.extra_info["sustained_qps"] = report.sustained_qps
    benchmark.extra_info["budget_p99_ms"] = BUDGET_P99_MS
    record_bench("fig_slo", sustained_qps=report.sustained_qps,
                 budget_p99_ms=BUDGET_P99_MS,
                 best_target_qps=best.target_qps,
                 best_p99_ms=best.p99_ms, steps=len(report.steps))
    benchmark.pedantic(ctr_cluster.request, args=("ctr", requests[0]),
                       rounds=10, iterations=1)
