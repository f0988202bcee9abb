PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint verify verify-docs bench bench-smoke bench-selftest \
	smoke examples profile loc

test:
	$(PYTHON) -m pytest -x -q

# Prefer ruff when the environment has it; otherwise fall back to the
# stdlib AST linter (same rule family: F401/E722/E711/E712).  The
# repo-level sweeps (DOC001 doc references, AGG001 aggregate merges,
# DEAD001 test-only definitions) are not ruff rules, so they run in both
# branches (tools/lint.py runs them implicitly alongside the AST rules).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks && \
		$(PYTHON) tools/lint.py --docs; \
	else \
		echo "ruff not found; using tools/lint.py fallback"; \
		$(PYTHON) tools/lint.py src tests benchmarks; \
	fi

verify: lint test bench-smoke bench-selftest

# Extract and execute every fenced python block in README.md and
# docs/*.md — documentation code must actually run.
verify-docs:
	$(PYTHON) -m pytest -q -m docs tests/test_docs_snippets.py

bench:
	$(PYTHON) -m pytest benchmarks -q

# One quick benchmark as a smoke gate: catches a serving-path
# regression (or a broken benchmark harness) without the full sweep.
# --benchmark-disable keeps the gate from rewriting BENCH_online.json;
# `make bench` records.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_fig_serving_throughput.py -q \
		--benchmark-disable

# perfbench's own self-test (about a minute): its catalog check fails
# when a src/ change stops emitting a series the benchmark reads.
bench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

# Quick pre-push gate: every test named *smoke* — crash/restart
# recovery, offline carried partials and spill, split -> migrate ->
# rebalance under traffic, the paced-load SLO search and the streaming
# train/serve skew check.
# `test` runs them too; this is the quick subset.
smoke:
	$(PYTHON) -m pytest -q -k smoke

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

# Where a request's time goes: cProfile over a canned fig6-style
# workload.  The default `--path fused` profiles the request path on
# a local engine; `--path cluster` profiles the served path (3 tablets,
# NameServer.request_batch); `--path scan` the served path on the
# perfbench scan_heavy shape (long windows, NameServer.request), with
# the unprofiled read p50 beside the profile; `--path long` Figure 11's
# 86,000-row double key deployed with long_windows, printing the p50 of
# the summary fold, of the same fold with no summaries, and the
# summaries read per request;
# `--path put --rounds 20000` profiles the write path instead (INSERT
# parse + NameServer.put with a WAL, on the perfbench table shape) and
# prints the unprofiled us per put and its split by step;
# `--path wire --rounds 5000` serves perfbench's wire_point over pg-wire
# and prints the server's CPU per read and per write thread by thread,
# and the context switches per op of server and generator (one CPU, one
# connection: it cannot show savings from overlap); `--path rss --top 8`
# loads each perfbench workload's preload into a NameServer in a child
# process and prints its RSS after the load, the share of rows in sealed
# blocks and the top tracemalloc lines in bytes per row (the footprint
# ledger), then builds perfbench's own server Stack in a second child
# that imports only what perfbench/server.py imports and prints its RSS
# (what perfbench's server_rss_mb reads), its module count and whether
# asyncio and hashlib are loaded.
profile:
	$(PYTHON) tools/profile.py

# The per-package line counts DESIGN.md §5 quotes, then the src/ total.
loc:
	@for d in src/repro/*/ src; do echo "$$(find $$d -name '*.py' | xargs cat | wc -l) $$d"; done
