"""Deployments: compiled feature scripts bound to online serving.

A deployment is the unit the paper's Figure 3 pushes from development to
production: a SELECT compiled once, plus serving options — most notably
``OPTIONS(long_windows="w1:1d")``, which turns on long-window
pre-aggregation (Section 5.1, Figure 11) for the named windows.

Deploying with long windows:

1. verifies the windows exist and use time-range frames;
2. creates one :class:`~repro.online.preagg.PreAggregator` per *mergeable*
   aggregate bound to those windows (non-mergeable aggregates keep the
   raw-scan path — correctness never depends on pre-aggregation);
3. **backfills** the aggregators from existing table data (the paper's
   "slightly higher data loading overhead");
4. registers an ``update_aggr`` binlog closure so subsequent inserts
   maintain the aggregators asynchronously.

One body, two hosts.  :class:`~repro.core.database.OpenMLDB` (local
tables) and :class:`~repro.cluster.nameserver.NameServer` (routed
partitions) both inherit :class:`DeploymentHost`, so ``deploy`` /
``undeploy`` / ``request`` / ``request_row`` / ``request_batch`` /
``describe_deployment`` are written once, here.  The
:class:`Deployment` owns the three steps — :meth:`Deployment.build`
(parse, compile, index check), :meth:`Deployment.serve` (the one
serving call of ``OnlineEngine.execute_request``) and
:meth:`Deployment.describe` — and a host says only what differs: its
tables and engine, its series names, and whether it has an ingest hook.
"""

from __future__ import annotations

import dataclasses
import time
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import (DeploymentError, DeploymentNotFoundError,
                      OpenMLDBError)
from ..schema import Row
from ..serving.deadline import Deadline, deadline_scope
from ..serving.describe import DeploymentDescriptor
from ..sql import ast
from ..sql.compiler import CompiledQuery
from ..sql.optimizer import index_access_paths
from ..sql.parser import parse
from ..storage.memtable import normalize_ts
from ..online.binlog import IngestConsumer
from ..online.incremental import IncrementalWindowState
from ..online.preagg import (LongWindowOption, PreAggregator,
                             parse_long_windows)

__all__ = ["Deployment", "DeploymentHost"]


@dataclasses.dataclass
class Deployment:
    """One deployed feature script.

    Attributes:
        name: deployment name (``DEPLOY name ...``).
        sql: original SQL text (for introspection/EXPLAIN).
        compiled: the compiled plan executed per request.
        long_windows: parsed long-window options, empty when disabled.
        preaggs: window name → {aggregate slot → PreAggregator}; the
            online engine answers these slots from pre-aggregation.
        incrementals: canonical window name → ingest-time running window
            state (Section 5.2); the online engine answers whole windows
            from these on warm keys, falling back to scans otherwise.
        backfill_seconds: measured aggregator backfill cost at deploy time.
    """

    name: str
    sql: str
    compiled: CompiledQuery
    long_windows: Tuple[LongWindowOption, ...] = ()
    preaggs: Dict[str, Dict[int, PreAggregator]] = dataclasses.field(
        default_factory=dict)
    incrementals: Dict[str, IncrementalWindowState] = dataclasses.field(
        default_factory=dict)
    backfill_seconds: float = 0.0
    #: The host this deployment serves through (set by :meth:`build`).
    _host: Optional["DeploymentHost"] = dataclasses.field(
        default=None, repr=False, compare=False)
    #: Every live ingest consumer → the closure registered for it in the
    #: host's ingest hook; :meth:`retire` undoes the registrations.
    _closures: Dict[IngestConsumer, Callable] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # build

    @classmethod
    def build(cls, host: "DeploymentHost", name: str, sql: str,
              long_windows: Optional[str] = None) -> "Deployment":
        """Parse and compile ``sql`` against the host's tables.

        A ``SELECT`` deploys as ``name``, a ``DEPLOY`` statement under
        its own; ``long_windows`` is the SQL ``OPTIONS`` form.  The plan
        comes from the host's compilation cache, then Section 4.2's
        index optimisation applies: a window or join no declared index
        serves is rejected here, at deploy time, with
        :class:`~repro.errors.PlanError` — never per request.
        """
        statement = parse(sql)
        if isinstance(statement, ast.SelectStatement):
            statement = ast.DeployStatement(name=name, select=statement)
        elif not isinstance(statement, ast.DeployStatement):
            raise DeploymentError("deploy() expects a SELECT or DEPLOY")
        option = long_windows or statement.option("long_windows")
        tables = host._serving_tables
        compiled = host._compile_cache.get_or_compile(
            statement.select,
            {table: view.schema for table, view in tables.items()})
        index_access_paths(compiled.plan, {
            table: list(view.indexes) for table, view in tables.items()})
        return cls(name=statement.name, sql=sql, compiled=compiled,
                   long_windows=parse_long_windows(option) if option
                   else (), _host=host)

    # ------------------------------------------------------------------
    # serve / describe

    def serve(self, row: Sequence[Any], deadline: Optional[Deadline] = None,
              shared_fetch: Optional[Dict[Any, Any]] = None) -> Row:
        """Answer one request tuple: the one serving call site of
        ``OnlineEngine.execute_request``.

        Runs under ``deadline`` (None keeps any ambient one) and the
        ``deployment.execute`` root span; the host's request histogram
        observes failed requests too.  ``shared_fetch`` is the
        per-batch window scan cache of :meth:`DeploymentHost.request_batch`.
        """
        host = self._host
        if host._m_requests is not None:
            host._m_requests.inc()
        start = time.perf_counter()
        try:
            with deadline_scope(deadline), host._obs.tracer.span(
                    "deployment.execute", deployment=self.name):
                return host._engine.execute_request(
                    self.compiled, row, preagg=self.preaggs or None,
                    shared_fetch=shared_fetch,
                    incremental=self.incrementals or None)
        finally:
            host._h_request.observe((time.perf_counter() - start) * 1_000)

    def describe(self) -> DeploymentDescriptor:
        """The request-tuple schema (the primary table's) and the
        feature column names — what a network frontend needs to coerce
        wire parameters and describe result sets before executing."""
        plan = self.compiled.plan
        return DeploymentDescriptor(
            name=self.name, table=plan.table,
            input_schema=plan.table_schema,
            output_names=tuple(self.compiled.output_names))

    # ------------------------------------------------------------------
    # ingest consumers

    def attach_ingest(self) -> None:
        """Create, backfill and register the ingest-maintained state.

        Long-window pre-aggregators first, then incremental window
        state.  A host with no ingest hook (the cluster, until
        consumers attach at the partition leader's binlog) serves by
        scan-fold only and refuses ``long_windows``, which needs one.
        """
        host = self._host
        if host._updaters is None:
            if self.long_windows:
                raise DeploymentError(
                    f"deployment {self.name!r}: long_windows need "
                    f"ingest-maintained state, which "
                    f"{type(host).__name__} cannot maintain yet")
            return
        self._initialize_preagg()
        self._initialize_incremental()

    @property
    def _table(self) -> Any:
        """The primary table, as the host's engine reads it."""
        return self._host._serving_tables[self.compiled.plan.table]

    def _attach(self, consumer: IngestConsumer) -> None:
        closure = self._closures[consumer] = consumer.make_update_closure()
        self._host._updaters.setdefault(
            self.compiled.plan.table, []).append(closure)

    def retire(self) -> None:
        """Undeploy: retire every consumer, drop its closure from the
        host's ingest hook (in place: an insert snapshots the list it
        runs) and drop the incremental states' TTL-eviction
        subscriptions."""
        for consumer, closure in self._closures.items():
            consumer.retire()
            self._host._updaters[self.compiled.plan.table].remove(closure)
        self._closures.clear()
        for state in self.incrementals.values():
            self._table.unsubscribe_eviction(state.on_ttl_evict)

    def _initialize_preagg(self) -> None:
        """Create, backfill, and wire the long-window pre-aggregators:
        one per *mergeable* aggregate of each named window (the others
        stay on the raw-scan path)."""
        started = time.perf_counter()
        table = self._table
        obs = self._host._obs
        for option in self.long_windows:
            window = self.compiled.windows.get(option.window)
            if window is None:
                raise DeploymentError(
                    f"long_windows references unknown window "
                    f"{option.window!r}")
            plan = window.plan
            if not plan.is_range_frame:
                raise DeploymentError(
                    f"long_windows window {option.window!r} must use a "
                    "ROWS_RANGE frame")
            if plan.union_tables:
                raise DeploymentError(
                    "long-window pre-aggregation over WINDOW UNION is not "
                    "supported; drop the union or the long_windows option")
            if plan.instance_not_in_window:
                raise DeploymentError(
                    "long-window pre-aggregation aggregates instance-table "
                    "rows, which INSTANCE_NOT_IN_WINDOW excludes")

            def ts_fn(row: Row, position: int = window.order_position
                      ) -> int:
                return normalize_ts(row[position])

            rows = list(table.rows())
            slot_map: Dict[int, PreAggregator] = {}
            for compiled_agg in window.preaggregable:
                aggregator = slot_map[compiled_agg.slot] = PreAggregator(
                    compiled_agg.function,
                    arg_fn=compiled_agg.arg_fn, key_fn=window.partition_key,
                    ts_fn=ts_fn, bucket_ms=option.bucket_ms)
                if obs.enabled:
                    # Absorbed-row / query / bucket-merge counters.
                    aggregator.bind_obs(obs)
                aggregator.backfill(rows)
            for aggregator in slot_map.values():
                self._attach(aggregator)
            if slot_map:
                self.preaggs[option.window] = slot_map
        self.backfill_seconds = time.perf_counter() - started

    def _initialize_incremental(self) -> None:
        """Create, backfill, and wire ingest-time window state.

        Every *eligible* window gets a per-key running aggregate state
        maintained from the binlog (Section 5.2 applied at ingest time):
        no WINDOW UNION, no INSTANCE_NOT_IN_WINDOW, all aggregates
        invertible and order-insensitive, and a primary table whose TTL
        eviction can be mirrored (memory tables).  Windows already
        served by long-window pre-aggregation keep that path.  Anything
        ineligible silently stays on the scan-fold path — incremental
        state is an accelerator, never a semantics change.
        """
        table = self._table
        if not hasattr(table, "subscribe_eviction"):
            return
        for name, window in self.compiled.windows.items():
            if not window.aggregates or name in self.preaggs:
                continue
            state = IncrementalWindowState.for_window(
                window, self._host._serving_tables,
                self.compiled.plan.table)
            if state is None:
                continue
            state.backfill(table.rows())
            self._attach(state)
            table.subscribe_eviction(state.on_ttl_evict)
            self.incrementals[name] = state

    @property
    def uses_incremental(self) -> bool:
        return bool(self.incrementals)

    @property
    def uses_preagg(self) -> bool:
        return bool(self.preaggs)

    def preagg_stats(self) -> Dict[str, Dict[int, int]]:
        """rows absorbed per (window, slot) — observability for Fig. 11."""
        return {
            window: {slot: aggregator.rows_absorbed
                     for slot, aggregator in slots.items()}
            for window, slots in self.preaggs.items()
        }


class DeploymentHost:
    """The deploy → request → undeploy lifecycle, written once.

    :class:`~repro.core.database.OpenMLDB` and
    :class:`~repro.cluster.nameserver.NameServer` inherit every method
    below; each calls :meth:`_host_deployments` from its constructor
    to hand in the only things that differ between them.
    """

    def _host_deployments(
            self, tables: Mapping[str, Any], engine: Any, cache: Any,
            obs: Any, latency_series: str,
            requests_series: Optional[str] = None,
            updaters: Optional[Dict[str, List[Callable]]] = None) -> None:
        """Declare what this host deploys against and reports to.

        ``tables`` is what ``engine`` reads (``MemTable``/``DiskTable``
        or routed cluster views) and ``cache`` the compilation cache.
        ``latency_series`` observes every request, failed ones
        included; ``requests_series`` optionally counts attempts.
        ``updaters`` is the ingest hook — table name → closures every
        insert runs, where deployments register pre-aggregators and
        incremental states; ``None`` means the host maintains no
        ingest-time state.
        """
        self._deployments: Dict[str, Deployment] = {}
        self._serving_tables = tables
        self._engine = engine
        self._compile_cache = cache
        self._obs = obs
        self._h_request = obs.registry.histogram(latency_series)
        self._m_requests = obs.registry.counter(requests_series) \
            if requests_series else None
        self._updaters = updaters

    def _check_open(self) -> None:
        """Raise if the host stopped serving (hosts that close override)."""

    def deploy(self, name: str, sql: str,
               long_windows: Optional[str] = None) -> Deployment:
        """Compile and deploy a feature script for online serving.

        ``long_windows`` takes the same string as the SQL OPTIONS form,
        e.g. ``"w1:1d"`` (Figure 11).  Each window's tier is decided
        here, once, from the plan: pre-aggregation for the named long
        windows, ingest-time incremental state for the windows
        ``CompiledWindow.incremental_eligible`` admits, the scan-fold
        for the rest.
        """
        self._check_open()
        deployment = Deployment.build(self, name, sql, long_windows)
        if deployment.name in self._deployments:
            raise DeploymentError(
                f"deployment {deployment.name!r} already exists")
        try:
            deployment.attach_ingest()
        except BaseException:
            deployment.retire()  # consumers registered before the failure
            raise
        self._deployments[deployment.name] = deployment
        return deployment

    def undeploy(self, name: str) -> None:
        """Remove a deployment and retire its ingest consumers."""
        self._check_open()
        deployment = self._deployment(name)
        del self._deployments[name]
        deployment.retire()

    def _deployment(self, name: str) -> Deployment:
        try:
            return self._deployments[name]
        except KeyError:
            raise DeploymentNotFoundError(name) from None

    def describe_deployment(self, name: str) -> DeploymentDescriptor:
        """Introspect a deployment (see :meth:`Deployment.describe`)."""
        self._check_open()
        return self._deployment(name).describe()

    def request_row(self, name: str, row: Sequence[Any]) -> Row:
        """Like :meth:`request`, returning the raw feature tuple."""
        self._check_open()
        return self._deployment(name).serve(row)

    def request(self, name: str, row: Sequence[Any],
                timeout_ms: Optional[float] = None) -> Dict[str, Any]:
        """Online request mode: one tuple in, one feature dict out.

        Opens the ``deployment.execute`` root span.  On a cluster every
        storage read the engine makes is routed (with the trace
        context) to the partition's leader — one stitched trace across
        tablet servers — and a tablet failure mid-request surfaces as
        an ``rpc.retry`` span and a re-routed call, not a request
        error, as long as a failover candidate exists.

        ``timeout_ms`` gives the request a deadline budget: routed RPC
        timeouts are clamped to what is left of it and the request
        fails with :class:`~repro.errors.DeadlineExceededError` instead
        of running past it.  Without it, any ambient deadline (e.g. a
        :class:`~repro.serving.FrontendServer` worker's) applies.
        """
        self._check_open()
        deployment = self._deployment(name)
        deadline = Deadline.after(timeout_ms) \
            if timeout_ms is not None else None
        return dict(zip(deployment.compiled.output_names,
                        deployment.serve(row, deadline)))

    def request_batch(self, name: str, rows: Sequence[Sequence[Any]],
                      deadlines: Optional[Sequence[Any]] = None
                      ) -> List[Any]:
        """Execute a micro-batch of request tuples for one deployment.

        The batch path of the serving frontend: all rows run under one
        ``deployment.execute_batch`` span and share a per-batch window
        scan cache, so requests that resolve to the same (partition
        key, anchor ts) scan fetch rows once (hot keys under herd
        traffic).  On a cluster, order ``rows`` by partition (see
        ``NameServer.request_partition``) so consecutive requests
        route to the same leader.  ``deadlines`` is an optional
        parallel list of :class:`~repro.serving.Deadline` budgets.

        Per-row failures do not poison the batch: the returned list is
        parallel to ``rows`` and each element is either the feature
        dict or the :class:`~repro.errors.OpenMLDBError` that request
        raised.  Programming errors propagate.
        """
        self._check_open()
        deployment = self._deployment(name)
        names = deployment.compiled.output_names
        outcomes: List[Any] = []
        shared: Dict[Any, Any] = {}
        with self._obs.tracer.span("deployment.execute_batch",
                                   deployment=name, batch=len(rows)):
            for index, row in enumerate(rows):
                try:
                    outcome: Any = dict(zip(names, deployment.serve(
                        row, deadlines[index] if deadlines else None,
                        shared)))
                except OpenMLDBError as exc:
                    outcome = exc
                outcomes.append(outcome)
        return outcomes
