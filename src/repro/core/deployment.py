"""Deployments: compiled feature scripts bound to online serving.

A deployment is the unit the paper's Figure 3 pushes from development to
production: a SELECT compiled once, plus serving options — most notably
``OPTIONS(long_windows="w1:1d")``, the paper's long-window
pre-aggregation (Section 5.1, Figure 11) for the named windows.

Here storage is the pre-aggregator: every key's history is kept as
sealed blocks and 16-block spans that memoize their reductions
(:mod:`repro.storage.skiplist`), so any long window folds summaries
and two raw edges, on every host, with no backfill at deploy.  Every
window — long or not — is served the same way: a block scan plus the
window fold.  ``long_windows`` is still validated, since it is outside
input: the named windows must exist, use a ``ROWS_RANGE`` frame, and
read only their own table (no ``WINDOW UNION``, no
``INSTANCE_NOT_IN_WINDOW``).  It does not change which path serves a
window, and the bucket width is unused.

One body, two hosts.  :class:`~repro.core.database.OpenMLDB` (local
tables) and :class:`~repro.cluster.nameserver.NameServer` (routed
partitions) both inherit :class:`DeploymentHost`, so ``deploy`` /
``undeploy`` / ``request`` / ``request_row`` / ``request_batch`` /
``describe_deployment`` are written once, here.  The
:class:`Deployment` owns the three steps — :meth:`Deployment.build`
(parse, compile, index check), :meth:`Deployment.serve` (the one
serving call of ``OnlineEngine.execute_request``) and
:meth:`Deployment.describe` — and a host says only what differs: its
tables and engine, and its series names.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import (DeploymentError, DeploymentNotFoundError,
                      OpenMLDBError, ParseError)
from ..schema import Row
from ..serving.deadline import Deadline, deadline_scope
from ..serving.describe import DeploymentDescriptor
from ..sql import ast
from ..sql.compiler import CompiledQuery, explain, index_access_paths
from ..sql.parser import parse

__all__ = ["Deployment", "DeploymentHost", "LongWindowOption",
           "parse_long_windows"]

_UNIT_MS = {"s": 1_000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}


@dataclasses.dataclass(frozen=True)
class LongWindowOption:
    """One entry of ``OPTIONS(long_windows="w1:1d,w2:1h")``."""

    window: str
    bucket_ms: int


def parse_long_windows(option: str) -> Tuple[LongWindowOption, ...]:
    """Parse the ``long_windows`` deployment option string.

    ``"w1:1d,w2:1h"`` → two options with day/hour base buckets.
    """
    parsed: List[LongWindowOption] = []
    for piece in option.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            window, bucket = piece.split(":")
            if not window.strip():
                raise ValueError("empty window name")
            unit = bucket[-1]
            count = int(bucket[:-1])
            unit_ms = _UNIT_MS[unit]
        except (ValueError, KeyError, IndexError):
            raise DeploymentError(
                f"malformed long_windows entry {piece!r}; expected "
                "'<window>:<n><s|m|h|d>'") from None
        if count < 1:
            raise DeploymentError(
                f"long_windows entry {piece!r}: bucket count must be "
                ">= 1")
        parsed.append(LongWindowOption(window=window.strip(),
                                       bucket_ms=count * unit_ms))
    if not parsed:
        raise DeploymentError("long_windows option is empty")
    return tuple(parsed)


@dataclasses.dataclass
class Deployment:
    """One deployed feature script.

    Attributes:
        name: deployment name (``DEPLOY name ...``).
        sql: original SQL text (for introspection/EXPLAIN).
        compiled: the compiled plan executed per request.
        long_windows: parsed long-window options, empty when disabled
            (validated; every window is served by the storage fold).
    """

    name: str
    sql: str
    compiled: CompiledQuery
    long_windows: Tuple[LongWindowOption, ...] = ()
    #: The host this deployment serves through (set by :meth:`build`).
    _host: Optional["DeploymentHost"] = dataclasses.field(
        default=None, repr=False, compare=False)

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
        :class:`~repro.errors.PlanError` — never per request.  So is a
        ``long_windows`` entry naming a window that is not a plain
        ``ROWS_RANGE`` window of the script, and a script with two
        output columns of one name: a served row is a name → value
        mapping, so the later would hide the earlier.
        """
        statement = parse(sql)
        if isinstance(statement, ast.SelectStatement):
            statement = ast.DeployStatement(name=name, select=statement)
        elif not isinstance(statement, ast.DeployStatement):
            raise DeploymentError("deploy() expects a SELECT or DEPLOY")
        option = long_windows or statement.option("long_windows")
        compiled, indexes = host._compile(statement.select)
        index_access_paths(compiled.plan, indexes)
        names = compiled.output_names
        for position, column in enumerate(names):
            if column in names[:position]:
                raise DeploymentError(
                    f"output column {column!r} appears more than once; "
                    "give each an alias (AS)")
        options = parse_long_windows(option) if option else ()
        for entry in options:
            window = compiled.windows.get(entry.window)
            if window is None:
                raise DeploymentError(
                    f"long_windows references unknown window "
                    f"{entry.window!r}")
            if not window.plan.is_range_frame:
                raise DeploymentError(
                    f"long_windows window {entry.window!r} must use a "
                    "ROWS_RANGE frame")
            if window.plan.union_tables:
                raise DeploymentError(
                    "long windows over WINDOW UNION are not supported; "
                    "drop the union or the long_windows option")
            if window.plan.instance_not_in_window:
                raise DeploymentError(
                    "a long window aggregates instance-table rows, which "
                    "INSTANCE_NOT_IN_WINDOW excludes")
        return cls(name=statement.name, sql=sql, compiled=compiled,
                   long_windows=options, _host=host)

    # ------------------------------------------------------------------
    # serve / describe

    def serve(self, row: Sequence[Any],
              deadline: Optional[Deadline] = None) -> Row:
        """Answer one request tuple: the one serving call site of
        ``OnlineEngine.execute_request``.

        Runs under ``deadline`` (None keeps any ambient one) and the
        ``deployment.execute`` root span; the host's request histogram
        observes failed requests too.
        """
        host = self._host
        if host._m_requests is not None:
            host._m_requests.inc()
        start = time.perf_counter()
        try:
            with deadline_scope(deadline), host._obs.tracer.span(
                    "deployment.execute", deployment=self.name):
                return host._engine.execute_request(self.compiled, row)
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
            requests_series: Optional[str] = None) -> None:
        """Declare what this host deploys against and reports to.

        ``tables`` is what ``engine`` reads (``MemTable``/``DiskTable``
        or routed cluster views) and ``cache`` the compilation cache.
        ``latency_series`` observes every request, failed ones
        included; ``requests_series`` optionally counts attempts.
        """
        self._deployments: Dict[str, Deployment] = {}
        self._serving_tables = tables
        self._engine = engine
        self._compile_cache = cache
        self._obs = obs
        self._h_request = obs.registry.histogram(latency_series)
        self._m_requests = obs.registry.counter(requests_series) \
            if requests_series else None

    def _check_open(self) -> None:
        """Raise if the host stopped serving (hosts that close override)."""

    def _compile(self, statement: ast.SelectStatement
                 ) -> Tuple[CompiledQuery, Dict[str, Any]]:
        """``statement`` compiled, through the cache, against the tables
        this host serves — and those tables' indexes."""
        tables = self._serving_tables
        compiled = self._compile_cache.get_or_compile(
            statement, {table: view.schema for table, view in tables.items()})
        return compiled, {table: view.indexes
                          for table, view in tables.items()}

    def explain(self, sql: str) -> str:
        """EXPLAIN a SELECT: the compiled query both engines run
        (:func:`repro.sql.compiler.explain`), compiled as a deploy
        compiles it — so deploying the script next is a cache hit, and
        an index a deploy would reject shows as ``none``."""
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ParseError("explain expects a SELECT")
        return explain(*self._compile(statement))

    def deploy(self, name: str, sql: str,
               long_windows: Optional[str] = None) -> Deployment:
        """Compile and deploy a feature script for online serving.

        ``long_windows`` takes the same string as the SQL OPTIONS form,
        e.g. ``"w1:1d"`` (Figure 11).  Deploying keeps no state beside
        the plan: every window is answered per request by a block scan
        and the window fold over storage summaries.
        """
        self._check_open()
        deployment = Deployment.build(self, name, sql, long_windows)
        if deployment.name in self._deployments:
            raise DeploymentError(
                f"deployment {deployment.name!r} already exists")
        self._deployments[deployment.name] = deployment
        return deployment

    def undeploy(self, name: str) -> None:
        """Remove a deployment."""
        self._check_open()
        self._deployment(name)  # DeploymentNotFoundError if unknown
        del self._deployments[name]

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
        ``deployment.execute_batch`` span — a root of its own, even on a
        thread inside another span — in the order given (the serving
        frontend hands them over as admitted), each a request of its
        own.  ``deadlines`` is an optional parallel list of
        :class:`~repro.serving.Deadline` budgets.

        Per-row failures do not poison the batch: the returned list is
        parallel to ``rows`` and each element is either the feature
        dict or the :class:`~repro.errors.OpenMLDBError` that request
        raised.  Programming errors propagate.
        """
        self._check_open()
        deployment = self._deployment(name)
        names = deployment.compiled.output_names
        outcomes: List[Any] = []
        with self._obs.tracer.root("deployment.execute_batch",
                                   deployment=name, batch=len(rows)):
            for index, row in enumerate(rows):
                try:
                    outcome: Any = dict(zip(names, deployment.serve(
                        row, deadlines[index] if deadlines else None)))
                except OpenMLDBError as exc:
                    outcome = exc
                outcomes.append(outcome)
        return outcomes
