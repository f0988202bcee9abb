"""The OpenMLDB session facade: tables, SQL, deployments, execution modes.

:class:`OpenMLDB` ties every subsystem together the way the paper's
architecture diagram (Figure 2) does:

* DDL/DML — ``CREATE TABLE`` (with stream indexes + TTL), ``INSERT``;
* the **unified plan generator** — one parser/planner/compiler (with the
  compilation cache) feeding both engines;
* **online request mode** — ``deploy()`` then ``request()``: every
  window is a block scan folded over storage summaries, as on the
  cluster;
* **offline mode** — ``offline_query()`` batch execution with
  multi-window parallelism and skew resolving;
* **online preview mode** — ``preview()`` with complexity constraints and
  a result cache;
* memory governance — an optional per-database
  :class:`~repro.memory.governor.MemoryGovernor` making writes fail (but
  not reads) past ``max_memory_mb``.
"""

from __future__ import annotations

import os
import time
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import (ParseError, PlanError, SchemaError, StorageError,
                      TableExistsError, TableNotFoundError)
from ..schema import Column, IndexDef, Row, Schema, TTLKind, TTLSpec
from ..sql import ast
from ..sql.compiler import CompilationCache
from ..sql.parser import parse
from ..sql.planner import build_plan
from ..storage.disk import DiskTable
from ..storage.encoding import RowCodec
from ..storage.memtable import MemTable
from ..storage.persist import FileBinlog, RecoveryReport, SnapshotStore
from ..online.binlog import Replicator
from ..online.engine import OnlineEngine
from ..offline.engine import OfflineEngine, OfflineStats
from ..offline.skew import SkewConfig
from ..memory.governor import MemoryGovernor
from ..obs import NULL_OBS, Observability
from ..types import ColumnType
from .deployment import DeploymentHost
from .modes import PreviewConstraints

__all__ = ["OpenMLDB"]

_INTERVAL_UNITS_MS = {"s": 1_000, "m": 60_000, "h": 3_600_000,
                      "d": 86_400_000}


class OpenMLDB(DeploymentHost):
    """An embedded OpenMLDB instance.

    Args:
        offline_workers: simulated cluster width for batch execution.
        max_memory_mb: optional write limit (Section 8.2 isolation).
        observability: collect metrics and per-request trace spans
            (see :mod:`repro.obs`).  Off by default — the same request
            body runs either way; disabled, its spans and series are
            shared no-ops (a few no-op calls per request).
        data_dir: root directory for durability.  When set, inserts
            write through a file-backed binlog, :meth:`snapshot` pins
            table images, and a fresh instance over the same directory
            rebuilds its tables via :meth:`recover`.
        snapshot_retain: snapshot images kept per table before pruning.
    """

    def __init__(self, offline_workers: int = 8,
                 max_memory_mb: Optional[int] = None,
                 observability: bool = False,
                 data_dir: Optional[str] = None,
                 snapshot_retain: int = 2) -> None:
        self.obs = Observability(enabled=True) if observability \
            else NULL_OBS
        self.tables: Dict[str, Union[MemTable, DiskTable]] = {}
        self.replicator = Replicator()
        self.data_dir = data_dir
        self._snapshots: Optional[SnapshotStore] = None
        self._recovering = False
        if data_dir is not None:
            # Durability (Section 5 / 7.3): every insert's binlog entry
            # is written through to a segmented file WAL; snapshot()
            # pins table images; recover() rebuilds a fresh instance
            # from snapshot + binlog tail.
            self.replicator.attach_wal(FileBinlog(
                os.path.join(data_dir, "binlog"), obs=self.obs))
            self._snapshots = SnapshotStore(
                os.path.join(data_dir, "snapshots"),
                retain=snapshot_retain, obs=self.obs)
        self.compile_cache = CompilationCache(obs=self.obs)
        self.online_engine = OnlineEngine(self.tables, obs=self.obs)
        self.offline_engine = OfflineEngine(self.tables,
                                            workers=offline_workers,
                                            obs=self.obs)
        self.governor = MemoryGovernor("db", max_memory_mb=max_memory_mb)
        self._preview_cache: Dict[Tuple[str, int], List[Row]] = {}
        # Deploy/request/undeploy come from DeploymentHost; a single
        # node differs from the cluster only by serving its own tables.
        self._host_deployments(
            self.tables, self.online_engine, self.compile_cache, self.obs,
            latency_series="online.request.ms")
        self.deployments = self._deployments

    # ------------------------------------------------------------------
    # catalog / DDL

    def create_table(self, name: str, schema: Schema,
                     indexes: Optional[Sequence[IndexDef]] = None,
                     storage: str = "memory", replicas: int = 1,
                     flush_threshold: int = 4096
                     ) -> Union[MemTable, DiskTable]:
        """Create a table with stream indexes.

        With no explicit index, a default one is derived: the first
        string/int column as key, the first timestamp column as ts —
        mirroring OpenMLDB's automatic index creation.
        """
        if name in self.tables:
            raise TableExistsError(name)
        if indexes is None:
            indexes = [self._default_index(schema)]
        if storage == "memory":
            table: Union[MemTable, DiskTable] = MemTable(
                name, schema, indexes, replicas=replicas, obs=self.obs)
        elif storage == "disk":
            table = DiskTable(name, schema, indexes, replicas=replicas,
                              flush_threshold=flush_threshold,
                              obs=self.obs)
        else:
            raise SchemaError(f"unknown storage engine {storage!r}")
        self.tables[name] = table
        if self.data_dir is not None:
            self.replicator.register_codec(name, RowCodec(schema))
            if isinstance(table, DiskTable):
                table.attach_event_log(self._storage_event_sink(name))
        return table

    def _storage_event_sink(self, table_name: str) -> Callable[[str], None]:
        """WAL control-frame sink for explicit LSM flush/compact events.

        Suppressed while :meth:`recover` replays those very events —
        re-applying a flush must not re-log it.
        """
        def sink(text: str) -> None:
            if not self._recovering:
                self.replicator.log_control(table_name, text)
        return sink

    @staticmethod
    def _default_index(schema: Schema) -> IndexDef:
        key_column: Optional[str] = None
        ts_column: Optional[str] = None
        for column in schema:
            if key_column is None and column.type in (
                    ColumnType.STRING, ColumnType.INT, ColumnType.BIGINT):
                key_column = column.name
            if ts_column is None and column.type is ColumnType.TIMESTAMP:
                ts_column = column.name
        if key_column is None or ts_column is None:
            raise SchemaError(
                "cannot derive a default index: need a key-typed column "
                "and a timestamp column, or pass indexes= explicitly")
        return IndexDef(key_columns=(key_column,), ts_column=ts_column)

    def table(self, name: str) -> Union[MemTable, DiskTable]:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def catalog(self) -> Dict[str, Schema]:
        return {name: table.schema for name, table in self.tables.items()}

    # ------------------------------------------------------------------
    # DML

    def insert(self, table_name: str, row: Sequence[Any]) -> int:
        """Insert one row: storage, memory accounting, binlog."""
        table = self.table(table_name)
        validated = table.schema.validate_row(row)
        self.governor.charge(table.codec.encoded_size(validated)
                             if isinstance(table, MemTable)
                             else _approx_row_bytes(validated))
        offset = table.insert(validated)
        self.replicator.append_entry(table_name, validated)
        return offset

    def insert_many(self, table_name: str,
                    rows: Sequence[Sequence[Any]]) -> int:
        for row in rows:
            self.insert(table_name, row)
        return len(rows)

    # ------------------------------------------------------------------
    # unified SQL entry point

    def execute(self, sql: str) -> Any:
        """Execute one SQL statement (offline-mode semantics for SELECT).

        Returns:
            ``CREATE TABLE`` → the table; ``INSERT`` → rows inserted;
            ``SELECT`` → list of feature rows; ``DEPLOY`` → the Deployment.
        """
        statement = parse(sql)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create(statement)
        if isinstance(statement, ast.InsertStatement):
            return self.insert_many(statement.table, statement.rows)
        if isinstance(statement, ast.SelectStatement):
            rows, _stats = self.offline_query_statement(statement)
            return rows
        if isinstance(statement, ast.DeployStatement):
            return self.deploy(statement.name, sql)
        raise ParseError(f"unsupported statement: {type(statement).__name__}")

    def _execute_create(self, statement: ast.CreateTableStatement):
        columns = [Column(c.name, ColumnType.from_sql_name(c.type_name),
                          nullable=c.nullable)
                   for c in statement.columns]
        schema = Schema(columns)
        indexes = [self._index_from_clause(clause)
                   for clause in statement.indexes] or None
        return self.create_table(statement.name, schema, indexes=indexes)

    @staticmethod
    def _index_from_clause(clause: ast.IndexClause) -> IndexDef:
        ttl = TTLSpec()
        if clause.ttl_value is not None:
            kind = TTLKind(clause.ttl_type.lower()) if clause.ttl_type \
                else TTLKind.ABSOLUTE
            text = clause.ttl_value.strip()
            abs_ms = 0
            lat = 0
            if text and text[-1].lower() in _INTERVAL_UNITS_MS:
                try:
                    count = int(text[:-1])
                except ValueError:
                    raise SchemaError(
                        f"malformed TTL value {text!r}; expected "
                        "'<n><s|m|h|d>' or a bare number") from None
                if count < 0:
                    raise SchemaError(
                        f"TTL value {text!r} must not be negative")
                abs_ms = count * _INTERVAL_UNITS_MS[text[-1].lower()]
            elif text.isdigit():
                value = int(text)
                if kind in (TTLKind.LATEST,):
                    lat = value
                else:
                    abs_ms = value * 60_000  # bare numbers are minutes
            else:
                raise SchemaError(
                    f"malformed TTL value {text!r}; expected "
                    "'<n><s|m|h|d>' or a bare number")
            ttl = TTLSpec(kind=kind, abs_ttl_ms=abs_ms, lat_ttl=lat)
        return IndexDef(key_columns=clause.key_columns,
                        ts_column=clause.ts_column, ttl=ttl)

    # ------------------------------------------------------------------
    # online request mode: deploy / request / undeploy are DeploymentHost's

    def explain(self, sql: str, optimized: bool = True) -> str:
        """EXPLAIN: render the operator tree for a SELECT.

        With ``optimized=True`` the multi-window parallel rewrite
        (Section 6.1) is applied, showing the ConcatJoin/SimpleProject
        segment the offline engine exploits.
        """
        from ..sql.optimizer import explain_optimized
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ParseError("explain expects a SELECT")
        plan = build_plan(statement, self.catalog())
        return explain_optimized(plan) if optimized else plan.explain()

    # ------------------------------------------------------------------
    # offline mode

    def offline_query(self, sql: str, parallel_windows: bool = True,
                      skew: Optional[SkewConfig] = None
                      ) -> Tuple[List[Row], OfflineStats]:
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ParseError("offline_query expects a SELECT")
        return self.offline_query_statement(
            statement, parallel_windows=parallel_windows, skew=skew)

    def offline_query_statement(self, statement: ast.SelectStatement,
                                parallel_windows: bool = True,
                                skew: Optional[SkewConfig] = None
                                ) -> Tuple[List[Row], OfflineStats]:
        compiled = self.compile_cache.get_or_compile(
            statement, self.catalog())
        return self.offline_engine.execute(
            compiled, parallel_windows=parallel_windows, skew=skew)

    # ------------------------------------------------------------------
    # online preview mode

    def preview(self, sql: str, limit: int = 10) -> List[Row]:
        """Online preview: limited batch run with complexity constraints.

        Results are served from a cache keyed on (sql, limit) — the
        paper's "retrieves results from a data cache".
        """
        if limit > PreviewConstraints.MAX_ROWS:
            raise PlanError(
                f"preview limit {limit} exceeds "
                f"{PreviewConstraints.MAX_ROWS}")
        cache_key = (sql, limit)
        cached = self._preview_cache.get(cache_key)
        if cached is not None:
            return cached
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ParseError("preview expects a SELECT")
        if len(statement.windows) > PreviewConstraints.MAX_WINDOWS:
            raise PlanError("preview: too many windows")
        if len(statement.joins) > PreviewConstraints.MAX_JOINS:
            raise PlanError("preview: too many joins")
        for window in statement.windows:
            if len(window.partition_by) \
                    > PreviewConstraints.MAX_PARTITION_COLUMNS:
                raise PlanError("preview: too many partition key columns")
        rows, _stats = self.offline_query_statement(statement)
        result = rows[:limit]
        self._preview_cache[cache_key] = result
        return result

    # ------------------------------------------------------------------
    # maintenance / recovery

    def snapshot(self) -> int:
        """Write one snapshot image per table; returns rows written.

        The binlog is fsync'd after, so "newest snapshot + binlog tail"
        is a complete recovery contract at the returned point.  Call
        from a quiesced maintenance context (no concurrent inserts), as
        the paper's snapshot thread does between low-traffic windows.
        """
        if self._snapshots is None:
            raise StorageError(
                "snapshot() requires OpenMLDB(data_dir=...)")
        offset = self.replicator.last_offset
        rows = 0
        for name, table in self.tables.items():
            codec = RowCodec(table.schema)
            payloads = [codec.encode(row) for row in table.rows()]
            manifest = table.manifest() if isinstance(table, DiskTable) \
                else {}
            self._snapshots.write(name, payloads, offset,
                                  manifest=manifest)
            rows += len(payloads)
        self.replicator.sync()
        return rows

    def recover(self) -> RecoveryReport:
        """Crash recovery: rebuild state from snapshots + binlog tail.

        Call on a **fresh** instance pointed at the crashed instance's
        ``data_dir``, after re-running DDL and deployments (catalog
        metadata is assumed durable elsewhere, as ZooKeeper keeps it for
        production OpenMLDB).  Per table: load the newest intact
        snapshot, then replay the durable binlog frames past its pinned
        offset; the storage summaries rebuild lazily with the blocks, so
        requests answer exactly as before the crash.  Explicit LSM
        flush/compact control frames re-apply in stream order,
        reconstructing disk tables' run layout.
        """
        wal = self.replicator.wal
        if wal is None or self._snapshots is None:
            raise StorageError(
                "recover() requires OpenMLDB(data_dir=...)")
        for name, table in self.tables.items():
            if table.row_count:
                raise StorageError(
                    f"recover() requires empty tables; {name!r} already "
                    f"holds {table.row_count} row(s)")
        start = time.perf_counter()
        report = RecoveryReport(node="db")
        span = self.obs.tracer.span("recovery.restart", node="db")
        with span:
            # Rebuild the in-memory binlog first so post-recovery
            # inserts continue the durable offset sequence.
            self.replicator.restore()
            self._recovering = True
            try:
                codecs: Dict[str, RowCodec] = {
                    name: RowCodec(table.schema)
                    for name, table in self.tables.items()}
                snap_offsets: Dict[str, int] = {}
                for name, table in self.tables.items():
                    snapshot = self._snapshots.load_latest(name)
                    if snapshot is None:
                        continue
                    for payload in snapshot.rows:
                        self._apply_recovered(
                            table, codecs[name].decode(payload))
                    snap_offsets[name] = snapshot.applied_offset
                    report.snapshot_rows += len(snapshot.rows)
                    if isinstance(table, DiskTable) \
                            and snapshot.manifest.get("flushes"):
                        # The image's rows had (partly) been flushed to
                        # runs pre-crash; rebuild that residence so the
                        # memtable only holds the post-snapshot tail.
                        table.flush()
                for frame in wal.replay(0):
                    if frame.offset <= snap_offsets.get(frame.table, -1):
                        continue
                    table = self.tables.get(frame.table)
                    if table is None:
                        continue
                    if frame.is_row:
                        self._apply_recovered(
                            table, codecs[frame.table].decode(frame.payload))
                        report.replayed_entries += 1
                    else:
                        self._apply_storage_event(table,
                                                  frame.control_text())
            finally:
                self._recovering = False
            for name in self.tables:
                report.applied_offsets[(name, 0)] = \
                    self.replicator.last_offset
        report.seconds = time.perf_counter() - start
        registry = self.obs.registry
        registry.counter("storage.recovery.restarts").inc()
        registry.counter("storage.recovery.replayed").inc(
            report.replayed_entries)
        registry.counter("storage.recovery.snapshot_rows").inc(
            report.snapshot_rows)
        registry.histogram("storage.recovery.ms").observe(
            report.seconds * 1_000.0)
        return report

    def _apply_recovered(self, table: Union[MemTable, DiskTable],
                         row: Row) -> None:
        """Re-apply one recovered row: storage and memory accounting."""
        validated = table.schema.validate_row(row)
        self.governor.charge(table.codec.encoded_size(validated)
                             if isinstance(table, MemTable)
                             else _approx_row_bytes(validated))
        table.insert(validated)

    @staticmethod
    def _apply_storage_event(table: Union[MemTable, DiskTable],
                             text: str) -> None:
        if not isinstance(table, DiskTable):
            return
        if text == "flush":
            table.flush()
        elif text.startswith("compact:"):
            table.compact(int(text.split(":", 1)[1]))

    def recover_table(self, name: str) -> int:
        """Rebuild a table's online structures by replaying the binlog.

        Simulates a tablet restart (Section 5.1's failure-recovery
        design): the in-memory indexes are discarded and reconstructed
        from the replicator's log; the storage summaries rebuild lazily
        with the blocks.  Returns the number of replayed rows.
        """
        old = self.table(name)
        if isinstance(old, MemTable):
            fresh: Union[MemTable, DiskTable] = MemTable(
                name, old.schema, old.indexes, replicas=old.replicas,
                obs=self.obs)
        else:
            fresh = DiskTable(name, old.schema, old.indexes,
                              replicas=old.replicas,
                              flush_threshold=old.flush_threshold,
                              obs=self.obs)
            if self.data_dir is not None:
                # The rebuilt table's explicit flushes and compactions
                # keep reaching the WAL, as create_table wired the old one.
                fresh.attach_event_log(self._storage_event_sink(name))
        rows = self.replicator.rows_of(name)
        for row in rows:
            fresh.insert(row)
        self.tables[name] = fresh
        return len(rows)

    def evict_expired(self, now_ts: int) -> int:
        """Run TTL eviction across all memory tables."""
        removed = 0
        for table in self.tables.values():
            if isinstance(table, MemTable):
                removed += table.evict_expired(now_ts)
        return removed

    def close(self) -> None:
        self.replicator.close()


def _approx_row_bytes(row: Sequence[Any]) -> int:
    total = 16
    for value in row:
        total += 8 if not isinstance(value, str) else 8 + len(value)
    return total
