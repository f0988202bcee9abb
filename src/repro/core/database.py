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
* **online preview mode** — ``preview()`` with complexity constraints,
  run against the current rows (no result cache);
* memory governance — an optional ``max_memory_mb`` making writes fail
  (but not reads) past it (Section 8.2).

Storage, writes, the binlog and recovery are the one-tablet,
one-partition, one-replica :class:`~repro.cluster.NameServer`'s; reads
skip the routing one replica does not need — both engines read the
tablet's shard stores directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.nameserver import NameServer
from ..cluster.tablet import TabletServer
from ..errors import (ParseError, PlanError, SchemaError, StorageError,
                      TableNotFoundError)
from ..schema import Column, IndexDef, Row, Schema, TTLKind, TTLSpec
from ..sql import ast
from ..sql.compiler import CompilationCache
from ..sql.parser import parse
from ..storage.disk import DiskTable
from ..storage.memtable import MemTable
from ..storage.persist import RecoveryReport
from ..online.engine import OnlineEngine
from ..offline.engine import OfflineEngine, OfflineStats
from ..offline.skew import SkewConfig
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
        max_memory_mb: optional write limit (Section 8.2 isolation).
        observability: collect metrics and per-request trace spans
            (see :mod:`repro.obs`).  Off by default — the same request
            body runs either way; disabled, its spans and series are
            shared no-ops (a few no-op calls per request).
        data_dir: root directory for durability, laid out as a
            cluster's: ``<data_dir>/binlog/<table>/p0/`` holds each
            table's WAL and ``<data_dir>/tablets/db/`` its snapshots.
            Re-creating a table over it restores the table — newest
            snapshot, then the binlog tail; each table keeps its two
            newest snapshot images.
    """

    def __init__(self, max_memory_mb: Optional[int] = None,
                 observability: bool = False,
                 data_dir: Optional[str] = None) -> None:
        self.obs = Observability(enabled=True) if observability \
            else NULL_OBS
        self._tablet = TabletServer("db", max_memory_mb=max_memory_mb)
        self.cluster = NameServer([self._tablet], obs=self.obs,
                                  data_dir=data_dir)
        self.governor = self._tablet.governor
        self.data_dir = data_dir
        #: table name → the tablet's one shard store of it (refreshed
        #: whenever a restart or rebuild replaces the store)
        self.tables: Dict[str, Union[MemTable, DiskTable]] = {}
        self.compile_cache = CompilationCache(obs=self.obs)
        self.online_engine = OnlineEngine(self.tables, obs=self.obs)
        self.offline_engine = OfflineEngine(self.tables, obs=self.obs)
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
                     storage: str = "memory",
                     flush_threshold: int = 4096
                     ) -> Union[MemTable, DiskTable]:
        """Create a table with stream indexes.

        With no explicit index, a default one is derived: the first
        string/int column as key, the first timestamp column as ts —
        mirroring OpenMLDB's automatic index creation.  ``storage`` and
        ``flush_threshold`` are :meth:`NameServer.create_table`'s.
        """
        if indexes is None:
            indexes = [self._default_index(schema)]
        self.cluster.create_table(name, schema, indexes, partitions=1,
                                  replicas=1, storage=storage,
                                  flush_threshold=flush_threshold)
        return self._refresh(name)

    def _refresh(self, name: str) -> Union[MemTable, DiskTable]:
        store = self.tables[name] = self._tablet.shard(name, 0).store
        return store

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
        """Insert one row: the cluster's ``put`` (row check, memory
        accounting, store, binlog); returns its binlog offset."""
        return self.cluster.put(table_name, row)

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
    # deploy / request / undeploy / explain are DeploymentHost's

    # ------------------------------------------------------------------
    # offline mode

    def offline_query(self, sql: str, skew: Optional[SkewConfig] = None
                      ) -> Tuple[List[Row], OfflineStats]:
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ParseError("offline_query expects a SELECT")
        return self.offline_query_statement(statement, skew=skew)

    def offline_query_statement(self, statement: ast.SelectStatement,
                                skew: Optional[SkewConfig] = None
                                ) -> Tuple[List[Row], OfflineStats]:
        compiled = self.compile_cache.get_or_compile(
            statement, self.catalog())
        return self.offline_engine.execute(compiled, skew=skew)

    # ------------------------------------------------------------------
    # online preview mode

    def preview(self, sql: str, limit: int = 10) -> List[Row]:
        """Online preview: limited batch run with complexity constraints.

        Every call runs on the rows held now.  The paper's preview
        "retrieves results from a data cache"; this one keeps none, so
        a preview after an insert sees the insert.
        """
        if limit > PreviewConstraints.MAX_ROWS:
            raise PlanError(
                f"preview limit {limit} exceeds "
                f"{PreviewConstraints.MAX_ROWS}")
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
        return rows[:limit]

    # ------------------------------------------------------------------
    # maintenance / recovery

    def snapshot(self) -> int:
        """Write one snapshot image per table; returns rows written.

        The cluster's :meth:`~NameServer.snapshot`: each image pins its
        table's rows to a binlog offset and the binlogs are fsync'd
        after, so "newest snapshot + binlog tail" is a complete recovery
        contract at that point.
        """
        self._require_data_dir("snapshot")
        return self.cluster.snapshot()

    def recover(self) -> RecoveryReport:
        """Crash recovery: restart the node's one tablet.

        Every table drops its rows, loads its newest intact snapshot and
        replays the durable binlog past it — TTL evictions and explicit
        disk flushes and compactions re-apply in stream order — exactly
        as :meth:`NameServer.restart_tablet` restores a cluster tablet
        (and records the same ``cluster.recovery.*`` series).  It needs
        ``data_dir``: a memory-only node logs no storage events to
        restore.  A fresh node over a crashed one's ``data_dir`` has
        already restored each table as its DDL re-created it (catalog
        metadata is assumed durable elsewhere, as ZooKeeper keeps it for
        production OpenMLDB).
        """
        self._require_data_dir("recover")
        self._tablet.fail()
        report = self.cluster.restart_tablet(self._tablet.name)
        for name in self.tables:
            self._refresh(name)
        return report

    def _require_data_dir(self, what: str) -> None:
        if self.data_dir is None:
            raise StorageError(
                f"{what}() requires OpenMLDB(data_dir=...)")

    def evict_expired(self, now_ts: int) -> int:
        """Run TTL eviction across the tablet's memory shards."""
        return sum(shard.store.evict_expired(now_ts)
                   for shard in self._tablet.shards()
                   if isinstance(shard.store, MemTable))

    def close(self) -> None:
        self.cluster.close()
