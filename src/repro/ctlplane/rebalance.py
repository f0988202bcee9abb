"""Load-driven rebalancer: turn observed load into split/migrate plans.

Sidiq et al.'s OpenMLDB performance analysis (arXiv:2509.15529) shows
cluster throughput is governed by partition balance, so the rebalancer
closes the loop between observation and topology: it reads each
replica's lag from replica state
(:meth:`~repro.cluster.NameServer.replication_lag`) and per-tablet
:class:`~repro.memory.governor.MemoryGovernor` byte accounting, and
emits a bounded plan (at most ``max_actions`` steps) of
:class:`SplitAction`/:class:`MigrateAction` steps:

* a partition holding more than ``split_threshold_bytes`` *and* more
  than ``imbalance_ratio`` times its table's mean partition size is
  **split** (the hot-key absorber);
* when the most-loaded tablet carries more than ``imbalance_ratio``
  times the bytes of the least-loaded live tablet, one leader shard is
  **migrated** from the former to the latter (the skew absorber);
* a tablet whose worst replica lag exceeds ``max_target_lag``
  entries is never chosen as a migration target — moving
  load onto a struggling replica only amplifies the imbalance.

:meth:`Rebalancer.run_once` executes the plan through a
:class:`~repro.ctlplane.split.PartitionSplitter` and a
:class:`~repro.ctlplane.migrate.ShardMigrator`, both of which keep the
data plane serving throughout; every decision lands in the
``ctl.rebalance.*`` metric series with its reason string.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from ..obs import Observability
from .migrate import MigrationReport, ShardMigrator
from .split import PartitionSplitter, SplitReport

__all__ = ["SplitAction", "MigrateAction", "Rebalancer"]


@dataclasses.dataclass(frozen=True)
class SplitAction:
    """Plan step: split a hot partition into two children."""

    table: str
    partition_id: int
    reason: str


@dataclasses.dataclass(frozen=True)
class MigrateAction:
    """Plan step: move one shard replica between tablets."""

    table: str
    partition_id: int
    source: str
    target: str
    reason: str


Action = Union[SplitAction, MigrateAction]


class Rebalancer:
    """Observe load, emit a bounded plan, optionally execute it.

    Args:
        cluster: the :class:`~repro.cluster.NameServer` to balance.
        splitter: executor for :class:`SplitAction`; built on demand.
        migrator: executor for :class:`MigrateAction`; built on demand.
        split_threshold_bytes: minimum partition size before a split is
            worth its copy cost.
        imbalance_ratio: hot/mean (splits) and max/min tablet
            (migrations) ratio that counts as skew; must be > 1.
        max_target_lag: worst acceptable replica lag (entries behind
            the partition binlog) on a migration target.
        max_actions: plan-size cap per round.
    """

    def __init__(self, cluster, splitter: Optional[PartitionSplitter] = None,
                 migrator: Optional[ShardMigrator] = None,
                 split_threshold_bytes: int = 64 * 1024,
                 imbalance_ratio: float = 2.0,
                 max_target_lag: int = 256,
                 max_actions: int = 4,
                 obs: Optional[Observability] = None) -> None:
        if imbalance_ratio <= 1.0:
            from ..errors import StorageError
            raise StorageError("imbalance_ratio must be > 1")
        self._cluster = cluster
        self._splitter = splitter or PartitionSplitter(cluster)
        self._migrator = migrator or ShardMigrator(cluster)
        self._split_threshold = split_threshold_bytes
        self._ratio = imbalance_ratio
        self._max_target_lag = max_target_lag
        self._max_actions = max_actions
        self._obs = obs if obs is not None else cluster.obs
        registry = self._obs.registry
        self._m_rounds = registry.counter("ctl.rebalance.rounds")
        self._m_planned = registry.counter("ctl.rebalance.planned")
        self._m_executed = registry.counter("ctl.rebalance.executed")
        self._m_skipped = registry.counter("ctl.rebalance.skipped")

    # ------------------------------------------------------------------
    # observation

    def tablet_bytes(self) -> Dict[str, int]:
        """Live tablets' governor byte usage (the balance signal)."""
        return {name: tablet.governor.used_bytes
                for name, tablet in self._cluster.tablets.items()
                if tablet.alive}

    def worst_lag(self, tablet_name: str) -> int:
        """Entries the tablet's most-behind replica is missing against
        its partition binlog (:meth:`NameServer.replication_lag` over
        every shard it hosts) — replica state, so it holds with
        observability off too."""
        cluster = self._cluster
        tablet = cluster.tablets[tablet_name]
        return max((cluster.replication_lag(table.name, partition_id,
                                            tablet_name)
                    for table in list(cluster.tables.values())
                    for partition_id in table.layout.placement
                    if tablet.has_shard(table.name, partition_id)),
                   default=0)

    def _leader(self, table, partition_id: int):
        """The partition's leader in the table's layout, or None when it
        has no live one (its replicas died; failover left it leaderless
        or has not run yet)."""
        name = table.layout.leaders.get(partition_id)
        tablet = None if name is None else self._cluster.tablets[name]
        return tablet if tablet is not None and tablet.alive else None

    def _partition_bytes(self, table) -> Dict[int, Tuple[int, str]]:
        """Per-partition (leader bytes, leader name) for one table."""
        sizes: Dict[int, Tuple[int, str]] = {}
        for partition_id in table.layout.placement:
            leader = self._leader(table, partition_id)
            if leader is None:
                continue
            shard = leader.shard(table.name, partition_id)
            sizes[partition_id] = (shard.store.memory_bytes, leader.name)
        return sizes

    # ------------------------------------------------------------------
    # planning

    def plan(self) -> List[Action]:
        """Emit a bounded list of actions for the current load shape."""
        actions: List[Action] = []
        for table in list(self._cluster.tables.values()):
            sizes = self._partition_bytes(table)
            if not sizes:
                continue
            mean = sum(b for b, _ in sizes.values()) / len(sizes)
            for partition_id, (nbytes, _leader) in sorted(
                    sizes.items(), key=lambda kv: -kv[1][0]):
                if len(actions) >= self._max_actions:
                    break
                if nbytes >= self._split_threshold \
                        and nbytes > self._ratio * max(mean, 1.0):
                    actions.append(SplitAction(
                        table.name, partition_id,
                        reason=f"hot: {nbytes}B > "
                               f"{self._ratio:g}x mean {mean:.0f}B"))
        if len(actions) < self._max_actions:
            migration = self._plan_migration()
            if migration is not None:
                actions.append(migration)
        self._m_planned.inc(len(actions))
        return actions

    def _plan_migration(self) -> Optional[MigrateAction]:
        loads = self.tablet_bytes()
        if len(loads) < 2:
            return None
        busiest = max(loads, key=lambda n: loads[n])
        targets = sorted(
            (name for name in loads
             if name != busiest
             and self.worst_lag(name) <= self._max_target_lag),
            key=lambda n: loads[n])
        if not targets or loads[busiest] <= \
                self._ratio * max(loads[targets[0]], 1):
            return None
        # Move the busiest tablet's largest leader shard to the first
        # (least-loaded, lag-healthy) target not already hosting it.
        candidates: List[Tuple[int, str, int]] = []
        for table in list(self._cluster.tables.values()):
            for partition_id in table.layout.placement:
                leader = self._leader(table, partition_id)
                if leader is None or leader.name != busiest:
                    continue
                nbytes = leader.shard(table.name,
                                      partition_id).store.memory_bytes
                candidates.append((nbytes, table.name, partition_id))
        for nbytes, table_name, partition_id in sorted(candidates,
                                                       reverse=True):
            placement = self._cluster.table_info(
                table_name).assignment[partition_id]
            for target in targets:
                if target not in placement:
                    return MigrateAction(
                        table_name, partition_id, busiest, target,
                        reason=f"skew: {busiest}={loads[busiest]}B > "
                               f"{self._ratio:g}x {target}="
                               f"{loads[target]}B")
        return None

    # ------------------------------------------------------------------
    # execution

    def run_once(self) -> List[Union[SplitReport, MigrationReport]]:
        """Plan and execute one round; returns the executed reports.

        Actions that fail (e.g. a target died between plan and
        execution) are counted as skipped, not raised — the next round
        re-plans from fresh observations.
        """
        from ..errors import StorageError

        self._m_rounds.inc()
        reports: List[Union[SplitReport, MigrationReport]] = []
        with self._obs.tracer.span("ctl.rebalance") as span:
            for action in self.plan():
                try:
                    if isinstance(action, SplitAction):
                        reports.append(self._splitter.split(
                            action.table, action.partition_id))
                    else:
                        reports.append(self._migrator.migrate(
                            action.table, action.partition_id,
                            action.source, action.target))
                    self._m_executed.inc()
                except StorageError:
                    self._m_skipped.inc()
            span.set_tag(executed=len(reports))
        return reports
