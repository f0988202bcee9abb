"""repro.ctlplane — the elastic control plane.

The data plane (``repro.cluster``) serves a *fixed* topology: tables
are partitioned at ``CREATE TABLE`` time and replicas live where the
nameserver first placed them.  This package makes the topology a
run-time variable while the cluster keeps serving:

* :mod:`~repro.ctlplane.split` — online partition split over a
  linear-hashing routing directory (:class:`HashRouter`), plus the
  PYTHONHASHSEED-independent :func:`stable_hash` the whole routing
  stack shares;
* :mod:`~repro.ctlplane.migrate` — live shard migration
  (:class:`ShardMigrator`): snapshot bulk-load, binlog tail chase,
  brief write-pause handoff, zero acknowledged-write loss;
* :mod:`~repro.ctlplane.rebalance` — a load-driven
  :class:`Rebalancer` that turns the ``repro.obs`` gauges into
  bounded split/migrate plans;
* :mod:`~repro.ctlplane.registry` — the :class:`TenantRegistry`
  enforcing per-tenant rate and memory budgets at the serving
  frontend, shed as typed class-53 errors.

See docs/architecture.md § "Elastic data plane" for a runnable
walkthrough and docs/observability.md for the ``ctl.*``,
``cluster.migration.*``, and ``tenant.*`` series these emit.
"""

from __future__ import annotations

from .migrate import MigrationReport, ShardMigrator
from .rebalance import MigrateAction, Rebalancer, SplitAction
from .registry import TenantBudget, TenantRegistry
from .split import (HashRouter, PartitionSplitter, SplitPlan, SplitReport,
                    stable_hash)

__all__ = [
    "HashRouter", "SplitPlan", "SplitReport",
    "PartitionSplitter", "stable_hash",
    "MigrationReport", "ShardMigrator",
    "Rebalancer", "SplitAction", "MigrateAction",
    "TenantBudget", "TenantRegistry",
]
