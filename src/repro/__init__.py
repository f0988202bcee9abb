"""repro — a pure-Python reproduction of OpenMLDB (SIGMOD 2025).

OpenMLDB is a real-time relational data feature computation system for
online ML.  This package reimplements, from scratch:

* the unified query plan generator (OpenMLDB SQL, planning, compilation
  with cycle binding and a compilation cache) — :mod:`repro.sql`;
* the online real-time execution engine (request mode, long windows
  folded from storage summaries, self-adjusted window unions) —
  :mod:`repro.online`;
* the offline batch execution engine (multi-window parallelism,
  time-aware skew resolving) — :mod:`repro.offline`;
* compact time-series data management (row encoding, two-level index,
  LSM disk engine) — :mod:`repro.storage`;
* memory estimation and governance — :mod:`repro.memory`;
* the baseline systems and workloads used by the paper's evaluation —
  :mod:`repro.baselines`, :mod:`repro.workloads`.

Quickstart::

    from repro import OpenMLDB
    db = OpenMLDB()
    db.execute('CREATE TABLE actions (userid string, ts timestamp, '
               'price double, INDEX(KEY=userid, TS=ts))')
    db.insert("actions", ("u1", 1_000, 9.99))
    db.deploy("demo", "SELECT userid, sum(price) OVER w AS spend "
              "FROM actions WINDOW w AS (PARTITION BY userid ORDER BY ts "
              "ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)")
    features = db.request("demo", ("u1", 2_000, 5.00))
"""

from .errors import OpenMLDBError
from .schema import Column, IndexDef, Schema, TTLKind, TTLSpec
from .types import ColumnType

__version__ = "0.1.0"

#: Loaded from :mod:`repro.core` on first access (PEP 562), so that
#: importing a serving module does not load the offline engine.
_FROM_CORE = ("OpenMLDB", "Deployment", "verify_consistency",
              "ConsistencyReport")

__all__ = [
    *_FROM_CORE, "OpenMLDBError", "Schema", "Column", "IndexDef",
    "TTLSpec", "TTLKind", "ColumnType", "__version__",
]


def __getattr__(name: str) -> object:
    if name not in _FROM_CORE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import core
    return getattr(core, name)
