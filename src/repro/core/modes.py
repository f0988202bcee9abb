"""Execution modes (paper Section 3.2, Figure 3).

All three modes share one SQL dialect and one compiled plan; they differ
only in what data they see and what they return:

* **OFFLINE** — batch computation over full table history; every stored
  row of the primary table yields one feature row.
* **ONLINE_PREVIEW** — the same batch semantics restricted to a small
  limit, run on the rows held now, with query complexity constraints
  so exploratory runs cannot disturb serving.
* **ONLINE_REQUEST** — one request tuple in, one feature row out; the
  tuple is treated as virtually inserted.
"""

from __future__ import annotations

__all__ = ["PreviewConstraints"]


class PreviewConstraints:
    """Complexity limits enforced in online-preview mode.

    The paper: preview "constrains query complexity (e.g., limiting the
    number of key columns)" to protect the serving path.
    """

    MAX_WINDOWS = 8
    MAX_JOINS = 4
    MAX_PARTITION_COLUMNS = 4
    MAX_ROWS = 100
