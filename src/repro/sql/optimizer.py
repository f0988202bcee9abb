"""Plan-level rewrites (paper Sections 4.2 and 6.1).

The headline rewrite is the **multi-window parallel optimisation**: a
serial chain of window operators

::

    Project
      WindowAgg(w2)
        WindowAgg(w1)
          <source>

becomes a parallel segment bracketed by the two node types the paper
introduces — ``SimpleProject`` (start of the segment; injects the hidden
*index column* that tags every source row with a unique id) and
``ConcatJoin`` (end of the segment; realigns the windows' outputs with a
LAST JOIN on that index column, then drops it):

::

    Project
      ConcatJoin(w1, w2)
        WindowAgg(w1) ─┐
        WindowAgg(w2) ─┴─ SimpleProject(+index)
                            <source>

The rewrite is purely structural: no engine reads the tree, and the
offline engine runs a statement's windows from the compiled query.  It
is the artefact EXPLAIN shows and the unit tests assert on.

Also here: :func:`index_access_paths`, the Section 4.2 "index
optimisation" check that every WINDOW / LAST JOIN in a plan is served by
a declared table index (rejecting deployments that would need scans).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..errors import PlanError
from .planner import (ConcatJoinNode, PlanNode, ProjectNode, QueryPlan,
                      SimpleProjectNode, WindowAggNode)

__all__ = ["rewrite_parallel_windows", "explain_optimized",
           "index_access_paths"]


def rewrite_parallel_windows(tree: PlanNode) -> PlanNode:
    """Apply the Section 6.1 rewrite to a serial operator tree.

    Chains of two or more consecutive ``WindowAgg`` nodes collapse into a
    ``ConcatJoin`` whose children are the individual windows, all fed by
    one shared ``SimpleProject(+index)`` over the original source.
    Single windows and non-window nodes pass through unchanged.
    """
    if not isinstance(tree, ProjectNode):
        return tree
    chain: List[WindowAggNode] = []
    node = tree.children[0]
    while isinstance(node, WindowAggNode):
        chain.append(node)
        node = node.children[0]
    if len(chain) < 2:
        return tree
    source = SimpleProjectNode(children=(node,), add_index_column=True)
    branches = tuple(
        WindowAggNode(children=(source,), window=window.window)
        for window in reversed(chain))  # restore declaration order
    concat = ConcatJoinNode(children=branches,
                            windows=tuple(branch.window
                                          for branch in branches))
    return ProjectNode(children=(concat,))


def explain_optimized(plan: QueryPlan) -> str:
    """EXPLAIN rendering of the rewritten plan."""
    return rewrite_parallel_windows(plan.tree).explain()


def index_access_paths(plan: QueryPlan,
                       table_indexes: Mapping[str, List]
                       ) -> Dict[str, str]:
    """Validate that every window and join has an index (Section 4.2).

    Args:
        plan: the logical plan.
        table_indexes: table name → list of
            :class:`~repro.schema.IndexDef`.

    Returns:
        operator label → chosen index name.

    Raises:
        PlanError: when any access path would require a full scan.
    """
    chosen: Dict[str, str] = {}

    def pick(table: str, keys, ts=None, label: str = "") -> None:
        for index in table_indexes.get(table, ()):
            if index.matches(tuple(keys), ts):
                chosen[label] = index.name
                return
        raise PlanError(
            f"{label}: no index on {table}({tuple(keys)} ORDER BY {ts}); "
            "the plan would need a full scan")

    for name, window in plan.windows.items():
        for table in (plan.table, *window.union_tables):
            pick(table, window.partition_columns, window.order_column,
                 label=f"window {name} over {table}")
    for join in plan.joins:
        pick(join.right_table,
             [column for _expr, column in join.eq_keys],
             label=f"last join {join.right_table}")
    return chosen
