"""GLQ geographic-location querying workload (Section 9.1 / Figure 9).

The production GLQ service holds billions of GPS tuples and runs
full-scale proximity queries whose cost "necessitates evaluating the
relative relationships among all GPS coordinates".  Figure 9 sweeps a
hyper-parameter N (7→10): each step doubles the query radius, so the
candidate set grows ~4× per step.  OpenMLDB answers from a grid index and
streams the aggregation; Spark has no spatial index, so every query is a
full scan whose matched subset is additionally *materialised* (serialised
row by row) through a shuffle — which is both the growing slowdown and
the OOM failure mode the paper reports for full-table queries.

Both engines compute the identical result (tested): count of points in
radius, their mean distance to the query point, and the nearest point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ExecutionError

__all__ = ["GLQConfig", "generate_points", "GridGLQEngine",
           "SparkGLQEngine", "GLQResult", "RouteResult", "route_for_n"]


@dataclasses.dataclass(frozen=True)
class GLQConfig:
    points: int = 50_000
    seed: int = 23
    # Points cluster around a handful of city centres, like courier data.
    centres: int = 8
    spread: float = 0.5   # degrees of jitter around a centre


@dataclasses.dataclass(frozen=True)
class GLQResult:
    count: int
    mean_distance: float
    nearest: Optional[Tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class RouteResult:
    """Result of the Figure 9 route query.

    ``densest_cell_count`` is the global context part ("evaluating the
    relative relationships among all GPS coordinates"); ``waypoints``
    holds one proximity result per route waypoint.
    """

    densest_cell_count: int
    waypoints: Tuple[GLQResult, ...]


def generate_points(config: GLQConfig = GLQConfig()
                    ) -> Iterator[Tuple[float, float]]:
    """Yield (lat, lon) tuples clustered around city centres."""
    rng = random.Random(config.seed)
    centres = [(rng.uniform(-60, 60), rng.uniform(-170, 170))
               for _ in range(config.centres)]
    for _ in range(config.points):
        lat, lon = centres[rng.randrange(config.centres)]
        yield (lat + rng.gauss(0.0, config.spread),
               lon + rng.gauss(0.0, config.spread))


def route_for_n(n: int) -> int:
    """Figure 9's hyper-parameter as route length: 2^(N−6) waypoints.

    N=7 → 2 waypoints, N=10 → 16; each step doubles the per-query work a
    scan-based engine must do.
    """
    return 2 ** (n - 6)


def _distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    # Planar distance is sufficient at the simulated scale.
    return math.hypot(a[0] - b[0], a[1] - b[1])


class GridGLQEngine:
    """OpenMLDB-side GLQ: uniform grid index + streamed aggregation."""

    name = "openmldb"

    def __init__(self, cell: float = 0.05) -> None:
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.cell = cell
        self._grid: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        self.count = 0
        self._bounds: Optional[Tuple[int, int, int, int]] = None

    def _cell_of(self, point: Tuple[float, float]) -> Tuple[int, int]:
        return (int(math.floor(point[0] / self.cell)),
                int(math.floor(point[1] / self.cell)))

    def insert(self, point: Tuple[float, float]) -> None:
        cell = self._cell_of(point)
        self._grid.setdefault(cell, []).append(point)
        self.count += 1
        if self._bounds is None:
            self._bounds = (cell[0], cell[0], cell[1], cell[1])
        else:
            x_lo, x_hi, y_lo, y_hi = self._bounds
            self._bounds = (min(x_lo, cell[0]), max(x_hi, cell[0]),
                            min(y_lo, cell[1]), max(y_hi, cell[1]))

    def query(self, centre: Tuple[float, float],
              radius: float) -> GLQResult:
        """Aggregate over points within ``radius`` via grid-cell lookups.

        The scan clamps to the occupied bounding box, so an unbounded
        (full-table) radius degrades to visiting every occupied cell
        rather than 10^10 empty ones.
        """
        cx, cy = self._cell_of(centre)
        span = int(math.ceil(radius / self.cell))
        if self._bounds is None:
            return GLQResult(count=0, mean_distance=0.0, nearest=None)
        x_lo, x_hi, y_lo, y_hi = self._bounds
        dx_lo = max(-span, x_lo - cx)
        dx_hi = min(span, x_hi - cx)
        dy_lo = max(-span, y_lo - cy)
        dy_hi = min(span, y_hi - cy)
        matched = 0
        total_distance = 0.0
        nearest: Optional[Tuple[float, float]] = None
        nearest_distance = math.inf
        box_cells = (dx_hi - dx_lo + 1) * (dy_hi - dy_lo + 1)
        if box_cells > len(self._grid):
            # Wide query: cheaper to walk the occupied cells directly.
            candidates = (
                point for (x, y), points in self._grid.items()
                if dx_lo <= x - cx <= dx_hi and dy_lo <= y - cy <= dy_hi
                for point in points)
        else:
            candidates = (
                point
                for dx in range(dx_lo, dx_hi + 1)
                for dy in range(dy_lo, dy_hi + 1)
                for point in self._grid.get((cx + dx, cy + dy), ()))
        for point in candidates:
            distance = _distance(point, centre)
            if distance > radius:
                continue
            matched += 1
            total_distance += distance
            if distance < nearest_distance:
                nearest_distance = distance
                nearest = point
        mean = total_distance / matched if matched else 0.0
        return GLQResult(count=matched, mean_distance=mean, nearest=nearest)

    def route_query(self, waypoints: List[Tuple[float, float]],
                    radius: float) -> RouteResult:
        """The Figure 9 query: global density context + per-waypoint stats.

        The global part folds the *grid summaries* — one pass over
        occupied cells, independent of the waypoint count — so latency
        stays nearly flat as routes grow (the paper's ~30 ms plateau).
        Waypoint lookups then touch only their radius's cells.
        """
        densest = 0
        for cell_points in self._grid.values():
            densest = max(densest, len(cell_points))
        results = tuple(self.query(waypoint, radius)
                        for waypoint in waypoints)
        return RouteResult(densest_cell_count=densest, waypoints=results)


class SparkGLQEngine:
    """Spark-side GLQ: full scan + materialised (serialised) candidates.

    ``memory_limit_rows`` models the executor heap: materialising more
    matched rows than the limit raises the OOM the paper observes on
    full-table queries.
    """

    name = "spark"

    def __init__(self, memory_limit_rows: Optional[int] = None) -> None:
        self._points: List[Tuple[float, float]] = []
        self.memory_limit_rows = memory_limit_rows
        self.bytes_shuffled = 0

    def insert(self, point: Tuple[float, float]) -> None:
        self._points.append(point)

    def query(self, centre: Tuple[float, float],
              radius: float) -> GLQResult:
        # Stage 1: full scan, materialise matches through a "shuffle".
        staged: List[str] = []
        for point in self._points:
            if _distance(point, centre) <= radius:
                payload = json.dumps(point)
                self.bytes_shuffled += len(payload)
                staged.append(payload)
                if self.memory_limit_rows is not None \
                        and len(staged) > self.memory_limit_rows:
                    raise ExecutionError(
                        "simulated OOM: materialised candidate set "
                        f"exceeds {self.memory_limit_rows} rows")
        # Stage 2: deserialise and reduce.
        matched = 0
        total_distance = 0.0
        nearest: Optional[Tuple[float, float]] = None
        nearest_distance = math.inf
        for payload in staged:
            point = tuple(json.loads(payload))
            distance = _distance(point, centre)
            matched += 1
            total_distance += distance
            if distance < nearest_distance:
                nearest_distance = distance
                nearest = point
        mean = total_distance / matched if matched else 0.0
        return GLQResult(count=matched, mean_distance=mean,
                         nearest=nearest)

    def route_query(self, waypoints: List[Tuple[float, float]],
                    radius: float,
                    cell: float = 0.05) -> RouteResult:
        """The same route query without an index.

        The global density context requires a full grouping pass over the
        raw points, and each waypoint adds a *further* full scan (no
        spatial index to prune) — so latency grows with route length,
        which is exactly the widening gap of Figure 9.
        """
        cells: Dict[Tuple[int, int], int] = {}
        for lat, lon in self._points:
            key = (int(math.floor(lat / cell)),
                   int(math.floor(lon / cell)))
            cells[key] = cells.get(key, 0) + 1
        densest = max(cells.values(), default=0)
        results = tuple(self.query(waypoint, radius)
                        for waypoint in waypoints)
        return RouteResult(densest_cell_count=densest, waypoints=results)
