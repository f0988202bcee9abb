"""Tests for the LPT makespan scheduler model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.offline.scheduling import lpt_makespan, worker_loads


class TestWorkerLoads:
    def test_even_split(self):
        loads = worker_loads([1.0, 1.0, 1.0, 1.0], workers=2)
        assert sorted(loads) == [2.0, 2.0]

    def test_straggler_dominates(self):
        loads = worker_loads([10.0, 1.0, 1.0, 1.0], workers=4)
        assert max(loads) == 10.0

    def test_one_worker_serialises(self):
        assert lpt_makespan([1.0, 2.0, 3.0], workers=1) == 6.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            worker_loads([1.0], workers=0)

    def test_empty_tasks(self):
        assert lpt_makespan([], workers=4) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.001, 10.0), min_size=1, max_size=50),
       st.integers(1, 16))
def test_makespan_bounds_property(tasks, workers):
    """LPT makespan lies between max(task) ∨ total/workers and total."""
    makespan = lpt_makespan(tasks, workers)
    total = sum(tasks)
    lower = max(max(tasks), total / workers)
    assert lower - 1e-9 <= makespan <= total + 1e-9
    # Any list schedule ends by the time the last-started task, begun
    # no later than the mean load of the others, finishes (Graham).
    assert makespan <= total / workers \
        + (1 - 1 / workers) * max(tasks) + 1e-9
    # LPT is within 4/3 - 1/(3m) of the optimum; the optimum, not the
    # lower bound: six unit tasks on five workers take 2 against 1.2.
    if len(tasks) <= 8:
        bound = (4 / 3 - 1 / (3 * workers)) * _optimal_makespan(tasks,
                                                                 workers)
        assert makespan <= bound + 1e-9


def _optimal_makespan(tasks, workers):
    """Exhaustive optimum: each task joins an open worker or opens the
    next one, so no relabelling of workers is tried twice."""
    best = sum(tasks)

    def place(i, loads):
        nonlocal best
        if max(loads, default=0.0) >= best:
            return
        if i == len(tasks):
            best = max(loads, default=0.0)
            return
        for w in range(len(loads)):
            loads[w] += tasks[i]
            place(i + 1, loads)
            loads[w] -= tasks[i]
        if len(loads) < workers:
            place(i + 1, loads + [tasks[i]])

    place(0, [])
    return best


def test_optimal_makespan_oracle():
    assert _optimal_makespan([1.0] * 6, 5) == 2.0
    assert _optimal_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2) == 6.0
    assert lpt_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2) == 7.0
