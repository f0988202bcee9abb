"""A seeded, sleep-free stress run of the serving frontend.

Worker threads fire request rows drawn from a seeded generator over a
few keys (so identical concurrent requests ride one another), some with
a budget of 0 ms (so deadlines fire in the queue and while waiting),
at a frontend with small bounds (so admission sheds).  A gate holds the
first batch of each round until every worker has arrived, so requests
pile up behind it; nothing sleeps.  Whatever the interleaving:

* every call ends in its row's answer or a typed error — the backend's
  error for that row, a shed ``OverloadError`` or a
  ``DeadlineExceededError``; nothing else escapes and nothing hangs;
* a rider gets what its leader got, so an answer is always the row's
  own and a shed reaches a caller as the very error admission raised;
* ``inflight`` returns to 0 and each shed error is counted once in
  ``serving.shed``; ``serving.deadline.expired`` counts every request
  dropped in the queue, including those whose caller had already given
  up, so the drop errors callers see are at most that many.
"""

import random
import sys
import threading

from repro.errors import (DeadlineExceededError, ExecutionError,
                          OverloadError)
from repro.obs import Observability
from repro.serving import FrontendServer
from tests.conftest import PerRowBatch

WORKERS = 12
CALLS = 40
ROUNDS = 3
SEED = 43


def answer(row):
    """The backend's deterministic outcome for ``row``."""
    if row[0] % 5 == 0:
        raise ExecutionError(f"row {row} is refused")
    return {"key": row[0], "sum": row[0] + row[1]}


class GatedBackend(PerRowBatch):
    """Holds its first call of a round until every worker arrived."""

    def __init__(self):
        self.arrived = 0
        self.round_open = False
        self.changed = threading.Condition()

    def arrive(self):
        with self.changed:
            self.arrived += 1
            self.changed.notify_all()

    def request(self, name, row):
        with self.changed:
            if not self.round_open:
                assert self.changed.wait_for(
                    lambda: self.arrived >= WORKERS, timeout=30)
                self.round_open = True
        return answer(row)


def counter_total(obs, name):
    return sum(series.value for series in obs.registry.series()
               if series.kind == "counter" and series.name == name)


def test_every_call_ends_typed_and_the_books_balance():
    obs = Observability(enabled=True)
    backend = GatedBackend()
    frontend = FrontendServer(backend, obs, max_queue=3, max_inflight=5,
                              max_batch=2, max_wait_ms=0)
    plans = []
    rng = random.Random(SEED)
    for _ in range(WORKERS):
        plans.append([((rng.randrange(6), rng.randrange(3)),
                       0.0 if rng.random() < 0.15 else None)
                      for _ in range(CALLS)])
    outcomes = [[] for _ in range(WORKERS)]
    escaped = []

    def work(index, calls):
        try:
            for call, (row, timeout_ms) in enumerate(calls):
                if call == 0:
                    backend.arrive()
                try:
                    outcomes[index].append(
                        (row, frontend.request("d", row,
                                               timeout_ms=timeout_ms)))
                except (ExecutionError, OverloadError,
                        DeadlineExceededError) as exc:
                    outcomes[index].append((row, exc))
        except BaseException as exc:  # anything else fails the test
            escaped.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for round_ in range(ROUNDS):
            backend.arrived, backend.round_open = 0, False
            threads = [threading.Thread(target=work, args=(index, calls[
                round_ * CALLS // ROUNDS:(round_ + 1) * CALLS // ROUNDS]))
                for index, calls in enumerate(plans)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a caller never returned"
    finally:
        sys.setswitchinterval(interval)
    assert escaped == []

    sheds, expired = set(), set()
    for row, outcome in (pair for per in outcomes for pair in per):
        if isinstance(outcome, dict):
            assert outcome == answer(row)
        elif isinstance(outcome, OverloadError):
            sheds.add(id(outcome))
        elif isinstance(outcome, DeadlineExceededError):
            if "in the queue" in str(outcome):
                expired.add(id(outcome))
        else:
            assert isinstance(outcome, ExecutionError) and row[0] % 5 == 0
    assert sum(map(len, outcomes)) == WORKERS * CALLS
    assert frontend.inflight == 0
    assert len(sheds) == counter_total(obs, "serving.shed")
    assert len(expired) <= counter_total(obs, "serving.deadline.expired")
    assert counter_total(obs, "serving.dedup") > 0
    frontend.close()
