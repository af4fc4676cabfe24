"""The attempt ledger on its own: events in, decisions out.

:class:`repro.exec.engine._Ledger` decides dispatch, retry, timeout,
and respawn for both schedulers.  It reads no clock and touches no
socket or process, so these tests drive it on a :class:`FakeClock` with
plain event calls: the schedule they assert is exact.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecHooks, SerialExecutor
from repro.exec import engine
from repro.exec.engine import _Ledger

from ..conftest import FakeClock

EXHAUSTED = "worker pool exhausted"


def _ledger(n, *, retries=2, backoff=0.0, max_backoff=2.0, timeout=None, pool=0):
    events: list[tuple[str, str]] = []
    hooks = ExecHooks(on_event=lambda ev, label: events.append((ev, label)))
    executor = SerialExecutor(retries=retries, backoff=backoff, max_backoff=max_backoff)
    names = [f"t{i}" for i in range(n)]
    return _Ledger(executor, names, hooks, timeout=timeout, pool=pool), events


def _delay(backoff, max_backoff, attempt):
    """The documented schedule, written out independently of the engine."""
    return 0.0 if backoff == 0 else min(backoff * 2 ** (attempt - 1), max_backoff)


# -- the property: random interleavings of every event ------------------------

actions = st.lists(
    st.one_of(
        st.tuples(st.just("connect")),
        st.tuples(st.just("dispatch")),
        st.tuples(st.just("result"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("stale"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("lost"), st.integers(0, 7)),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])),
        st.tuples(st.just("jump")),
    ),
    max_size=60,
)


class _EventFeed:
    """Feeds events to a ledger and checks every decision against a
    model written from the documented semantics."""

    def __init__(self, n, retries, backoff, timeout, pool):
        self.ledger, self.events = _ledger(
            n, retries=retries, backoff=backoff, max_backoff=2.0,
            timeout=timeout, pool=pool,
        )
        self.n, self.retries, self.backoff, self.timeout = n, retries, backoff, timeout
        self.clock = FakeClock()
        self.next_worker = 0
        self.live: list[int] = []
        #: The model's in-flight table and queue deadlines.
        self.running: dict[int, tuple[int, int, float]] = {}
        self.ready_at: dict[tuple[int, int], float] = {(i, 1): 0.0 for i in range(n)}

    # -- events ----------------------------------------------------------

    def connect(self):
        w = self.next_worker
        self.next_worker += 1
        self.live.append(w)
        self.ledger.connect(w)

    def dispatch(self):
        now = self.clock.t
        for w, i, attempt in self.ledger.dispatch(now):
            assert w in self.live and w not in {o for o, _, _ in self.running.values()}
            assert 1 <= attempt <= self.retries + 1
            # Never before its backoff deadline: deadlines are exact.
            assert now >= self.ready_at.pop((i, attempt))
            self.running[i] = (w, attempt, now)

    def result(self, k, ok):
        if not self.running:
            if not self.live:
                self.connect()
            self.dispatch()  # put work in flight to report on
        if not self.running:
            return
        i = sorted(self.running)[k % len(self.running)]
        w, attempt, started = self.running.pop(i)
        decisions = self.ledger.result(
            w, i, attempt, self.clock.t,
            value=i if ok else None, error=None if ok else "boom",
        )
        self._apply(decisions)
        assert decisions[0] == ("ok" if ok else self._verdict(attempt), i)
        assert self.ledger.outcomes[i].attempts == attempt

    def stale(self, k, wrong_worker):
        """Report an attempt that is not in flight on that worker."""
        if self.running and wrong_worker:
            i = sorted(self.running)[k % len(self.running)]
            w, attempt, _ = self.running[i]
            w = w + 1000
        elif self.running:
            i = sorted(self.running)[k % len(self.running)]
            w, attempt, _ = self.running[i]
            attempt += 1
        else:
            i, w, attempt = k % self.n, 0, 1
        before = [vars(o).copy() for o in self.ledger.outcomes]
        n_events = len(self.events)
        assert self.ledger.result(w, i, attempt, self.clock.t, value="stale") == []
        assert [vars(o) for o in self.ledger.outcomes] == before
        assert len(self.events) == n_events

    def lost(self, k):
        if not self.live:
            return
        w = self.live.pop(k % len(self.live))
        charged = [i for i, (o, _, _) in self.running.items() if o == w]
        for i in charged:
            del self.running[i]
        decisions = self._apply(self.ledger.lost(w, f"worker rank {w} lost", self.clock.t))
        if charged:
            (i,) = charged
            assert decisions[0] == (self._verdict(self.ledger.outcomes[i].attempts), i)
            # Its error names the loss, unless the pool is exhausted too.
            exhausted = (i in {arg for _, arg in decisions[1:]})
            assert (EXHAUSTED in self.ledger.outcomes[i].error) == exhausted
            assert exhausted or self.ledger.outcomes[i].error == f"worker rank {w} lost"
        # A second report of the same loss decides nothing.
        assert self.ledger.lost(w, "again", self.clock.t) == []

    def tick(self, dt):
        self.clock.advance(dt)
        now = self.clock.t
        due = {
            i for i, (_, _, started) in self.running.items()
            if self.timeout is not None and now >= started + self.timeout
        }
        decisions = self._apply(self.ledger.tick(now))
        severed = {arg for kind, arg in decisions if kind == "sever"}
        assert severed == {self.running[i][0] for i in due}
        for i in due:
            w, _, started = self.running.pop(i)
            self.live.remove(w)
            error = self.ledger.outcomes[i].error
            assert error == f"task exceeded timeout of {self.timeout:g} s" or (
                EXHAUSTED in error and ("fail", i) in decisions
            )
        # Not before: every other attempt is still in flight.
        assert set(self.ledger.inflight) == set(self.running)

    def jump(self):
        """Advance exactly to the earliest backoff deadline."""
        due = self.ledger.wake_at()
        expected = min(self.ready_at.values(), default=None)
        assert due == expected
        if due is None or due < self.clock.t:
            return
        self.tick(due - self.clock.t)
        if self.ledger.idle:
            self.dispatch()
            assert (self.running or self.ledger.done
                    or not any(d <= self.clock.t for d in self.ready_at.values()))

    # -- bookkeeping -------------------------------------------------------

    def _verdict(self, attempt):
        return "requeue" if attempt <= self.retries else "fail"

    def _apply(self, decisions):
        now = self.clock.t
        for kind, arg in decisions:
            if kind == "requeue":
                attempt = self.ledger.outcomes[arg].attempts
                self.ready_at[(arg, attempt + 1)] = now + _delay(self.backoff, 2.0, attempt)
            elif kind == "fail":
                for key in [key for key in self.ready_at if key[0] == arg]:
                    del self.ready_at[key]  # exhausted while queued
        return decisions

    def check(self):
        # The queue holds exactly the model's entries and deadlines.
        assert sorted(self.ledger.pending) == sorted(
            (i, attempt, t) for (i, attempt), t in self.ready_at.items()
        )
        for i, name in enumerate(self.ledger.names):
            assert self.events.count(("submitted", name)) <= 1
            assert (self.events.count(("completed", name))
                    + self.events.count(("failed", name))) <= 1
            assert self.ledger.outcomes[i].attempts <= self.retries + 1

    def finish(self):
        """Run what is left to completion with healthy workers."""
        for _ in range(10 * self.n * (self.retries + 2)):
            if self.ledger.done:
                break
            if not self.live:
                self.connect()
            self.dispatch()
            for _ in range(len(self.running)):
                self.result(0, True)
            if not self.ledger.done and not self.running:
                self.jump()
            self.check()
        assert self.ledger.done
        for i, name in enumerate(self.ledger.names):
            assert self.events.count(("submitted", name)) == 1
            ended = [ev for ev, label in self.events
                     if label == name and ev in ("completed", "failed")]
            assert ended == ["completed" if self.ledger.outcomes[i].ok else "failed"]


class TestLedgerProperties:
    @given(
        n=st.integers(1, 5),
        retries=st.integers(0, 3),
        backoff=st.sampled_from([0.0, 0.5, 1.0]),
        timeout=st.sampled_from([None, 1.0, 2.5]),
        pool=st.integers(0, 3),
        script=actions,
    )
    @settings(max_examples=200, deadline=None)
    def test_random_event_sequences_keep_the_contract(
        self, n, retries, backoff, timeout, pool, script
    ):
        feed = _EventFeed(n, retries, backoff, timeout, pool)
        # The ledger reads no clock: the scheduler's seam must stay unused.
        with mock.patch.object(engine, "_now", side_effect=AssertionError), \
             mock.patch.object(engine, "_sleep", side_effect=AssertionError):
            for name, *args in script:
                getattr(feed, name)(*args)
                feed.check()
            feed.finish()


# -- the respawn budget, without processes -----------------------------------


def _crash_run(n, *, backoff, dies):
    """One spawned worker (budget ``1 * (1 + 2)``); *dies(i, attempt)*
    says whether that attempt kills its worker.  A replacement connects
    one step after it is spawned."""
    ledger, events = _ledger(n, retries=2, backoff=backoff, pool=1)
    clock = FakeClock()
    joining, next_worker, losses, budgets = 1, 0, 0, []
    while not ledger.done:
        for _ in range(joining):
            ledger.connect(next_worker)
            next_worker += 1
        joining = 0
        runs = ledger.dispatch(clock.t)
        if not runs:
            clock.advance(ledger.wake_at() - clock.t)
            continue
        for w, i, attempt in runs:
            clock.advance(0.1)
            if dies(i, attempt):
                losses += 1
                decisions = ledger.lost(
                    w, f"worker rank {w} crashed (exit code 17): EOF", clock.t
                )
                joining += sum(kind == "spawn" for kind, _ in decisions)
                budgets.append((ledger.respawns, ledger.joining))
            else:
                ledger.result(w, i, attempt, clock.t, value=2 * i)
    return ledger, losses, budgets


class TestRespawnBudget:
    def test_consecutive_losses_spend_the_budget_while_a_replacement_joins(self):
        # Every retry waits out its backoff, so the three first attempts
        # kill three workers back to back: the budget is spent while the
        # last replacement is still joining, and that one finishes the run.
        ledger, losses, budgets = _crash_run(3, backoff=0.5, dies=lambda i, a: a == 1)
        assert losses == 3 and budgets == [(2, 1), (1, 1), (0, 1)]
        assert [o.value for o in ledger.outcomes] == [0, 2, 4]
        assert all(o.ok and o.attempts == 2 for o in ledger.outcomes)

    def test_scattered_losses_are_refilled_by_every_result(self):
        # Each retry runs next and its result refills the budget, so four
        # losses in all never bring it below two.
        ledger, losses, budgets = _crash_run(4, backoff=0.0, dies=lambda i, a: a == 1)
        assert losses == 4 and budgets == [(2, 1)] * 4
        assert all(o.ok and o.attempts == 2 for o in ledger.outcomes)

    def test_crash_looping_pool_fails_fast(self):
        ledger, losses, budgets = _crash_run(3, backoff=0.0, dies=lambda i, a: True)
        # The first task burns its three attempts; three replacements in
        # all, then the second task's loss leaves no worker and no budget.
        assert losses == 4 and budgets[-1] == (0, 0)
        first, *rest = ledger.outcomes
        assert not first.ok and first.attempts == 3
        assert "worker rank 2 crashed (exit code 17)" in first.error
        assert all(not o.ok and EXHAUSTED in o.error for o in rest)
        assert [o.attempts for o in rest] == [1, 0]

    def test_a_joining_worker_keeps_the_pool_alive(self):
        # Two spawned, one slow to join; budget 2 * (1 + 0).  Three losses
        # spend the budget and leave no worker connected, but one worker
        # is still joining: the last task waits for it.
        ledger, _ = _ledger(4, retries=0, pool=2)
        for w in ("a", "b", "c"):
            ledger.connect(w)
            ((_, i, _),) = ledger.dispatch(0.0)
            decisions = ledger.lost(w, f"worker {w} lost", 0.0)
            assert decisions[0] == ("fail", i)
        assert (ledger.respawns, ledger.joining, ledger.live) == (0, 1, set())
        assert not ledger.outcomes[3].error
        ledger.connect("slow")
        assert ledger.dispatch(0.0) == [("slow", 3, 1)]
        ledger.result("slow", 3, 1, 1.0, value=6)
        assert ledger.done and ledger.outcomes[3].ok

    def test_external_workers_are_never_replaced(self):
        ledger, _ = _ledger(2, pool=0)
        ledger.connect("x")
        ((w, i, attempt),) = ledger.dispatch(0.0)
        decisions = ledger.lost(w, "worker rank 0 lost", 1.0)
        assert ("spawn", None) not in decisions
        assert all(EXHAUSTED in o.error for o in ledger.outcomes)


class TestTimeouts:
    @pytest.mark.parametrize("timeout", [0.5, 3.0])
    def test_fires_at_the_deadline_and_not_before(self, timeout):
        ledger, events = _ledger(1, retries=1, timeout=timeout, pool=1)
        ledger.connect("w")
        ledger.dispatch(10.0)
        assert ledger.tick(10.0 + timeout - 1e-9) == []
        assert ledger.tick(10.0 + timeout) == [
            ("requeue", 0), ("sever", "w"), ("spawn", None),
        ]
        assert ledger.outcomes[0].wall_time == timeout
        # The severed worker's late report is stale.
        assert ledger.result("w", 0, 1, 20.0, value=1) == []
        assert ("retried", "t0") in events
