"""The dist coordinator's handshake, loss reporting, and respawn budget.

A :class:`ProcessExecutor` listens on loopback, where on a shared host
any local user can connect.  Nothing a peer sends may be unpickled
before it has shown the run token in a JSON ``HELLO``.
"""

from __future__ import annotations

import os
import socket
import time

import pytest

from repro.chaos import ChaosExecutor, FaultPlan, FaultProfile
from repro.exec import DistExecutor, ExecHooks, ProcessExecutor, worker_main
from repro.exec.protocol import ERROR, HELLO, PROTOCOL_VERSION, TASK, encode_frame, recv_frame
from repro.obs import MetricsRegistry


def _double(item):
    return 2 * item


class _DieOnce:
    """Kills its worker on each item's first attempt; the marker crosses
    processes."""

    def __init__(self, state_dir):
        self.state_dir = str(state_dir)

    def __call__(self, item):
        try:
            fd = os.open(os.path.join(self.state_dir, f"die-{item}"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return 2 * item
        os.close(fd)
        os._exit(17)


def _always_die(item):
    os._exit(17)


def _touch(path):
    with open(path, "w"):
        pass


class _Detonator:
    """Unpickling this object creates *path*: proof the frame was decoded."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (_touch, (self.path,))


def _foreign_peer(executor, ftype, payload):
    """Connect before ``run()`` (the connection waits in the backlog) and
    send one frame, as another local process could."""
    sock = socket.create_connection(executor.address, timeout=10.0)
    sock.sendall(encode_frame(ftype, payload))
    return sock


def _run_with_peer(ftype, payload):
    with ProcessExecutor(max_workers=1, retries=0) as executor:
        peer = _foreign_peer(executor, ftype, payload)
        try:
            outcomes = executor.run(_double, [1, 2, 3])
            reply = recv_frame(peer)
        finally:
            peer.close()
    return outcomes, reply


class TestForeignPeers:
    def test_pickled_first_frame_is_refused_undecoded(self, tmp_path):
        marker = tmp_path / "unpickled"
        outcomes, (ftype, reply) = _run_with_peer(TASK, _Detonator(str(marker)))
        assert ftype == ERROR and "expected HELLO" in reply["error"]
        assert not marker.exists()
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_hello_without_run_token_is_refused(self):
        hello = {"rank": 0, "pid": os.getpid(), "host": "elsewhere",
                 "protocol": PROTOCOL_VERSION}
        outcomes, (ftype, reply) = _run_with_peer(HELLO, hello)
        assert ftype == ERROR and "run token" in reply["error"]
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)


    def test_hello_with_non_integer_pid_is_refused(self):
        """A malformed HELLO is refused with ERROR and closed, like a bad
        token, instead of killing its connection task."""
        import multiprocessing

        with DistExecutor(workers=1, spawn="external", retries=0) as executor:
            peer = _foreign_peer(executor, HELLO, {"pid": "not-a-pid",
                                                   "protocol": PROTOCOL_VERSION})
            worker = multiprocessing.get_context("fork").Process(
                target=worker_main, args=executor.address, daemon=True
            )
            worker.start()
            try:
                outcomes = executor.run(_double, [1, 2, 3])
                ftype, reply = recv_frame(peer)
                assert peer.recv(1) == b""  # and closed
            finally:
                peer.close()
                worker.join(10.0)
        assert ftype == ERROR and "must be integers" in reply["error"]
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert worker.exitcode == 0


class TestLossReporting:
    """Socket faults planted by :class:`ChaosExecutor` around the dist
    backend: each fires once, after the measurement, before the reply."""

    @staticmethod
    def _run(tmp_path, retries, **fault_p):
        plan = FaultPlan(FaultProfile("net", **fault_p), seed=0)
        with DistExecutor(workers=1, retries=retries) as inner:
            chaos = ChaosExecutor(inner, plan, tmp_path / f"state-{retries}")
            (outcome,) = chaos.run(_double, [1], labels=["a"])
        return outcome

    def test_partition_is_lost_not_crashed(self, tmp_path):
        """A partitioned worker exits cleanly: the error says ``lost``."""
        outcome = self._run(tmp_path, 0, net_partition_p=1.0)
        assert not outcome.ok
        assert "worker rank 0 lost" in outcome.error
        assert "crashed" not in outcome.error

    def test_kill_is_crashed_and_recovers_on_retry(self, tmp_path):
        outcome = self._run(tmp_path, 0, net_kill_p=1.0)
        assert not outcome.ok
        assert "worker rank 0 crashed (exit code 17)" in outcome.error
        outcome = self._run(tmp_path, 1, net_kill_p=1.0)
        assert outcome.ok and outcome.value == 2 and outcome.attempts == 2

    def test_slow_link_is_late_not_lost(self, tmp_path):
        outcome = self._run(tmp_path, 0, net_slow_p=1.0, net_slow_s=0.05)
        assert outcome.ok and outcome.value == 2 and outcome.attempts == 1
        assert outcome.wall_time >= 0.05


class TestRespawnBudget:
    """Spawned workers are replaced from a budget of ``workers * (1 +
    retries)`` *consecutive* losses; the pool is exhausted only when that
    budget is spent and no worker is left, connected or joining."""

    @pytest.mark.parametrize(
        "n_tasks, backoff", [(3, 0.5), (4, 0.0)], ids=["consecutive", "scattered"]
    )
    def test_every_task_killing_its_worker_once_recovers(self, tmp_path, n_tasks,
                                                         backoff):
        # Budget 3.  "consecutive": every retry waits out its backoff, so
        # three losses come back to back and spend the budget while the
        # last replacement is still connecting.  "scattered": each retry
        # runs next and its result refills the budget, so four losses in
        # all do not exhaust it.
        with ProcessExecutor(max_workers=1, retries=2, backoff=backoff) as executor:
            outcomes = executor.run(_DieOnce(tmp_path), list(range(n_tasks)))
        assert [o.value for o in outcomes] == [2 * i for i in range(n_tasks)]
        assert all(o.ok and o.attempts == 2 for o in outcomes)

    def test_crash_looping_pool_fails_fast(self):
        registry = MetricsRegistry()
        hooks = ExecHooks(metrics=registry)
        start = time.perf_counter()
        with ProcessExecutor(max_workers=1, retries=2, backoff=0.0) as executor:
            outcomes = executor.run(_always_die, [1, 2, 3], hooks=hooks)
        assert time.perf_counter() - start < 10.0
        assert not any(o.ok for o in outcomes)
        assert "crashed (exit code 17)" in outcomes[0].error
        assert outcomes[0].attempts == 3
        assert all("worker pool exhausted" in o.error for o in outcomes[1:])
        # The first task burns its three attempts; three replacements in
        # all, then the second task's loss leaves no worker and no budget.
        assert registry.get("repro_dist_workers_lost_total").value == 4


class TestTelemetryHome:
    def test_stale_frame_is_dropped_with_its_spans(self):
        from repro.exec import engine
        from repro.exec.dist import _Run
        from repro.obs import Recording, Tracer

        tracer, worker = Tracer(), Recording()
        with worker.span("measurement-batch", tracer.trace_id, None):
            pass
        frame = {"ok": True, "value": 6, "error": None, "exc": None, "wall": 0.0,
                 "telemetry": worker.export()}
        token = engine._RUN_TRACER.set(tracer)  # as run_measurement_tasks does
        try:
            with DistExecutor(workers=1, spawn="fork") as executor:
                run = _Run(executor, _double, [3], ["t0"], ExecHooks())
        finally:
            engine._RUN_TRACER.reset(token)
        run.ledger.connect("w")
        ((w, i, attempt),) = run.ledger.dispatch(engine._now())
        run._apply_result(w, {**frame, "id": i, "attempt": attempt + 1})
        assert tracer.finished == []  # no such attempt in flight: stale
        run._apply_result(w, {**frame, "id": i, "attempt": attempt})
        assert [s.name for s in tracer.finished] == ["measurement-batch"]
        assert run.ledger.done and run.ledger.outcomes[i].value == 6
