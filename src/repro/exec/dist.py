"""The distributed execution backend: a sharded work queue over sockets.

:class:`DistExecutor` scales a campaign beyond one machine while keeping
every guarantee the local executors already provide (the conformance
contract in ``tests/exec/conformance.py`` and docs/EXEC.md):

* an asyncio **coordinator** owns the task queue, per-attempt timeouts,
  and worker lifecycles, and records every attempt through the engine's
  attempt ledger (:class:`repro.exec.engine._Ledger`) — the same retry,
  backoff, and hook accounting as :class:`~repro.exec.SerialExecutor`;
* N rank-addressed **workers** connect over TCP, speak the versioned
  frame protocol of :mod:`repro.exec.protocol`, and execute one task at
  a time — processes the coordinator spawns itself (``spawn="fork"`` /
  ``spawn="cli"``) or externally launched ``repro worker`` processes on
  other hosts (``spawn="external"``); spawned workers must show a
  per-run token in their JSON ``HELLO`` before anything is unpickled;
* determinism is untouched: tasks carry their pre-spawned
  :class:`numpy.random.SeedSequence`, so results are bit-identical to
  :class:`~repro.exec.SerialExecutor` regardless of worker count, loss,
  or retry history;
* spans raised by remote tasks are captured worker-side
  (:func:`repro.obs.capture_file_spans`), shipped home inside result
  frames, and replayed into the trace sink; worker-local ``repro_*``
  counters travel the same way as per-task deltas
  (:meth:`~repro.obs.MetricsRegistry.merge_counter_deltas`);
* a lost worker — crash, kill, partition, per-attempt timeout — fails
  only the attempt it was running: the task requeues with backoff, other
  workers' in-flight tasks are untouched, and locally spawned workers
  are replaced from a bounded respawn budget.

:class:`ProcessExecutor` is this backend's local preset: forked workers
on localhost, one per core by default.

Socket-level chaos composes the same way task-level chaos does: give the
executor a :class:`~repro.chaos.FaultPlan` whose profile sets
``net_kill_p`` / ``net_partition_p`` / ``net_slow_p`` and the worker
detonates each planned fault once, *after* measuring but before the
result frame goes out — the adversarial moment where the work is lost
and recovery must re-measure to the same bytes.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import os
import secrets
import socket
import subprocess
import sys
import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Collection, Sequence

from .._validation import check_int, check_positive
from ..errors import ExecutionError, ValidationError
from ..obs.metrics import DIST_METRICS
from ..obs.tracing import capture_file_spans, emit_span_dict
from .engine import Executor, Outcome, _Ledger, _now
from .hooks import ExecHooks
from .protocol import (
    ERROR,
    GOODBYE,
    HELLO,
    PROTOCOL_VERSION,
    RESULT,
    SHUTDOWN,
    TASK,
    WELCOME,
    ProtocolError,
    encode_frame,
    read_frame_async,
    recv_frame,
    send_frame,
)

__all__ = ["DistExecutor", "ProcessExecutor", "worker_main"]

#: Carries a spawned ``repro worker``'s run token (see :func:`worker_main`).
_TOKEN_ENV = "REPRO_WORKER_TOKEN"
_HANDSHAKE_TIMEOUT = 10.0
_DRAIN_TIMEOUT = 3.0
#: How long a dropped worker's process may take to exit and be named a crash.
_EXIT_GRACE = 0.5

_NET_FAULT_COUNTERS = {
    "kill": "repro_chaos_net_kills_injected_total",
    "partition": "repro_chaos_net_partitions_injected_total",
    "slow": "repro_chaos_net_slow_links_injected_total",
}


def _net_marker(state_dir: str, label: str) -> str:
    digest = hashlib.blake2b(f"net|{label}".encode(), digest_size=12).hexdigest()
    return os.path.join(state_dir, f"netfault-{digest}")


def _claim_net_fault(state_dir: str, label: str) -> bool:
    """Atomically claim the one allowed firing of *label*'s network fault."""
    try:
        fd = os.open(_net_marker(state_dir, label), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# --------------------------------------------------------------------------
# Worker side (blocking loop; runs in a forked/spawned/remote process)
# --------------------------------------------------------------------------


def _connect_with_retry(host: str, port: int, timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def _plan_from_wire(spec: dict[str, Any] | None) -> Any:
    if spec is None:
        return None
    # Runtime import: repro.exec must stay importable without repro.chaos.
    from ..chaos.plan import FaultPlan, FaultProfile

    return FaultPlan(FaultProfile(**spec["profile"]), seed=spec["seed"])


def _execute_payload(payload: dict[str, Any], rank: int) -> dict[str, Any]:
    """Run one TASK payload; returns the RESULT payload (not yet sent)."""
    fn, item = payload["work"]
    spans: list[tuple[str, dict[str, Any]]] = []
    start = time.perf_counter()
    value: Any = None
    ok = False
    error: str | None = None
    exc: BaseException | None = None
    with capture_file_spans(spans):
        try:
            value = fn(item)
            ok = True
        except Exception as caught:  # noqa: BLE001 - fault boundary
            error = f"{type(caught).__name__}: {caught}"
            exc = caught
    return {
        "id": payload["id"],
        "attempt": payload["attempt"],
        "rank": rank,
        "ok": ok,
        "value": value,
        "error": error,
        "exc": exc,
        "wall": time.perf_counter() - start,
        "spans": spans,
    }


def _safe_result_frame(payload: dict[str, Any]) -> bytes:
    """Encode a RESULT frame, degrading untransportable values to errors."""
    try:
        return encode_frame(RESULT, payload)
    except Exception as exc:  # noqa: BLE001 - pickling/oversize boundary
        fallback = dict(payload)
        fallback.update(
            ok=False,
            value=None,
            exc=None,
            error=f"result not transportable: {type(exc).__name__}: {exc}",
        )
        return encode_frame(RESULT, fallback)


def worker_main(
    host: str,
    port: int,
    *,
    rank: int = -1,
    connect_timeout: float = 10.0,
    token: str | None = None,
) -> int:
    """The blocking worker loop behind ``repro worker``.

    Connects to the coordinator, announces itself (``HELLO``), then
    executes ``TASK`` frames one at a time until ``SHUTDOWN``.  All run
    configuration — assigned rank, metric forwarding, the fault plan —
    arrives in the ``WELCOME`` frame, so a worker needs nothing but the
    coordinator's address (and, if the coordinator spawned it, the run
    *token*, default ``$REPRO_WORKER_TOKEN``).  Returns a process exit
    code: 0 on a clean shutdown, 1 when the coordinator vanished, 3 when
    the coordinator refused the handshake (e.g. version skew, no token).
    """
    if token is None:
        token = os.environ.get(_TOKEN_ENV)
    try:
        sock = _connect_with_retry(host, port, connect_timeout)
    except OSError as exc:
        print(f"repro worker: cannot reach coordinator at {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    try:
        send_frame(sock, HELLO, {
            "rank": int(rank),
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "protocol": PROTOCOL_VERSION,
            "token": token,
        })
        try:
            ftype, cfg = recv_frame(sock)
        except (ProtocolError, ConnectionError) as exc:
            print(f"repro worker: handshake failed: {exc}", file=sys.stderr)
            return 3
        if ftype == ERROR:
            print(f"repro worker: coordinator refused: {cfg.get('error')}",
                  file=sys.stderr)
            return 3
        if ftype != WELCOME:
            print(f"repro worker: expected WELCOME, got frame type {ftype}",
                  file=sys.stderr)
            return 3
        rank = int(cfg["rank"])
        plan = _plan_from_wire(cfg.get("fault"))
        state_dir = cfg.get("fault_state_dir")
        registry = None
        last_counters: dict[str, float] = {}
        if cfg.get("forward_metrics"):
            # A private registry: worker-side components (the simulator
            # kernels) count into it, and per-task deltas ride home on
            # result frames.
            from ..obs.metrics import MetricsRegistry
            from ..simsys.mpi import bind_kernel_metrics

            registry = MetricsRegistry()
            bind_kernel_metrics(registry)
        done = 0
        while True:
            try:
                ftype, payload = recv_frame(sock)
            except ConnectionError:
                return 1
            if ftype == SHUTDOWN:
                send_frame(sock, GOODBYE, {"rank": rank, "tasks_done": done})
                return 0
            if ftype != TASK:
                print(f"repro worker: unexpected frame type {ftype}",
                      file=sys.stderr)
                return 3
            result = _execute_payload(payload, rank)
            if registry is not None:
                current = registry.counter_values()
                deltas = {
                    name: value - last_counters.get(name, 0.0)
                    for name, value in current.items()
                    if value - last_counters.get(name, 0.0) > 0.0
                }
                last_counters = current
                if deltas:
                    result["counters"] = deltas
            if plan is not None and state_dir:
                fault = plan.net_fault(payload["label"])
                if fault is not None and _claim_net_fault(state_dir, payload["label"]):
                    if fault == "kill":
                        os._exit(17)
                    if fault == "partition":
                        # Sever the link abruptly: the coordinator sees a
                        # dropped connection with the result unsent.
                        try:
                            sock.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        sock.close()
                        os._exit(0)
                    time.sleep(plan.profile.net_slow_s)  # slow link
            try:
                sock.sendall(_safe_result_frame(result))
            except OSError:
                return 1
            done += 1
    finally:
        try:
            sock.close()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Coordinator side
# --------------------------------------------------------------------------


def _exit_code(proc: Any, timeout: float) -> int | None:
    """Wait up to *timeout* s for a spawned worker to exit; its exit code."""
    if hasattr(proc, "join"):  # multiprocessing.Process
        proc.join(timeout)
        return proc.exitcode
    try:  # subprocess.Popen
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


@dataclasses.dataclass(eq=False)
class _WorkerConn:
    """One connected worker from the coordinator's point of view."""

    rank: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pid: int
    busy: tuple[int, int] | None = None  # (index, attempt)
    started_at: float = 0.0
    said_goodbye: bool = False

    def close(self) -> None:
        self.writer.close()  # idempotent


class _Run:
    """Per-``run()`` coordinator state: queue, connections, outcomes."""

    def __init__(self, executor: "DistExecutor", worker_fn: Callable[[Any], Any],
                 items: Sequence[Any], names: list[str], hooks: ExecHooks) -> None:
        self.ex = executor
        self.worker_fn = worker_fn
        self.items = items
        self.hooks = hooks
        self.ledger = _Ledger(executor, names, hooks)
        self.inflight: dict[int, _WorkerConn] = {}
        self.idle: list[_WorkerConn] = []
        self.workers: list[_WorkerConn] = []
        self.events: asyncio.Queue[tuple[str, Any, Any]] = asyncio.Queue()
        self.reader_tasks: list[asyncio.Task] = []
        self.next_rank = 0
        self.ever_connected = False
        self.draining = False
        # External workers cannot be respawned; everything else gets a
        # budget that scales with how many attempts the run can burn.
        self.respawn_budget = (
            0 if executor.spawn == "external"
            else executor.workers * (1 + executor.retries)
        )

    # -- metric helpers --------------------------------------------------

    def _count(self, name: str) -> None:
        if self.hooks.metrics is not None:
            self.hooks.metrics.counter(name, DIST_METRICS.get(name, "")).inc()

    # -- connection handling ---------------------------------------------

    async def handle_connection(self, conn: socket.socket) -> None:
        reader, writer = await asyncio.open_connection(sock=conn)
        try:
            # HELLO is JSON: nothing a peer sends is unpickled before it
            # has shown the run token.
            ftype, hello = await asyncio.wait_for(
                read_frame_async(reader, expect=HELLO), _HANDSHAKE_TIMEOUT
            )
            if not isinstance(hello, dict):
                raise ProtocolError("HELLO payload is not a JSON object")
            token = self.ex._token
            if token is not None and not hmac.compare_digest(
                str(hello.get("token")).encode(), token.encode()
            ):
                # Not spawned for this run: a foreign local process, or a
                # straggler from an earlier run left in the listen backlog.
                raise ProtocolError("handshake refused: wrong or missing run token")
        except ProtocolError as exc:
            # Version skew, garbage, or no token: refuse in JSON (readable
            # by any protocol version) and close.
            try:
                writer.write(encode_frame(ERROR, {"error": str(exc)}))
                await writer.drain()
            except Exception:  # noqa: BLE001 - refusal best-effort
                pass
            writer.close()
            return
        except (ConnectionError, asyncio.TimeoutError):
            writer.close()
            return
        pid = int(hello.get("pid", 0))
        rank = int(hello.get("rank", -1))
        if rank < 0:
            rank = self.next_rank
        self.next_rank = max(self.next_rank, rank + 1)
        w = _WorkerConn(rank, reader, writer, pid)
        cfg: dict[str, Any] = {
            "rank": rank,
            "protocol": PROTOCOL_VERSION,
            "forward_metrics": self.hooks.metrics is not None,
            "fault": self.ex._plan_wire_spec(),
            "fault_state_dir": self.ex.fault_state_dir,
        }
        try:
            writer.write(encode_frame(WELCOME, cfg))
            await writer.drain()
        except (ConnectionError, OSError):
            writer.close()
            return
        self.workers.append(w)
        self.ever_connected = True
        self._count("repro_dist_workers_connected_total")
        if self.draining:
            await self._shutdown(w)  # the run ended during the handshake
        else:
            await self.events.put(("connected", w, None))
        try:
            while True:
                ftype, payload = await read_frame_async(w.reader)
                if ftype == RESULT:
                    await self.events.put(("result", w, payload))
                elif ftype == GOODBYE:
                    w.said_goodbye = True
                    return
                else:
                    raise ProtocolError(f"unexpected frame type {ftype} from worker")
        except (ConnectionError, ProtocolError, OSError) as exc:
            if not self.draining:
                await self.events.put(("lost", w, await self._loss_status(w, exc)))
        finally:
            w.close()

    async def _loss_status(self, w: _WorkerConn, exc: BaseException) -> str:
        """Why *w*'s connection dropped: a crash if its process has exited
        with a nonzero code (or a signal), else a loss.

        The socket can close a moment before the process is reapable, so
        a spawned worker gets a short grace to report its exit code.
        """
        proc = self.ex._spawned(w.pid)
        deadline = time.monotonic() + _EXIT_GRACE
        code = None
        while proc is not None:
            code = _exit_code(proc, 0.0)
            if code is not None or time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.01)
        if code:
            return f"crashed (exit code {code}): {exc}"
        return f"lost: {exc}"

    async def accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            conn, _addr = await loop.sock_accept(self.ex._listen_sock)
            self.reader_tasks.append(
                asyncio.ensure_future(self.handle_connection(conn))
            )

    # -- scheduling ------------------------------------------------------

    def _drop_worker(self, w: _WorkerConn, status: str) -> None:
        """A worker is gone: fail its attempt, requeue, maybe respawn.

        *status* completes ``worker rank N ...`` in the attempt's error.
        """
        if w not in self.workers:
            return  # already dropped (timeout path races the reader's EOF)
        self._count("repro_dist_workers_lost_total")
        if w in self.idle:
            self.idle.remove(w)
        self.workers.remove(w)
        w.close()
        if w.busy is not None:
            i, attempt = w.busy
            w.busy = None
            self.inflight.pop(i, None)
            self._count("repro_dist_tasks_reassigned_total")
            self.ledger.failed(i, attempt, f"worker rank {w.rank} {status}",
                               elapsed=max(_now() - w.started_at, 0.0))
        if (
            self.ledger.pending or self.inflight
        ) and self.ex.spawn != "external" and self.respawn_budget > 0:
            if len(self.workers) < self.ex.workers:
                self.respawn_budget -= 1
                self.ex._spawn_worker(self.next_rank)
                self.next_rank += 1

    async def _assign(self, w: _WorkerConn, i: int, attempt: int) -> None:
        payload = {
            "id": i,
            "attempt": attempt,
            "label": self.ledger.names[i],
            "work": (self.worker_fn, self.items[i]),
        }
        self.ledger.submitted(i)
        try:
            frame = encode_frame(TASK, payload)
        except Exception as exc:  # noqa: BLE001 - pickling/oversize boundary
            # An untransportable task would fail identically on every
            # attempt; fail it now instead of burning the retry budget.
            self.idle.append(w)
            self.ledger.failed(
                i, attempt, f"task not transportable: {type(exc).__name__}: {exc}",
                exc, final=True,
            )
            return
        w.busy = (i, attempt)
        w.started_at = _now()
        self.inflight[i] = w
        try:
            w.writer.write(frame)
            await w.writer.drain()
        except (ConnectionError, OSError) as exc:
            self._drop_worker(w, f"lost: send failed: {exc}")

    def _apply_result(self, w: _WorkerConn, payload: dict[str, Any]) -> None:
        i = int(payload["id"])
        attempt = int(payload["attempt"])
        if w.busy != (i, attempt):
            return  # stale frame from an attempt already timed out
        w.busy = None
        self.inflight.pop(i, None)
        self.idle.append(w)
        for sink_path, span in payload.get("spans") or ():
            emit_span_dict(sink_path, span)
        counters = payload.get("counters")
        if counters and self.hooks.metrics is not None:
            from ..obs.metrics import SIMSYS_METRICS

            self.hooks.metrics.merge_counter_deltas(counters, SIMSYS_METRICS)
        elapsed = float(payload.get("wall", 0.0))
        if payload["ok"]:
            self.ledger.succeeded(i, attempt, payload["value"], elapsed)
        else:
            self.ledger.failed(i, attempt, str(payload.get("error")),
                               payload.get("exc"), elapsed)

    def _check_timeouts(self) -> None:
        if self.ex.timeout is None:
            return
        now = _now()
        stuck = [
            w for w in self.workers
            if w.busy is not None and now - w.started_at > self.ex.timeout
        ]
        for w in stuck:
            i, attempt = w.busy
            w.busy = None
            self.inflight.pop(i, None)
            self.ledger.failed(i, attempt,
                               f"task exceeded timeout of {self.ex.timeout:g} s",
                               elapsed=now - w.started_at)
            # The worker may be wedged in user code: sever and replace it.
            self._drop_worker(w, "per-attempt timeout")
            proc = self.ex._spawned(w.pid)
            if proc is not None:
                proc.kill()

    async def scheduler(self) -> None:
        started = _now()
        ledger = self.ledger
        while ledger.pending or self.inflight:
            while ledger.pending and self.idle:
                entry = ledger.pop_ready()
                if entry is None:
                    break
                await self._assign(self.idle.pop(), *entry)
            try:
                if ledger.pending and self.idle and not self.inflight:
                    # Nothing in flight can report back, so sleep through
                    # the backoff on the ledger's (fakeable) clock, let the
                    # readers queue what arrived meanwhile, then poll.
                    ledger.wait_backoff(self.ex._TICK)
                    await asyncio.sleep(0)
                    kind, w, payload = self.events.get_nowait()
                else:
                    kind, w, payload = await asyncio.wait_for(
                        self.events.get(), timeout=self.ex._TICK
                    )
            except (asyncio.TimeoutError, asyncio.QueueEmpty):
                kind = None
            if kind == "connected":
                self.idle.append(w)
            elif kind == "result":
                self._apply_result(w, payload)
            elif kind == "lost":
                self._drop_worker(w, payload)
            self._check_timeouts()
            if not self.workers and (ledger.pending or self.inflight):
                if not self.ever_connected:
                    if _now() - started > self.ex.connect_timeout:
                        raise ExecutionError(
                            f"no workers connected to "
                            f"{self.ex.address[0]}:{self.ex.address[1]} within "
                            f"{self.ex.connect_timeout:g} s"
                        )
                elif self.respawn_budget <= 0:
                    ledger.fail_pending(
                        "worker pool exhausted (all workers lost, "
                        "respawn budget spent)"
                    )

    async def _shutdown(self, w: _WorkerConn) -> None:
        try:
            w.writer.write(encode_frame(SHUTDOWN, {"reason": "run complete"}))
            await w.writer.drain()
        except (ConnectionError, OSError):
            w.close()

    async def drain(self) -> None:
        """Clean shutdown: SHUTDOWN every worker, await GOODBYEs briefly."""
        self.draining = True
        for w in list(self.workers):
            await self._shutdown(w)
        if self.reader_tasks:
            _, late = await asyncio.wait(self.reader_tasks, timeout=_DRAIN_TIMEOUT)
            for task in late:
                task.cancel()
        for w in self.workers:
            w.close()

    async def execute(self) -> list[Outcome]:
        acceptor = asyncio.ensure_future(self.accept_loop())
        try:
            await self.scheduler()
        finally:
            acceptor.cancel()
            try:
                await acceptor
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            await self.drain()
        return self.ledger.outcomes


class DistExecutor(Executor):
    """Socket-sharded campaign execution: one coordinator, N rank workers.

    Parameters
    ----------
    workers:
        Target worker count.  With ``spawn="fork"`` (default) or
        ``spawn="cli"`` the coordinator launches them itself on
        localhost; with ``spawn="external"`` it waits for ``repro
        worker --connect HOST:PORT`` processes started elsewhere.
    host, port:
        The listen address.  Port 0 (default) picks a free port; the
        bound address is :attr:`address` (bind happens in the
        constructor, so external workers can be pointed at it before
        ``run()`` is called).
    spawn:
        ``"fork"`` — fastest, same interpreter, test-friendly (task
        callables only need to be picklable by reference within this
        process tree); ``"cli"`` — ``python -m repro worker``
        subprocesses, the shape of a real multi-host deployment;
        ``"external"`` — never spawns, only accepts.
    timeout:
        Per-attempt wall-clock limit.  A timed-out attempt fails (and
        retries with backoff); the worker running it is presumed wedged,
        severed, and — for spawned workers — replaced.  Other in-flight
        tasks are unaffected.
    retries, backoff, max_backoff:
        As for :class:`~repro.exec.Executor`.
    connect_timeout:
        How long ``run()`` waits for the first worker before raising
        :class:`~repro.errors.ExecutionError`.  Budget for interpreter
        start *and* package import when sizing it for ``spawn="cli"``:
        a cold ``repro worker`` costs seconds, and N of them compete
        for the same cores.
    fault_plan, fault_state_dir:
        Socket-level chaos: a :class:`~repro.chaos.FaultPlan` consulted
        per task label, with once-only markers kept in
        *fault_state_dir*.  The plan crosses the wire as ``(profile,
        seed)`` and is reconstructed worker-side, so it must be a real
        ``FaultPlan`` (hash-addressed decisions), not an arbitrary
        object.  See :attr:`injected_net` and docs/ROBUSTNESS.md.

    A lost worker costs one attempt of the one task it was running —
    crash-looping tasks are bounded by ``retries`` and crash-looping
    *workers* by a respawn budget of ``workers * (1 + retries)``.  The
    attempt's error names the cause: ``worker rank N crashed (exit code
    C): ...`` when a spawned worker's process exited, ``worker rank N
    lost: ...`` when only the connection went away.
    """

    _TICK = 0.02  # seconds between scheduler wake-ups

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: str = "fork",
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        connect_timeout: float = 30.0,
        fault_plan: Any | None = None,
        fault_state_dir: str | Path | None = None,
    ) -> None:
        super().__init__(retries=retries, backoff=backoff, max_backoff=max_backoff)
        self.workers = check_int(workers, "workers", minimum=1)
        if spawn not in ("fork", "cli", "external"):
            raise ValidationError(
                f"spawn must be 'fork', 'cli', or 'external', got {spawn!r}"
            )
        self.spawn = spawn
        self.timeout = None if timeout is None else check_positive(timeout, "timeout")
        self.connect_timeout = float(connect_timeout)
        if fault_plan is not None and fault_state_dir is None:
            raise ValidationError(
                "fault_plan needs fault_state_dir for its once-only markers"
            )
        self.fault_plan = fault_plan
        self.fault_state_dir = str(fault_state_dir) if fault_state_dir else None
        if self.fault_state_dir:
            Path(self.fault_state_dir).mkdir(parents=True, exist_ok=True)
        #: Network faults planted by this executor so far, by kind.
        self.injected_net: dict[str, int] = {"kill": 0, "partition": 0, "slow": 0}
        self._procs: list[Any] = []
        #: The current run's secret; spawned workers present it in HELLO.
        self._token: str | None = None
        self._listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen_sock.bind((host, int(port)))
        self._listen_sock.listen(128)
        self._listen_sock.setblocking(False)
        #: The bound ``(host, port)`` workers should connect to.
        self.address: tuple[str, int] = self._listen_sock.getsockname()[:2]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Close the listen socket and reap any leftover worker processes."""
        self._listen_sock.close()
        self._reap_workers()

    def __enter__(self) -> "DistExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing
        try:
            self._listen_sock.close()
        except Exception:  # noqa: BLE001
            pass

    # -- worker process management ---------------------------------------

    def _spawn_worker(self, rank: int) -> None:
        host, port = self.address
        if self.spawn == "fork":
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            proc = ctx.Process(
                target=worker_main,
                args=(host, port),
                kwargs={"rank": rank, "connect_timeout": self.connect_timeout,
                        "token": self._token},
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        elif self.spawn == "cli":
            env = dict(os.environ, **{_TOKEN_ENV: self._token})
            src_root = str(Path(__file__).resolve().parents[2])
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            self._procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"{host}:{port}", "--rank", str(rank),
                 "--connect-timeout", str(self.connect_timeout)],
                env=env,
            ))

    def _spawned(self, pid: int) -> Any | None:
        """The process this executor spawned with *pid*, if any."""
        return next((p for p in self._procs if getattr(p, "pid", None) == pid), None)

    def _reap_workers(self, clean: Collection[int] = ()) -> None:
        """Reap every spawned worker.  Those in *clean* (pids that said
        GOODBYE) are exiting already; any other is a straggler that never
        finished its handshake or is wedged in user code: terminate it
        now, and kill whatever outlives a short grace."""
        for proc in self._procs:
            try:
                if proc.pid not in clean:
                    proc.terminate()
                if _exit_code(proc, 1.0) is None:
                    proc.kill()
                    _exit_code(proc, _DRAIN_TIMEOUT)
            except (OSError, ValueError):  # pragma: no cover - reap race
                pass
        self._procs = []

    # -- chaos accounting ------------------------------------------------

    def _plan_wire_spec(self) -> dict[str, Any] | None:
        if self.fault_plan is None:
            return None
        plan = self.fault_plan
        return {"seed": plan.seed, "profile": dataclasses.asdict(plan.profile)}

    def _count_planned_net_faults(self, names: list[str], hooks: ExecHooks) -> None:
        if self.fault_plan is None or self.fault_state_dir is None:
            return
        for name in names:
            fault = self.fault_plan.net_fault(name)
            if fault is not None and not os.path.exists(
                _net_marker(self.fault_state_dir, name)
            ):
                self.injected_net[fault] += 1
                if hooks.metrics is not None:
                    hooks.metrics.counter(_NET_FAULT_COUNTERS[fault]).inc()

    # -- the executor contract -------------------------------------------

    def run(
        self,
        worker: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        labels: Sequence[str] | None = None,
        hooks: ExecHooks | None = None,
    ) -> list[Outcome]:
        hooks = hooks or ExecHooks()
        names = self._labels(items, labels)
        if not items:
            return []
        if self._listen_sock.fileno() < 0:
            raise ExecutionError("DistExecutor is closed")
        if hooks.metrics is not None:
            hooks.metrics.bind_dist_metrics()
        self._count_planned_net_faults(names, hooks)
        # External workers cannot learn a secret minted here; they are
        # trusted the way the network they connect over is.
        self._token = None if self.spawn == "external" else secrets.token_hex(16)
        run = _Run(self, worker, items, names, hooks)
        try:
            if self.spawn != "external":
                for rank in range(self.workers):
                    self._spawn_worker(rank)
            outcomes = asyncio.run(run.execute())
        finally:
            self._reap_workers(clean={w.pid for w in run.workers if w.said_goodbye})
        return outcomes


class ProcessExecutor(DistExecutor):
    """Local parallel execution: a :class:`DistExecutor` with forked workers.

    The same scheduler, failure model, and worker metric forwarding as
    the dist backend, on localhost.  Work crosses to the workers by
    pickling: the worker callable and every item must be picklable
    (module-level functions, not lambdas or closures).

    Parameters
    ----------
    max_workers:
        Worker count (default: ``os.cpu_count()``).
    timeout, retries, backoff, max_backoff:
        As for :class:`DistExecutor`.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        if max_workers is not None:
            check_int(max_workers, "max_workers", minimum=1)
        super().__init__(max_workers or os.cpu_count() or 1, spawn="fork",
                         timeout=timeout, retries=retries, backoff=backoff,
                         max_backoff=max_backoff)
