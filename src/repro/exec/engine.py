"""The campaign execution engine: fan tasks out, retry faults, keep order.

The paper's methodology multiplies measurement counts fast — randomized
run order x replications x CI-driven stopping — so the execution core is
an engine, not a for-loop.  Every executor shares one contract:

* :class:`SerialExecutor` runs tasks in-process, in order — the debugging
  and single-core baseline;
* :class:`~repro.exec.DistExecutor` shards tasks over socket workers,
  with bounded-backoff retries and per-attempt timeouts, so one bad task
  (or one dead worker) is recorded rather than fatal;
  :class:`~repro.exec.ProcessExecutor` is its local, forked-worker form.

One attempt ledger (:class:`_Ledger`) makes every dispatch, retry,
timeout, and respawn decision for both, so retry accounting, backoff,
and hook events cannot drift between them.

Determinism is *not* the executor's job: every task carries a
pre-spawned :class:`numpy.random.SeedSequence`
(:mod:`repro.exec.seeding`), so results are bit-identical across
executors and worker counts.  The measurement layer
(:func:`run_measurement_tasks`) adds the content-addressed result cache
(:mod:`repro.exec.cache`) and the metrics hooks
(:mod:`repro.exec.hooks`) on top of any executor.
"""

from __future__ import annotations

import inspect
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .._validation import check_int, check_nonneg
from ..errors import DesignError, ValidationError
from ..obs.recording import Recording, current_recording
from ..obs.tracing import Tracer
from .cache import ResultCache, task_fingerprint
from .hooks import ExecHooks
from .seeding import spawn_task_seeds, task_seed_id

__all__ = [
    "Executor",
    "SerialExecutor",
    "MeasurementTask",
    "TaskResult",
    "Outcome",
    "make_tasks",
    "run_measurement_tasks",
    "point_values",
]


# --------------------------------------------------------------------------
# Generic task execution (any picklable worker/items)
# --------------------------------------------------------------------------


def _now() -> float:
    """The scheduler clock.  Module-level so tests can install a fake
    clock (``tests/conftest.py::fake_clock``) and make backoff/timeout
    assertions exact instead of wall-margin guesses."""
    return time.monotonic()


def _sleep(seconds: float) -> None:
    """The scheduler sleep, paired with :func:`_now` for fake clocks."""
    time.sleep(seconds)


@dataclass
class Outcome:
    """What happened to one item handed to an executor.

    ``exception`` holds the final attempt's exception object when one is
    available in the parent process (worker exceptions cross the process
    boundary inside the result frame); ``error`` is always a string.
    """

    index: int
    value: Any = None
    ok: bool = False
    attempts: int = 0
    wall_time: float = 0.0
    error: str | None = None
    exception: BaseException | None = None


class Executor:
    """Common retry bookkeeping shared by the concrete executors.

    ``retries`` is the number of *re*-attempts after the first failure;
    backoff between attempt k and k+1 is ``min(backoff * 2**(k-1),
    max_backoff)`` seconds.
    """

    def __init__(
        self,
        *,
        retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        self.retries = check_int(retries, "retries", minimum=0)
        self.backoff = check_nonneg(backoff, "backoff")
        self.max_backoff = check_nonneg(max_backoff, "max_backoff")

    def run(
        self,
        worker: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        labels: Sequence[str] | None = None,
        hooks: ExecHooks | None = None,
    ) -> list[Outcome]:
        """Run ``worker(item)`` for every item; never raises for task faults."""
        raise NotImplementedError

    @staticmethod
    def _labels(items: Sequence[Any], labels: Sequence[str] | None) -> list[str]:
        if labels is None:
            return [f"task[{i}]" for i in range(len(items))]
        if len(labels) != len(items):
            raise ValidationError(
                f"got {len(labels)} labels for {len(items)} items"
            )
        return [str(l) for l in labels]


class _Ledger:
    """The attempt ledger: one run's attempts as a pure state machine.

    Both schedulers feed it events stamped with their own ``now`` — a
    worker connected, idle workers ask for work (:meth:`dispatch`), a
    result, a worker lost, a clock tick — and act on the decisions it
    returns: run ``(i, attempt)`` on a worker or wait until
    :meth:`wake_at`, ``("sever", w)``, ``("spawn", None)``.  It reads no
    clock and touches no socket or process.  What it decides itself it
    reports as ``("ok" | "requeue" | "fail", i)``: a failed attempt
    requeues at the queue's head after the executor's backoff while
    ``retries`` last, and ``submitted`` fires once per task.

    It owns the one in-flight table, ``{index: (worker, attempt,
    started_at)}``: a result not in flight on its worker is stale, and an
    attempt fails at ``started_at + timeout``.  A lost worker of the
    ``pool`` the scheduler spawned is replaced from a budget of ``pool *
    (1 + retries)`` consecutive losses, refilled by every result; with
    the budget spent and no worker connected or joining, every queued
    task fails ("worker pool exhausted").
    """

    def __init__(self, executor: Executor, names: list[str], hooks: ExecHooks,
                 *, timeout: float | None = None, pool: int = 0) -> None:
        self.executor = executor
        self.names = names
        self.hooks = hooks
        self.timeout = timeout
        self.pool = pool
        self.outcomes = [Outcome(index=i) for i in range(len(names))]
        self.pending = deque((i, 1, 0.0) for i in range(len(names)))  # (i, attempt, ready_at)
        self.inflight: dict[int, tuple[Any, int, float]] = {}
        self.idle: list[Any] = []
        self.live: set[Any] = set()
        self.joining = pool  # spawned, not connected yet
        self.max_respawns = self.respawns = pool * (1 + executor.retries)
        self._submitted: set[int] = set()

    @property
    def done(self) -> bool:
        return not (self.pending or self.inflight)

    def wake_at(self) -> float | None:
        """The earliest backoff deadline in the queue (None when empty)."""
        return min((ready_at for _, _, ready_at in self.pending), default=None)

    def connect(self, w: Any) -> None:
        self.joining = max(self.joining - 1, 0)
        self.live.add(w)
        self.idle.append(w)

    def dispatch(self, now: float) -> list[tuple[Any, int, int]]:
        """Give each idle worker the first *ready* queued entry: the scan
        goes past a head still in backoff, so it never stalls ready work."""
        runs = []
        while self.idle:
            ready = next((pos for pos, (_, _, ready_at) in enumerate(self.pending)
                          if ready_at <= now), None)
            if ready is None:
                break
            i, attempt, _ = self.pending[ready]
            del self.pending[ready]
            w = self.idle.pop()
            self._submit(i)
            self.inflight[i] = (w, attempt, now)
            runs.append((w, i, attempt))
        return runs

    def result(self, w: Any, i: int, attempt: int, now: float, *, value: Any = None,
               error: str | None = None, exc: BaseException | None = None,
               elapsed: float | None = None, final: bool = False) -> list[tuple[str, Any]]:
        """*w* reports ``(i, attempt)``, a success unless *error* is set.
        *elapsed* defaults to the time since dispatch; ``final`` skips the
        retry of a fault no rerun can fix."""
        if self.inflight.get(i, (None, None))[:2] != (w, attempt):
            return []  # stale: timed out, or its worker was lost
        _, _, started = self.inflight.pop(i)
        self.idle.append(w)
        self.respawns = self.max_respawns
        elapsed = now - started if elapsed is None else elapsed
        if error is not None:
            return [self._charge(i, attempt, error, exc, elapsed, None if final else now)]
        out = self.outcomes[i]
        out.attempts = attempt
        out.wall_time += elapsed
        out.value, out.ok, out.error, out.exception = value, True, None, None
        self.hooks.record("completed", self.names[i], seconds=out.wall_time)
        return [("ok", i)]

    def lost(self, w: Any, error: str, now: float) -> list[tuple[str, Any]]:
        """Worker *w* went away: its attempt, if any, fails with *error*."""
        if w not in self.live:
            return []  # severed already
        running = [(i, a, s) for i, (o, a, s) in self.inflight.items() if o is w]
        for i, attempt, started in running:
            del self.inflight[i]
        return [self._charge(i, a, error, None, now - s, now)
                for i, a, s in running] + self._leave(w)

    def tick(self, now: float) -> list[tuple[str, Any]]:
        """Fail each attempt in flight at ``started_at + timeout``, and
        sever its worker: it may be wedged in user code."""
        decisions: list[tuple[str, Any]] = []
        for i, (w, attempt, started) in list(self.inflight.items()):
            if self.timeout is not None and now >= started + self.timeout:
                del self.inflight[i]
                decisions.append(self._charge(
                    i, attempt, f"task exceeded timeout of {self.timeout:g} s",
                    None, now - started, now,
                ))
                decisions += [("sever", w), *self._leave(w)]
        return decisions

    def _submit(self, i: int) -> None:
        if i not in self._submitted:
            self._submitted.add(i)
            self.hooks.record("submitted", self.names[i])

    def _charge(self, i: int, attempt: int, error: str, exc: BaseException | None,
                elapsed: float, now: float | None) -> tuple[str, int]:
        """Write a failed attempt; requeue it while retries last, unless
        *now* is None."""
        out = self.outcomes[i]
        out.attempts = attempt
        out.wall_time += elapsed
        out.ok, out.error, out.exception = False, error, exc
        ex = self.executor
        if now is not None and attempt <= ex.retries:
            self.hooks.record("retried", self.names[i])
            delay = min(ex.backoff * 2.0 ** (attempt - 1), ex.max_backoff)
            self.pending.appendleft((i, attempt + 1, now + delay))
            return ("requeue", i)
        self.hooks.record("failed", self.names[i])
        return ("fail", i)

    def _leave(self, w: Any) -> list[tuple[str, Any]]:
        """*w* left: replace it, or fail the queue if the pool is exhausted."""
        self.live.discard(w)
        if w in self.idle:
            self.idle.remove(w)
        if self.done:
            return []
        if self.respawns > 0 and len(self.live) + self.joining < self.pool:
            self.respawns -= 1
            self.joining += 1
            return [("spawn", None)]
        if self.live or self.joining:
            return []
        error = "worker pool exhausted (all workers lost, respawn budget spent)"
        decisions = []
        while self.pending:
            i, attempt, _ = self.pending.popleft()
            self._submit(i)
            decisions.append(self._charge(i, attempt - 1, error, None, 0.0, None))
        return decisions


#: The tracer of the measurement run in progress in this context, set by
#: :func:`run_measurement_tasks` around its executor call: the one route
#: by which a run's tracer reaches the executors' run recordings
#: (:func:`_run_recording`), without widening ``Executor.run``.
_RUN_TRACER: ContextVar[Tracer | None] = ContextVar("repro_run_tracer", default=None)


def _run_recording(hooks: ExecHooks) -> Recording:
    """The run's own :class:`~repro.obs.Recording`, built once per
    executor run: metric observations go to ``hooks.metrics``, spans to
    the tracer of the measurement run that called the executor."""
    return Recording(hooks.metrics, _RUN_TRACER.get())


class SerialExecutor(Executor):
    """In-process, in-order execution — the reference and debugging engine.

    Every attempt runs inside the run's own :class:`~repro.obs.Recording`:
    spans raised in it go straight to the run's tracer, metric
    observations straight into ``hooks.metrics``.
    """

    def run(
        self,
        worker: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        labels: Sequence[str] | None = None,
        hooks: ExecHooks | None = None,
    ) -> list[Outcome]:
        hooks = hooks or ExecHooks()
        ledger = _Ledger(self, self._labels(items, labels), hooks)
        recording = _run_recording(hooks)
        ledger.connect(0)  # the one worker: this thread
        while not ledger.done:
            runs = ledger.dispatch(_now())
            if not runs:
                _sleep(max(ledger.wake_at() - _now(), 0.0))
                continue
            ((_, i, attempt),) = runs
            try:
                with recording.active():
                    value = worker(items[i])
            except Exception as exc:  # noqa: BLE001 - fault boundary
                ledger.result(0, i, attempt, _now(),
                              error=f"{type(exc).__name__}: {exc}", exc=exc)
            else:
                ledger.result(0, i, attempt, _now(), value=value)
        return ledger.outcomes


# --------------------------------------------------------------------------
# Measurement tasks: seeding + caching on top of the generic executors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementTask:
    """One unit of measurement work: a design point x replication.

    ``index`` is the task's position in the *canonical* enumeration of the
    campaign (the seed-derivation order), ``seed`` the pre-spawned
    sequence for this task, and ``seed_id`` its stable ``(master, index)``
    identity used in cache fingerprints.  ``methodology`` holds whatever
    metadata changes measured values and must therefore invalidate the
    cache.
    """

    workload: str
    point: tuple[tuple[str, Any], ...]
    rep: int
    index: int
    seed: np.random.SeedSequence | None
    seed_id: tuple[int, int]
    measure: Callable[..., Any]
    pass_rng: bool
    methodology: tuple[tuple[str, Any], ...] = ()
    #: ``(trace_id, parent_span_id)`` — when set, the attempt (possibly
    #: in another process) records a ``measurement-batch`` span for this
    #: task into its :class:`~repro.obs.Recording`, which carries it home
    #: to the run's tracer.  Not part of the fingerprint.
    trace_ctx: tuple[str, str | None] | None = None

    @property
    def label(self) -> str:
        return f"{self.workload} @ {dict(self.point)!r} rep={self.rep}"

    def fingerprint(self) -> str:
        """The content-addressed cache key of this task."""
        methodology = dict(self.methodology)
        methodology["__rep__"] = self.rep
        return task_fingerprint(
            self.workload, dict(self.point), self.seed_id, methodology
        )


@dataclass
class TaskResult:
    """The outcome of one measurement task, cached or fresh."""

    task: MeasurementTask
    values: np.ndarray | None
    ok: bool
    cached: bool = False
    attempts: int = 0
    wall_time: float = 0.0
    error: str | None = None
    exception: BaseException | None = None
    metadata: dict[str, Any] = field(default_factory=dict)


def point_values(results: Iterable[TaskResult]) -> np.ndarray:
    """The float64 values of one design point, in the order of *results*.

    Each ok result's values are raveled and joined by one
    ``np.concatenate`` — no per-value Python loop, so a point assembled
    from spilled cache hits never indexes a memmap one value at a time.
    ``concatenate`` copies, so the point never aliases a cache memmap.
    Failed results contribute nothing; a point with none ok has size 0.
    """
    parts = [
        np.asarray(r.values, dtype=np.float64).ravel() for r in results if r.ok
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def _accepts_rng(measure: Callable[..., Any]) -> bool:
    """Does ``measure`` take a third (rng) argument?

    Two-argument callables use the ``measure(point, rep)`` calling
    convention, a supported form of the API and not a stored format;
    three-argument callables opt into the engine's deterministic
    per-task generator as ``measure(point, rep, rng)``.
    """
    try:
        sig = inspect.signature(measure)
    except (TypeError, ValueError):  # builtins without introspection
        return False
    positional = 0
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return positional >= 3


def make_tasks(
    workload: str,
    runs: Sequence[tuple[Mapping[str, Any], int]],
    measure: Callable[..., Any],
    *,
    master_seed: int = 0,
    methodology: Mapping[str, Any] | None = None,
) -> list[MeasurementTask]:
    """Build seeded tasks from ``(point, rep)`` pairs in canonical order.

    The order of *runs* defines seed assignment: call this with the
    design's canonical enumeration (not the randomized run order) so the
    same campaign always derives the same seeds.
    """
    seeds = spawn_task_seeds(master_seed, len(runs))
    pass_rng = _accepts_rng(measure)
    methodology_items = tuple(sorted((dict(methodology or {})).items()))
    tasks = []
    for index, (point, rep) in enumerate(runs):
        tasks.append(
            MeasurementTask(
                workload=workload,
                point=tuple(sorted(point.items(), key=lambda kv: kv[0])),
                rep=check_int(rep, "rep", minimum=0),
                index=index,
                seed=seeds[index],
                seed_id=task_seed_id(master_seed, index),
                measure=measure,
                pass_rng=pass_rng,
                methodology=methodology_items,
            )
        )
    return tasks


def _measure_worker(task: MeasurementTask) -> np.ndarray:
    """Execute one task (runs inside a worker process for parallel executors)."""
    recording = current_recording()
    if task.trace_ctx is None or recording is None:
        return _measure_values(task)
    with recording.span(
        "measurement-batch", *task.trace_ctx,
        workload=task.workload, point=repr(dict(task.point)),
        rep=task.rep, index=task.index,
    ):
        return _measure_values(task)


def _measure_values(task: MeasurementTask) -> np.ndarray:
    point = dict(task.point)
    if task.pass_rng:
        rng = np.random.default_rng(task.seed)
        out = task.measure(point, task.rep, rng)
    else:
        out = task.measure(point, task.rep)
    values = np.atleast_1d(np.asarray(out, dtype=np.float64)).ravel()
    if values.size == 0:
        raise DesignError(f"measure() returned no values for {point!r}")
    return values


def run_measurement_tasks(
    tasks: Sequence[MeasurementTask],
    *,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    hooks: ExecHooks | None = None,
    tracer: Tracer | None = None,
    provenance: Any | None = None,
) -> list[TaskResult]:
    """Run measurement tasks through an executor, with caching and metrics.

    Cache hits are answered without touching the executor; misses are
    executed (with the executor's fault tolerance) and stored.  The
    returned list is ordered like *tasks*.  Task failures are *returned*
    (``ok=False``, error recorded), not raised — campaign-level policy
    decides whether a hole is fatal.

    With a *tracer*, every executed attempt records a
    ``measurement-batch`` span into it, whichever process ran it, parented
    under the tracer's current span unless the task carries its own
    ``trace_ctx``.  When *provenance* (a
    :class:`repro.obs.Provenance`) is given, its manifest is stored in the
    cache entry of every fresh result, so cached values return with the
    provenance of the run that measured them.
    """
    executor = executor or SerialExecutor()
    hooks = hooks or ExecHooks()
    if tracer is not None:
        ctx = (tracer.trace_id, tracer.current_span_id)
        # Tasks carrying a pre-assigned context (e.g. parented under a
        # reserved design-point span) keep it.
        tasks = [
            t if t.trace_ctx is not None else _dc_replace(t, trace_ctx=ctx)
            for t in tasks
        ]
    results: list[TaskResult | None] = [None] * len(tasks)
    misses: list[int] = []
    corrupt_before = cache.corrupt_entries if cache is not None else 0
    for i, task in enumerate(tasks):
        if cache is not None:
            hit = cache.get(task.fingerprint())
            if hit is not None:
                values, metadata = hit
                hooks.record("cached", task.label)
                results[i] = TaskResult(
                    task=task, values=values, ok=True, cached=True, metadata=metadata
                )
                continue
        misses.append(i)
    if cache is not None and hooks.metrics is not None:
        torn = cache.corrupt_entries - corrupt_before
        if torn > 0:
            hooks.metrics.counter("repro_cache_corrupt_total").inc(torn)
    if misses:
        token = _RUN_TRACER.set(tracer)
        try:
            outcomes = executor.run(
                _measure_worker,
                [tasks[i] for i in misses],
                labels=[tasks[i].label for i in misses],
                hooks=hooks,
            )
        finally:
            _RUN_TRACER.reset(token)
        for slot, outcome in zip(misses, outcomes):
            task = tasks[slot]
            metadata = {
                "attempts": outcome.attempts,
                "wall_time_s": outcome.wall_time,
            }
            if provenance is not None:
                metadata["provenance"] = provenance.to_dict()
            if outcome.error is not None:
                metadata["error"] = outcome.error
            results[slot] = TaskResult(
                task=task,
                values=outcome.value if outcome.ok else None,
                ok=outcome.ok,
                attempts=outcome.attempts,
                wall_time=outcome.wall_time,
                error=outcome.error,
                exception=outcome.exception,
                metadata=metadata,
            )
            if outcome.ok and cache is not None:
                cache.put(task.fingerprint(), outcome.value, metadata)
    final = [r for r in results if r is not None]
    if hooks.metrics is not None:
        measured = sum(
            int(r.values.size) for r in final if r.ok and not r.cached and r.values is not None
        )
        wall = sum(r.wall_time for r in final if not r.cached)
        if wall > 0:
            hooks.metrics.gauge("repro_measurements_per_second").set(measured / wall)
    return final
