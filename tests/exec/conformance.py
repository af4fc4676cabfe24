"""The executor conformance contract, as a reusable pytest harness.

Every :class:`repro.exec.Executor` implementation — serial, process
pool, the distributed socket backend, and any chaos-wrapped composition
of them — must provide the *same* observable guarantees.  The contract
(documented in docs/EXEC.md) is encoded here once; a concrete executor
opts in by subclassing :class:`ExecutorConformance` and implementing
:meth:`~ExecutorConformance.make_executor`:

``determinism``
    An :class:`~repro.core.Experiment` run through the executor yields
    datasets bit-identical to :class:`~repro.exec.SerialExecutor`, and
    bit-identical across repeated runs, regardless of worker count,
    scheduling order, injected faults, or retry history.
``cache reuse``
    A second run against the same :class:`~repro.exec.ResultCache`
    submits nothing and reproduces the same bytes — entries written by
    any executor (any worker, any process, any host) are honoured by
    every other.
``retry accounting``
    Transient failures are retried up to the budget and land in
    ``hooks.retried``; permanent failures are *surfaced* in outcomes
    (never raised) with ``attempts == retries + 1``.
``provenance & envelopes``
    Datasets carry the provenance manifest with exec statistics;
    unrecoverable points degrade to annotated
    :class:`~repro.core.FailureEnvelope` entries under
    ``on_failure="annotate"``.
``observability``
    Hook events fire exactly once per task submission, engine counters
    reach a bound :class:`~repro.obs.MetricsRegistry`, and
    ``measurement-batch`` spans reach the trace sink from whichever
    process ran the task.
``worker-counter parity``
    Simulator kernel counters ticked inside a measurement reach the
    parent's registry exactly as a serial run counts them, whichever
    process measured and however many attempts were lost on the way.

Workers and measure callables here are module-level (or marker-file
based) on purpose: they must survive pickling to other processes, and
"has this task failed before?" must be answerable across process
boundaries.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import Experiment, Factor, FactorialDesign
from repro.exec import ExecHooks, ResultCache, SerialExecutor
from repro.obs import JsonlSpanSink, MetricsRegistry, Tracer

__all__ = ["ExecutorConformance", "make_exp", "SentinelFlaky"]


# -- shared picklable workloads --------------------------------------------


def seeded_measure(point, rep, rng):
    """Stochastic measurement driven entirely by the engine-derived rng."""
    return rng.normal(loc=float(point["x"]), scale=0.1, size=5)


def simsys_measure(point, rep, rng):
    """A small simulated collective: ticks the simsys kernel counters."""
    from repro.simsys import SimComm, testbed

    comm = SimComm(testbed(2), nprocs=4, seed=int(rng.integers(0, 2**31 - 1)))
    return comm.reduce_root_times(64 * (int(point["x"]) + 1), 3)


def annotate_measure(point, rep, rng):
    """Fails permanently for one design point, succeeds elsewhere."""
    if point["x"] == 2:
        raise RuntimeError("sensor unplugged")
    return rng.normal(size=3)


def square(x):
    return x * x


def always_fail(item):
    raise RuntimeError("permanent fault")


class SentinelFlaky:
    """Fails each item's first attempt; the marker crosses processes.

    The instance pickles (it only carries a path), and the
    ``O_CREAT | O_EXCL`` claim means "is this the first attempt?" has
    one true answer no matter which process asks.
    """

    def __init__(self, state_dir) -> None:
        self.state_dir = str(state_dir)

    def __call__(self, item):
        marker = os.path.join(self.state_dir, f"flaky-{item}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return item * item
        os.close(fd)
        raise OSError("transient glitch")


def kernel_counters(executor):
    """The simsys ``*_total`` counters of one small campaign under *executor*."""
    from repro.obs.metrics import SIMSYS_METRICS
    from repro.simsys.mpi import bind_kernel_metrics

    registry = MetricsRegistry()
    hooks = ExecHooks()
    registry.bind_exec_hooks(hooks)
    bind_kernel_metrics(registry)
    try:
        make_exp(measure=simsys_measure, reps=1).run(executor=executor, hooks=hooks)
    finally:
        bind_kernel_metrics(None)
    return {
        name: registry.get(name).value
        for name in SIMSYS_METRICS
        if name.endswith("_total")
    }


def make_exp(seed=123, levels=(0, 1, 2, 3), reps=2, measure=seeded_measure, **kw):
    return Experiment(
        name="conformance",
        design=FactorialDesign((Factor("x", tuple(levels)),), replications=reps),
        measure=measure,
        seed=seed,
        **kw,
    )


# -- the contract ----------------------------------------------------------


class ExecutorConformance:
    """Subclass per executor; implement :meth:`make_executor`.

    Class knobs:

    ``exact_attempts``
        False for executors that inject their own faults (the chaos
        wrapper): attempt/retry counts are then asserted as bounds —
        at least the workload's own failures, at most the budget.
    """

    exact_attempts = True

    def make_executor(self, tmp_path, *, retries=2, backoff=0.0):
        raise NotImplementedError

    @pytest.fixture()
    def executor(self, tmp_path):
        ex = self.make_executor(tmp_path, retries=2, backoff=0.0)
        yield ex
        close = getattr(ex, "close", None)
        if close is not None:
            close()

    # -- determinism ------------------------------------------------------

    def test_bit_identical_to_serial(self, executor):
        serial = make_exp().run(executor=SerialExecutor())
        under_test = make_exp().run(executor=executor)
        assert serial.run_order == under_test.run_order
        assert set(serial.datasets) == set(under_test.datasets)
        for key, ms in serial.datasets.items():
            other = under_test.datasets[key]
            assert np.array_equal(ms.values, other.values)
            assert ms.unit == other.unit

    def test_rerun_is_deterministic(self, executor):
        first = make_exp().run(executor=executor)
        second = make_exp().run(executor=executor)
        for key, ms in first.datasets.items():
            assert np.array_equal(ms.values, second.datasets[key].values)

    def test_order_seed_does_not_change_values(self, executor):
        # Seeds attach to canonical (point, rep) identity, not to the
        # randomized execution order.
        a = make_exp(order_seed=1).run(executor=executor)
        b = make_exp(order_seed=2).run(executor=executor)
        for key, ms in a.datasets.items():
            assert np.array_equal(
                np.sort(ms.values), np.sort(b.datasets[key].values)
            )

    # -- the generic run() contract ---------------------------------------

    def test_outcomes_ordered_and_complete(self, executor):
        events: list[tuple[str, str]] = []
        hooks = ExecHooks(on_event=lambda ev, label: events.append((ev, label)))
        labels = [f"t{i}" for i in range(6)]
        outcomes = executor.run(square, list(range(6)), labels=labels,
                                hooks=hooks)
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok for o in outcomes)
        assert all(o.wall_time >= 0.0 for o in outcomes)
        assert hooks.completed == 6 and hooks.failed == 0
        # "submitted" fires exactly once per task, retries notwithstanding.
        for label in labels:
            assert events.count(("submitted", label)) == 1

    def test_empty_items_is_a_noop(self, executor):
        hooks = ExecHooks()
        assert executor.run(square, [], hooks=hooks) == []
        assert hooks.submitted == 0

    # -- retry accounting -------------------------------------------------

    def test_transient_failures_are_retried(self, executor, tmp_path):
        flaky_dir = tmp_path / "flaky"
        flaky_dir.mkdir(exist_ok=True)
        hooks = ExecHooks()
        outcomes = executor.run(
            SentinelFlaky(flaky_dir), [1, 2, 3, 4], hooks=hooks
        )
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert hooks.failed == 0
        if self.exact_attempts:
            assert all(o.attempts == 2 for o in outcomes)
            assert hooks.retried == 4
        else:
            # Injected faults may burn extra attempts, but each planted
            # fault fires once, so the budget still bounds everything.
            assert all(2 <= o.attempts <= executor.retries + 1 for o in outcomes)
            assert hooks.retried >= 4

    def test_permanent_failure_surfaced_not_raised(self, executor):
        hooks = ExecHooks()
        outcomes = executor.run(always_fail, ["a", "b"], hooks=hooks)
        assert all(not o.ok for o in outcomes)
        assert all(o.value is None for o in outcomes)
        assert all("permanent fault" in o.error for o in outcomes)
        assert all(o.attempts == executor.retries + 1 for o in outcomes)
        assert hooks.failed == 2
        assert hooks.retried == 2 * executor.retries

    # -- cache reuse ------------------------------------------------------

    def test_cache_round_trip(self, executor, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = ExecHooks()
        res1 = make_exp().run(executor=executor, cache=cache, hooks=first)
        assert first.cached == 0 and first.completed == 8
        second = ExecHooks()
        res2 = make_exp().run(executor=executor, cache=cache, hooks=second)
        assert second.submitted == 0 and second.completed == 0
        assert second.cached == 8
        for key, ms in res1.datasets.items():
            assert np.array_equal(ms.values, res2.datasets[key].values)
        md = next(iter(res2.datasets.values())).metadata
        assert md["exec"]["cached_tasks"] == 2

    def test_cache_entries_honoured_across_executors(self, executor, tmp_path):
        # Entries written under this executor are served to a serial run
        # (and vice versa): the fingerprint is executor-independent.
        cache = ResultCache(tmp_path / "xcache")
        res1 = make_exp().run(executor=executor, cache=cache)
        hooks = ExecHooks()
        res2 = make_exp().run(executor=SerialExecutor(), cache=cache, hooks=hooks)
        assert hooks.submitted == 0 and hooks.cached == 8
        for key, ms in res1.datasets.items():
            assert np.array_equal(ms.values, res2.datasets[key].values)

    # -- provenance & envelopes -------------------------------------------

    def test_provenance_stamped(self, executor):
        res = make_exp().run(executor=executor)
        md = next(iter(res.datasets.values())).metadata
        prov = md["provenance"]
        assert prov["master_seed"] == 123
        assert prov["exec_stats"]["completed"] == 8
        assert prov["methodology"]["unit"] == "s"

    def test_annotate_keeps_failed_point_out_of_datasets(self, executor):
        res = make_exp(measure=annotate_measure, levels=(1, 2), reps=1).run(
            executor=executor, on_failure="annotate"
        )
        states = {dict(k)["x"]: e.state for k, e in res.envelopes.items()}
        assert states[2] == "failed" and states[1] == "ok"
        assert {dict(k)["x"] for k in res.datasets} == {1}
        bad = next(e for k, e in res.envelopes.items() if dict(k)["x"] == 2)
        assert bad.reps_ok == 0
        assert any("sensor unplugged" in err for _, err in bad.failed_reps)

    # -- observability ----------------------------------------------------

    def test_engine_metrics_reach_registry(self, executor):
        registry = MetricsRegistry()
        hooks = ExecHooks()
        registry.bind_exec_hooks(hooks)
        make_exp().run(executor=executor, hooks=hooks)
        assert registry.get("repro_tasks_submitted_total").value == 8
        assert registry.get("repro_tasks_completed_total").value == 8
        assert registry.get("repro_task_latency_seconds").count == 8

    def test_spans_reach_trace_sink(self, executor, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSpanSink(sink))
        make_exp(reps=1).run(executor=executor, tracer=tracer)
        spans = [json.loads(line) for line in sink.read_text().splitlines()]
        batches = [s for s in spans if s["name"] == "measurement-batch"]
        assert batches, "no measurement-batch spans reached the sink"
        assert all(s["trace_id"] == tracer.trace_id for s in spans)
        # Batch spans nest under the per-point spans of the experiment.
        point_ids = {s["span_id"] for s in spans if s["name"] == "design-point"}
        assert all(s["parent_id"] in point_ids for s in batches)

    # -- worker-counter parity --------------------------------------------

    def test_worker_kernel_counters_match_serial(self, executor):
        """Collectives evaluated in any process count into the parent's
        bound registry exactly as serial ones do."""
        serial = kernel_counters(SerialExecutor())
        assert serial["repro_simsys_kernel_ops_total"] == 4
        assert kernel_counters(executor) == serial
