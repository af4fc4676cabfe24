"""Cross-validation of the vectorized collective kernels.

Three layers of evidence that the round-batched kernels compute the same
simulation as the scalar oracle :class:`~repro.simsys.reference.ReferenceComm`:

* on a *deterministic* machine (no noise) the two kernels must agree
  bit-for-bit, rank-for-rank — same schedules, same vectorized network
  pricing, no RNG involved in the message costs;
* on a *noisy* machine they consume the RNG stream in different layouts
  (that is what :data:`~repro.simsys.schedules.KERNEL_VERSION` records), so
  agreement is statistical: per-rank means over many repetitions;
* the batched ``sample_block`` API must consume the stream exactly like
  flat ``sample`` for every noise model, so seeded results that predate the
  batching change stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Experiment, Factor, FactorialDesign
from repro.errors import ValidationError
from repro.exec import ProcessExecutor, SerialExecutor
from repro.simsys import (
    CompositeNoise,
    ExponentialSpikes,
    GaussianNoise,
    LogNormalNoise,
    MixtureNoise,
    NoNoise,
    PeriodicInterrupts,
    SimComm,
    piz_daint,
    sample_block,
    scaled,
    testbed as make_testbed,
)
from repro.simsys.reference import ReferenceComm


def _pair(machine, nprocs, seed=11, placement="packed"):
    vec = SimComm(machine, nprocs, placement=placement, seed=seed)
    ref = ReferenceComm(machine, nprocs, placement=placement, seed=seed)
    return vec, ref


class TestDeterministicBitIdentity:
    """No noise → no RNG in the hot path → kernels must agree exactly."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=32))
    def test_reduce(self, nprocs):
        vec, ref = _pair(make_testbed(8, deterministic=True), nprocs)
        assert np.array_equal(vec.reduce(8, 4), ref.reduce(8, 4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=32))
    def test_bcast_allreduce_alltoall_barrier(self, nprocs):
        vec, ref = _pair(make_testbed(8, deterministic=True), nprocs)
        assert np.array_equal(vec.bcast(16, 3), ref.bcast(16, 3))
        assert np.array_equal(vec.allreduce(8, 3), ref.allreduce(8, 3))
        assert np.array_equal(vec.alltoall(8, 2), ref.alltoall(8, 2))
        assert np.array_equal(vec.barrier(3), ref.barrier(3))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=24))
    def test_reduce_with_skew(self, nprocs):
        # Both kernels draw the skew offsets first, from the same stream.
        vec, ref = _pair(make_testbed(8, deterministic=True), nprocs)
        a = vec.reduce(8, 4, skew=2e-6)
        b = ref.reduce(8, 4, skew=2e-6)
        assert np.array_equal(a, b)

    def test_non_power_of_two_fold_in(self):
        # P = 12 exercises fold_in (reduce/allreduce) and the modular
        # alltoall/barrier shifts on every placement.
        for placement in ("packed", "scattered"):
            vec, ref = _pair(
                make_testbed(8, deterministic=True), 12, placement=placement
            )
            assert np.array_equal(vec.reduce(8, 5), ref.reduce(8, 5))
            assert np.array_equal(vec.allreduce(8, 5), ref.allreduce(8, 5))
            assert np.array_equal(vec.alltoall(8, 3), ref.alltoall(8, 3))


class TestNoisyStatisticalEquivalence:
    """Different stream layouts, same distributions: compare per-rank means."""

    def _check(self, op, *args, rel=0.05):
        vec, ref = _pair(piz_daint(4), 16, seed=3)
        a = getattr(vec, op)(*args)
        b = getattr(ref, op)(*args)
        assert a.shape == b.shape
        ma, mb = a.mean(axis=0), b.mean(axis=0)
        assert np.all(np.abs(ma - mb) <= rel * np.abs(mb))
        # Medians too: means alone could hide a reshaped tail.
        qa, qb = np.median(a, axis=0), np.median(b, axis=0)
        assert np.all(np.abs(qa - qb) <= rel * np.abs(qb))

    def test_reduce(self):
        self._check("reduce", 8, 4000)

    def test_allreduce(self):
        self._check("allreduce", 8, 4000)

    def test_bcast(self):
        # Root column is exactly zero in both kernels; compare the rest.
        vec, ref = _pair(piz_daint(4), 16, seed=3)
        a, b = vec.bcast(8, 4000), ref.bcast(8, 4000)
        assert np.all(a[:, 0] == 0.0) and np.all(b[:, 0] == 0.0)
        ma, mb = a[:, 1:].mean(axis=0), b[:, 1:].mean(axis=0)
        assert np.all(np.abs(ma - mb) <= 0.05 * mb)

    def test_barrier(self):
        vec, ref = _pair(piz_daint(4), 16, seed=3)
        a, b = vec.barrier(4000), ref.barrier(4000)
        ma, mb = a.mean(axis=0), b.mean(axis=0)
        assert np.all(np.abs(ma - mb) <= 0.05 * mb)


class TestSampleBlockStreamEquivalence:
    """sample_block(rng, (n,)) must consume the stream like sample(rng, n)."""

    MODELS = [
        NoNoise(),
        GaussianNoise(sigma=2e-7, mean=1e-7),
        LogNormalNoise(median=0.2e-6, sigma=0.8),
        LogNormalNoise(median=0.0, sigma=0.5),
        ExponentialSpikes(prob=0.1, mean=5e-6),
        PeriodicInterrupts(period=1e-3, duration=5e-6, op_length=2e-4),
        MixtureNoise(
            components=(
                (0.7, LogNormalNoise(median=0.1e-6, sigma=0.5)),
                (0.3, ExponentialSpikes(prob=0.5, mean=1e-5)),
            )
        ),
        CompositeNoise(
            models=(
                GaussianNoise(sigma=1e-7),
                ExponentialSpikes(prob=0.05, mean=1e-5),
            )
        ),
        scaled(2.5, LogNormalNoise(median=0.1e-6, sigma=0.4)),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_flat_block_matches_sample(self, model):
        a = model.sample(np.random.default_rng(42), 257)
        b = sample_block(model, np.random.default_rng(42), (257,))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_block_shape_and_nonnegativity(self, model):
        out = sample_block(model, np.random.default_rng(7), (13, 17))
        assert out.shape == (13, 17)
        assert np.all(out >= 0.0)

    def test_fallback_for_models_without_sample_block(self):
        class FlatOnly:
            def sample(self, rng, n):
                return np.full(n, 3.0)

        out = sample_block(FlatOnly(), np.random.default_rng(0), (2, 5))
        assert out.shape == (2, 5)
        assert np.all(out == 3.0)


def _sim_reduce_measure(point, rep, rng):
    """Module-level (pickles into worker processes) simulated measurement."""
    comm = SimComm(
        make_testbed(2),
        nprocs=int(point["nprocs"]),
        placement="packed",
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return comm.reduce_root_times(8, 16)


class TestExecutorDeterminism:
    """Same seed → bit-identical datasets, serial or process-parallel."""

    def _exp(self):
        return Experiment(
            name="kernel-determinism",
            design=FactorialDesign(
                (Factor("nprocs", (4, 7, 8)),), replications=2
            ),
            measure=_sim_reduce_measure,
            unit="s",
            seed=321,
        )

    def test_serial_vs_process_bit_identical(self):
        serial = self._exp().run(executor=SerialExecutor())
        parallel = self._exp().run(executor=ProcessExecutor(max_workers=2))
        for key, ms in serial.datasets.items():
            assert np.array_equal(ms.values, parallel.datasets[key].values)

    def test_repeated_serial_runs_identical(self):
        a = self._exp().run(executor=SerialExecutor())
        b = self._exp().run(executor=SerialExecutor())
        for key, ms in a.datasets.items():
            assert np.array_equal(ms.values, b.datasets[key].values)


class TestKernelValidation:
    def test_kernel_keyword_removed(self):
        # SimComm runs one kernel; the scalar oracle is ReferenceComm.
        with pytest.raises(TypeError):
            SimComm(make_testbed(4), 4, kernel="vectorized")

    @pytest.mark.parametrize("op", ["reduce", "bcast", "allreduce", "alltoall"])
    def test_size_bytes_must_be_positive(self, op):
        comm = SimComm(make_testbed(4), 8)
        with pytest.raises(ValidationError):
            getattr(comm, op)(0, 1)
        with pytest.raises(ValidationError):
            getattr(comm, op)(-8, 1)

    def test_ping_pong_allows_zero_byte_probe(self):
        # The postal-model latency fit sweeps from size 0; only negative
        # payloads are rejected for point-to-point.
        comm = SimComm(make_testbed(4), 8)
        out = comm.ping_pong(0, 5)
        assert out.shape == (5,)
        with pytest.raises(ValidationError):
            comm.ping_pong(-8, 5)

    def test_gather_scatter_size_validation(self):
        comm = SimComm(make_testbed(4), 8)
        for op in ("gather", "scatter"):
            with pytest.raises(ValidationError):
                getattr(comm, op)(0, 1)


class TestKernelMetrics:
    def test_kernel_records_into_the_active_recording_only(self):
        from repro.obs import MetricsRegistry, Recording

        comm = SimComm(make_testbed(2), nprocs=8, seed=1)
        comm.reduce_root_times(64, 3)  # no recording: nothing to record into
        registry = MetricsRegistry()
        with Recording(registry).active():
            comm.reduce_root_times(64, 3)
            comm.allreduce(64, 2)
        comm.reduce_root_times(64, 3)
        assert registry.get("repro_simsys_kernel_ops_total").value == 2
        assert registry.get("repro_simsys_kernel_seconds").count == 2
        assert registry.get("repro_simsys_kernel_messages_total").value > 0
