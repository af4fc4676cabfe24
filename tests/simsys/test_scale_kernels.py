"""Tests for the million-rank kernel path: tiling, lazy schedules, the new
collectives (scan/exscan, alltoallv, neighborhood), the aggregated alltoall,
and skew models.

Contracts (see docs/PERFORMANCE.md):

* tiled evaluation is bit-identical to single-tile evaluation on
  deterministic machines, for every tile size;
* every new collective's vectorized kernel is bit-identical to its scalar
  reference on deterministic machines and statistically equivalent under
  noise;
* the aggregated alltoall matches the round simulation exactly when each
  rank's incoming message costs are homogeneous, and within ~1% otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.simsys.machine import piz_daint, xc_scale
from repro.simsys.machine import testbed as make_testbed
from repro.simsys.mpi import SimComm
from repro.simsys.reference import ReferenceComm
from repro.simsys.workloads import GpuNodeSkew

QUIET = make_testbed(8, deterministic=True)
NOISY = piz_daint(4)


def _pair(machine, nprocs, seed=11, placement="packed", **kw):
    mk = lambda cls: cls(machine, nprocs, placement=placement, seed=seed, **kw)
    return mk(SimComm), mk(ReferenceComm)


class TestNewCollectiveBitIdentity:
    """Deterministic machine: vectorized == reference, bit for bit."""

    @settings(max_examples=16, deadline=None)
    @given(st.integers(min_value=1, max_value=24))
    def test_scan_and_exscan(self, nprocs):
        v, r = _pair(QUIET, nprocs)
        assert np.array_equal(v.scan(8, 3), r.scan(8, 3))
        assert np.array_equal(v.exscan(8, 3), r.exscan(8, 3))

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=2, max_value=24))
    def test_alltoallv_matrix_counts(self, nprocs):
        v, r = _pair(QUIET, nprocs)
        counts = (np.arange(nprocs * nprocs).reshape(nprocs, nprocs) * 17) % 513
        assert np.array_equal(v.alltoallv(counts, 2), r.alltoallv(counts, 2))

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=3, max_value=24))
    def test_neighbor_halo(self, nprocs):
        v, r = _pair(QUIET, nprocs)
        assert np.array_equal(
            v.neighbor_alltoall((-1, 1), 64, 3),
            r.neighbor_alltoall((-1, 1), 64, 3),
        )

    def test_callable_counts_match_matrix_counts(self):
        P = 9
        counts = (np.arange(P * P).reshape(P, P) * 29) % 301
        v1 = SimComm(QUIET, P, seed=5)
        v2 = SimComm(QUIET, P, seed=5)
        fn = lambda src, dst: counts[src, dst]
        assert np.array_equal(v1.alltoallv(counts, 2), v2.alltoallv(fn, 2))

    def test_scan_rank_zero_free_others_pay(self):
        # Rank 0 receives no partials; every other rank folds in at least
        # one message, so it finishes strictly later.
        out = SimComm(QUIET, 16, seed=1).scan(8, 1)[0]
        assert out[0] == 0.0
        assert np.all(out[1:] > 0.0)


class TestNoisyStatisticalEquivalence:
    """Same machine + seed: both kernels draw from the same distribution."""

    def test_scan_means_close(self):
        v, r = _pair(NOISY, 16, seed=3)
        a, b = v.scan(8, 4000), r.scan(8, 4000)
        np.testing.assert_allclose(a.mean(axis=0), b.mean(axis=0), rtol=0.05)

    def test_neighbor_means_close(self):
        v, r = _pair(NOISY, 16, seed=3)
        a = v.neighbor_alltoall((1, 2), 8, 4000)
        b = r.neighbor_alltoall((1, 2), 8, 4000)
        np.testing.assert_allclose(a.mean(axis=0), b.mean(axis=0), rtol=0.05)


class TestTiling:
    """Tiled == untiled on deterministic machines, any tile size."""

    @pytest.mark.parametrize("tile_bytes", [1, 700, 10_000])
    def test_tiled_bit_identical(self, tile_bytes):
        whole = SimComm(QUIET, 12, seed=7)
        tiled = SimComm(QUIET, 12, seed=7, tile_bytes=tile_bytes)
        for op, args in [
            ("reduce", (8, 37)),
            ("bcast", (8, 37)),
            ("allreduce", (8, 37)),
            ("alltoall", (8, 37)),
            ("scan", (8, 37)),
            ("barrier", (37,)),
        ]:
            assert np.array_equal(
                getattr(whole, op)(*args), getattr(tiled, op)(*args)
            ), op

    def test_tile_reps_respects_budget_and_bounds(self):
        c = SimComm(QUIET, 12, tile_bytes=1)
        assert c._tile_reps(100) == 1
        c2 = SimComm(QUIET, 12)
        assert c2._tile_reps(5) == 5  # never more tiles than reps

    def test_stream_concatenates_to_method_result_when_quiet(self):
        c1 = SimComm(QUIET, 8, seed=2, tile_bytes=700)
        c2 = SimComm(QUIET, 8, seed=2, tile_bytes=700)
        tiles = list(c1.stream("allreduce", 8, 23))
        assert len(tiles) > 1
        assert np.array_equal(np.concatenate(tiles), c2.allreduce(8, 23))

    def test_stream_rejects_unknown_op(self):
        with pytest.raises(ValidationError):
            next(SimComm(QUIET, 4).stream("gossip"))


class TestAggregatedAlltoall:
    def test_exact_when_costs_homogeneous(self):
        # one_per_node: every incoming message crosses the single switch at
        # identical cost -> the chain sum is exact.
        for P in (4, 8):
            exact = SimComm(QUIET, P, placement="one_per_node", seed=3).alltoall(
                64, 2, aggregated=False
            )
            agg = SimComm(QUIET, P, placement="one_per_node", seed=3).alltoall(
                64, 2, aggregated=True
            )
            np.testing.assert_allclose(agg, exact, rtol=1e-12)

    def test_exact_on_hierarchical_dragonfly_one_per_node(self):
        import dataclasses

        from repro.simsys.noise import NoNoise

        m = dataclasses.replace(
            piz_daint(64, hierarchical=True),
            network_noise=NoNoise(),
            name="piz_daint-quiet",
        )
        exact = SimComm(m, 48, placement="one_per_node").alltoall(
            8, 1, aggregated=False
        )
        agg = SimComm(m, 48, placement="one_per_node").alltoall(
            8, 1, aggregated=True
        )
        # Mixed hop counts: exact in the mean, within ~1% per rank.
        assert abs(agg.mean() - exact.mean()) / exact.mean() < 1e-9
        np.testing.assert_allclose(agg, exact, rtol=0.01)

    def test_mixed_placement_within_one_percent(self):
        exact = SimComm(QUIET, 24, seed=3).alltoall(64, 1, aggregated=False)
        agg = SimComm(QUIET, 24, seed=3).alltoall(64, 1, aggregated=True)
        assert abs(agg.mean() - exact.mean()) / exact.mean() < 0.01

    def test_auto_threshold_and_noisy_path_is_positive(self):
        big = SimComm(xc_scale(64, deterministic=False), 128, seed=1)
        out = big.alltoall(8, 3, aggregated=True)
        assert out.shape == (3, 128)
        assert np.all(out > 0)

    def test_million_rank_alltoall_is_aggregated_by_default(self):
        m = xc_scale(1024)
        c = SimComm(m, 8192, seed=1)
        out = c.alltoall(8, 1)  # P > threshold: aggregated automatically
        assert out.shape == (1, 8192)
        assert np.all(np.isfinite(out))


class TestSkewModels:
    def test_gpu_node_skew_bit_identical_across_kernels(self):
        model = GpuNodeSkew()
        v, r = _pair(QUIET, 12, seed=4)
        assert np.array_equal(v.reduce(8, 5, skew=model), r.reduce(8, 5, skew=model))
        v2, r2 = _pair(QUIET, 12, seed=4)
        assert np.array_equal(
            v2.allreduce(8, 5, skew=model), r2.allreduce(8, 5, skew=model)
        )

    def test_float_skew_on_allreduce(self):
        v, r = _pair(QUIET, 12, seed=4)
        assert np.array_equal(
            v.allreduce(8, 5, skew=2e-6), r.allreduce(8, 5, skew=2e-6)
        )

    def test_skew_only_delays(self):
        base = SimComm(QUIET, 8, seed=9).reduce(8, 4)
        skewed = SimComm(QUIET, 8, seed=9).reduce(8, 4, skew=GpuNodeSkew())
        assert np.all(skewed >= base)

    def test_driver_rank_pays_launch_latency(self):
        model = GpuNodeSkew(kernel_time=1e-9, node_sigma=1e-6, jitter_sigma=0.0)
        rng = np.random.default_rng(0)
        node = np.array([0, 0, 1, 1])
        core = np.array([0, 1, 0, 1])
        off = model.sample_offsets(rng, 1, node, core)[0]
        assert off[0] > off[1] and off[2] > off[3]

    def test_invalid_skew_rejected(self):
        c = SimComm(QUIET, 4)
        with pytest.raises(ValidationError):
            c.reduce(8, 1, skew=-1.0)
        with pytest.raises(ValidationError):
            c.reduce(8, 1, skew="lots")


class TestAlltoallvValidation:
    def test_wrong_shape_rejected(self):
        c = SimComm(QUIET, 4)
        with pytest.raises(ValidationError):
            c.alltoallv(np.zeros((3, 3)), 1)

    def test_negative_counts_rejected(self):
        c = SimComm(QUIET, 4)
        counts = np.zeros((4, 4))
        counts[1, 2] = -5
        with pytest.raises(ValidationError):
            c.alltoallv(counts, 1)

    def test_zero_counts_still_pay_latency(self):
        c = SimComm(QUIET, 4, placement="one_per_node")
        out = c.alltoallv(np.zeros((4, 4), dtype=int), 1)
        assert np.all(out > 0)


class TestLargePSmoke:
    """The headline contract: huge P runs in bounded memory."""

    def test_hundred_thousand_rank_reduce(self):
        import tracemalloc

        m = xc_scale(12_800)
        c = SimComm(m, 100_000, seed=5)
        tracemalloc.start()
        out = c.reduce(8, 2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert out.shape == (2, 100_000)
        assert np.all(np.isfinite(out))
        assert peak < 256 * 2**20

    def test_small_p_on_xc_scale_matches_reference(self):
        m = xc_scale(64)
        v, r = _pair(m, 24, seed=2)
        assert np.array_equal(v.reduce(8, 4), r.reduce(8, 4))
        assert np.array_equal(v.allreduce(8, 4), r.allreduce(8, 4))
        assert np.array_equal(
            v.alltoall(8, 4, aggregated=False), r.alltoall(8, 4)
        )
