"""The CI ``simsys-scale-smoke`` gate: the million-rank kernels at quick
fidelity (docs/PERFORMANCE.md)."""

from __future__ import annotations

from conftest import python


def test_small_p_parity_and_scale_suites(tmp_path):
    # The sparse/lazy schedule path, closed-form topologies, and tiled
    # kernels must agree with the dense compilers, BFS over the explicit
    # router graph (in the test), the golden digests, and the scalar
    # ReferenceComm oracle bit-for-bit at small P before the capped
    # large-P run means anything.
    python("-m", "pytest", "-x", "-q", "--basetemp", tmp_path,
           "tests/simsys/test_sparse_schedules.py",
           "tests/simsys/test_hier_topology.py",
           "tests/simsys/test_golden_machines.py",
           "tests/simsys/test_scale_kernels.py",
           "tests/simsys/test_kernels.py")


def test_capped_100k_rank_benchmark(tmp_path_factory):
    # Quick fidelity: reduce/allreduce/alltoall at P = 1e5 with the
    # tracemalloc heap peak gated under 256 MiB, plus the dense-regime
    # speedup check (REPRO_BENCH_FULL=1 runs P = 1e6 / 512 MiB).  A quick
    # run writes its text under its own basetemp, not over the committed
    # benchmarks/results/simsys_millionrank.txt.
    out = tmp_path_factory.mktemp("scale-smoke", numbered=False)
    python("-m", "pytest", "benchmarks/bench_simsys_millionrank.py", "-x", "-q",
           "--basetemp", out / "pytest",
           env={"REPRO_BENCH_MR_OUT": out / "millionrank.json"})
