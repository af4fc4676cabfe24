"""A simulated MPI communicator over the machine models.

:class:`SimComm` provides the communication operations the paper's
experiments need — ping-pong, reduce, broadcast, barrier — with timing that
emerges from the machine's network model, the actual collective *tree
algorithms*, and the machine's noise profile:

* **ping-pong** latency = deterministic message cost + per-message network
  noise (Figures 2, 3, 4, 7c);
* **reduce** uses the binomial-tree algorithm with the MPICH-style extra
  fold-in phase for non-power-of-two process counts, which is exactly why
  "several implementations perform better with 2^k processes" (Figure 5);
* per-rank noise heterogeneity (OS/daemon cores) makes some processes
  systematically slower (Figure 6).

Collectives are evaluated *vectorized over repetitions*: one call computes
``n`` independent repetitions of the operation and returns an ``(n, P)``
array of per-rank completion times, which is what the analysis layer wants.

The collectives run as round-batched numpy kernels.  Repetitions stream
through fixed-size *tiles* (``tile_bytes``): within a tile, per-round
message costs come from one vectorized network-model lookup, state is
held transposed (one contiguous row per rank), and noise is drawn per
round as ``(messages, tile_reps)`` blocks — the v3 stream layout of
:data:`~repro.simsys.schedules.KERNEL_VERSION`.  Schedules are taken from
the ``lru_cache``-d compilers when small and *generated lazily*
(:func:`~repro.simsys.schedules.iter_rounds`) when the materialized
schedule would be large, so peak memory is O(tile + round), never O(P·n)
or O(P²) — the million-rank path (docs/PERFORMANCE.md).

Repetitions are mutually independent, so on noiseless machines the tiled
evaluation is bit-identical for every tile size.  With random skew or
noise, different tile sizes consume the RNG stream differently (that is
what the v3 layout version records); the kernels agree bit-for-bit with
the scalar oracle :class:`repro.simsys.reference.ReferenceComm` whenever
the run is deterministic and fits one tile.

Very large alltoall is special: its pairwise-exchange schedule has
P·(P−1) messages, quadratic in P no matter how rounds are streamed.
Above :data:`ALLTOALL_AGGREGATED_MIN_P` (or on request via
``aggregated=True``) the simulator switches to the *aggregated* model:
each rank's completion is its total incoming message cost, computed per
topology level from the rank-placement census in O(P · levels).  On quiet
machines this is exact (to float rounding) whenever each rank's incoming
costs are homogeneous — one rank per node, or every rank on one node —
because the per-round max recurrence then telescopes into a plain sum;
with mixed intra-/inter-node placements it is an upper-skewed
approximation (observed within ~1% of the round simulation: the max can
absorb a cheap shared-memory message inside the critical path, the sum
cannot).  On noisy machines the per-rank noise sum is additionally
approximated by its CLT normal with moments calibrated from the
machine's noise model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Protocol, runtime_checkable

import numpy as np

from .._validation import check_in, check_int
from ..errors import SimulationError, ValidationError
from .machine import MachineSpec
from .noise import NoNoise, sample_block
from .rng import RngFactory
from .schedules import (
    KERNEL_VERSION,
    CompiledSchedule,
    Round,
    compile_allreduce,
    compile_alltoall,
    compile_barrier,
    compile_bcast,
    compile_neighbor,
    compile_reduce,
    compile_scan,
    iter_rounds,
    reduce_schedule,
    schedule_spec,
)

__all__ = [
    "SimComm",
    "reduce_schedule",
    "Placement",
    "KERNEL_VERSION",
    "SkewModel",
    "bind_kernel_metrics",
    "DEFAULT_TILE_BYTES",
    "ALLTOALL_AGGREGATED_MIN_P",
]

Placement = Literal["packed", "scattered", "one_per_node"]

#: Fixed software cost of executing the reduction operator on one message
#: worth of data, relative to node compute speed; small vs. network costs.
_OP_FLOPS_PER_BYTE = 0.25

#: Per-tile working-set budget of the vectorized kernels (bytes).  A tile
#: holds a handful of (P, tile_reps) float64 state/noise arrays; the
#: repetition count per tile is chosen so they fit this budget.
DEFAULT_TILE_BYTES = 64 * 2**20

#: Approximate float64 rows of (P,) working set per repetition inside a
#: vectorized tile (state + completion + local noise + round blocks).
_ROWS_PER_REP = 8

#: Materialize (and lru-cache) a compiled schedule only when its total
#: message count is at most this; larger schedules are generated lazily
#: per tile so nothing O(P log P)-or-worse is ever pinned in memory.
_DENSE_SCHEDULE_MAX_MESSAGES = 1 << 20

#: Above this process count ``alltoall`` switches to the aggregated
#: per-level model by default (override with ``aggregated=``): the exact
#: pairwise simulation costs O(P²) time per repetition.
ALLTOALL_AGGREGATED_MIN_P = 4096

#: Draws used to calibrate the noise-model moments for the aggregated
#: alltoall's CLT approximation on noisy machines.
_NOISE_CALIBRATION_DRAWS = 8192


@runtime_checkable
class SkewModel(Protocol):
    """Start-offset model for imperfect synchronization (Rule 10).

    ``sample_offsets`` returns an ``(n, P)`` array of nonnegative start
    offsets in seconds; it receives the communicator's placement arrays so
    models can correlate offsets within a node (GPU/driver skew — see
    :class:`repro.simsys.workloads.GpuNodeSkew`).  Plain floats are also
    accepted wherever a skew model is: ``skew=2e-6`` means i.i.d. uniform
    offsets on ``[0, 2e-6]``.
    """

    def sample_offsets(
        self,
        rng: np.random.Generator,
        n: int,
        node: np.ndarray,
        core: np.ndarray,
    ) -> np.ndarray:
        """Draw an ``(n, P)`` array of nonnegative start offsets in seconds."""
        ...


# -- kernel metrics ----------------------------------------------------------

#: The registry (if any) receiving simulation-kernel timings; process-local.
_kernel_metrics = None


def bind_kernel_metrics(registry) -> None:
    """Route simulation-kernel timings into an obs metrics registry.

    Pre-registers the ``repro_simsys_kernel_*`` series (see
    :data:`repro.obs.metrics.SIMSYS_METRICS`) so an export taken before
    any collective runs still shows them, then installs *registry* as the
    process-global sink; pass ``None`` to unbind.  Binding is per process:
    executor workers (:class:`~repro.exec.ProcessExecutor`,
    :class:`~repro.exec.DistExecutor`) bind a private registry when the
    run has one and forward its counter deltas home with each result, so
    the parent's counters match a serial run.
    """
    global _kernel_metrics
    if registry is not None:
        from ..obs.metrics import SIMSYS_KERNEL_BUCKETS, SIMSYS_METRICS

        for name, help_text in SIMSYS_METRICS.items():
            if name.endswith("_total"):
                registry.counter(name, help_text)
            else:
                registry.histogram(name, help_text, buckets=SIMSYS_KERNEL_BUCKETS)
    _kernel_metrics = registry


@dataclass
class SimComm:
    """A communicator of ``nprocs`` simulated processes on a machine.

    Parameters
    ----------
    machine:
        The machine model (hardware + noise).
    nprocs:
        Number of processes.
    placement:
        ``"packed"`` fills each node's cores before moving on (the typical
        batch-system default), ``"scattered"`` round-robins ranks over
        nodes, ``"one_per_node"`` gives every rank its own node.  Placement
        matters (Section 4.1.1: "batch system allocation policies ... can
        play an important role") because intra-node messages are cheaper.
    seed:
        Root seed for all noise streams.
    tile_bytes:
        Working-set budget per repetition tile of the vectorized kernels.
        Smaller tiles bound peak memory (million-rank runs); repetition
        independence makes every tiling bit-identical on deterministic
        machines.
    """

    machine: MachineSpec
    nprocs: int
    placement: Placement = "packed"
    seed: int = 0
    tile_bytes: int = DEFAULT_TILE_BYTES

    def __post_init__(self) -> None:
        check_int(self.nprocs, "nprocs", minimum=1)
        check_in(self.placement, ("packed", "scattered", "one_per_node"), "placement")
        check_int(self.tile_bytes, "tile_bytes", minimum=1)
        self._rngs = RngFactory(self.seed).child("simcomm", self.machine.name)
        self.rank_node, self.rank_core = self._place()
        # Core 0 of every node hosts OS daemons / service threads: its
        # local noise is scaled by the machine's heterogeneity factor.
        self.rank_noise_scale = np.where(
            self.rank_core == 0, self.machine.noisy_rank_factor, 1.0
        )
        # NoNoise consumes no RNG and samples exact zeros, so the
        # vectorized kernels skip its (all-zero) noise blocks outright —
        # same results, same stream state, none of the memory traffic.
        self._quiet = isinstance(self.machine.network_noise, NoNoise)
        self._op_count = 0
        self._noise_moments_cache: tuple[float, float] | None = None

    # -- placement -----------------------------------------------------

    def _place(self) -> tuple[np.ndarray, np.ndarray]:
        cores = self.machine.node.cores
        n_nodes = self.machine.n_nodes
        ranks = np.arange(self.nprocs)
        if self.placement == "packed":
            node = ranks // cores
            core = ranks % cores
        elif self.placement == "scattered":
            node = ranks % n_nodes
            core = ranks // n_nodes
        else:  # one_per_node
            node = ranks
            core = np.zeros_like(ranks)
        if np.any(node >= n_nodes):
            raise SimulationError(
                f"{self.nprocs} ranks with placement={self.placement!r} need "
                f"{int(node.max()) + 1} nodes; machine has {n_nodes}"
            )
        if np.any(core >= cores):
            raise SimulationError(
                f"placement={self.placement!r} oversubscribes cores "
                f"({cores} per node)"
            )
        return node.astype(np.int64), core.astype(np.int64)

    # -- primitive costs ------------------------------------------------

    def message_base(self, src: int, dst: int, size_bytes: int) -> float:
        """Deterministic one-way message time between two ranks (s)."""
        return self.machine.network.message_time(
            int(self.rank_node[src]), int(self.rank_node[dst]), size_bytes
        )

    def _edge_base(self, src: np.ndarray, dst: np.ndarray, size_bytes) -> np.ndarray:
        """Deterministic message times for a whole round of edges at once."""
        return self.machine.network.message_time_array(
            self.rank_node[src], self.rank_node[dst], size_bytes
        )

    def _net_noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.machine.network_noise.sample(rng, n)

    def _net_noise_block(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        return sample_block(self.machine.network_noise, rng, shape)

    def _op_cost(self, size_bytes: int) -> float:
        """Local reduction-operator cost for one message of data (s)."""
        flops = max(size_bytes * _OP_FLOPS_PER_BYTE, 1.0)
        return flops / self.machine.node.cpu_flops

    def _fresh_stream(self, *keys) -> np.random.Generator:
        self._op_count += 1
        return self._rngs("op", self._op_count, *keys)

    def _record_kernel(self, seconds: float, n_messages: int) -> None:
        """Feed one collective evaluation into the bound metrics registry."""
        registry = _kernel_metrics
        if registry is None:
            return
        registry.counter("repro_simsys_kernel_ops_total").inc()
        registry.counter("repro_simsys_kernel_messages_total").inc(float(n_messages))
        registry.histogram("repro_simsys_kernel_seconds").observe(seconds)

    # -- tiling / schedule access ---------------------------------------

    def _tile_reps(self, n: int) -> int:
        """Repetitions per vectorized tile under the ``tile_bytes`` budget."""
        per_rep = _ROWS_PER_REP * 8 * self.nprocs
        return int(min(n, max(1, self.tile_bytes // per_rep)))

    def _rounds_factory(
        self, op: str, *, offsets: tuple[int, ...] | None = None
    ) -> Callable[[], Iterable[Round]]:
        """How each tile obtains the schedule's rounds.

        Small schedules come from the ``lru_cache``-d compilers (built
        once, shared across tiles and calls); large ones are generated
        lazily per tile so only one round's index arrays are live.
        """
        spec = schedule_spec(op, self.nprocs, offsets=offsets)
        if spec.n_messages <= _DENSE_SCHEDULE_MAX_MESSAGES:
            compiler = {
                "reduce": compile_reduce,
                "bcast": compile_bcast,
                "allreduce": compile_allreduce,
                "alltoall": compile_alltoall,
                "barrier": compile_barrier,
                "scan": compile_scan,
            }
            if op == "neighbor":
                sched: CompiledSchedule = compile_neighbor(self.nprocs, offsets)
            else:
                sched = compiler[op](self.nprocs)
            return lambda: sched.rounds
        if op == "neighbor":
            return lambda: iter_rounds("neighbor", self.nprocs, offsets=offsets)
        return lambda: iter_rounds(op, self.nprocs)

    def _draw_skew(
        self, rng: np.random.Generator, skew, n: int
    ) -> np.ndarray | None:
        """The per-tile ``(n, P)`` start-offset block.

        Drawn *first* in each tile so deterministic runs stay bit-identical
        with the scalar oracle, which draws it first too.  Accepts a float
        (uniform on ``[0, skew]``) or any :class:`SkewModel`.
        """
        if skew is None:
            return None
        if isinstance(skew, (int, float)):
            if skew < 0:
                raise ValidationError("skew must be non-negative")
            if skew == 0:
                return None
            return rng.uniform(0.0, float(skew), size=(n, self.nprocs))
        if not isinstance(skew, SkewModel):
            raise ValidationError(
                f"skew must be a float or provide sample_offsets(); got {skew!r}"
            )
        out = np.asarray(
            skew.sample_offsets(rng, n, self.rank_node, self.rank_core), dtype=float
        )
        if out.shape != (n, self.nprocs):
            raise ValidationError(
                f"skew model returned shape {out.shape}, "
                f"expected {(n, self.nprocs)}"
            )
        if np.any(out < 0):
            raise ValidationError("skew offsets must be non-negative")
        return out

    # -- point-to-point -------------------------------------------------

    def ping_pong(
        self,
        size_bytes: int = 64,
        n: int = 1000,
        *,
        ranks: tuple[int, int] = (0, 1),
    ) -> np.ndarray:
        """One-way latencies of *n* ping-pong exchanges between two ranks.

        Returns the half round-trip time of each exchange, the standard
        latency metric.  The two ranks must differ; the paper always
        places them on different compute nodes, which ``packed`` placement
        delivers only when the node has one rank — use ``"one_per_node"``
        or ``"scattered"`` to match the paper's setup.
        """
        # Zero-byte probes are the standard latency microbenchmark (the
        # postal-model fit sweeps from size 0), so unlike the collectives
        # ping-pong accepts an empty payload.
        size_bytes = check_int(size_bytes, "size_bytes", minimum=0)
        check_int(n, "n", minimum=1)
        a, b = ranks
        if a == b:
            raise ValidationError("ping-pong needs two distinct ranks")
        for r in (a, b):
            if not 0 <= r < self.nprocs:
                raise ValidationError(f"rank {r} out of range")
        start = time.perf_counter()
        base_fwd = self.message_base(a, b, size_bytes)
        base_bwd = self.message_base(b, a, size_bytes)
        rng = self._fresh_stream("pingpong")
        noise_fwd = self._net_noise(rng, n)
        noise_bwd = self._net_noise(rng, n)
        rtt = base_fwd + base_bwd + noise_fwd + noise_bwd
        self._record_kernel(time.perf_counter() - start, 2 * n)
        return rtt / 2.0

    # -- streaming driver ------------------------------------------------

    def stream(
        self,
        op: str,
        size_bytes: int = 8,
        n: int = 1,
        *,
        skew=None,
        counts=None,
        offsets=None,
        aggregated: bool | None = None,
    ) -> Iterator[np.ndarray]:
        """Yield per-tile ``(tile_reps, P)`` completion arrays in order.

        The memory-bounded access path: consuming the tiles one at a time
        (e.g. feeding :class:`repro.stats.StreamingSummary` or a
        :class:`repro.store.ShardStore`) never materializes the full
        ``(n, P)`` result.  Supported *op* values: ``reduce``, ``bcast``,
        ``allreduce``, ``alltoall``, ``alltoallv``, ``barrier``, ``scan``,
        ``exscan``, ``neighbor``.  Keyword arguments apply per op exactly
        as on the named methods.  Each tile is an independent operation on
        its own RNG stream, so on deterministic machines (without random
        skew) the concatenated tiles equal the named method's array
        bit-for-bit; under noise the repetitions are drawn from fresh
        streams — same distribution, different samples.
        """
        dispatch = {
            "reduce": lambda lo, hi: self.reduce(size_bytes, hi - lo, skew=skew),
            "bcast": lambda lo, hi: self.bcast(size_bytes, hi - lo),
            "allreduce": lambda lo, hi: self.allreduce(
                size_bytes, hi - lo, skew=skew
            ),
            "alltoall": lambda lo, hi: self.alltoall(
                size_bytes, hi - lo, aggregated=aggregated
            ),
            "alltoallv": lambda lo, hi: self.alltoallv(counts, hi - lo),
            "barrier": lambda lo, hi: self.barrier(hi - lo),
            "scan": lambda lo, hi: self.scan(size_bytes, hi - lo),
            "exscan": lambda lo, hi: self.exscan(size_bytes, hi - lo),
            "neighbor": lambda lo, hi: self.neighbor_alltoall(
                offsets, size_bytes, hi - lo
            ),
        }
        if op not in dispatch:
            raise ValidationError(
                f"unknown stream op {op!r}; have {sorted(dispatch)}"
            )
        check_int(n, "n", minimum=1)
        n_tile = self._tile_reps(n)
        for lo in range(0, n, n_tile):
            hi = min(n, lo + n_tile)
            yield dispatch[op](lo, hi)

    # -- collectives ----------------------------------------------------

    def reduce(
        self, size_bytes: int = 8, n: int = 1, *, skew=None
    ) -> np.ndarray:
        """Simulate *n* reductions to root 0; per-rank completion times.

        Returns an ``(n, nprocs)`` array: entry ``[i, r]`` is the time at
        which rank *r* finished its participation in repetition *i*
        (relative to the synchronized start).  The root's column is the
        conventional "completion time of the reduce".

        ``skew`` adds a random start offset per rank, modelling imperfect
        synchronization (the Rule 10 synchronization ablation): a float
        means uniform offsets in ``[0, skew]``; any :class:`SkewModel`
        (e.g. :class:`~repro.simsys.workloads.GpuNodeSkew`) is drawn with
        the communicator's placement.
        """
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream("reduce")
        spec = schedule_spec("reduce", self.nprocs)
        start = time.perf_counter()
        out = self._run_tiled(
            self._reduce_tile, "reduce", rng, size_bytes, n, skew
        )
        self._record_kernel(time.perf_counter() - start, spec.n_messages * n)
        return out

    def _run_tiled(
        self,
        tile_kernel,
        op: str,
        rng: np.random.Generator,
        size_bytes,
        n: int,
        skew=None,
        *,
        offsets: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Evaluate a vectorized collective through repetition tiles.

        Per tile (the v3 stream layout): the skew block is drawn first,
        then the kernel draws local and per-round noise blocks in schedule
        order.  Tiles are independent repetitions, so on deterministic
        machines the result is bit-identical for every tile size.
        """
        P = self.nprocs
        rounds_factory = self._rounds_factory(op, offsets=offsets)
        n_tile = self._tile_reps(n)
        out = np.empty((n, P))
        for lo in range(0, n, n_tile):
            hi = min(n, lo + n_tile)
            skew_blk = self._draw_skew(rng, skew, hi - lo)
            out[lo:hi] = tile_kernel(
                rng, rounds_factory(), size_bytes, hi - lo, skew_blk
            )
        return out

    def _reduce_tile(
        self,
        rng: np.random.Generator,
        rounds: Iterable[Round],
        size_bytes: int,
        n: int,
        skew_blk: np.ndarray | None,
    ) -> np.ndarray:
        P = self.nprocs
        op_cost = self._op_cost(size_bytes)
        quiet = self._quiet
        # State is held transposed — (P, n), one contiguous row per rank —
        # so gathering a round's senders copies whole cache lines instead
        # of stride-P columns.
        if skew_blk is not None:
            ready = np.ascontiguousarray(skew_blk.T)
        else:
            ready = np.zeros((P, n))
        if not quiet:
            scale = self.rank_noise_scale[:, None]
            ready += 0.2 * self._net_noise_block(rng, (P, n)) * scale
        if quiet and skew_blk is None:
            # ready is all zeros: fresh zero arrays beat 8 MB memcpys.
            done = np.zeros((P, n))
            completion = np.zeros((P, n))
        else:
            done = ready.copy()
            completion = ready.copy()
        for rnd in rounds:
            src, dst, m = rnd.src, rnd.dst, rnd.n_messages
            base = self._edge_base(src, dst, size_bytes)
            send_done = done[src]
            send_done += base[:, None]
            if not quiet:
                send_done += self._net_noise_block(rng, (m, n))
                # Receiver-side daemon-core delays slow message absorption.
                recv_extra = self._net_noise_block(rng, (m, n)) * (
                    0.15 * scale[dst]
                )
            arrived = np.maximum(done[dst], send_done)
            if not quiet:
                arrived += recv_extra
            arrived += op_cost
            done[dst] = arrived
            # Senders are finished once their messages are on the wire.
            completion[src] = np.maximum(completion[src], send_done)
            completion[dst] = np.maximum(completion[dst], arrived)
        return completion.T

    def reduce_root_times(self, size_bytes: int = 8, n: int = 1000) -> np.ndarray:
        """Convenience: the root's completion time for *n* reductions."""
        return self.reduce(size_bytes, n)[:, 0]

    def bcast(self, size_bytes: int = 8, n: int = 1) -> np.ndarray:
        """Binomial-tree broadcast from root 0; ``(n, P)`` receive times."""
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream("bcast")
        spec = schedule_spec("bcast", self.nprocs)
        start = time.perf_counter()
        out = self._run_tiled(self._bcast_tile, "bcast", rng, size_bytes, n)
        self._record_kernel(time.perf_counter() - start, spec.n_messages * n)
        return out

    def _bcast_tile(
        self,
        rng: np.random.Generator,
        rounds: Iterable[Round],
        size_bytes: int,
        n: int,
        skew_blk: np.ndarray | None,
    ) -> np.ndarray:
        quiet = self._quiet
        done = np.zeros((self.nprocs, n))
        for rnd in rounds:
            src, dst, m = rnd.src, rnd.dst, rnd.n_messages
            base = self._edge_base(src, dst, size_bytes)
            incoming = done[src]
            incoming += base[:, None]
            if not quiet:
                incoming += self._net_noise_block(rng, (m, n))
            done[dst] = np.maximum(done[dst], incoming)
        return done.T

    def allreduce(
        self, size_bytes: int = 8, n: int = 1, *, skew=None
    ) -> np.ndarray:
        """Recursive-doubling allreduce; ``(n, P)`` per-rank completion times.

        For power-of-two P: ⌈log₂P⌉ rounds of pairwise exchange, every rank
        ending with the result.  Non-powers-of-two use the standard fold-in
        (extra ranks send to a partner first and receive the result last),
        so the Figure 5 penalty applies here too.  ``skew`` as in
        :meth:`reduce`.
        """
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream("allreduce")
        spec = schedule_spec("allreduce", self.nprocs)
        start = time.perf_counter()
        out = self._run_tiled(
            self._allreduce_tile, "allreduce", rng, size_bytes, n, skew
        )
        self._record_kernel(time.perf_counter() - start, spec.n_messages * n)
        return out

    def _allreduce_tile(
        self,
        rng: np.random.Generator,
        rounds: Iterable[Round],
        size_bytes: int,
        n: int,
        skew_blk: np.ndarray | None,
    ) -> np.ndarray:
        P = self.nprocs
        op_cost = self._op_cost(size_bytes)
        quiet = self._quiet
        if skew_blk is not None:
            t = np.ascontiguousarray(skew_blk.T)
        else:
            t = np.zeros((P, n))
        if not quiet:
            t += 0.2 * self._net_noise_block(rng, (P, n)) * (
                self.rank_noise_scale[:, None]
            )
        for rnd in rounds:
            src, dst, m = rnd.src, rnd.dst, rnd.n_messages
            base = self._edge_base(src, dst, size_bytes)
            # Fancy indexing snapshots the incoming rows, so "exchange"
            # rounds (every rank sends and receives simultaneously) stay
            # consistent even though dst covers all participants.
            incoming = t[src]
            incoming += base[:, None]
            if not quiet:
                incoming += self._net_noise_block(rng, (m, n))
            merged = np.maximum(t[dst], incoming)
            if rnd.kind != "fold_out":
                merged += op_cost
            t[dst] = merged
        return t.T

    def alltoall(
        self, size_bytes: int = 8, n: int = 1, *, aggregated: bool | None = None
    ) -> np.ndarray:
        """Pairwise-exchange alltoall; ``(n, P)`` per-rank completion times.

        P − 1 rounds; in round k, rank r exchanges with rank ``r XOR k``
        (for power-of-two P) or ``(r + k) mod P`` otherwise.  Completion is
        bandwidth-dominated: every rank moves (P − 1)·size bytes.

        *aggregated* selects the O(P · levels) per-level cost model instead
        of the O(P²) round simulation: ``None`` (default) auto-enables it
        above :data:`ALLTOALL_AGGREGATED_MIN_P`; ``True``/``False`` force.
        See the module docstring for its exactness contract.
        """
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream("alltoall")
        P = self.nprocs
        if P == 1:
            return np.zeros((n, 1))
        use_agg = (
            aggregated
            if aggregated is not None
            else P > ALLTOALL_AGGREGATED_MIN_P
        )
        start = time.perf_counter()
        if use_agg:
            out = self._alltoall_aggregated(rng, size_bytes, n)
        else:
            out = self._run_tiled(
                self._shift_tile_factory(op_cost=0.0),
                "alltoall",
                rng,
                size_bytes,
                n,
            )
        self._record_kernel(time.perf_counter() - start, P * (P - 1) * n)
        return out

    def _shift_tile_factory(self, op_cost: float):
        """Tile kernel for bijection-round collectives (alltoall, barrier,
        neighbor): every rank sends and receives each round, destinations
        advance by max(own, incoming)."""

        def tile(
            rng: np.random.Generator,
            rounds: Iterable[Round],
            size_bytes,
            n: int,
            skew_blk: np.ndarray | None,
        ) -> np.ndarray:
            quiet = self._quiet
            t = np.zeros((self.nprocs, n))
            for rnd in rounds:
                src, dst, m = rnd.src, rnd.dst, rnd.n_messages
                base = self._edge_base(src, dst, size_bytes)
                incoming = t[src]
                incoming += base[:, None]
                if not quiet:
                    incoming += self._net_noise_block(rng, (m, n))
                merged = np.maximum(t[dst], incoming)
                if op_cost:
                    merged += op_cost
                t[dst] = merged
            return t.T

        return tile

    def _noise_moments(self) -> tuple[float, float]:
        """Calibrated (mean, std) of one network-noise draw.

        Sampled once per communicator from a dedicated child stream (not
        the per-op stream, so results don't depend on call order), used by
        the aggregated alltoall's CLT approximation on noisy machines.
        """
        if self._noise_moments_cache is None:
            rng = self._rngs("noise-moments")
            draws = self._net_noise(rng, _NOISE_CALIBRATION_DRAWS)
            self._noise_moments_cache = (float(draws.mean()), float(draws.std()))
        return self._noise_moments_cache

    def _alltoall_aggregated(
        self, rng: np.random.Generator, size_bytes: int, n: int
    ) -> np.ndarray:
        """Per-level aggregated alltoall: O(P · levels) per repetition.

        Each rank's completion is its total incoming message cost — on
        quiet machines the per-round max-plus recurrence telescopes into a
        backward chain sum whose terms sweep exactly the cost multiset the
        census counts, provided each rank's incoming costs are
        homogeneous.  With heterogeneous costs (mixed intra-/inter-node
        placement) the sum over-counts messages the max absorbs off the
        critical path — observed within ~1% of the round simulation; see
        the module docstring.  On noisy machines the per-rank noise sum is
        replaced by its CLT normal.
        """
        P = self.nprocs
        net = self.machine.network
        same_node, hop_values, counts = net.topology.rank_level_census(
            self.rank_node
        )
        level_t = net.level_times(hop_values, size_bytes)
        det = same_node * net.intra_node_time(size_bytes) + counts @ level_t
        if self._quiet:
            return np.broadcast_to(det, (n, P)).copy()
        mu, sigma = self._noise_moments()
        m = P - 1  # incoming messages per rank
        agg_noise = rng.normal(m * mu, math.sqrt(m) * sigma, size=(n, P))
        # The noise sum is nonnegative, so completion never undercuts the
        # deterministic cost.
        return np.maximum(det + agg_noise, det)

    def alltoallv(self, counts, n: int = 1) -> np.ndarray:
        """Pairwise-exchange alltoallv; ``(n, P)`` per-rank completion times.

        *counts* gives per-pair payloads in bytes: either a ``(P, P)``
        array (``counts[s, d]`` = bytes rank *s* sends to rank *d*;
        diagonal ignored) or, for large P where a dense matrix is itself
        quadratic, a callable ``counts(src, dst) -> sizes`` mapping equal-
        length rank index arrays to a byte-size array.  Zero-byte entries
        still pay the latency term (the pairwise-exchange algorithm sends
        in every round), matching common MPI implementations that do not
        skip empty buffers.
        """
        check_int(n, "n", minimum=1)
        counts_fn = self._counts_fn(counts)
        rng = self._fresh_stream("alltoallv")
        P = self.nprocs
        if P == 1:
            return np.zeros((n, 1))
        start = time.perf_counter()
        out = self._run_tiled(
            self._alltoallv_tile_factory(counts_fn), "alltoall", rng, 0, n
        )
        self._record_kernel(time.perf_counter() - start, P * (P - 1) * n)
        return out

    def _counts_fn(self, counts):
        """Normalize alltoallv *counts* into a vectorized pair→sizes map."""
        if callable(counts):
            return counts
        arr = np.asarray(counts)
        if arr.shape != (self.nprocs, self.nprocs):
            raise ValidationError(
                f"counts must be ({self.nprocs}, {self.nprocs}) or callable; "
                f"got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise ValidationError("counts must be non-negative")
        return lambda src, dst: arr[src, dst]

    def _alltoallv_tile_factory(self, counts_fn):
        def tile(
            rng: np.random.Generator,
            rounds: Iterable[Round],
            size_bytes,
            n: int,
            skew_blk: np.ndarray | None,
        ) -> np.ndarray:
            quiet = self._quiet
            t = np.zeros((self.nprocs, n))
            for rnd in rounds:
                src, dst, m = rnd.src, rnd.dst, rnd.n_messages
                sizes = np.asarray(counts_fn(src, dst))
                if np.any(sizes < 0):
                    raise ValidationError("counts must be non-negative")
                base = self._edge_base(src, dst, sizes)
                incoming = t[src]
                incoming += base[:, None]
                if not quiet:
                    incoming += self._net_noise_block(rng, (m, n))
                t[dst] = np.maximum(t[dst], incoming)
            return t.T

        return tile

    def scan(self, size_bytes: int = 8, n: int = 1) -> np.ndarray:
        """Recursive-doubling inclusive prefix scan; ``(n, P)`` times.

        Round k (k = 1, 2, 4, …): rank ``r >= k`` receives the partial
        from ``r − k`` and folds it in (op cost); senders keep computing.
        Rank r's completion is when its own prefix ``op(x_0..x_r)`` is
        ready — monotonically later for higher ranks.
        """
        return self._scan_impl("scan", size_bytes, n)

    def exscan(self, size_bytes: int = 8, n: int = 1) -> np.ndarray:
        """Exclusive prefix scan; same message pattern as :meth:`scan`.

        MPI_Exscan differs from MPI_Scan only in local data handling
        (rank r ends with ``op(x_0..x_{r−1})``), which the timing
        simulation does not observe — but it consumes a distinct RNG
        stream, so scan/exscan experiments stay independently seeded.
        """
        return self._scan_impl("exscan", size_bytes, n)

    def _scan_impl(self, label: str, size_bytes: int, n: int) -> np.ndarray:
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream(label)
        spec = schedule_spec("scan", self.nprocs)
        start = time.perf_counter()
        if self.nprocs == 1:
            out = np.zeros((n, 1))
        else:
            out = self._run_tiled(self._scan_tile, "scan", rng, size_bytes, n)
        self._record_kernel(time.perf_counter() - start, spec.n_messages * n)
        return out

    def _scan_tile(
        self,
        rng: np.random.Generator,
        rounds: Iterable[Round],
        size_bytes: int,
        n: int,
        skew_blk: np.ndarray | None,
    ) -> np.ndarray:
        P = self.nprocs
        op_cost = self._op_cost(size_bytes)
        quiet = self._quiet
        t = np.zeros((P, n))
        if not quiet:
            t += 0.2 * self._net_noise_block(rng, (P, n)) * (
                self.rank_noise_scale[:, None]
            )
        for rnd in rounds:
            src, dst, m = rnd.src, rnd.dst, rnd.n_messages
            base = self._edge_base(src, dst, size_bytes)
            # Snapshot via fancy indexing: a rank can send and receive in
            # the same round; its outgoing partial is the pre-round value.
            incoming = t[src]
            incoming += base[:, None]
            if not quiet:
                incoming += self._net_noise_block(rng, (m, n))
            t[dst] = np.maximum(t[dst], incoming) + op_cost
        return t.T

    def neighbor_alltoall(
        self, offsets, size_bytes: int = 8, n: int = 1
    ) -> np.ndarray:
        """Ring neighborhood exchange; ``(n, P)`` per-rank completion times.

        Models ``MPI_Neighbor_alltoall`` on a periodic 1-D Cartesian
        communicator: for each offset ``o`` in *offsets*, every rank sends
        *size_bytes* to ``(rank + o) mod P`` (e.g. ``offsets=(-1, 1)`` is
        the classic halo exchange).  Offsets must be distinct and nonzero
        modulo P.
        """
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        offsets = tuple(int(o) for o in offsets)
        rng = self._fresh_stream("neighbor", offsets)
        spec = schedule_spec("neighbor", self.nprocs, offsets=offsets)
        start = time.perf_counter()
        out = self._run_tiled(
            self._shift_tile_factory(op_cost=0.0),
            "neighbor",
            rng,
            size_bytes,
            n,
            offsets=offsets,
        )
        self._record_kernel(time.perf_counter() - start, spec.n_messages * n)
        return out

    def gather(self, size_bytes: int = 8, n: int = 1) -> np.ndarray:
        """Binomial-tree gather to root 0; ``(n, P)`` completion times.

        Follows the reduce schedule but message sizes grow toward the root
        (an interior node forwards its whole subtree's data), which makes
        gather bandwidth-bound near the root for large payloads.  Message
        sizes vary per edge, so gather has a single (scalar) kernel.
        """
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        pre, rounds = reduce_schedule(self.nprocs)
        rng = self._fresh_stream("gather")
        P = self.nprocs
        start = time.perf_counter()
        done = np.zeros((n, P))
        completion = np.zeros((n, P))
        # Bytes accumulated at each rank (own contribution to start with).
        payload = np.full(P, size_bytes, dtype=np.int64)

        def deliver(src: int, dst: int) -> None:
            base = self.message_base(src, dst, int(payload[src]))
            noise = self._net_noise(rng, n)
            send_done = done[:, src] + base + noise
            done[:, dst] = np.maximum(done[:, dst], send_done)
            payload[dst] += payload[src]
            completion[:, src] = np.maximum(completion[:, src], send_done)
            completion[:, dst] = np.maximum(completion[:, dst], done[:, dst])

        for src, dst in pre:
            deliver(src, dst)
        for rnd in rounds:
            for src, dst in rnd:
                deliver(src, dst)
        self._record_kernel(time.perf_counter() - start, (P - 1) * n)
        return completion

    def scatter(self, size_bytes: int = 8, n: int = 1) -> np.ndarray:
        """Binomial-tree scatter from root 0; ``(n, P)`` receive times.

        The mirror of :meth:`gather`: interior sends carry the payload for
        the whole destination subtree, halving in size per round.  Message
        sizes vary per edge, so scatter has a single (scalar) kernel.
        """
        size_bytes = check_int(size_bytes, "size_bytes", minimum=1)
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream("scatter")
        P = self.nprocs
        start = time.perf_counter()
        done = np.zeros((n, P))
        # In round k (descending), rank src < 2^k sends the data destined
        # for ranks [src + 2^k, min(src + 2^{k+1}, P)) to rank src + 2^k.
        k = 1 << max(P - 1, 1).bit_length()
        while k >= 1:
            for src in range(min(k, max(P - k, 0))):
                dst = src + k
                if dst >= P:
                    continue
                subtree = min(k, P - dst)
                base = self.message_base(src, dst, size_bytes * subtree)
                noise = self._net_noise(rng, n)
                done[:, dst] = np.maximum(
                    done[:, dst], done[:, src] + base + noise
                )
            k //= 2
        self._record_kernel(time.perf_counter() - start, (P - 1) * n)
        return done

    def barrier(self, n: int = 1) -> np.ndarray:
        """Dissemination barrier; ``(n, P)`` exit times.

        Round k: rank r signals rank (r + 2^k) mod P; a rank leaves round k
        once it has both sent and received.  ⌈log2 P⌉ rounds total.
        """
        check_int(n, "n", minimum=1)
        rng = self._fresh_stream("barrier")
        if self.nprocs == 1:
            return np.zeros((n, 1))
        spec = schedule_spec("barrier", self.nprocs)
        start = time.perf_counter()
        out = self._run_tiled(
            self._shift_tile_factory(op_cost=0.0), "barrier", rng, 0, n
        )
        self._record_kernel(time.perf_counter() - start, spec.n_messages * n)
        return out

    # -- introspection ---------------------------------------------------

    def describe_placement(self) -> str:
        """Human-readable placement summary for experiment documentation."""
        n_nodes = int(self.rank_node.max()) + 1
        return (
            f"{self.nprocs} ranks, placement={self.placement}, "
            f"{n_nodes} node(s) of {self.machine.name}"
        )
