"""Scalar reference collectives: the oracle and speedup baseline for SimComm.

:class:`ReferenceComm` evaluates every batched collective of
:class:`~repro.simsys.mpi.SimComm` one message at a time — the original
per-message path the round-batched kernels replaced.  It has two readers:

* the cross-validation tests, which hold each vectorized collective to it
  bit-for-bit on noiseless machines and in distribution on noisy ones
  (the two consume the RNG stream in different layouts; see
  docs/PERFORMANCE.md);
* the kernel benchmarks, which time it as the base case of every reported
  speedup (Rule 1) and record it under ``kernel=reference``.

It is not exported from :mod:`repro.simsys` and nothing in the library
imports it.  Each override draws the same per-op stream ``SimComm`` draws,
so op counters and seeds line up, then runs the scalar body; arguments are
not validated, no kernel metrics are recorded, and ``alltoall`` always
runs the exact pairwise rounds.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from .mpi import SimComm
from .schedules import _check_offsets, reduce_schedule

__all__ = ["ReferenceComm"]


class ReferenceComm(SimComm):
    """:class:`SimComm` with the scalar per-message collective kernels."""

    def reduce(self, size_bytes: int = 8, n: int = 1, *, skew=None) -> np.ndarray:
        rng = self._fresh_stream("reduce")
        pre, rounds = reduce_schedule(self.nprocs)
        P = self.nprocs
        op_cost = self._op_cost(size_bytes)
        skew_blk = self._draw_skew(rng, skew, n)
        ready = skew_blk if skew_blk is not None else np.zeros((n, P))
        local = self._net_noise(rng, n * P).reshape(n, P)
        ready = ready + 0.2 * local * self.rank_noise_scale[None, :]
        done = ready.copy()
        completion = ready.copy()

        def deliver(src: int, dst: int) -> None:
            base = self.message_base(src, dst, size_bytes)
            noise = self._net_noise(rng, n)
            send_done = done[:, src] + base + noise
            recv_extra = (
                0.15
                * self._net_noise(rng, n)
                * self.rank_noise_scale[dst]
            )
            arrived = np.maximum(done[:, dst], send_done) + recv_extra
            done[:, dst] = arrived + op_cost
            # Sender is finished once its message is on the wire.
            completion[:, src] = np.maximum(completion[:, src], send_done)
            completion[:, dst] = np.maximum(completion[:, dst], done[:, dst])

        for src, dst in pre:
            deliver(src, dst)
        for rnd in rounds:
            for src, dst in rnd:
                deliver(src, dst)
        return completion

    def bcast(self, size_bytes: int = 8, n: int = 1) -> np.ndarray:
        rng = self._fresh_stream("bcast")
        P = self.nprocs
        done = np.zeros((n, P))
        # Binomial tree: in round k, every rank that already has the data
        # (rank < 2^k) sends to rank + 2^k.
        k = 1
        while k < P:
            for src in range(min(k, P - k)):
                dst = src + k
                base = self.message_base(src, dst, size_bytes)
                noise = self._net_noise(rng, n)
                done[:, dst] = np.maximum(done[:, dst], done[:, src] + base + noise)
            k *= 2
        return done

    def allreduce(
        self, size_bytes: int = 8, n: int = 1, *, skew=None
    ) -> np.ndarray:
        rng = self._fresh_stream("allreduce")
        P = self.nprocs
        op_cost = self._op_cost(size_bytes)
        skew_blk = self._draw_skew(rng, skew, n)
        t = skew_blk if skew_blk is not None else np.zeros((n, P))
        local = self._net_noise(rng, n * P).reshape(n, P)
        t = t + 0.2 * local * self.rank_noise_scale[None, :]
        pof2 = 1 << (P.bit_length() - 1)
        rem = P - pof2
        # Fold-in: rank 2r+1 sends to 2r for r < rem.
        for r in range(rem):
            src, dst = 2 * r + 1, 2 * r
            base = self.message_base(src, dst, size_bytes)
            noise = self._net_noise(rng, n)
            t[:, dst] = np.maximum(t[:, dst], t[:, src] + base + noise) + op_cost
        survivors = (
            list(range(0, 2 * rem, 2)) + list(range(2 * rem, P)) if rem else list(range(P))
        )
        # Recursive doubling among survivors (pairwise exchange per round).
        k = 1
        while k < pof2:
            new_t = t.copy()
            for j in range(pof2):
                partner = j ^ k
                a, b = survivors[j], survivors[partner]
                base = self.message_base(b, a, size_bytes)
                noise = self._net_noise(rng, n)
                new_t[:, a] = np.maximum(t[:, a], t[:, b] + base + noise) + op_cost
            t = new_t
            k *= 2
        # Fold-out: results back to the folded-in odd ranks.
        for r in range(rem):
            src, dst = 2 * r, 2 * r + 1
            base = self.message_base(src, dst, size_bytes)
            noise = self._net_noise(rng, n)
            t[:, dst] = np.maximum(t[:, dst], t[:, src] + base + noise)
        return t

    def alltoall(
        self, size_bytes: int = 8, n: int = 1, *, aggregated: bool | None = None
    ) -> np.ndarray:
        """Exact pairwise rounds; *aggregated* is accepted and ignored."""
        rng = self._fresh_stream("alltoall")
        P = self.nprocs
        t = np.zeros((n, P))
        use_xor = (P & (P - 1)) == 0
        for k in range(1, P):
            new_t = t.copy()
            for r in range(P):
                partner = (r ^ k) if use_xor else ((r + k) % P)
                if partner == r:
                    continue
                base = self.message_base(partner, r, size_bytes)
                noise = self._net_noise(rng, n)
                new_t[:, r] = np.maximum(new_t[:, r], t[:, partner] + base + noise)
            t = new_t
        return t

    def alltoallv(self, counts, n: int = 1) -> np.ndarray:
        counts_fn = self._counts_fn(counts)
        rng = self._fresh_stream("alltoallv")
        P = self.nprocs
        t = np.zeros((n, P))
        use_xor = (P & (P - 1)) == 0
        one = np.zeros(1, dtype=np.int64)
        for k in range(1, P):
            new_t = t.copy()
            for r in range(P):
                partner = (r ^ k) if use_xor else ((r + k) % P)
                if partner == r:
                    continue
                size = int(np.asarray(counts_fn(one + partner, one + r))[0])
                if size < 0:
                    raise ValidationError("counts must be non-negative")
                base = self.message_base(partner, r, size)
                noise = self._net_noise(rng, n)
                new_t[:, r] = np.maximum(new_t[:, r], t[:, partner] + base + noise)
            t = new_t
        return t

    def _scan_impl(self, label: str, size_bytes: int, n: int) -> np.ndarray:
        rng = self._fresh_stream(label)
        P = self.nprocs
        if P == 1:
            return np.zeros((n, 1))
        op_cost = self._op_cost(size_bytes)
        t = np.zeros((n, P))
        local = self._net_noise(rng, n * P).reshape(n, P)
        t += 0.2 * local * self.rank_noise_scale[None, :]
        k = 1
        while k < P:
            new_t = t.copy()
            for dst in range(k, P):
                src = dst - k
                base = self.message_base(src, dst, size_bytes)
                noise = self._net_noise(rng, n)
                new_t[:, dst] = (
                    np.maximum(t[:, dst], t[:, src] + base + noise) + op_cost
                )
            t = new_t
            k *= 2
        return t

    def neighbor_alltoall(
        self, offsets, size_bytes: int = 8, n: int = 1
    ) -> np.ndarray:
        offsets = tuple(int(o) for o in offsets)
        rng = self._fresh_stream("neighbor", offsets)
        P = self.nprocs
        _check_offsets(P, offsets)
        t = np.zeros((n, P))
        for off in offsets:
            new_t = t.copy()
            for r in range(P):
                dst = (r + off) % P
                base = self.message_base(r, dst, size_bytes)
                noise = self._net_noise(rng, n)
                new_t[:, dst] = np.maximum(new_t[:, dst], t[:, r] + base + noise)
            t = new_t
        return t

    def barrier(self, n: int = 1) -> np.ndarray:
        rng = self._fresh_stream("barrier")
        P = self.nprocs
        t = np.zeros((n, P))
        rounds = math.ceil(math.log2(P))
        size = 0  # zero-byte flag messages
        for k in range(rounds):
            shift = 1 << k
            arrive = np.empty_like(t)
            for r in range(P):
                dst = (r + shift) % P
                base = self.message_base(r, dst, size)
                noise = self._net_noise(rng, n)
                arrive[:, dst] = t[:, r] + base + noise
            t = np.maximum(t, arrive)
        return t
