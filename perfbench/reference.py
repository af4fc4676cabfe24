"""A fixed reference workload that measures how fast the host is right now.

The benchmark hosts share their cores with other machines' work and run,
for seconds or for minutes, up to twice as slow as at other times, with
no steal time to show for it.  ``rep.py`` therefore runs
:func:`reference_s` before its first cycle and after each one, and
``run.py`` scales every timed figure of a cycle by ``REFERENCE_NOMINAL_S``
over the mean of the two reference times around it: the figure the cycle
would have shown on a host on which the reference takes
``REFERENCE_NOMINAL_S``.

The reference uses none of the program's code, so a change to the
program moves the scaled figures exactly as it moves the raw ones.  It
mixes the kinds of work the program does: interpreter-bound object
churn, JSON encoding and decoding, NumPy sorting and hashing, and
message round trips between two processes.  It does no file I/O: the
time of small-file writes on these hosts varies from run to run by more
than the phases that do them.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import statistics
import time

import numpy as np

#: Reference time the scaled figures are expressed against: about what
#: :func:`reference_s` takes on an unloaded 2 GHz Xeon core.
REFERENCE_NOMINAL_S = 0.03

#: Back-to-back runs of each part per measurement (the median is kept).
PASSES = 3


def _interpreter() -> None:
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    sorted(f"{k}:{v}" for k, v in counts.items())


def _json() -> None:
    doc = {"rows": [{"name": f"row{i}", "values": list(range(i % 16)), "x": i * 0.5}
                    for i in range(2_500)]}
    json.loads(json.dumps(doc, sort_keys=True))


def _numpy() -> None:
    values = np.random.default_rng(7).standard_normal(150_000)
    hashlib.blake2b(np.sort(values).tobytes(), digest_size=16).digest()


def _round_trips() -> None:
    # A forked child echoes 200 small messages over a socket pair.
    parent, child = socket.socketpair()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        parent.close()
        while msg := child.recv(4096):
            child.sendall(msg)
        os._exit(0)
    child.close()
    try:
        for _ in range(200):
            parent.sendall(b"x" * 256)
            parent.recv(4096)
    finally:
        parent.close()
        os.waitpid(pid, 0)


PARTS = (_interpreter, _json, _numpy, _round_trips)


def reference_s() -> float:
    """Sum over the parts of the reference of each part's median time."""
    total = 0.0
    for part in PARTS:
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total
