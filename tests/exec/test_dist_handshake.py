"""The dist coordinator's handshake and loss reporting.

A :class:`ProcessExecutor` listens on loopback, where on a shared host
any local user can connect.  Nothing a peer sends may be unpickled
before it has shown the run token in a JSON ``HELLO``.
"""

from __future__ import annotations

import os
import socket

from repro.chaos import FaultPlan, FaultProfile
from repro.exec import DistExecutor, ProcessExecutor
from repro.exec.protocol import ERROR, HELLO, PROTOCOL_VERSION, TASK, encode_frame, recv_frame


def _double(item):
    return 2 * item


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


class TestLossReporting:
    def test_partition_is_lost_not_crashed(self, tmp_path):
        """A partitioned worker exits cleanly: the error says ``lost``."""
        plan = FaultPlan(FaultProfile("partition", net_partition_p=1.0), seed=0)
        with DistExecutor(workers=1, retries=0, fault_plan=plan,
                          fault_state_dir=tmp_path) as executor:
            (outcome,) = executor.run(_double, [1], labels=["a"])
        assert not outcome.ok
        assert "worker rank 0 lost" in outcome.error
        assert "crashed" not in outcome.error
