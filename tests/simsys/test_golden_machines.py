"""Golden digests of ``SimComm`` outputs on the paper's machines.

``SimComm`` and ``ReferenceComm`` share the topology they are checked on,
so their bit-identity tests cannot see a change in the topology model
itself.  These digests can: each hashes the exact float64 bytes a
collective returns at a fixed seed on ``piz_daint``, ``piz_dora``,
``pilatus``, ``testbed`` and an inter-group ``piz_daint``, under packed and
one-rank-per-node placement.  A digest changes only if the simulated
values change; any such change must also bump
:data:`repro.simsys.schedules.KERNEL_VERSION`, since figure content keys
and cached results depend on these values.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.simsys.machine import pilatus, piz_daint, piz_dora
from repro.simsys.machine import testbed as make_testbed
from repro.simsys.mpi import SimComm

#: (label, machine factory, packed rank count).  ``piz_daint_384`` spans
#: all six dragonfly groups, so the 2- and 3-hop levels are exercised.
_MACHINES = {
    "piz_daint_64": (lambda: piz_daint(64), 64),
    "piz_dora_64": (lambda: piz_dora(64), 64),
    "pilatus_44": (lambda: pilatus(44), 64),
    "testbed_4": (lambda: make_testbed(4), 16),
    "piz_daint_384": (lambda: piz_daint(384), 64),
}

_OPS = {
    "reduce": lambda c: c.reduce(8, 4),
    "allreduce": lambda c: c.allreduce(8, 4),
    "alltoall": lambda c: c.alltoall(64, 2, aggregated=False),
    "alltoall_aggregated": lambda c: c.alltoall(64, 2, aggregated=True),
    "bcast": lambda c: c.bcast(8, 4),
    "barrier": lambda c: c.barrier(4),
    "ping_pong": lambda c: c.ping_pong(64, 200, ranks=(0, c.nprocs - 1)),
}


def _digest(machine_label: str, op: str) -> str:
    make, packed = _MACHINES[machine_label]
    machine = make()
    h = hashlib.blake2b(digest_size=16)
    for placement, nprocs in (("packed", packed), ("one_per_node", machine.n_nodes)):
        out = _OPS[op](SimComm(machine, nprocs, placement=placement, seed=2015))
        arr = np.ascontiguousarray(out, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: Captured from the graph-backed topology model, which the closed forms
#: replaced without changing a single simulated value.
GOLDEN = {
    ('pilatus_44', 'allreduce'): 'e6d2378f1df82b47490dda3c0d629316',
    ('pilatus_44', 'alltoall'): '47422c3666c429b260c3a5c6a12cffee',
    ('pilatus_44', 'alltoall_aggregated'): '4c76d621f43a47001b6bd556f30cef90',
    ('pilatus_44', 'barrier'): '8e05da75c93d5f02734fa18738ff8d46',
    ('pilatus_44', 'bcast'): '0c984c96d9ae0f827577825756c387ce',
    ('pilatus_44', 'ping_pong'): 'df509cc4ea0a423428708e5de631eb48',
    ('pilatus_44', 'reduce'): 'bdea2268e0a6869e600b10e262f151fd',
    ('piz_daint_384', 'allreduce'): 'db3989a36ef2c4acc3feb60fa22bbfb1',
    ('piz_daint_384', 'alltoall'): '2a0ed80de87d4488ce678c46d7e747d4',
    ('piz_daint_384', 'alltoall_aggregated'): '1e7b66b1c87d8e673097ac53320492f5',
    ('piz_daint_384', 'barrier'): '0e56dc306dcc84dca11694a940964926',
    ('piz_daint_384', 'bcast'): 'b056bdf3f130345f57f10e4bdf259c3d',
    ('piz_daint_384', 'ping_pong'): 'e1ebd43f9fff265bba047feaf964a8b2',
    ('piz_daint_384', 'reduce'): '06a70c8a201b1f595e76d6c7398eaf3f',
    ('piz_daint_64', 'allreduce'): 'd5b9804adc3094350a74e0c420028dea',
    ('piz_daint_64', 'alltoall'): '2999fdad7d2676bb36ea169421b9cbeb',
    ('piz_daint_64', 'alltoall_aggregated'): 'eb04d7043c5ad15276d47ff310357544',
    ('piz_daint_64', 'barrier'): '45c545d0d857610784262ee7d4eb4b1c',
    ('piz_daint_64', 'bcast'): '1ecc017b2c49d7add4a9d9f0629ab48a',
    ('piz_daint_64', 'ping_pong'): '299dbcf362dee462324be0e9a4910629',
    ('piz_daint_64', 'reduce'): '084f29daeae49ed20b74fca53c647ade',
    ('piz_dora_64', 'allreduce'): '2eead9f7a3e15dc41c98f6736693ee5c',
    ('piz_dora_64', 'alltoall'): '5ce2d5954570b43786a7d7b171c1f386',
    ('piz_dora_64', 'alltoall_aggregated'): '9bf00ce82fb7309d0b3252cb6669a901',
    ('piz_dora_64', 'barrier'): '6c84ee97b424ed090c586656067703db',
    ('piz_dora_64', 'bcast'): '448029bc1ab8f677364280a64acd9eb9',
    ('piz_dora_64', 'ping_pong'): 'df897c462bfdcd956d5894342647972f',
    ('piz_dora_64', 'reduce'): '0f1f711d27523e30f93ace1376a22b8c',
    ('testbed_4', 'allreduce'): '506990b026f844211be21a0297327dca',
    ('testbed_4', 'alltoall'): 'c92d3b0356cb801cdb393b056990bdd4',
    ('testbed_4', 'alltoall_aggregated'): '88ac833b7fa9a05fad4e408d72204a25',
    ('testbed_4', 'barrier'): '41cc8ae27837e93b9eba7412b19e8f79',
    ('testbed_4', 'bcast'): '0361832fc371c010bc6b90c09b563186',
    ('testbed_4', 'ping_pong'): 'e120efe848216cf185faeb1f2a5c8313',
    ('testbed_4', 'reduce'): '9e54c37f29d121a8453c8b37ce9d0794',
}


@pytest.mark.parametrize("machine_label", sorted(_MACHINES))
@pytest.mark.parametrize("op", sorted(_OPS))
def test_simcomm_output_matches_golden_digest(machine_label, op):
    assert _digest(machine_label, op) == GOLDEN[machine_label, op]
