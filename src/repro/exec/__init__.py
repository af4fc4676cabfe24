"""The campaign execution engine (:mod:`repro.exec`).

Fans experiment design points and replications out across worker
processes with deterministic per-task seeding
(:meth:`numpy.random.SeedSequence.spawn`), a content-addressed on-disk
result cache, bounded-backoff fault tolerance, and progress/metrics
hooks.  :class:`SerialExecutor`, :class:`ProcessExecutor` (local forked
workers) and :class:`DistExecutor` (socket workers on any host) are
interchangeable behind the library-wide ``executor=`` seam
(:class:`repro.core.Experiment`, :class:`repro.core.Campaign`,
:func:`repro.core.run_screening`, and the ``campaign`` CLI command).
"""

from .cache import ResultCache, task_fingerprint
from .engine import (
    Executor,
    MeasurementTask,
    Outcome,
    SerialExecutor,
    TaskResult,
    make_tasks,
    run_measurement_tasks,
)
from .hooks import ExecHooks
from .protocol import PROTOCOL_VERSION, ProtocolError
from .seeding import spawn_task_seeds, task_seed_id
from .dist import DistExecutor, ProcessExecutor, worker_main

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "DistExecutor",
    "worker_main",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "MeasurementTask",
    "TaskResult",
    "Outcome",
    "make_tasks",
    "run_measurement_tasks",
    "ResultCache",
    "task_fingerprint",
    "ExecHooks",
    "spawn_task_seeds",
    "task_seed_id",
]
