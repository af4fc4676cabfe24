"""What every CI gate shares: one way to run ``repro``, one metrics reader.

Each ``gates/test_<job>.py`` holds the checks of one CI job, so a gate
runs anywhere with ``python -m pytest gates/test_<job>.py`` from the
repository root; CI runs exactly that.  Gates drive ``repro`` and the
benchmark scripts as subprocesses from the repository root with the
checkout's ``src`` on the import path, as a user does.  Their state lives
under pytest's temporary directory (``--basetemp`` picks it).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The environment of every gate subprocess: this checkout's ``src``
#: first on the import path, so no install is needed.
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def python(*args, timeout=None, expect=0, env=None) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` from the repository root with its output captured.

    Asserts that the exit code is *expect*; ``expect=None`` accepts any.
    *timeout* (seconds) kills the process and fails the test when it runs
    longer; *env* adds variables to :data:`ENV`.
    """
    argv = [sys.executable, *map(str, args)]
    extra = {name: str(value) for name, value in (env or {}).items()}
    proc = subprocess.run(
        argv, cwd=ROOT, env={**ENV, **extra},
        capture_output=True, text=True, timeout=timeout,
    )
    if expect is not None:
        assert proc.returncode == expect, (
            f"{' '.join(argv[1:])} exited {proc.returncode}, expected {expect}\n"
            f"--- stdout\n{proc.stdout}\n--- stderr\n{proc.stderr}"
        )
    return proc


def repro(*args, timeout=None, expect=0) -> subprocess.CompletedProcess:
    """Run ``python -m repro ARGS``; see :func:`python`."""
    return python("-m", "repro", *args, timeout=timeout, expect=expect)


def prom(path) -> dict[str, float]:
    """The samples of a Prometheus text file: ``{name: value}``, where a
    labelled sample's name keeps its labels."""
    samples = {}
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples
