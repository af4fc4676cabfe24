"""Run ``repro serve`` in this process, optionally with serve-side probes.

Usage: ``python3 perfbench/serve_child.py [--probe-out FILE] -- SERVE-ARGS``

Without ``--probe-out`` this is exactly ``python -m repro serve
SERVE-ARGS``.  With it, the registry, store-digest and request-handling
probes are installed first, and their counters and in-memory spans are
written to FILE when the server stops (SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    probe_out = None
    if argv[:1] == ["--probe-out"]:
        probe_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.cli import main as repro_main

    probes = None
    if probe_out is not None:
        from repro.obs import Tracer

        from probes import Probes, install_serve_probes

        probes = Probes(Tracer())
        install_serve_probes(probes)
    code = repro_main(["serve", *argv])
    if probes is not None:
        Path(probe_out).write_text(json.dumps(probes.export()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
