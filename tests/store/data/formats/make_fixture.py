"""Write one campaign fixture with the ``repro`` on ``PYTHONPATH``.

Run it once per source tree (see README.md in this directory)::

    PYTHONPATH=<tree>/src python make_fixture.py <rev-dir>

It writes ``<rev-dir>/campaign/``: a ``repro campaign`` run whose
datasets and task results spill to the shard store, plus one small
inline dataset that carries run fields in its metadata.  Then it loads
every dataset back with the same tree and writes what it got to
``<rev-dir>/expected.json``: per dataset the BLAKE2b-16 of the float64
values, ``n``, ``unit`` and ``metadata``.  A tree with a figure registry
also writes ``<rev-dir>/figure_keys.json``: the quick-mode content key of
every campaign figure, as that tree keys the campaign.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import Campaign, MeasurementSet

SMALL_METADATA = {
    "machine": "fixture",
    "provenance": {
        "created_at": "2026-10-19T00:00:00Z",
        "trace_id": "0123456789abcdef",
        "master_seed": 5,
        "environment": {"processor": "fixture-cpu",
                        "extra": {"argv": "make_fixture.py", "site": "local"}},
    },
    "exec": {"cached_tasks": 0, "completed_tasks": 3},
}


def main(out: Path) -> None:
    camp_dir = out / "campaign"
    subprocess.run(
        # Through -c, not -m: the argv the provenance records then names
        # no path of the machine that built the fixture.
        [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())",
         "campaign", "--dir", str(camp_dir),
         "--samples", "64", "--reps", "2", "--spill-rows", "48"],
        check=True, stdout=subprocess.DEVNULL, env=os.environ,
    )
    (camp_dir / "trace.jsonl").unlink(missing_ok=True)
    camp = Campaign.open(camp_dir)
    camp.record(MeasurementSet(values=np.linspace(1.0, 2.0, 12), unit="us",
                               name="small inline", metadata=SMALL_METADATA))
    expected = {}
    for name in Campaign.open(camp_dir).names():
        ms = camp.load(name)
        values = np.ascontiguousarray(ms.values, dtype="<f8")
        expected[name] = {
            "values_digest": hashlib.blake2b(values, digest_size=16).hexdigest(),
            "n": int(ms.n),
            "unit": ms.unit,
            "metadata": ms.metadata,
        }
    (out / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    try:
        from repro.report.registry import FIGURES, FigureService
    except ImportError:  # a tree from before the figure registry
        return
    with tempfile.TemporaryDirectory() as cache:
        service = FigureService(cache, campaign=Campaign.open(camp_dir), quick=True)
        keys = {name: service.content_key(name)
                for name, entry in FIGURES.items() if entry.needs_campaign}
    (out / "figure_keys.json").write_text(
        json.dumps(keys, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
