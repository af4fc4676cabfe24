"""Out-of-core round-trips: campaign -> shard store -> identical analysis.

The acceptance contract of the store: a campaign whose datasets spill to
the columnar store must reload lazily (memory-mapped values) and produce
*bit-identical* summaries and export JSON versus the in-memory run, under
both the serial and the process executor.  Corruption anywhere in the
chain degrades to quarantine + re-measurement, never a crash.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import Campaign, Experiment, Factor, FactorialDesign, MeasurementSet
from repro.errors import ValidationError
from repro.exec import ExecHooks, ProcessExecutor, SerialExecutor
from repro.report import figure_to_json, measurements_to_json
from repro.stats import summarize


def outofcore_measure(point, rep, rng):
    """Module-level (picklable) measure producing spill-worthy samples."""
    return rng.lognormal(mean=float(point["size"]) * 1e-4, sigma=0.3, size=300)


def make_experiment(seed=7):
    return Experiment(
        name="ooc",
        design=FactorialDesign((Factor("size", (64, 4096)),), replications=2),
        measure=outofcore_measure,
        unit="us",
        seed=seed,
    )


def run_spilled(tmp_path, executor, sub="camp"):
    camp = Campaign.create(tmp_path / sub, name="ooc-camp")
    result = camp.run(make_experiment(), executor=executor, spill_rows=100)
    return camp, result


@dataclasses.dataclass
class FigLatency:
    """Minimal figure payload for the export bit-identity check."""

    name: str
    median: float
    summary: dict


class TestRoundTripIdentity:
    @pytest.mark.parametrize(
        "make_executor",
        [lambda: SerialExecutor(retries=0),
         lambda: ProcessExecutor(max_workers=2)],
        ids=["serial", "process"],
    )
    def test_spilled_datasets_reload_bit_identical(self, tmp_path, make_executor):
        camp, result = run_spilled(tmp_path, make_executor())
        assert camp.has_store()
        assert len(camp.store()) > 0  # datasets actually spilled
        for ms in result.datasets.values():
            back = camp.load(ms.name)
            assert isinstance(back.values, np.memmap)  # lazy reload
            assert np.array_equal(back.values, ms.values)
            # Bit-identical summaries: same floats in, same floats out.
            mem = summarize(ms.values).as_dict()
            ooc = summarize(back.values).as_dict()
            assert json.dumps(mem, sort_keys=True) == json.dumps(
                ooc, sort_keys=True
            )

    def test_export_json_bit_identical(self, tmp_path):
        camp, result = run_spilled(tmp_path, SerialExecutor(retries=0))
        prov = {"fixed": "provenance"}
        for ms in result.datasets.values():
            back = camp.load(ms.name)
            fig_mem = FigLatency(
                ms.name, float(np.median(ms.values)),
                summarize(ms.values).as_dict(),
            )
            fig_ooc = FigLatency(
                back.name, float(np.median(back.values)),
                summarize(back.values).as_dict(),
            )
            assert figure_to_json(fig_mem, provenance=prov) == figure_to_json(
                fig_ooc, provenance=prov
            )
            # Inline (non-spilled) serialization of both agrees too.
            assert measurements_to_json(back) == measurements_to_json(
                dataclasses.replace(ms, metadata=back.metadata)
            )

    def test_streaming_summary_on_lazy_set(self, tmp_path):
        camp, result = run_spilled(tmp_path, SerialExecutor(retries=0))
        name = next(iter(result.datasets.values())).name
        back = camp.load(name)
        acc = back.streaming_summary(chunk_rows=64)
        exact = summarize(back.values)
        assert acc.moments.mean == pytest.approx(exact.mean, rel=1e-12)
        assert acc.moments.std == pytest.approx(exact.std, rel=1e-12)
        assert acc.minimum == exact.minimum and acc.maximum == exact.maximum
        eps = acc.sketch.rank_error_bound()
        lo = np.quantile(back.values, max(0.0, 0.5 - eps), method="lower")
        hi = np.quantile(back.values, min(1.0, 0.5 + eps), method="higher")
        assert lo <= acc.quantile(0.5) <= hi

    def test_second_run_hits_cache_through_store(self, tmp_path):
        camp, result = run_spilled(tmp_path, SerialExecutor(retries=0))
        warm = ExecHooks()
        result2 = camp.run(
            make_experiment(), hooks=warm, overwrite=True, spill_rows=100
        )
        assert warm.completed == 0 and warm.cached == 4
        for key, ms in result.datasets.items():
            assert np.array_equal(ms.values, result2.datasets[key].values)


def _dataset_shard(camp, name):
    """The shard file holding the spilled column of dataset *name*."""
    from repro.report.export import dataset_fingerprint

    manifest = json.loads((camp.path / "store" / "manifest.json").read_text())
    fp = dataset_fingerprint(name, namespace=camp.dataset_namespace)
    entry = manifest["entries"][fp]
    return camp.path / "store" / entry["shard"]


class TestCorruptionDegradesGracefully:
    def test_truncated_shard_quarantines_and_remeasures(self, tmp_path):
        camp, result = run_spilled(tmp_path, SerialExecutor(retries=0))
        victim = next(iter(result.datasets.values())).name
        # Truncate *every* shard: dataset columns and cached task results.
        for shard in (tmp_path / "camp" / "store").glob("shard-*.npy"):
            blob = shard.read_bytes()
            shard.write_bytes(blob[: len(blob) - 16])
        # Loading a dataset whose column died raises a *clean* error...
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(ValidationError, match="missing or quarantined"):
                camp.load(victim)
        # ...and re-running the campaign re-measures instead of crashing:
        # corrupt columns are cache misses, fresh ones replace them.
        hooks = ExecHooks()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result2 = camp.run(
                make_experiment(), hooks=hooks, overwrite=True, spill_rows=100
            )
        assert hooks.completed == 4 and hooks.cached == 0
        for key, ms in result.datasets.items():
            assert np.array_equal(ms.values, result2.datasets[key].values)
        for ms in result2.datasets.values():
            assert np.array_equal(camp.load(ms.name).values, ms.values)

    def test_flipped_manifest_digest_byte_fails_verify_only(self, tmp_path):
        camp, result = run_spilled(tmp_path, SerialExecutor(retries=0))
        victim = sorted(ms.name for ms in result.datasets.values())[0]
        # A run's spilled datasets share one shard; a dataset recorded on
        # its own gets another.
        survivor = MeasurementSet(
            values=np.linspace(1.0, 2.0, 200), unit="us", name="survivor"
        )
        camp.record(survivor, spill_rows=100)
        shard_name = _dataset_shard(camp, victim).name
        assert _dataset_shard(camp, survivor.name).name != shard_name
        manifest = tmp_path / "camp" / "store" / "manifest.json"
        payload = json.loads(manifest.read_text())
        digest = payload["shards"][shard_name]["digest"]
        assert digest, "dataset shard should be sealed when the run finished"
        payload["shards"][shard_name]["digest"] = (
            "0" if digest[0] != "0" else "1"
        ) + digest[1:]
        manifest.write_text(json.dumps(payload))
        store = camp.store()
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            report = store.verify()
        assert not report["ok"] and report["corrupt"] == 1
        # Entries outside the tampered shard still load fine.
        assert np.array_equal(camp.load(survivor.name).values, survivor.values)
