"""CalibrationStudy: determinism, verdicts, reports, metrics, caching."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ValidationError
from repro.exec import ExecHooks, ProcessExecutor, ResultCache, SerialExecutor
from repro.obs import MetricsRegistry
from repro.report import calibration_markdown, calibration_table
from repro.validate import (
    KNOWN_LIMITATIONS,
    PROFILES,
    CalibrationProfile,
    CalibrationReport,
    CalibrationStudy,
    CellResult,
    get_profile,
    wilson_interval,
)

FROZEN_TS = "2026-01-01T00:00:00+00:00"

#: A four-cell study small enough to run many times in one test module.
TINY = CalibrationProfile(
    name="micro",  # reuse the micro cache-key space
    trials=20,
    batches=2,
    n=12,
    n_boot=60,
    tolerance=0.4,
    tolerance_type1=0.3,
    procedures=("mean_ci", "median_ci"),
    generators=("normal", "lognormal"),
)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(950, 1000)
        assert lo < 0.95 < hi

    def test_bounded(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(95, 100)
        lo2, hi2 = wilson_interval(9500, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validates(self):
        with pytest.raises(ValidationError):
            wilson_interval(5, 0)
        with pytest.raises(ValidationError):
            wilson_interval(10, 5)


class TestProfiles:
    def test_shipped_profiles(self):
        assert set(PROFILES) == {"smoke", "full", "micro"}
        assert get_profile("smoke").name == "smoke"

    def test_unknown_profile(self):
        with pytest.raises(ValidationError, match="unknown profile"):
            get_profile("huge")

    def test_batches_cannot_exceed_trials(self):
        with pytest.raises(ValidationError):
            CalibrationProfile(name="bad", trials=2, batches=4)

    def test_unknown_restriction_rejected(self):
        with pytest.raises(ValidationError):
            CalibrationProfile(name="bad", procedures=("nope",))

    def test_micro_is_strict_subset_of_smoke_effort(self):
        assert PROFILES["micro"].trials < PROFILES["smoke"].trials


class TestStudyStructure:
    def test_cell_matrix_covers_acceptance_floor(self):
        cells = CalibrationStudy(get_profile("smoke")).cells()
        procs = {p for p, _ in cells}
        gens = {g for _, g in cells}
        assert len(procs) >= 6
        assert len(gens) >= 4

    def test_batch_sizes_partition_trials(self):
        study = CalibrationStudy(get_profile("smoke"))
        sizes = study._batch_sizes()
        assert sum(sizes) == study.profile.trials
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_non_profile(self):
        with pytest.raises(ValidationError):
            CalibrationStudy("smoke")


class TestDeterminism:
    def test_bit_identical_across_executors(self, tmp_path):
        """Acceptance criterion: same master seed => byte-equal report
        files under SerialExecutor and ProcessExecutor."""
        serial = CalibrationStudy(TINY, master_seed=42).run(
            executor=SerialExecutor(), created_at=FROZEN_TS
        )
        parallel = CalibrationStudy(TINY, master_seed=42).run(
            executor=ProcessExecutor(max_workers=2), created_at=FROZEN_TS
        )
        p1 = serial.write(tmp_path / "serial")
        p2 = parallel.write(tmp_path / "parallel")
        assert p1.read_bytes() == p2.read_bytes()

    def test_digest_ignores_provenance_timestamp(self):
        a = CalibrationStudy(TINY, master_seed=1).run(created_at="A")
        b = CalibrationStudy(TINY, master_seed=1).run(created_at="B")
        assert a.digest == b.digest
        assert a.to_json() != b.to_json()  # provenance differs

    def test_different_seeds_differ(self):
        a = CalibrationStudy(TINY, master_seed=1).run(created_at=FROZEN_TS)
        b = CalibrationStudy(TINY, master_seed=2).run(created_at=FROZEN_TS)
        assert a.digest != b.digest


class TestReport:
    def test_micro_profile_within_tolerance(self, micro_report):
        # The shipped micro profile must be green at seed 0 — it is the
        # fixture every other assertion builds on.
        assert micro_report.all_ok, [c.procedure for c in micro_report.flagged]

    def test_summary_counts(self, micro_report):
        s = micro_report.summary()
        assert s["cells"] == len(micro_report.cells)
        assert s["trials_total"] == sum(c.trials for c in micro_report.cells)

    def test_json_round_trip(self, micro_report):
        payload = json.loads(micro_report.to_json())
        back = CalibrationReport.from_dict(payload)
        assert back.digest == micro_report.digest
        assert back.cells == micro_report.cells

    def test_write_emits_json_file(self, micro_report, tmp_path):
        path = micro_report.write(tmp_path)
        assert path.name == "calibration_report.json"
        assert json.loads(path.read_text())["digest"] == micro_report.digest

    def test_provenance_stamped(self, micro_report):
        prov = micro_report.provenance
        assert prov["master_seed"] == 0
        assert prov["methodology"]["profile"] == "micro"
        assert prov["exec_stats"]["completed"] > 0

    def test_known_limitations_flow_into_notes(self, micro_report):
        noted = {
            (c.procedure, c.generator): c.note
            for c in micro_report.cells
            if c.note
        }
        for key in noted:
            assert key in KNOWN_LIMITATIONS

    def test_flag_detection(self):
        cell = CellResult(
            procedure="mean_ci", generator="normal", kind="coverage",
            metric="m", nominal=0.95, band_low=0.9, band_high=1.0,
            trials=100, successes=50, rate=0.5, ci_low=0.4, ci_high=0.6,
            ok=False, exact_truth=True,
        )
        report = CalibrationReport(
            profile={"name": "x"}, master_seed=0, cells=(cell,)
        )
        assert report.flagged == (cell,)
        assert not report.all_ok


class TestRendering:
    def test_table_lists_every_cell(self, micro_report):
        table = calibration_table(micro_report)
        assert "mean_ci" in table and "simsys_mixture" in table
        assert table.count("\n") >= len(micro_report.cells)

    def test_flagged_only_filter(self, micro_report):
        assert "within tolerance" in calibration_table(
            micro_report, flagged_only=True
        )

    def test_markdown_document(self, micro_report):
        md = calibration_markdown(micro_report)
        assert md.startswith("# Statistical calibration report")
        assert "## Verdicts" in md
        assert "## Provenance" in md
        assert micro_report.digest in md

    def test_markdown_surfaces_flags(self, micro_report):
        bad = dataclasses.replace(micro_report.cells[0], ok=False)
        report = CalibrationReport(
            profile=micro_report.profile,
            master_seed=0,
            cells=(bad,) + micro_report.cells[1:],
            provenance=micro_report.provenance,
        )
        assert "## Flagged cells" in calibration_markdown(report)

    def test_rejects_non_report(self):
        with pytest.raises(ValidationError):
            calibration_table({"cells": []})


class TestMetricsAndCache:
    def test_validate_counters_recorded(self):
        registry = MetricsRegistry()
        hooks = ExecHooks(metrics=registry)
        report = CalibrationStudy(TINY, master_seed=0).run(hooks=hooks)
        assert (
            registry.counter("repro_validate_trials_total").value
            == sum(c.trials for c in report.cells)
        )
        assert registry.counter("repro_validate_cells_total").value == len(
            report.cells
        )
        assert registry.counter("repro_validate_cells_flagged_total").value == 0

    def test_cache_answers_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        hooks1 = ExecHooks()
        first = CalibrationStudy(TINY, master_seed=9).run(
            cache=cache, hooks=hooks1, created_at=FROZEN_TS
        )
        assert hooks1.snapshot()["cached"] == 0
        hooks2 = ExecHooks()
        second = CalibrationStudy(TINY, master_seed=9).run(
            cache=cache, hooks=hooks2, created_at=FROZEN_TS
        )
        # Every task (4 cells x 2 batches) is answered from the cache.
        assert hooks2.snapshot()["cached"] == len(CalibrationStudy(TINY)._runs())
        assert second.digest == first.digest
