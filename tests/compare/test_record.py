"""Tests for the versioned benchmark-result schema (repro.compare.record)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.compare import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    BenchSuiteResult,
    history_labels,
    record_key,
)
from repro.errors import ValidationError


def make_record(name="reduce", runs=((1.0, 1.2, 1.1), (0.9, 1.0, 1.05))):
    return BenchRecord(
        name=name,
        params={"machine": "piz_daint", "P": 64, "n": 1000, "kernel": "vectorized"},
        samples=runs,
    )


class TestRecordKey:
    def test_params_sorted_into_key(self):
        key = record_key("reduce", {"n": 1000, "P": 64})
        assert key == "reduce[P=64,n=1000]"

    def test_key_order_independent(self):
        a = record_key("op", {"a": 1, "b": 2})
        b = record_key("op", {"b": 2, "a": 1})
        assert a == b

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            record_key("", {})

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ValidationError):
            record_key("op", {"bad": [1, 2]})


class TestBenchRecord:
    def test_round_trip(self):
        rec = make_record()
        again = BenchRecord.from_dict(rec.to_dict())
        assert again == rec
        assert again.key == rec.key

    def test_json_round_trip(self):
        rec = make_record()
        again = BenchRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert again == rec

    def test_run_structure_preserved(self):
        rec = make_record()
        assert rec.n_runs == 2
        assert rec.n_samples == 6
        np.testing.assert_allclose(rec.run_means(), [1.1, 2.95 / 3])
        assert rec.mean == pytest.approx((1.1 + 2.95 / 3) / 2)

    def test_grand_mean_weights_runs_equally_when_ragged(self):
        rec = BenchRecord(name="x", samples=[[2.0], [4.0, 4.0, 4.0]])
        assert rec.mean == pytest.approx(3.0)  # not the pooled 3.5

    def test_with_run_appends_and_windows(self):
        rec = BenchRecord(name="x", samples=[[1.0]])
        for v in range(2, 6):
            rec = rec.with_run([float(v)], max_runs=3)
        assert rec.n_runs == 3
        assert rec.samples == ((3.0,), (4.0,), (5.0,))  # oldest dropped

    def test_scaled(self):
        rec = make_record().scaled(1.5)
        assert rec.samples[0][0] == pytest.approx(1.5)
        with pytest.raises(ValidationError):
            make_record().scaled(0.0)

    def test_scalar_run_rejected(self):
        with pytest.raises(ValidationError):
            BenchRecord(name="x", samples=[1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            BenchRecord(name="x", samples=[[1.0, float("nan")]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BenchRecord(name="x", samples=[])


class TestSuite:
    def test_write_load_round_trip(self, tmp_path):
        suite = BenchSuiteResult(records={}).merged(make_record())
        suite = suite.with_provenance({"origin": "test"})
        path = suite.write(tmp_path / "BENCH.json")
        again = BenchSuiteResult.load(path)
        assert again.records == suite.records
        assert again.provenance == {"origin": "test"}
        assert again.digest == suite.digest

    def test_digest_ignores_provenance(self):
        suite = BenchSuiteResult(records={}).merged(make_record())
        assert suite.digest == suite.with_provenance({"x": 1}).digest

    def test_corrupt_digest_rejected(self, tmp_path):
        path = BenchSuiteResult(records={}).merged(make_record()).write(
            tmp_path / "BENCH.json"
        )
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 32
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="integrity digest"):
            BenchSuiteResult.load(path)
        # verify=False is the explicit escape hatch
        assert len(BenchSuiteResult.load(path, verify=False)) == 1

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            BenchSuiteResult.load(tmp_path / "nope.json")

    def test_unreadable_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="unreadable"):
            BenchSuiteResult.load(bad)

    def test_merged_appends_runs(self):
        suite = BenchSuiteResult(records={}).merged(make_record())
        suite = suite.merged(make_record(runs=((2.0, 2.1),)))
        rec = suite.records[make_record().key]
        assert rec.n_runs == 3
        assert rec.samples[-1] == (2.0, 2.1)

    def test_merged_replaces_when_asked(self):
        suite = BenchSuiteResult(records={}).merged(make_record())
        suite = suite.merged(make_record(runs=((2.0,),)), append_runs=False)
        assert suite.records[make_record().key].n_runs == 1

    def test_merged_unit_mismatch_rejected(self):
        suite = BenchSuiteResult(records={}).merged(make_record())
        other = BenchRecord(
            name="reduce",
            params=make_record().params,
            samples=[[1.0]],
            unit="ms",
        )
        with pytest.raises(ValidationError, match="unit mismatch"):
            suite.merged(other)

    def test_wrong_key_rejected(self):
        with pytest.raises(ValidationError, match="does not match"):
            BenchSuiteResult(records={"bogus": make_record()})


class TestMigration:
    """Readers accept only BENCH_SCHEMA_VERSION, older or newer files raise."""

    def test_current_schema_passes_through(self):
        payload = BenchSuiteResult(records={}).merged(make_record()).to_dict()
        assert BenchSuiteResult.from_dict(payload).to_dict() == payload

    def test_newer_schema_rejected(self):
        with pytest.raises(ValidationError, match="newer than supported"):
            BenchSuiteResult.from_dict({"schema": BENCH_SCHEMA_VERSION + 1})

    def test_schema_1_payload_rejected(self):
        legacy = {
            "schema": 1,
            "results": {"reduce-64": {"op": "reduce", "P": 64, "wall_s": 0.1}},
        }
        with pytest.raises(
            ValidationError,
            match=rf"schema 1 is older than supported \({BENCH_SCHEMA_VERSION}\)",
        ):
            BenchSuiteResult.from_dict(legacy)


class TestHistoryLabels:
    def test_unique_names_shortened(self):
        assert history_labels(["/a/one.json", "/b/two.json"]) == [
            "one.json",
            "two.json",
        ]

    def test_colliding_names_keep_full_paths(self):
        assert history_labels(["/a/b.json", "/c/b.json"]) == [
            "/a/b.json",
            "/c/b.json",
        ]
