"""Regression tests for the export-layer bugfix sweep.

Each class pins one formerly-buggy behavior:

* CSV files are UTF-8 regardless of locale (non-ASCII metadata survives
  a C-locale reader/writer round-trip);
* exported JSON is strict — non-finite floats become ``null``, never the
  ``NaN``/``Infinity`` tokens;
* spilled-dataset store keys are namespaced per campaign;
* a spilled stub that disagrees with its store fails with an error
  naming the dataset;
* ``report_experiment`` rejects (or skips, with a note) a scaling chart
  over non-numeric factor levels instead of crashing.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.campaign import Campaign
from repro.core.measurement import MeasurementSet
from repro.errors import ValidationError
from repro.report.export import (
    dataset_fingerprint,
    figure_to_json,
    measurements_from_json,
    measurements_to_json,
    read_csv,
    write_csv,
)
from repro.report.figures import Fig7Bounds
from repro.store import ShardStore

SRC = Path(__file__).resolve().parents[2] / "src"


class TestCsvUtf8:
    def test_non_ascii_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        headers = ["système", "latence (µs)"]
        rows = [["Pilatus—älv", "1.5"], ["dora±", "2.5"]]
        write_csv(path, headers, rows)
        back_headers, back_rows = read_csv(path)
        assert back_headers == headers
        assert back_rows == rows

    def test_bytes_on_disk_are_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["unité"], [["µs"]])
        raw = path.read_bytes()
        assert "µs".encode("utf-8") in raw

    def test_round_trip_survives_c_locale(self, tmp_path):
        """A C-locale process (CI containers) must read/write the same bytes.

        Before the fix, write_csv/read_csv used the locale's preferred
        encoding — an ASCII locale crashed on the micro sign.
        """
        script = (
            "from repro.report.export import write_csv, read_csv\n"
            f"p = {str(tmp_path / 'locale.csv')!r}\n"
            "write_csv(p, ['unit\\u00e9', 'nom'], [['\\u00b5s', 'caf\\u00e9']])\n"
            "headers, rows = read_csv(p)\n"
            "assert headers == ['unit\\u00e9', 'nom'], headers\n"
            "assert rows == [['\\u00b5s', 'caf\\u00e9']], rows\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env.update({"LC_ALL": "C", "LANG": "C", "PYTHONIOENCODING": "ascii"})
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout


class TestStrictJson:
    def _bounds_with_infinities(self) -> Fig7Bounds:
        return Fig7Bounds(
            ps=(1, 2),
            measured_times=(1.0, 0.5),
            measured_speedups=(1.0, 2.0),
            ideal_times=(1.0, 0.5),
            amdahl_times=(1.0, 0.6),
            overhead_times=(1.0, 0.7),
            ideal_speedups=(1.0, math.inf),  # an unbounded speedup
            amdahl_speedups=(1.0, float("nan")),
            overhead_speedups=(1.0, 1.4),
            ci_within_5pct=True,
        )

    def test_figure_with_infinities_exports_null(self):
        text = figure_to_json(self._bounds_with_infinities())
        assert "Infinity" not in text and "NaN" not in text
        payload = json.loads(text)
        assert payload["data"]["ideal_speedups"] == [1.0, None]
        assert payload["data"]["amdahl_speedups"] == [1.0, None]
        assert payload["data"]["overhead_speedups"] == [1.0, 1.4]

    def test_output_parses_under_strict_json(self):
        text = figure_to_json(self._bounds_with_infinities())
        # json.loads with a constant-rejecting hook == browser JSON.parse.
        json.loads(text, parse_constant=lambda c: pytest.fail(
            f"non-strict JSON token {c!r} in export"
        ))

    def test_numpy_nonfinite_metadata_becomes_null(self):
        ms = MeasurementSet(
            values=np.array([1.0, 2.0]), unit="s", name="x",
            metadata={"bound": np.float64("inf"), "ratio": float("nan")},
        )
        payload = json.loads(measurements_to_json(ms))
        assert payload["metadata"]["bound"] is None
        assert payload["metadata"]["ratio"] is None


class TestNamespacedFingerprints:
    def _ms(self, name: str, fill: float, n: int = 200) -> MeasurementSet:
        return MeasurementSet(
            values=np.full(n, fill), unit="s", name=name,
        )

    def test_two_campaigns_share_a_store_without_clobbering(self, tmp_path):
        """Same dataset name, two campaigns, one store: distinct entries.

        Before the fix, dataset store keys hashed only the name, so the
        second campaign's re-record removed and replaced the first
        campaign's values.
        """
        store = ShardStore(tmp_path / "store")
        a = Campaign.create(tmp_path / "a", name="campaign-a")
        b = Campaign.create(tmp_path / "b", name="campaign-b")
        measurements_to_json(
            self._ms("latency", 1.0), store=store, spill_rows=10,
            namespace=a.dataset_namespace,
        )
        text_b = measurements_to_json(
            self._ms("latency", 2.0), store=store, spill_rows=10,
            namespace=b.dataset_namespace,
        )
        fp_a = dataset_fingerprint("latency", namespace=a.dataset_namespace)
        fp_b = dataset_fingerprint("latency", namespace=b.dataset_namespace)
        assert fp_a != fp_b
        assert fp_a in store and fp_b in store
        values_a, meta_a = store.get(fp_a)
        assert float(values_a[0]) == 1.0  # campaign A's values survived
        assert meta_a["namespace"] == a.dataset_namespace
        back_b = measurements_from_json(text_b, store=store)
        assert float(back_b.values[0]) == 2.0

    def test_campaign_record_uses_its_namespace(self, tmp_path):
        camp = Campaign.create(tmp_path / "camp", name="scoped")
        camp.record(self._ms("ds", 5.0), spill_rows=10)
        fp = dataset_fingerprint("ds", namespace=camp.dataset_namespace)
        assert fp in camp.store()
        assert float(camp.load("ds").values[0]) == 5.0

    def test_namespace_is_stable_across_open(self, tmp_path):
        camp = Campaign.create(tmp_path / "camp", name="stable")
        ns = camp.dataset_namespace
        assert Campaign.open(tmp_path / "camp").dataset_namespace == ns


class TestStubTamperPaths:
    def _spilled_text(self, tmp_path) -> tuple[str, ShardStore]:
        store = ShardStore(tmp_path / "store")
        ms = MeasurementSet(
            values=np.arange(100, dtype=np.float64) + 1.0,
            unit="us", name="tampered",
        )
        text = measurements_to_json(
            ms, store=store, spill_rows=10, namespace="ns",
        )
        return text, store

    def test_missing_store_names_dataset(self, tmp_path):
        text, _ = self._spilled_text(tmp_path)
        with pytest.raises(ValidationError, match="'tampered'"):
            measurements_from_json(text)

    def test_wrong_row_count_names_dataset(self, tmp_path):
        text, store = self._spilled_text(tmp_path)
        payload = json.loads(text)
        payload["store"]["rows"] = 7  # liar
        with pytest.raises(ValidationError, match="'tampered'.*7"):
            measurements_from_json(json.dumps(payload), store=store)

    def test_removed_entry_names_dataset(self, tmp_path):
        text, store = self._spilled_text(tmp_path)
        store.remove(json.loads(text)["store"]["fingerprint"])
        with pytest.raises(
            ValidationError, match="'tampered'.*(missing|quarantined)"
        ):
            measurements_from_json(text, store=store)

    def test_missing_field_names_dataset(self, tmp_path):
        text, store = self._spilled_text(tmp_path)
        payload = json.loads(text)
        del payload["unit"]
        with pytest.raises(ValidationError, match="'tampered'.*unit"):
            measurements_from_json(json.dumps(payload), store=store)


class TestAutoreportNonNumericLevels:
    def _categorical_result(self):
        from repro.core import Experiment, Factor, FactorialDesign

        exp = Experiment(
            name="placement-study",
            design=FactorialDesign(
                (Factor("placement", ("packed", "one_per_node")),),
                replications=2,
            ),
            measure=lambda point, rep, rng: rng.exponential(1.0, 24) + 0.5,
            unit="us",
            seed=7,
        )
        return exp.run()

    def test_raises_validation_error_naming_the_factor(self):
        from repro.report.autoreport import report_experiment

        result = self._categorical_result()
        with pytest.raises(
            ValidationError, match="'placement'.*non-numeric level"
        ):
            report_experiment(result, scaling_factor="placement")

    def test_note_mode_skips_chart_but_keeps_statistics(self):
        from repro.report.autoreport import report_experiment

        result = self._categorical_result()
        text = report_experiment(
            result, scaling_factor="placement", on_nonnumeric="note",
        )
        assert "chart skipped" in text
        assert "placement" in text
        assert "Results" in text  # the stats table still renders

    def test_bad_mode_rejected(self):
        from repro.report.autoreport import report_experiment

        result = self._categorical_result()
        with pytest.raises(ValidationError, match="on_nonnumeric"):
            report_experiment(
                result, scaling_factor="placement", on_nonnumeric="explode",
            )

    def test_numeric_levels_still_chart(self):
        from repro.core import Experiment, Factor, FactorialDesign
        from repro.report.autoreport import report_experiment

        exp = Experiment(
            name="scaling-study",
            design=FactorialDesign(
                (Factor("nprocs", (2, 4, 8)),), replications=2,
            ),
            measure=lambda point, rep, rng: rng.exponential(1.0, 24) + 0.5,
            unit="us",
            seed=7,
        )
        text = report_experiment(exp.run(), scaling_factor="nprocs")
        assert "vs nprocs" in text and "chart skipped" not in text
