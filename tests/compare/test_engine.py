"""Tests for the regression engine (repro.compare.engine)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from repro.compare import (
    BenchRecord,
    BenchSuiteResult,
    compare_histories,
    compare_records,
    compare_runs,
)
from repro.errors import ValidationError
from repro.validate import MultiLevelGenerator


def suite_from(rng, *, scale=1.0, runs=6, iters=5, names=("reduce", "bcast")):
    """A suite of hierarchical records around known means (cost ~ 1.0)."""
    records = []
    for i, name in enumerate(names):
        base = 1.0 + 0.2 * i
        samples = scale * (
            base
            + rng.normal(0, 0.01, size=(runs, 1))
            + rng.normal(0, 0.005, size=(runs, iters))
        )
        records.append(
            BenchRecord(name=name, params={"P": 64}, samples=samples)
        )
    return BenchSuiteResult(records={}).merged(*records, append_runs=False)


class TestCompareRecords:
    def test_identical_indistinguishable(self, rng):
        old = suite_from(rng).records["reduce[P=64]"]
        out = compare_records(old, old)
        assert out.verdict == "indistinguishable"
        assert out.statistical
        assert out.ratio == pytest.approx(1.0)
        assert not out.is_regression

    def test_scaled_regression(self, rng):
        old = suite_from(rng).records["reduce[P=64]"]
        new = old.scaled(1.5)
        out = compare_records(old, new)
        assert out.verdict == "regression"
        assert out.ci.low > 1.4 and out.ci.high < 1.6
        assert out.is_regression

    def test_scaled_improvement(self, rng):
        old = suite_from(rng).records["reduce[P=64]"]
        out = compare_records(old, old.scaled(1 / 1.5))
        assert out.verdict == "improvement"

    def test_single_run_incomparable(self):
        old = BenchRecord(name="x", samples=[[1.0, 1.1]])
        new = BenchRecord(name="x", samples=[[1.5, 1.6]])
        out = compare_records(old, new)
        assert out.verdict == "incomparable"
        assert not out.statistical
        assert out.ci is None
        assert "insufficient replication" in out.note

    def test_key_mismatch_rejected(self, rng):
        s = suite_from(rng)
        with pytest.raises(ValidationError, match="different configurations"):
            compare_records(s.records["reduce[P=64]"], s.records["bcast[P=64]"])

    def test_unit_mismatch_rejected(self):
        a = BenchRecord(name="x", samples=[[1.0], [1.0]], unit="s")
        b = BenchRecord(name="x", samples=[[1.0], [1.0]], unit="ms")
        with pytest.raises(ValidationError, match="unit mismatch"):
            compare_records(a, b)

    def test_to_dict_serializes(self, rng):
        old = suite_from(rng).records["reduce[P=64]"]
        payload = compare_records(old, old.scaled(1.5)).to_dict()
        assert payload["verdict"] == "regression"
        assert payload["ci"]["low"] > 1.0


class TestCompareRuns:
    def test_identical_suites_ok(self, rng):
        s = suite_from(rng)
        out = compare_runs(s, s)
        assert out.ok
        assert len(out.records) == 2
        assert all(r.verdict == "indistinguishable" for r in out.records)

    def test_injected_regression_fails_gate(self, rng):
        base = suite_from(rng)
        slowed = BenchSuiteResult(records={}).merged(
            *(rec.scaled(1.5) for rec in base.records.values()),
            append_runs=False,
        )
        out = compare_runs(base, slowed)
        assert not out.ok
        assert len(out.regressions) == 2
        assert out.summary()["regressions"] == 2

    def test_incomparable_never_fails(self):
        old = BenchSuiteResult(records={}).merged(
            BenchRecord(name="x", samples=[[1.0]])
        )
        new = BenchSuiteResult(records={}).merged(
            BenchRecord(name="x", samples=[[100.0]])
        )
        out = compare_runs(old, new)
        assert out.ok  # Rule 7: no claim without sound statistics
        assert len(out.incomparable) == 1

    def test_coverage_drift_reported(self, rng):
        base = suite_from(rng, names=("reduce",))
        new = suite_from(rng, names=("bcast",))
        out = compare_runs(base, new)
        assert out.only_old == ("reduce[P=64]",)
        assert out.only_new == ("bcast[P=64]",)
        assert out.ok

    def test_type_checked(self):
        with pytest.raises(ValidationError):
            compare_runs({}, BenchSuiteResult(records={}))


class TestHistory:
    def test_trajectory_detects_last_step_regression(self, rng):
        s0 = suite_from(rng)
        s1 = BenchSuiteResult(records={}).merged(
            *(r.scaled(1.5) for r in s0.records.values()), append_runs=False
        )
        hist = compare_histories([s0, s0, s1], labels=["a", "b", "c"])
        assert not hist.ok
        assert hist.steps[0].comparison.ok
        assert not hist.steps[1].comparison.ok
        assert not hist.overall.ok
        assert hist.labels == ("a", "b", "c")

    def test_needs_two_suites(self, rng):
        with pytest.raises(ValidationError):
            compare_histories([suite_from(rng)])

    def test_label_count_checked(self, rng):
        s = suite_from(rng)
        with pytest.raises(ValidationError):
            compare_histories([s, s], labels=["only-one"])


def _suite(*records):
    return BenchSuiteResult(records={}).merged(*records, append_runs=False)


def _golden_comparisons():
    """One suite pair and one three-suite history from a seeded rng.

    The pair holds a 1.5x record, a single-run record (incomparable) and
    a key on each side only; the history ends in a 1.5x slowdown.
    """
    rng = np.random.default_rng(2015)
    old = suite_from(rng, names=("reduce", "bcast", "gather"))
    fresh = suite_from(rng, names=("reduce", "bcast", "scatter"))
    single_old, single_new = (
        BenchRecord(name="barrier", params={"P": 64},
                    samples=1.0 + rng.normal(0, 0.01, size=(1, 5)))
        for _ in range(2)
    )
    pair = compare_runs(
        _suite(*old.records.values(), single_old),
        _suite(
            fresh.records["reduce[P=64]"],
            fresh.records["bcast[P=64]"].scaled(1.5),
            fresh.records["scatter[P=64]"],
            single_new,
        ),
    )
    s0, s1 = suite_from(rng), suite_from(rng)
    s2 = _suite(*(r.scaled(1.5) for r in suite_from(rng).records.values()))
    history = compare_histories([s0, s1, s2], labels=["a", "b", "c"])
    return pair, history


#: Captured from the engine that still had the sequential replay path and
#: the bootstrap knobs: their removal moved no byte of the report.
PAIR_DIGEST = "5e071a8c319d91909bc6ccf7dd7d564e"
HISTORY_DIGEST = "0fc530d3c3550287d897147792171d60"


def _digest(comparison):
    payload = json.dumps(comparison.to_dict(), sort_keys=True).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class TestGoldenReport:
    """Every verdict, CI, bootstrap CI and note of the kept verdict path,
    pinned bit for bit: a refactor of the engine must not move them."""

    def test_pair_and_history_digests(self):
        pair, history = _golden_comparisons()
        verdicts = {r.key: r.verdict for r in pair.records}
        assert verdicts == {
            "reduce[P=64]": "indistinguishable",
            "bcast[P=64]": "regression",
            "barrier[P=64]": "incomparable",
        }
        assert pair.only_old == ("gather[P=64]",)
        assert pair.only_new == ("scatter[P=64]",)
        assert not history.ok
        assert (_digest(pair), _digest(history)) == (PAIR_DIGEST, HISTORY_DIGEST)


class TestFalseRegressionRate:
    """A/A calibration of the gate: both sides drawn from one distribution.

    At ``min_effect=0`` a regression verdict needs the whole two-sided
    95% CI above 1, so a calibrated interval calls one about 2.5% of the
    time.  The count must stay under the one-sided 99.9% binomial bound
    around that nominal rate.
    """

    TRIALS = 1000
    NOMINAL = 0.025

    def test_a_a_regressions_within_binomial_bound(self):
        rng = np.random.default_rng(7)
        gen = MultiLevelGenerator()
        regressions = 0
        for i in range(self.TRIALS):
            old, new = (
                BenchRecord(name="aa", samples=gen.sample_runs(rng, 16, 10))
                for _ in range(2)
            )
            out = compare_records(old, new, min_effect=0.0, seed=i)
            regressions += out.is_regression
        bound = stats.binom.isf(0.001, self.TRIALS, self.NOMINAL)
        assert regressions <= bound, (
            f"{regressions}/{self.TRIALS} A/A false regressions exceed "
            f"the 99.9% binomial bound {bound:g} at nominal {self.NOMINAL}"
        )
