"""The ablation and extension studies of the figure registry.

Each test holds one study to the claim its table reports, at seed 0,
with the thresholds the studies have always been held to.  Assertions
about printed numbers read :meth:`StudyTable.cells`, the text the
``.txt`` artifact shows; the rest read the raw cells.  The drift guard
holds every committed ``benchmarks/results/<name>.txt`` of an entry
without quick overrides to a fresh render, so a table EXPERIMENTS.md
quotes can never go stale unnoticed.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.report.registry import FIGURES, FORMATS
from repro.report.studies import ENTRIES, StudyTable

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
STUDIES = sorted(e.name for e in ENTRIES)
FIXED = sorted(
    n for n, e in FIGURES.items() if not e.needs_campaign and not e.quick_params
)


@functools.cache
def build(name: str):
    """Entry *name* built once at seed 0 and shared by this module."""
    return FIGURES[name].build(seed=0)


def test_every_study_is_registered_as_a_table():
    assert len(STUDIES) == 17
    for name in STUDIES:
        entry = FIGURES[name]
        assert entry.params == {} and entry.quick_params == {}
        assert not entry.needs_campaign
        assert isinstance(build(name), StudyTable)


@pytest.mark.parametrize("name", FIXED)
def test_committed_result_matches_a_fresh_render(name):
    entry = FIGURES[name]
    text = FORMATS["txt"].write(entry, build(name), "")
    assert text == (RESULTS / f"{name}.txt").read_text(encoding="utf-8")


def test_a_new_seed_draws_new_numbers():
    entry = FIGURES["ablation_batching"]
    assert entry.build(seed=1).rows != build("ablation_batching").rows


def test_cells_format_labels_numbers_and_per_row_templates():
    table = StudyTable(
        title="t",
        columns=("quantity", "value"),
        rows=(("runs", 3), ("ci", (1.0, 2.5)), ("flag", "no")),
        formats=("{}", ("{}", "[{0[0]:.1f}, {0[1]:.1f}]", "{:.2f}")),
    )
    assert table.cells() == [["runs", "3"], ["ci", "[1.0, 2.5]"], ["flag", "no"]]


# -- ablations ----------------------------------------------------------


def test_ablation_batching():
    table = build("ablation_batching")
    p99_by_k = {r[0]: r[3] for r in table.rows}
    true_p99 = p99_by_k[1]  # k=1 keeps every event: its p99 is the truth
    # Medians barely move with k, but the p99 collapses toward the median.
    assert abs(float(table.cells()[0][3]) - true_p99) < 0.01  # printed k=1 row
    assert p99_by_k[1000] < p99_by_k[100] < p99_by_k[10] < p99_by_k[1]
    assert p99_by_k[1000] < 0.9 * true_p99


def test_ablation_cache():
    ratios = [float(r[3].rstrip("x")) for r in build("ablation_cache").cells()]
    # Cache-resident kernels: warm-only reporting hides ~10x; the gap
    # closes once the working set exceeds capacity.
    assert ratios[0] > 5.0
    assert ratios[-1] < 1.5
    assert all(a >= b * 0.8 for a, b in zip(ratios, ratios[1:]))  # ~monotone


def test_ablation_ci():
    cov = {r[0]: (float(r[1]), float(r[2])) for r in build("ablation_ci").cells()}
    # On normal data both are fine.
    assert cov["normal"][0] > 0.90 and cov["normal"][1] > 0.90
    # On skewed data the t-around-the-mean interval misses the median...
    assert cov["lognormal"][0] < 0.75
    # ...while the nonparametric interval keeps its nominal level.
    assert cov["lognormal"][1] > 0.90
    assert cov["multimodal"][1] > 0.90


def test_ablation_interaction():
    table = build("ablation_interaction")
    assert "'interaction'" in table.notes[3]  # significant at alpha=0.01
    gaps = [float(r[3]) for r in table.cells()]
    # The system effect grows by orders of magnitude with message size:
    # that *is* the interaction (no single number describes the systems).
    assert abs(gaps[-1]) > 10 * abs(gaps[0])


def test_ablation_means():
    rows = build("ablation_means").cells()
    # Harmonic == correct at every noise level; arithmetic inflates, and
    # the inflation grows with noise.
    errors = [float(r[4].rstrip("%")) for r in rows]
    assert all(e >= 0 for e in errors)      # arithmetic never underestimates
    assert errors[-1] > max(errors[0], 1.0)  # and inflates badly under noise
    for r in rows:
        assert r[1] == r[2]  # harmonic mean equals the cost-first aggregate


def test_ablation_outliers():
    table = build("ablation_outliers")
    rows = table.cells()
    raw_mean = float(rows[0][2])
    tukey15_mean = float(rows[1][2])
    medians = [float(r[3]) for r in rows]
    # Removal pulls the mean down substantially...
    assert tukey15_mean < raw_mean
    # ...while the median is nearly unaffected by the treatment.
    assert max(medians) - min(medians) < 0.02
    # Larger constants remove fewer points.
    removed = [r[4] for r in table.rows[1:]]
    assert removed[0] > removed[1] > removed[2]


def test_ablation_refinement():
    max_err = {r[0]: float(r[2].rstrip("%")) for r in build("ablation_refinement").cells()}
    # Adaptive spends its budget at the knee: lower worst-case error.
    assert max_err["adaptive"] < max_err["uniform (log2)"]


def test_ablation_stopping():
    table = build("ablation_stopping")
    n_by_strategy = {r[0]: r[1] for r in table.rows}
    # Tighter targets require more measurements.
    assert (
        n_by_strategy["sequential CI <= 0.5%"]
        > n_by_strategy["sequential CI <= 2%"]
        >= n_by_strategy["sequential CI <= 5%"]
    )
    # Each sequential run achieved its target.
    for row in table.cells()[1:4]:
        target = float(row[0].split("<=")[1].rstrip("%"))
        assert float(row[2].rstrip("%")) <= target + 1e-9


def test_ablation_sync():
    for row in build("ablation_sync").cells():
        window, barrier, none = float(row[1]), float(row[2]), float(row[3])
        assert window < barrier < none


def test_ablation_timer():
    by_name = {r[0]: r for r in build("ablation_timer").rows}
    # The rdtsc-class clock can time 1 us events directly...
    assert by_name["sim: rdtsc-class"][4] == "yes"
    # ...the microsecond-granularity clock cannot, and needs k-batching...
    assert by_name["sim: gettimeofday-class"][4] == "no"
    assert by_name["sim: gettimeofday-class"][5] >= 10
    # ...and the millisecond clock needs thousands of events per interval.
    assert by_name["sim: jiffies-class"][5] >= 1000


# -- extensions ---------------------------------------------------------


def test_extension_energy():
    value = dict(build("extension_energy").rows)
    correct = value["efficiency, cost-first (Mflop/J)"]
    harm = value["efficiency, harmonic mean (Mflop/J)"]
    wrong = value["efficiency, arithmetic mean (Mflop/J) [WRONG]"]
    assert harm == pytest.approx(correct, rel=1e-9)
    assert wrong > correct  # the classic rate-averaging overestimate


def test_extension_noise():
    table = build("extension_noise")
    # The injected tick train must be detected on the machine that has it.
    assert "ms" in table.cells()[0][2]
    # Scale amplification: the collective bound grows with P on both.
    for row in table.rows:
        assert row[5] >= row[3]


def test_extension_screening():
    table = build("extension_screening")
    for col in (1, 2):  # the full design, then the half fraction
        effects = {r[0]: r[col] for r in table.rows}
        # Both designs agree: process count dominates, the seed is noise.
        assert abs(effects["p"]) > 3 * abs(effects["seed"])
        assert abs(effects["p"]) == max(abs(v) for v in effects.values())
    assert table.title.endswith("(16 vs 8 runs)")


def test_extension_variability():
    value = dict(build("extension_variability").rows)
    rc_min, rc_max = value["rolling CoV min"], value["rolling CoV max"]
    # The rolling view resolves what the overall number cannot: quiet
    # windows near the noise floor, incident windows far above it.
    assert rc_min < 2.5 * value["quiet-floor CoV (model)"]
    assert rc_max > 4 * rc_min


def test_extension_weak_scaling():
    table = build("extension_weak_scaling")
    assert "weak scaling" in table.preface[0]
    ratios = [float(r[3]) for r in table.cells()]
    # Ideal weak scaling would stay at 1.0; the allreduce term bends it up,
    # but only logarithmically: under 2.5x at 64 processes.
    assert all(b >= a - 0.05 for a, b in zip(ratios, ratios[1:]))
    assert 1.0 <= ratios[-1] < 2.5
    sizes = [r[1] for r in table.rows]
    assert sizes[-1] == 64 * sizes[0]  # the declared growth function


def test_means_example():
    vals = dict(build("means_example").rows)
    assert vals["mean time (s)"] == 50.0
    assert abs(vals["rate from mean time (Gflop/s)"] - 2.0) < 1e-9
    assert vals["arithmetic mean of rates (Gflop/s) [WRONG]"] == 4.5
    assert abs(vals["harmonic mean of rates (Gflop/s)"] - 2.0) < 1e-9
    assert abs(vals["geometric mean of relative rates [MEANINGLESS]"] - 0.2924) < 1e-3


def test_netmodel_fit():
    for row in build("netmodel_fit").cells():
        fit_beta, true_beta = float(row[2]), float(row[3])
        assert abs(fit_beta / true_beta - 1) < 0.05   # bandwidth recovered
        assert float(row[5].rstrip("%")) < 5.0        # envelope check holds
