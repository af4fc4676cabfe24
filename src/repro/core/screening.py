"""Two-level (fractional) factorial screening designs (Section 4).

The paper "recommend[s] factorial design to compare the influence of
multiple factors" and defers to the classic texts (Box–Hunter–Hunter,
Montgomery).  When many candidate factors might matter (compiler flags,
placement, message sizes, pinning, ...), the screening workhorse is the
two-level design: every factor at a low and a high level, full (2^k) or
half fraction (2^(k−1), aliasing the highest-order interaction), with main
effects estimated by orthogonal contrasts.

This module generates those designs, reports the alias structure the
half-fraction buys its savings with, and estimates effects from measured
responses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .._validation import check_int
from ..errors import DesignError, ExecutionError, ReproError
from ..exec import ExecHooks, Executor, ResultCache
from ..exec.engine import make_tasks, point_values, run_measurement_tasks
from ..simsys.schedules import KERNEL_VERSION

__all__ = [
    "TwoLevelDesign",
    "full_factorial_2k",
    "half_fraction_2k",
    "EffectEstimate",
    "ScreeningResult",
    "run_screening",
]


@dataclass(frozen=True)
class EffectEstimate:
    """One estimated effect from a two-level design.

    ``effect`` is the change in the mean response when the factor moves
    from its low (−1) to its high (+1) level; ``half_effect`` is the
    regression coefficient.
    """

    name: str
    effect: float

    @property
    def half_effect(self) -> float:
        """The equivalent regression coefficient (effect / 2)."""
        return self.effect / 2.0


@dataclass(frozen=True)
class TwoLevelDesign:
    """A two-level design: rows of ±1 settings per factor.

    ``matrix`` has shape ``(runs, k)`` with entries ±1; ``aliases`` maps
    each estimable effect to the interaction it is confounded with (empty
    for a full factorial).
    """

    factor_names: tuple[str, ...]
    matrix: np.ndarray
    aliases: dict[str, str]

    @property
    def n_runs(self) -> int:
        """Number of design rows (experimental runs before replication)."""
        return int(self.matrix.shape[0])

    @property
    def k(self) -> int:
        """Number of factors."""
        return len(self.factor_names)

    def settings(self, levels: dict[str, tuple] | None = None) -> list[dict]:
        """The runs as factor-name -> level dictionaries.

        Without *levels*, values are the coded −1/+1; with ``levels[name] =
        (low, high)`` the actual levels are substituted.
        """
        out = []
        for row in self.matrix:
            point = {}
            for name, coded in zip(self.factor_names, row):
                if levels and name in levels:
                    lo, hi = levels[name]
                    point[name] = hi if coded > 0 else lo
                else:
                    point[name] = int(coded)
            out.append(point)
        return out

    def is_orthogonal(self) -> bool:
        """True when all factor columns are mutually orthogonal.

        Orthogonality is what makes the effect estimates independent; both
        generators here guarantee it, and this check lets tests (and
        suspicious users) confirm it.
        """
        gram = self.matrix.T @ self.matrix
        off = gram - np.diag(np.diag(gram))
        return bool(np.all(off == 0))

    def estimate_effects(self, responses: Sequence[float]) -> list[EffectEstimate]:
        """Main-effect estimates from one response value per design row.

        ``effect_j = mean(y | x_j = +1) − mean(y | x_j = −1)``, the
        orthogonal contrast.  For replicated experiments pass the per-row
        means.  Remember the alias table: in a half fraction, each main
        effect carries its aliased interaction.
        """
        y = np.asarray(responses, dtype=np.float64).ravel()
        if y.size != self.n_runs:
            raise DesignError(
                f"need one response per run: {self.n_runs} runs, got {y.size}"
            )
        out = []
        for j, name in enumerate(self.factor_names):
            col = self.matrix[:, j]
            effect = float(y[col > 0].mean() - y[col < 0].mean())
            out.append(EffectEstimate(name=name, effect=effect))
        return out


@dataclass(frozen=True)
class ScreeningResult:
    """A measured two-level screening: responses and effect estimates.

    ``responses`` holds one summarized response per design row (the
    per-row mean over replications, by default); ``row_values`` the raw
    values each response was summarized from, for variability checks.
    """

    design: TwoLevelDesign
    settings: tuple[dict[str, Any], ...]
    responses: np.ndarray
    row_values: tuple[np.ndarray, ...]
    effects: tuple[EffectEstimate, ...]

    def effect(self, name: str) -> float:
        """The estimated main effect of factor *name*."""
        for e in self.effects:
            if e.name == name:
                return e.effect
        raise DesignError(f"no factor {name!r} in {self.design.factor_names}")

    def ranked(self) -> list[EffectEstimate]:
        """Effects sorted by absolute magnitude, largest first."""
        return sorted(self.effects, key=lambda e: abs(e.effect), reverse=True)


def run_screening(
    design: TwoLevelDesign,
    measure: Callable[..., float | np.ndarray],
    *,
    levels: dict[str, tuple] | None = None,
    replications: int = 1,
    seed: int = 0,
    summary: Callable[[np.ndarray], float] = np.mean,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    hooks: ExecHooks | None = None,
    workload: str = "screening",
) -> ScreeningResult:
    """Measure a two-level design through the execution engine.

    Each design row (with actual *levels* substituted) becomes
    ``replications`` tasks; ``measure(point, rep)`` — or ``measure(point,
    rep, rng)`` to receive the deterministically derived per-task
    generator — produces the response values.  Tasks fan out over
    *executor* with the engine's caching and fault tolerance, then per-row
    responses are summarized (*summary*, default mean — the classic
    effects-from-row-means analysis) and main effects estimated by
    orthogonal contrasts.
    """
    check_int(replications, "replications", minimum=1)
    settings = tuple(design.settings(levels))
    runs = [(row, rep) for row in settings for rep in range(replications)]
    methodology = {
        "screening": f"two-level, {design.n_runs} runs x {design.k} factors",
        "replications": replications,
        "simsys_kernel": KERNEL_VERSION,
    }
    tasks = make_tasks(
        workload, runs, measure, master_seed=seed, methodology=methodology
    )
    results = run_measurement_tasks(
        tasks, executor=executor, cache=cache, hooks=hooks
    )
    row_values = []
    for r, row in enumerate(settings):
        vals = point_values(results[r * replications : (r + 1) * replications])
        if not vals.size:
            for rep in range(replications):
                res = results[r * replications + rep]
                if isinstance(res.exception, ReproError):
                    raise res.exception
            errors = [
                results[r * replications + rep].error
                for rep in range(replications)
            ]
            raise ExecutionError(
                f"screening row {row!r} produced no values; failures: {errors}"
            )
        row_values.append(vals)
    responses = np.array([float(summary(v)) for v in row_values])
    return ScreeningResult(
        design=design,
        settings=settings,
        responses=responses,
        row_values=tuple(row_values),
        effects=tuple(design.estimate_effects(responses)),
    )


def full_factorial_2k(factor_names: Sequence[str]) -> TwoLevelDesign:
    """The full 2^k design: every ±1 combination, no aliasing."""
    names = tuple(factor_names)
    if len(set(names)) != len(names) or not names:
        raise DesignError("factor names must be non-empty and unique")
    rows = list(itertools.product((-1, 1), repeat=len(names)))
    return TwoLevelDesign(
        factor_names=names,
        matrix=np.array(rows, dtype=np.int64),
        aliases={},
    )


def half_fraction_2k(factor_names: Sequence[str]) -> TwoLevelDesign:
    """The 2^(k−1) half fraction with generator ``last = product(others)``.

    Halves the run count by confounding the last factor with the (k−1)-way
    interaction of the others (defining relation I = ABC...K); the alias
    table records which interaction each main effect is confounded with.
    Needs k >= 3 (below that, halving leaves nothing to estimate).
    """
    names = tuple(factor_names)
    if len(set(names)) != len(names):
        raise DesignError("factor names must be unique")
    k = len(names)
    check_int(k, "number of factors", minimum=3)
    base = list(itertools.product((-1, 1), repeat=k - 1))
    rows = [row + (int(np.prod(row)),) for row in base]
    # Alias structure from I = (product of all factors): each main effect
    # is aliased with the complementary (k-1)-way interaction.
    aliases = {}
    for i, name in enumerate(names):
        others = "*".join(n for j, n in enumerate(names) if j != i)
        aliases[name] = others
    return TwoLevelDesign(
        factor_names=names,
        matrix=np.array(rows, dtype=np.int64),
        aliases=aliases,
    )
