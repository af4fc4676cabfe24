"""Statistical calibration harness (:mod:`repro.validate`).

Monte-Carlo validation of the statistics layer: draws thousands of
synthetic datasets from ground-truth generators (including the
simulator's own noise models), runs every shipped procedure on them, and
compares empirical coverage / Type-I error / power against nominal rates
with binomial confidence intervals.  The standing correctness gate for
all future :mod:`repro.stats` changes — ``repro calibrate`` on the CLI.
"""

from .generators import (
    GENERATORS,
    ExponentialGenerator,
    GroundTruthGenerator,
    LogNormalGenerator,
    MultiLevelGenerator,
    NoiseModelGenerator,
    NormalGenerator,
    ParetoGenerator,
    get_generator,
)
from .procedures import (
    PROCEDURES,
    SKETCH_BOUND_CONFIDENCE,
    CellParams,
    Procedure,
    get_procedure,
    run_batch,
)
from .study import (
    KNOWN_LIMITATIONS,
    PROFILES,
    VALIDATE_VERSION,
    CalibrationProfile,
    CalibrationReport,
    CalibrationStudy,
    CellResult,
    get_profile,
    wilson_interval,
)

__all__ = [
    "GroundTruthGenerator",
    "NormalGenerator",
    "LogNormalGenerator",
    "ExponentialGenerator",
    "ParetoGenerator",
    "NoiseModelGenerator",
    "MultiLevelGenerator",
    "GENERATORS",
    "get_generator",
    "CellParams",
    "Procedure",
    "PROCEDURES",
    "SKETCH_BOUND_CONFIDENCE",
    "get_procedure",
    "run_batch",
    "CalibrationProfile",
    "PROFILES",
    "get_profile",
    "CellResult",
    "CalibrationReport",
    "CalibrationStudy",
    "KNOWN_LIMITATIONS",
    "VALIDATE_VERSION",
    "wilson_interval",
]
