"""Change point detection for piecewise-stationary spherical autoregressions."""

from spharcp.bench import make_scenario
from spharcp.diagnostics import (
    TuningBounds,
    coefficient_jump,
    theory_tuning_bounds,
)
from spharcp.errors import ConfigError, DegenerateFitError, ParseError
from spharcp.estimate import (
    IntervalFit,
    IntervalLossEngine,
    SegmentFit,
    fit_segment_with_intercept,
    mean_surface,
)
from spharcp.evaluate import (
    BenchRecord,
    BenchSummary,
    aggregate,
    assign_and_average,
    assign_to_truth,
    hausdorff_scaled,
)
from spharcp.segment import DetectionResult, DpTable, detect, detect_grid, objective_of
from spharcp.simulate import ScenarioSpec, build_beta, simulate
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
    check_causality,
    slot_index,
)

__all__ = [
    "ArCoefficients",
    "BenchRecord",
    "BenchSummary",
    "CoefficientSeries",
    "ConfigError",
    "DegenerateFitError",
    "DetectionResult",
    "DetectorConfig",
    "DpTable",
    "IntervalFit",
    "IntervalLossEngine",
    "ParseError",
    "Partition",
    "ScenarioSpec",
    "SegmentFit",
    "SegmentSpec",
    "TuningBounds",
    "aggregate",
    "assign_and_average",
    "assign_to_truth",
    "build_beta",
    "check_causality",
    "coefficient_jump",
    "detect",
    "detect_grid",
    "fit_segment_with_intercept",
    "hausdorff_scaled",
    "make_scenario",
    "mean_surface",
    "objective_of",
    "simulate",
    "slot_index",
    "theory_tuning_bounds",
]

__version__ = "0.1.0"
