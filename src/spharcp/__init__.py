"""Change point detection for piecewise-stationary spherical autoregressions."""

from spharcp.diagnostics import (
    StabilityMeasures,
    TuningBounds,
    check_causality,
    coefficient_jump,
    jump_size,
    noise_ratio,
    spectral_density,
    stability_measures,
    theory_tuning_bounds,
)
from spharcp.errors import ConfigError, DegenerateFitError, ParseError
from spharcp.estimate import (
    IntervalFit,
    IntervalLossEngine,
    SegmentFit,
    fit_segment_with_intercept,
    lasso_fit_interval,
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
from spharcp.segment import DetectionResult, DpTable, detect, detect_gammas, objective_of
from spharcp.simulate import (
    ScenarioSpec,
    build_beta,
    scenario_epidemic,
    scenario_table1,
    simulate,
)
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
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
    "StabilityMeasures",
    "TuningBounds",
    "aggregate",
    "assign_and_average",
    "assign_to_truth",
    "build_beta",
    "check_causality",
    "coefficient_jump",
    "detect",
    "detect_gammas",
    "fit_segment_with_intercept",
    "hausdorff_scaled",
    "jump_size",
    "lasso_fit_interval",
    "mean_surface",
    "noise_ratio",
    "objective_of",
    "scenario_epidemic",
    "scenario_table1",
    "simulate",
    "slot_index",
    "spectral_density",
    "stability_measures",
    "theory_tuning_bounds",
]

__version__ = "0.1.0"
