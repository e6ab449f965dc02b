"""svymetrics: design-based evaluation of binary classifiers on survey data.

Estimates finite-population sensitivity, specificity, and AUROC from a
weighted test split of complex-survey data, and ships a Monte Carlo
simulation harness that checks the estimators against exact population
truths on synthetic populations.
"""

from .errors import (
    AggregationError,
    DataValidationError,
    DegenerateSplitError,
    DesignError,
    NonConvergenceError,
    NumericalError,
    SchemaError,
    SeparationError,
    SvymetricsError,
    UndefinedMetricError,
)
from .estimation import (
    population_truth,
    ratio_standard_error,
    tally_confusion,
    weight_diagnostics,
)
from .evaluation import EvaluationSummary, ThresholdMetrics, evaluation_summary
from .rng import derive_stream, stream_seed
from .roc import RocCurve, auroc, roc_sweep, score_adapted_grid, uniform_grid
from .sampling import StratifiedDesign, split_train_test, stratified_sample
from .types import (
    ConfusionTally,
    EvaluationSet,
    FinitePopulation,
    MetricResult,
    Record,
    SurveySample,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationError",
    "ConfusionTally",
    "DataValidationError",
    "DegenerateSplitError",
    "DesignError",
    "EvaluationSet",
    "EvaluationSummary",
    "FinitePopulation",
    "MetricResult",
    "NonConvergenceError",
    "NumericalError",
    "Record",
    "RocCurve",
    "SchemaError",
    "SeparationError",
    "StratifiedDesign",
    "SurveySample",
    "SvymetricsError",
    "ThresholdMetrics",
    "UndefinedMetricError",
    "auroc",
    "derive_stream",
    "evaluation_summary",
    "population_truth",
    "ratio_standard_error",
    "roc_sweep",
    "score_adapted_grid",
    "split_train_test",
    "stratified_sample",
    "stream_seed",
    "tally_confusion",
    "uniform_grid",
    "weight_diagnostics",
]
