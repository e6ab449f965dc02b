"""Shared evaluation summaries: metrics at thresholds plus AUROC.

Used by both the CLI ``evaluate`` command and the simulation harness so
that printed tables and replicate reports come from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DataValidationError, SchemaError
from .estimation import (
    EstimatorWeighting,
    confusion_rate,
    estimator_set,
    ratio_standard_error,
    tally_binned_counts,
    tally_confusion,
    tally_counts,
)
from .roc import RocCurve, auroc, score_adapted_grid, uniform_grid

# No caller here; re-exported because perfbench's tracer swaps this name.
from .roc import roc_sweep  # noqa: F401
from .types import EvaluationSet

Weighting = Literal["weighted", "unweighted", "population-truth"]


def threshold_label(threshold: float) -> str:
    """``threshold`` as ``:g`` writes it when that reads back exactly, else
    its repr, so two distinct thresholds never share a label."""
    text = f"{threshold:g}"
    return text if float(text) == threshold else repr(threshold)


def metric_key(kind: str, threshold: float | None = None) -> str:
    return kind if threshold is None else f"{kind}@{threshold_label(threshold)}"


@dataclass(frozen=True)
class EvaluationSummary:
    """Sensitivity and specificity at each fixed threshold, plus AUROC.

    ``thresholds`` are the fixed thresholds in the order given, repeats
    kept.  ``metrics`` maps each :func:`metric_key` to its (value, standard
    error or None): each threshold's sensitivity, then its specificity,
    then ``"auroc"`` last.
    """

    weighting: Weighting
    thresholds: tuple[float, ...]
    metrics: dict[str, tuple[float, float | None]]

    def to_json_dict(self) -> dict:
        rows = []
        for t in self.thresholds:
            row = {"threshold": t}
            for kind in ("sensitivity", "specificity"):
                row[kind], row[f"{kind}_se"] = self.metrics[metric_key(kind, t)]
            rows.append(row)
        return {"weighting": self.weighting, "thresholds": rows, "auroc": self.metrics["auroc"][0]}


def parse_grid(value, what: str) -> int | str:
    """A grid request as given: ``"exact"``, or any other value as ``int()``
    reads it (a JSON boolean or a fractional number excepted).  A value
    refused is a SchemaError, and a count below 2 a DataValidationError,
    each naming ``what``."""
    if value == "exact":
        return "exact"
    try:
        points = int(value)
    except (TypeError, ValueError, OverflowError):
        points = None
    if points is None or isinstance(value, bool) or isinstance(value, float) and points != value:
        raise SchemaError(f"{what}: expected 'exact' or a point count, got {value!r}")
    if points < 2:
        raise DataValidationError(f"{what} must be 'exact' or a point count >= 2, got {points}")
    return points


def resolve_grid(grid: int | str, scores: np.ndarray) -> np.ndarray:
    """Turn a parsed grid request (see :func:`parse_grid`) into threshold values."""
    if grid == "exact":
        return score_adapted_grid(scores)
    return uniform_grid(grid)


def evaluation_summary(
    evaluation: EvaluationSet,
    thresholds: Sequence[float],
    grid: int | str,
    weighting: EstimatorWeighting,
) -> EvaluationSummary:
    """Evaluate a scored set at fixed thresholds and compute AUROC.

    The fixed thresholds and the grid are read from one confusion tally of
    the weighting's set (see :func:`~svymetrics.estimation.estimator_set`),
    and the standard errors come from Taylor linearization on that same
    set.  A threshold outside [0, 1], NaN included, is a
    DataValidationError.
    """
    if not all(0.0 <= t <= 1.0 for t in thresholds):
        raise DataValidationError("thresholds must lie in [0, 1]")
    tallied = estimator_set(evaluation, weighting)
    g = resolve_grid(grid, evaluation.scores)
    tally = tally_confusion(tallied, np.concatenate([np.asarray(thresholds, np.float64), g]))
    return _summary(tally, thresholds, g, weighting, tallied)


def population_summary(
    scores: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    thresholds: Sequence[float],
    grid: int | str,
) -> EvaluationSummary:
    """Finite-population truth of a scored census held as groups of records.

    Group i holds ``positives[i]`` positive and ``negatives[i]`` negative
    records, all scoring ``scores[i]`` (see :func:`tally_counts`).
    Sensitivity and specificity at each fixed threshold and AUROC over the
    grid are read from one tally of the fixed thresholds plus the grid: by
    sorting the scores for an exact grid, and by binning them between the
    thresholds for a point-count grid.  Empty groups take no part, not even
    in an exact grid.  Rates are plain count ratios, with no standard errors.
    """
    g = resolve_grid(grid, scores[positives + negatives > 0])
    tally = tally_counts if grid == "exact" else tally_binned_counts
    fixed = np.asarray(thresholds, dtype=np.float64)
    counts = tally(scores, positives, negatives, np.concatenate([fixed, g]))
    return _summary(counts, thresholds, g, "population-truth", None)


def _summary(tally, thresholds, grid, weighting, tallied) -> EvaluationSummary:
    """The summary of a tally of ``thresholds`` followed by ``grid``.

    Rates at the fixed thresholds carry linearized standard errors
    computed on the ``tallied`` set when one is given; AUROC is the area
    under the grid's curve.
    """
    k = len(thresholds)
    rates = {kind: confusion_rate(tally, kind) for kind in ("sensitivity", "specificity")}
    thresholds = tuple(map(float, thresholds))
    metrics = {}
    for i, t in enumerate(thresholds):
        for kind, rate in rates.items():
            se = None if tallied is None else ratio_standard_error(tallied, t, kind)
            metrics[metric_key(kind, t)] = (rate[i].item(), se)
    curve = RocCurve(thresholds=grid, sensitivity=rates["sensitivity"][k:],
                     specificity=rates["specificity"][k:])
    metrics["auroc"] = (auroc(curve), None)
    return EvaluationSummary(weighting=weighting, thresholds=thresholds, metrics=metrics)
