"""Shared evaluation summaries: metrics at thresholds plus AUROC.

Used by both the CLI ``evaluate`` command and the simulation harness so
that printed tables and replicate reports come from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .estimation import (
    EstimatorWeighting,
    confusion_rate,
    ratio_standard_error,
    tally_confusion,
    tally_counts,
)
from .roc import RocCurve, auroc, roc_sweep, score_adapted_grid, uniform_grid
from .types import EvaluationSet, MetricResult, Weighting


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    sensitivity: MetricResult
    specificity: MetricResult


@dataclass(frozen=True)
class EvaluationSummary:
    """Sensitivity/specificity at each requested threshold, plus AUROC."""

    weighting: Weighting
    at_thresholds: tuple[ThresholdMetrics, ...]
    auroc: MetricResult

    def to_json_dict(self) -> dict:
        return {
            "weighting": self.weighting,
            "thresholds": [
                {
                    "threshold": tm.threshold,
                    "sensitivity": tm.sensitivity.value,
                    "sensitivity_se": tm.sensitivity.standard_error,
                    "specificity": tm.specificity.value,
                    "specificity_se": tm.specificity.standard_error,
                }
                for tm in self.at_thresholds
            ],
            "auroc": self.auroc.value,
        }


def resolve_grid(grid: int | str, scores: np.ndarray) -> np.ndarray:
    """Turn a grid request (point count or "exact") into threshold values."""
    if grid == "exact":
        return score_adapted_grid(scores)
    return uniform_grid(int(grid))


def evaluation_summary(
    evaluation: EvaluationSet,
    thresholds: Sequence[float],
    grid: int | str,
    weighting: EstimatorWeighting,
) -> EvaluationSummary:
    """Evaluate a scored set at fixed thresholds and compute AUROC.

    All fixed thresholds are read from one confusion tally.  Standard
    errors come from Taylor linearization; for the unweighted estimators
    they are computed against a unit-weight copy of the set (the SRS
    special case of the same formula).
    """
    se_set = evaluation
    if weighting == "unweighted":
        se_set = replace(evaluation, weights=np.ones(evaluation.size))
    tally = tally_confusion(evaluation, np.asarray(thresholds, dtype=np.float64))
    sens = confusion_rate(tally, "sensitivity", weighting).tolist()
    spec = confusion_rate(tally, "specificity", weighting).tolist()
    rows = tuple(
        ThresholdMetrics(
            threshold=float(t),
            sensitivity=MetricResult(
                sn, "sensitivity", weighting, ratio_standard_error(se_set, t, "sensitivity")
            ),
            specificity=MetricResult(
                sp, "specificity", weighting, ratio_standard_error(se_set, t, "specificity")
            ),
        )
        for t, sn, sp in zip(thresholds, sens, spec)
    )
    curve = roc_sweep(evaluation, resolve_grid(grid, evaluation.require_scores()), weighting)
    area = MetricResult(value=auroc(curve), kind="auroc", weighting=weighting)
    return EvaluationSummary(weighting=weighting, at_thresholds=rows, auroc=area)


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
    grid are read from one tally of the fixed thresholds plus the grid.
    Empty groups take no part, not even in an exact grid.  Rates are plain
    count ratios, with no standard errors.
    """
    g = resolve_grid(grid, scores[positives + negatives > 0])
    k = len(thresholds)
    fixed = np.asarray(thresholds, dtype=np.float64)
    tally = tally_counts(scores, positives, negatives, np.concatenate([fixed, g]))
    sens = confusion_rate(tally, "sensitivity", "population-truth")
    spec = confusion_rate(tally, "specificity", "population-truth")
    rows = tuple(
        ThresholdMetrics(
            threshold=t,
            sensitivity=MetricResult(sn, "sensitivity", "population-truth"),
            specificity=MetricResult(sp, "specificity", "population-truth"),
        )
        for t, sn, sp in zip(thresholds, sens[:k].tolist(), spec[:k].tolist())
    )
    curve = RocCurve(thresholds=g, sensitivity=sens[k:], specificity=spec[k:])
    area = MetricResult(value=auroc(curve), kind="auroc", weighting="population-truth")
    return EvaluationSummary(weighting="population-truth", at_thresholds=rows, auroc=area)
