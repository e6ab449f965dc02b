"""Design-based estimators.

Implements confusion tallies (the totals of one set of weights in each of
the four confusion cells), the ratio estimators of sensitivity and
specificity with their Taylor-linearization standard errors,
finite-population truth metrics, and weight-distribution diagnostics.
The weighted estimators sum the compound inverse-probability weights; the
unweighted ones are the same estimators on unit weights (see
:func:`estimator_set`), and a census truth sums unit weights over the
whole population.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .errors import DataValidationError, UndefinedMetricError
from .types import ConfusionTally, EvaluationSet, MetricResult

EstimatorWeighting = Literal["weighted", "unweighted"]


def estimator_set(evaluation: EvaluationSet, weighting: EstimatorWeighting) -> EvaluationSet:
    """The set an estimator tallies: for ``"weighted"`` the set as given,
    and for ``"unweighted"`` a unit-weight copy, the SRS special case of
    the same ratio estimator.  Any other weighting is a DataValidationError."""
    if weighting == "weighted":
        return evaluation
    if weighting == "unweighted":
        return replace(evaluation, weights=np.ones(evaluation.size))
    raise DataValidationError(f"unknown weighting {weighting!r}")


def tally_confusion(evaluation: EvaluationSet, threshold) -> ConfusionTally:
    """Sum a set's weights in each confusion cell at decision thresholds.

    A record is classified positive iff its score s_i >= threshold, so a
    threshold of 0 classifies everything positive.  Like a ufunc, a
    scalar threshold gives a tally of Python scalars and a 1-d array of
    thresholds gives a tally of arrays of the same shape.
    """
    actual = evaluation.outcomes == 1
    w = evaluation.weights
    return tally_counts(
        evaluation.scores, np.where(actual, w, 0.0), np.where(actual, 0.0, w), threshold
    )


def tally_counts(scores, positives, negatives, threshold) -> ConfusionTally:
    """The engine behind every tally, from a single sort.

    Group i adds ``positives[i]`` to the positive class and
    ``negatives[i]`` to the negative class at score ``scores[i]``: a
    record's weight, or a count of records, which float64 sums exactly, so
    a count rate equals the one counted record by record.  Scores are
    sorted once, descending and stable, and the two columns are
    summed cumulatively in that order.  The groups positive at t are a
    prefix of the order, so one ``searchsorted`` reads every threshold at
    the boundary of its block of tied scores (Fawcett 2006, "An
    introduction to ROC analysis", Algorithm 1; scikit-learn's
    ``_binary_clf_curve`` with ``sample_weight`` uses the same sums).
    Thresholds work as in :func:`tally_confusion`.
    """
    if not np.any(positives + negatives):
        raise DataValidationError("evaluation set is empty")
    order = np.argsort(-scores, kind="stable")
    # Prefix sums with a leading zero: entry k covers the k top-scored groups.
    pos, neg = (np.concatenate(([0], np.cumsum(v[order]))) for v in (positives, negatives))
    # s >= t  <=>  -s <= -t, and -scores[order] is ascending.
    k = np.searchsorted(-scores[order], -np.asarray(threshold, dtype=np.float64), "right")
    cells = dict(tp=pos[k], tn=neg[-1] - neg[k], fp=neg[k], fn=pos[-1] - pos[k])
    if np.ndim(threshold) == 0:
        cells = {name: value.item() for name, value in cells.items()}
    return ConfusionTally(**cells)


def tally_binned_counts(scores, positives, negatives, thresholds) -> ConfusionTally:
    """:func:`tally_counts` at a 1-d array of thresholds, without a sort: a
    score goes in bin ``searchsorted(cuts, s, "right")`` of the sorted unique
    thresholds (NaN, positive at none, in bin 0), and the exact integer
    counts positive at ``cuts[j]`` are the suffix sums of bins above ``j``."""
    if not np.any(positives + negatives):
        raise DataValidationError("evaluation set is empty")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    cuts = np.unique(thresholds)
    bins = np.searchsorted(cuts, scores, side="right")
    bins[np.isnan(scores)] = 0
    pos, neg = (
        np.cumsum(np.bincount(bins, weights=v, minlength=cuts.size + 1)[::-1])[::-1]
        for v in (positives, negatives)
    )
    k = np.searchsorted(cuts, thresholds) + 1
    return ConfusionTally(tp=pos[k], tn=neg[0] - neg[k], fp=neg[k], fn=pos[0] - pos[k])


_RATE_CELLS = {"sensitivity": ("tp", "fn", "positive"), "specificity": ("tn", "fp", "negative")}


def confusion_rate(tally: ConfusionTally, kind: Literal["sensitivity", "specificity"]):
    """Sensitivity TP/(TP + FN) or specificity TN/(TN + FP) of a tally.

    A ratio of the tally's totals, so weighted, unweighted or census
    according to the weights summed.  Elementwise on an array tally;
    raises UndefinedMetricError when the denominator class is empty.
    """
    hit, miss, outcome = _RATE_CELLS[kind]
    num = getattr(tally, hit)
    den = num + getattr(tally, miss)
    if np.any(np.asarray(den) <= 0):
        raise UndefinedMetricError(f"{kind} undefined: no {outcome} outcomes")
    return np.divide(num, den, dtype=np.float64)


def ratio_standard_error(
    evaluation: EvaluationSet,
    threshold: float,
    kind: Literal["sensitivity", "specificity"],
) -> float | None:
    """Taylor-linearization standard error of the ratio estimator.

    For R^ = X^/Y^ with X^ = sum(w*_i x_i) and Y^ = sum(w*_i y_i), uses the
    with-replacement approximation

        Var(R^) ~= (1/Y^2) * (m/(m-1)) * sum((w*_i (x_i - R^ y_i))^2)

    with m the evaluation-set size, x_i the numerator indicator (TP_i for
    sensitivity, TN_i for specificity) and y_i the denominator-class
    indicator.  No finite-population correction is applied and design
    strata are ignored, which yields mildly conservative errors.

    Returns None when the variance is degenerate (fewer than two records in
    the denominator class); raises UndefinedMetricError when the metric
    itself is undefined.
    """
    if kind not in _RATE_CELLS:
        raise DataValidationError(f"no ratio standard error for kind {kind!r}")
    w = evaluation.weights
    predicted = evaluation.scores >= threshold
    in_class = evaluation.outcomes == (1 if kind == "sensitivity" else 0)
    hits = in_class & (predicted if kind == "sensitivity" else ~predicted)
    x = hits.astype(np.float64)
    z = in_class.astype(np.float64)
    y_hat = float(w @ z)
    if y_hat <= 0:
        raise UndefinedMetricError(f"{kind} undefined: empty denominator class")
    if int(in_class.sum()) < 2:
        return None
    m = evaluation.size
    ratio = float(w @ x) / y_hat
    residuals = w * (x - ratio * z)
    variance = (m / (m - 1)) * float(residuals @ residuals) / (y_hat * y_hat)
    return float(np.sqrt(max(variance, 0.0)))


def population_truth(
    outcomes: np.ndarray, scores: np.ndarray, threshold: float
) -> tuple[MetricResult, MetricResult]:
    """Finite-population sensitivity and specificity by direct count.

    Applies the classifier's scores to every record of the population with
    unit weight: N_TP..N_FN are plain counts, SN = N_TP/(N_TP + N_FN) and
    SP = N_TN/(N_TN + N_FP).
    """
    y = np.asarray(outcomes)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1 or y.size == 0:
        raise DataValidationError("outcomes and scores must be aligned non-empty vectors")
    positive = (y == 1).astype(np.float64)
    tally = tally_counts(s, positive, 1.0 - positive, threshold)
    sn, sp = (
        MetricResult(float(confusion_rate(tally, kind)), kind, "population-truth")
        for kind in ("sensitivity", "specificity")
    )
    return sn, sp


@dataclass(frozen=True)
class WeightDiagnostics:
    """Summary of a weight distribution; large cv signals influential weights."""

    cv: float
    mean: float
    min: float
    max: float
    deciles: tuple[float, ...]


def weight_diagnostics(weights: Sequence[float] | np.ndarray) -> WeightDiagnostics:
    """Coefficient of variation (population-style SD over mean) and summaries."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise DataValidationError("no weights supplied")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise DataValidationError("weights must be positive and finite")
    mean = float(w.mean())
    sd = float(w.std())  # divisor n
    deciles = tuple(float(q) for q in np.quantile(w, np.arange(1, 10) / 10.0))
    return WeightDiagnostics(
        cv=sd / mean, mean=mean, min=float(w.min()), max=float(w.max()), deciles=deciles
    )
