"""Design-based estimators.

Implements weighted confusion tallies (inverse-probability totals of the
four confusion cells), the ratio estimators of sensitivity and specificity
with their Taylor-linearization standard errors, finite-population truth
metrics, and weight-distribution diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DataValidationError, UndefinedMetricError
from .types import ConfusionTally, EvaluationSet, MetricResult

EstimatorWeighting = Literal["weighted", "unweighted"]


def tally_confusion(evaluation: EvaluationSet, threshold) -> ConfusionTally:
    """Tally weighted and raw confusion totals at decision thresholds.

    A record is classified positive iff its score s_i >= threshold, so a
    threshold of 0 classifies everything positive.  Weighted totals are
    sums of compound weights over each confusion cell.  Like a ufunc, a
    scalar threshold gives a tally of Python scalars and a 1-d array of
    thresholds gives a tally of arrays of the same shape.
    """
    if evaluation.size == 0:
        raise DataValidationError("evaluation set is empty")
    actual = evaluation.outcomes == 1
    w = evaluation.weights
    return _tally(
        evaluation.scores,
        np.where(actual, w, 0.0),
        np.where(actual, 0.0, w),
        actual,
        ~actual,
        threshold,
    )


def tally_counts(scores, positives, negatives, threshold) -> ConfusionTally:
    """Unit-weight confusion tally of groups of records.

    Group i holds ``positives[i]`` positive and ``negatives[i]`` negative
    records, all scoring ``scores[i]``.  The counts are float64 holding
    exact integers, so every rate equals the one counted record by record.
    Thresholds work as in :func:`tally_confusion`.
    """
    if not np.any(positives + negatives):
        raise DataValidationError("evaluation set is empty")
    return _tally(scores, positives, negatives, positives, negatives, threshold)


def _tally(scores, pos_w, neg_w, pos_n, neg_n, threshold) -> ConfusionTally:
    """The engine behind every tally, from a single sort.

    Record i adds ``pos_w[i]`` and ``neg_w[i]`` to the weighted totals of
    its class and ``pos_n[i]`` and ``neg_n[i]`` to the counts.  Scores are
    sorted once, descending and stable, and the four are summed
    cumulatively in that order.  The records positive at t are a prefix of
    the order, so one ``searchsorted`` reads every threshold at the
    boundary of its block of tied scores (Fawcett 2006, "An introduction to
    ROC analysis", Algorithm 1; scikit-learn's ``_binary_clf_curve`` with
    ``sample_weight`` uses the same sums).
    """
    order = np.argsort(-scores, kind="stable")
    # Prefix sums with a leading zero: entry k covers the k top-scored records.
    pos_w, neg_w, pos_n, neg_n = (
        np.concatenate(([0], np.cumsum(v[order]))) for v in (pos_w, neg_w, pos_n, neg_n)
    )
    # s >= t  <=>  -s <= -t, and -scores[order] is ascending.
    k = np.searchsorted(-scores[order], -np.asarray(threshold, dtype=np.float64), "right")
    cells = dict(
        nhat_tp=pos_w[k], nhat_tn=neg_w[-1] - neg_w[k],
        nhat_fp=neg_w[k], nhat_fn=pos_w[-1] - pos_w[k],
        tp=pos_n[k], tn=neg_n[-1] - neg_n[k], fp=neg_n[k], fn=pos_n[-1] - pos_n[k],
    )
    if np.ndim(threshold) == 0:
        cells = {name: value.item() for name, value in cells.items()}
    return ConfusionTally(**cells)


_RATE_CELLS = {"sensitivity": ("tp", "fn", "positive"), "specificity": ("tn", "fp", "negative")}


def confusion_rate(
    tally: ConfusionTally,
    kind: Literal["sensitivity", "specificity"],
    weighting: EstimatorWeighting | Literal["population-truth"],
):
    """Sensitivity TP/(TP + FN) or specificity TN/(TN + FP) of a tally.

    The weighted form divides estimated totals N^_TP / (N^_TP + N^_FN); the
    unweighted and population-truth forms divide raw counts.  Elementwise
    on an array tally; raises UndefinedMetricError when the denominator
    class is empty.
    """
    hit, miss, outcome = _RATE_CELLS[kind]
    if weighting == "weighted":
        hit, miss = "nhat_" + hit, "nhat_" + miss
    elif weighting not in ("unweighted", "population-truth"):
        raise DataValidationError(f"unknown weighting {weighting!r}")
    num = getattr(tally, hit)
    den = num + getattr(tally, miss)
    if np.any(np.asarray(den) <= 0):
        raise UndefinedMetricError(f"{kind} undefined: no {outcome} outcomes")
    return np.divide(num, den, dtype=np.float64)


def sensitivity(tally: ConfusionTally, weighting: EstimatorWeighting) -> MetricResult:
    """True-positive rate among actual positives (see :func:`confusion_rate`)."""
    value = float(confusion_rate(tally, "sensitivity", weighting))
    return MetricResult(value=value, kind="sensitivity", weighting=weighting)


def specificity(tally: ConfusionTally, weighting: EstimatorWeighting) -> MetricResult:
    """True-negative rate among actual negatives; mirror of sensitivity."""
    value = float(confusion_rate(tally, "specificity", weighting))
    return MetricResult(value=value, kind="specificity", weighting=weighting)


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
        MetricResult(float(confusion_rate(tally, kind, "population-truth")), kind,
                     "population-truth")
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
