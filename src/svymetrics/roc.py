"""ROC curves over a decision-threshold grid and trapezoidal AUROC.

A curve is three aligned arrays (thresholds, sensitivity, specificity),
read from one array-valued confusion tally of the weighted set or of its
unit-weight copy, so a sweep sorts the scores once whatever the grid
size.  The default grid is 101 evenly spaced thresholds;
``score_adapted_grid`` gives an exact-mode grid (midpoints between
distinct observed scores plus the endpoints) that eliminates
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .estimation import EstimatorWeighting, confusion_rate, estimator_set, tally_confusion
from .types import EvaluationSet

DEFAULT_GRID_POINTS = 101


@dataclass(frozen=True)
class RocCurve:
    """Aligned read-only arrays, thresholds strictly ascending."""

    thresholds: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.thresholds)
        for name in ("thresholds", "sensitivity", "specificity"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.ndim != 1 or values.shape != shape:
                raise DataValidationError("curve arrays must be aligned vectors")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if np.any(np.diff(self.thresholds) <= 0):
            raise DataValidationError("curve thresholds must be strictly increasing")

    @property
    def fpr(self) -> np.ndarray:
        return 1.0 - self.specificity


def uniform_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Evenly spaced thresholds over [0, 1] including both endpoints; a
    grid numpy cannot allocate is a DataValidationError."""
    if points < 2:
        raise DataValidationError("grid needs at least the two endpoints")
    try:
        return np.linspace(0.0, 1.0, points)
    except (MemoryError, ValueError) as exc:
        raise DataValidationError(f"a grid of {points} points cannot be allocated") from exc


def score_adapted_grid(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Exact-mode grid: endpoints plus midpoints between distinct scores.

    Sweeping this grid visits every classification the score set can
    produce under the s >= t convention, so the resulting curve (with the
    standard (0,0)/(1,1) anchors) is the exact ROC staircase.
    """
    s = np.unique(np.asarray(scores, dtype=np.float64))
    if s.size == 0:
        raise DataValidationError("no scores supplied")
    mids = (s[:-1] + s[1:]) / 2.0
    return np.unique(np.concatenate(([0.0, 1.0], mids)))


def roc_sweep(
    evaluation: EvaluationSet,
    grid: Sequence[float] | np.ndarray,
    weighting: EstimatorWeighting,
) -> RocCurve:
    """Compute one (sensitivity, specificity) pair per grid threshold.

    Both outcome classes must be present; otherwise the curve is undefined.
    The whole grid is read from one confusion tally of the weighting's set
    (see :func:`~svymetrics.estimation.estimator_set`), so the s >= t tie
    convention and the ratio estimators are those of single thresholds.
    """
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 2:
        raise DataValidationError("threshold grid must be a vector with >= 2 entries")
    if g[0] != 0.0 or g[-1] != 1.0:
        raise DataValidationError("threshold grid must include endpoints 0 and 1")
    if not np.all(np.isfinite(g)):
        raise DataValidationError("threshold grid must be finite")
    tally = tally_confusion(estimator_set(evaluation, weighting), g)
    return RocCurve(
        thresholds=g,
        sensitivity=confusion_rate(tally, "sensitivity"),
        specificity=confusion_rate(tally, "specificity"),
    )


def auroc(curve: RocCurve) -> float:
    """Trapezoidal area under sensitivity vs (1 - specificity).

    Points are sorted by (false-positive rate, sensitivity) and anchored at
    (0, 0) and (1, 1) before integration.
    """
    if curve.thresholds.size == 0:
        raise DataValidationError("empty ROC curve")
    order = np.lexsort((curve.sensitivity, curve.fpr))
    xs = np.concatenate(([0.0], curve.fpr[order], [1.0]))
    ys = np.concatenate(([0.0], curve.sensitivity[order], [1.0]))
    area = float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1])) / 2.0)
    return min(max(area, 0.0), 1.0)
