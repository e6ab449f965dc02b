"""Minority-class upsampling for training data.

Applies to training data only; the test split stays untouched so that
evaluation reflects the population's class balance.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataValidationError
from .encoding import binary_outcomes


def upsample_minority(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row indices that duplicate minority-class rows (with replacement)
    until both classes of the 0/1 outcomes ``y`` have equal counts.

    Every original row comes first, in input order; the drawn duplicates
    follow.  Already balanced input gives ``arange(len(y))``.
    """
    y = binary_outcomes(y)
    positives = np.flatnonzero(y == 1)
    negatives = np.flatnonzero(y == 0)
    if not positives.size or not negatives.size:
        raise DataValidationError("upsampling requires both classes present")
    minority = positives if positives.size < negatives.size else negatives
    deficit = abs(positives.size - negatives.size)
    picks = rng.integers(0, minority.size, size=deficit)
    return np.concatenate([np.arange(y.size), minority[picks]])
