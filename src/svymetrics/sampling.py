"""Sampling designs: stratified SRS draws and the train/test split.

Only stratified simple random sampling (and plain SRS as its one-stratum
special case) is implemented as a sampler; arbitrary designs are supported
on ingestion by reading user-supplied weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateSplitError, DesignError
from .types import FinitePopulation, SurveySample


@dataclass(frozen=True)
class StratifiedDesign:
    """Per-stratum sample sizes n_h for a stratified SRS design."""

    allocations: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "allocations", dict(self.allocations))
        if not self.allocations:
            raise DesignError("design must allocate at least one stratum")
        for label, n_h in self.allocations.items():
            if n_h < 1:
                raise DesignError(f"allocation for stratum {label!r} must be positive")

    def validate_against(self, population: FinitePopulation) -> None:
        """Raise DesignError unless 0 < n_h <= N_h for every stratum."""
        sizes = population.stratum_sizes
        for label, n_h in self.allocations.items():
            if label not in sizes:
                raise DesignError(f"unknown stratum label {label!r}")
            if n_h > sizes[label]:
                raise DesignError(
                    f"allocation {n_h} exceeds stratum {label!r} size {sizes[label]}"
                )


def stratified_sample(
    population: FinitePopulation,
    design: StratifiedDesign,
    rng: np.random.Generator,
) -> SurveySample:
    """Draw an SRS without replacement of size n_h within each stratum.

    Every sampled record carries w_i = 1/pi_i, with pi_i = n_h/N_h its
    inclusion probability.  Strata are visited in allocation order, which
    fixes the rng consumption sequence.  The sample's ``rows`` are the
    population rows drawn.
    """
    design.validate_against(population)
    indices = population.stratum_indices
    rows: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for label, n_h in design.allocations.items():
        stratum_rows = indices[label]
        n_big = stratum_rows.size
        chosen = stratum_rows[rng.choice(n_big, size=n_h, replace=False)]
        chosen.sort()
        pi = n_h / n_big
        rows.append(chosen)
        weights.append(np.full(n_h, 1.0 / pi))
    drawn = np.concatenate(rows)
    return SurveySample(ids=population.ids[drawn], weights=np.concatenate(weights), rows=drawn)


def check_eval_fraction(eval_fraction: float) -> None:
    """DegenerateSplitError unless ``eval_fraction`` lies in (0, 1)."""
    if not (0.0 < eval_fraction < 1.0):
        raise DegenerateSplitError(f"eval fraction must be in (0, 1), got {eval_fraction}")


def split_train_test(
    sample: SurveySample,
    eval_fraction: float,
    rng: np.random.Generator,
) -> tuple[SurveySample, SurveySample]:
    """Split a sample into a training part and an evaluation part.

    The evaluation part is an SRS without replacement of size
    n_e = round(eval_fraction * n) (round-half-to-even); its members carry
    the compound weight w*_i = w_i * (n / n_e).  Training members keep
    their original weights.  Both parts carry the rows of their members.
    """
    check_eval_fraction(eval_fraction)
    n = sample.size
    n_e = round(eval_fraction * n)
    if n_e < 1 or n - n_e < 1:
        raise DegenerateSplitError(
            f"split of {n} records at fraction {eval_fraction} leaves an empty side"
        )
    chosen = rng.choice(n, size=n_e, replace=False)
    eval_mask = np.zeros(n, dtype=bool)
    eval_mask[chosen] = True
    train_rows = np.nonzero(~eval_mask)[0]
    eval_rows = np.nonzero(eval_mask)[0]
    training = SurveySample(
        ids=sample.ids[train_rows],
        weights=sample.weights[train_rows],
        rows=sample.rows[train_rows],
    )
    evaluation = SurveySample(
        ids=sample.ids[eval_rows],
        weights=sample.weights[eval_rows] * (n / n_e),
        rows=sample.rows[eval_rows],
    )
    return training, evaluation
