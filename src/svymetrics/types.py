"""Core domain types: populations, samples, evaluation sets, and metric results.

All types are immutable after construction and safe to share across
concurrent tasks.  Identifiers are opaque strings throughout; numeric ids
read from files are stored as strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Literal, Mapping, Sequence

import numpy as np

from .errors import DataValidationError

FeatureValue = float | str
MetricKind = Literal["sensitivity", "specificity", "auroc"]
Weighting = Literal["weighted", "unweighted", "population-truth"]


@dataclass(frozen=True)
class Record:
    """One individual: feature vector, binary outcome, stratum label."""

    record_id: str
    features: tuple[FeatureValue, ...]
    outcome: int
    stratum: str


@dataclass(frozen=True)
class FinitePopulation:
    """The full universe of records with known outcomes.

    Every record must have a complete feature vector of the same length and
    an outcome in {0, 1}; record identifiers must be unique.
    """

    records: tuple[Record, ...]

    def __post_init__(self):
        if not self.records:
            raise DataValidationError("population must contain at least one record")
        h = len(self.records[0].features)
        seen: set[str] = set()
        for rec in self.records:
            if rec.outcome not in (0, 1):
                raise DataValidationError(
                    f"record {rec.record_id!r} has non-binary outcome {rec.outcome!r}"
                )
            if len(rec.features) != h:
                raise DataValidationError(
                    f"record {rec.record_id!r} has {len(rec.features)} features, expected {h}"
                )
            if rec.record_id in seen:
                raise DataValidationError(f"duplicate record id {rec.record_id!r}")
            seen.add(rec.record_id)

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def feature_count(self) -> int:
        return len(self.records[0].features)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(rec.record_id for rec in self.records)

    @cached_property
    def outcomes(self) -> np.ndarray:
        arr = np.fromiter((rec.outcome for rec in self.records), dtype=np.int8, count=self.size)
        arr.setflags(write=False)
        return arr

    @cached_property
    def index_by_id(self) -> Mapping[str, int]:
        return {rec.record_id: i for i, rec in enumerate(self.records)}

    @cached_property
    def stratum_indices(self) -> Mapping[str, np.ndarray]:
        """Row indices of each stratum, in record order."""
        groups: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            groups.setdefault(rec.stratum, []).append(i)
        out = {}
        for label, idx in groups.items():
            arr = np.asarray(idx, dtype=np.intp)
            arr.setflags(write=False)
            out[label] = arr
        return out

    @property
    def stratum_sizes(self) -> dict[str, int]:
        return {label: int(idx.size) for label, idx in self.stratum_indices.items()}


@dataclass(frozen=True)
class SampleMember:
    """One sampled record with its design weight and inclusion probability.

    ``inclusion_prob`` is None for samples ingested from files, where only
    the (possibly adjusted) weight is known.
    """

    record_id: str
    weight: float
    inclusion_prob: float | None = None


@dataclass(frozen=True)
class SurveySample:
    """Sampled record ids with design weights w_i and, when known, pi_i.

    Backed by parallel arrays; ``members`` provides a per-record view.
    When this library's samplers construct the sample, w_i = 1/pi_i exactly.
    """

    ids: tuple[str, ...]
    weights: np.ndarray
    inclusion_probs: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if len(self.ids) != w.size:
            raise DataValidationError("ids and weights must have equal length")
        if w.size == 0:
            raise DataValidationError("sample must be non-empty")
        if self.inclusion_probs is not None:
            p = np.asarray(self.inclusion_probs, dtype=np.float64)
            p.setflags(write=False)
            object.__setattr__(self, "inclusion_probs", p)
            if p.size != w.size:
                raise DataValidationError("inclusion_probs length mismatch")

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def members(self) -> Iterator[SampleMember]:
        probs = self.inclusion_probs
        for i, rid in enumerate(self.ids):
            yield SampleMember(
                record_id=rid,
                weight=float(self.weights[i]),
                inclusion_prob=None if probs is None else float(probs[i]),
            )

    @classmethod
    def from_members(cls, members: Sequence[SampleMember]) -> "SurveySample":
        probs = [m.inclusion_prob for m in members]
        known = all(p is not None for p in probs)
        return cls(
            ids=tuple(m.record_id for m in members),
            weights=np.array([m.weight for m in members], dtype=np.float64),
            inclusion_probs=np.array(probs, dtype=np.float64) if known else None,
        )


@dataclass(frozen=True)
class EvaluationSet:
    """Test-split records with compound weights, outcomes, and scores.

    Weights are the compound w*_i = w_i * (n / n_e) for the split that
    produced the set.  ``scores`` is None for a skeleton that has not been
    scored by a model yet; attach predictions with :meth:`with_scores`.
    """

    ids: tuple[str, ...]
    weights: np.ndarray
    outcomes: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        y = np.asarray(self.outcomes, dtype=np.int8)
        for name, arr in (("weights", w), ("outcomes", y)):
            if arr.ndim != 1 or arr.size != len(self.ids):
                raise DataValidationError(f"{name} must be 1-d with one entry per id")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise DataValidationError("evaluation weights must be positive and finite")
        if not np.all((y == 0) | (y == 1)):
            raise DataValidationError("outcomes must be 0 or 1")
        w.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "outcomes", y)
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=np.float64)
            if s.shape != w.shape:
                raise DataValidationError("scores must align with ids")
            if not np.all(np.isfinite(s)) or np.any((s < 0.0) | (s > 1.0)):
                raise DataValidationError("scores must lie in [0, 1]")
            s.setflags(write=False)
            object.__setattr__(self, "scores", s)

    @property
    def size(self) -> int:
        return len(self.ids)

    def with_scores(self, scores: np.ndarray) -> "EvaluationSet":
        """Return a copy with model scores attached."""
        return replace(self, scores=scores)

    def require_scores(self) -> np.ndarray:
        if self.scores is None:
            raise DataValidationError("evaluation set has no scores attached")
        return self.scores


@dataclass(frozen=True)
class ConfusionTally:
    """Weighted confusion totals and the corresponding raw counts."""

    nhat_tp: float
    nhat_tn: float
    nhat_fp: float
    nhat_fn: float
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def count(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def weighted_total(self) -> float:
        return self.nhat_tp + self.nhat_tn + self.nhat_fp + self.nhat_fn


@dataclass(frozen=True)
class MetricResult:
    """A single metric value with optional standard error.

    Undefined metrics are never encoded as a value; operations raise
    :class:`~svymetrics.errors.UndefinedMetricError` instead.
    """

    value: float
    kind: MetricKind
    weighting: Weighting
    standard_error: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise DataValidationError(f"metric value {self.value} outside [0, 1]")
        if self.standard_error is not None and self.standard_error < 0:
            raise DataValidationError("standard error must be non-negative")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_sample`; never raises, only reports."""

    issues: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_sample(
    sample: SurveySample, population: FinitePopulation | None = None
) -> ValidationReport:
    """Report every violated sample invariant.

    Checks weight positivity/finiteness, inclusion-probability range,
    duplicate ids, and (when a population is supplied) membership of every
    id in the population.
    """
    issues: list[str] = []
    for i, rid in enumerate(sample.ids):
        w = sample.weights[i]
        if not np.isfinite(w) or w <= 0:
            issues.append(f"non-positive weight at id {rid!r}: {w!r}")
        if sample.inclusion_probs is not None:
            p = sample.inclusion_probs[i]
            if not (0.0 < p <= 1.0):
                issues.append(f"inclusion probability outside (0, 1] at id {rid!r}: {p!r}")
    seen: set[str] = set()
    for rid in sample.ids:
        if rid in seen:
            issues.append(f"duplicate id {rid!r}")
        seen.add(rid)
    if population is not None:
        known = population.index_by_id
        for rid in sample.ids:
            if rid not in known:
                issues.append(f"id {rid!r} not present in population")
    return ValidationReport(issues=tuple(issues))
