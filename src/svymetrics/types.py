"""Core domain types: populations, samples, evaluation sets, and metric results.

All types are immutable after construction and safe to share across
concurrent tasks.  Identifiers are opaque strings throughout; numeric ids
read from files are stored as strings.  Every type holds its ids as one
read-only 1-d NumPy column of dtype object whose elements are the Python
strings, so ids are sliced by row like the other columns.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import DataValidationError

FeatureValue = float | str
MetricKind = Literal["sensitivity", "specificity", "auroc"]
Weighting = Literal["weighted", "unweighted", "population-truth"]


def _id_column(ids: Sequence[str]) -> np.ndarray:
    """Any sequence of id strings as a read-only 1-d object column.

    Object dtype keeps each id exactly as given: a fixed-width ``U`` column
    would drop trailing ``"\\x00"`` and size every cell to the longest id.
    """
    column = np.asarray(ids, dtype=object)
    if column.ndim != 1:
        raise DataValidationError("ids must be a 1-d sequence of strings")
    column.setflags(write=False)
    return column


@dataclass(frozen=True)
class Record:
    """One row of a population: feature vector, binary outcome, stratum label.

    Read-only view built on access by :attr:`FinitePopulation.records`; the
    population's columns are the data.
    """

    record_id: str
    features: tuple[FeatureValue, ...]
    outcome: int
    stratum: str


@dataclass(frozen=True, eq=False)
class FinitePopulation:
    """The full universe of records with known outcomes, as parallel columns.

    ``ids`` are unique strings, ``outcomes`` lie in {0, 1} (stored int8),
    ``strata`` holds one label per record, and ``features`` holds one column
    per feature: float64 for numeric features, object arrays of strings for
    categorical ones.  Every column has one entry per id.
    """

    ids: np.ndarray
    outcomes: np.ndarray
    strata: np.ndarray
    features: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        ids = _id_column(self.ids)
        n = len(ids)
        if n == 0:
            raise DataValidationError("population must contain at least one record")
        y = np.asarray(self.outcomes)
        strata = np.asarray(self.strata, dtype=str)
        if y.shape != (n,) or strata.shape != (n,):
            raise DataValidationError("outcomes and strata must have one entry per id")
        bad = np.flatnonzero((y != 0) & (y != 1))
        if bad.size:
            i = int(bad[0])
            raise DataValidationError(
                f"record {ids[i]!r} has non-binary outcome {y[i].item()!r}"
            )
        columns = []
        for j, col in enumerate(self.features):
            col = np.asarray(col)
            col = col.astype(object if col.dtype.kind in "OUS" else np.float64, copy=False)
            if col.shape != (n,):
                raise DataValidationError(f"feature {j} has {len(col)} values, expected {n}")
            columns.append(col)
        if len(set(ids)) != n:
            seen: set[str] = set()
            for rid in ids:
                if rid in seen:
                    raise DataValidationError(f"duplicate record id {rid!r}")
                seen.add(rid)
        y = y.astype(np.int8)
        for arr in (y, strata, *columns):
            arr.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "features", tuple(columns))

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def records(self) -> Sequence[Record]:
        """Per-row :class:`Record` view, built from the columns on access."""
        return _RecordView(self)

    @cached_property
    def index_by_id(self) -> Mapping[str, int]:
        return dict(zip(self.ids, range(self.size)))

    @cached_property
    def stratum_indices(self) -> Mapping[str, np.ndarray]:
        """Row indices of each stratum, in row order; strata by first appearance."""
        labels, first, inverse, counts = np.unique(
            self.strata, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(inverse, kind="stable")
        groups = np.split(order, np.cumsum(counts)[:-1])
        out = {}
        for k in np.argsort(first):
            groups[k].setflags(write=False)
            out[labels[k].item()] = groups[k]
        return out

    @property
    def stratum_sizes(self) -> dict[str, int]:
        return {label: int(idx.size) for label, idx in self.stratum_indices.items()}


class _RecordView(Sequence):
    """Read-only sequence of a population's rows as :class:`Record` objects."""

    def __init__(self, population: FinitePopulation):
        self._population = population

    def __len__(self) -> int:
        return self._population.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        p = self._population
        i = range(p.size)[i]
        return Record(
            record_id=p.ids[i],
            features=tuple(col.item(i) for col in p.features),
            outcome=p.outcomes.item(i),
            stratum=p.strata.item(i),
        )


@dataclass(frozen=True)
class SurveySample:
    """Sampled record ids with design weights w_i and, when known, pi_i.

    ``inclusion_probs`` is None for samples ingested from files, where only
    the (possibly adjusted) weight is known.  When this library's samplers
    construct the sample, w_i = 1/pi_i exactly.  ``rows`` holds each
    record's row in the population it was drawn from (or, for an ingested
    sample, in the loaded data), so that callers slice columns by row
    instead of looking ids up.
    """

    ids: np.ndarray
    weights: np.ndarray
    inclusion_probs: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", _id_column(self.ids))
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
        if self.rows is not None:
            r = np.asarray(self.rows, dtype=np.intp)
            r.setflags(write=False)
            object.__setattr__(self, "rows", r)
            if r.shape != w.shape:
                raise DataValidationError("rows length mismatch")

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class EvaluationSet:
    """Test-split records with compound weights, outcomes, and scores.

    Weights are the compound w*_i = w_i * (n / n_e) for the split that
    produced the set.  ``scores`` is None for a skeleton that has not been
    scored by a model yet; attach predictions with :meth:`with_scores`.
    """

    ids: np.ndarray
    weights: np.ndarray
    outcomes: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", _id_column(self.ids))
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
