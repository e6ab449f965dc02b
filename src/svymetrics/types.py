"""Core domain types: populations, samples, evaluation sets and confusion tallies.

All types are immutable after construction and safe to share across
concurrent tasks.  Identifiers are opaque strings throughout; numeric ids
read from files are stored as strings.  A population and a sample hold
their ids as one read-only 1-d NumPy column of dtype object whose elements
are the Python strings, so ids are sliced by row like the other columns.
An evaluation set holds no ids: its columns are aligned by position.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import DataValidationError

FeatureValue = float | str

# A column is few-valued when its leading ``PROBE`` entries hold at most
# ``FEW_LEVELS`` distinct values.  ``classifiers.tree.level_codes`` then
# codes a float column by one comparison per level: on a 2-core machine
# with numpy 2.4, on 9,000 and 117,000 rows, comparing beat
# ``np.searchsorted`` at up to 48 levels, and ``np.unique(col)`` plus
# comparing beat ``np.unique(col, return_inverse=True)`` (an argsort) up
# to about 20 levels at 9,000 rows and 48 at 117,000.  ``io`` parses such
# a CSV column once per distinct cell text.
FEW_LEVELS = 16
PROBE = 256


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``, so a caller's own array stays writable."""
    view = arr.view()
    view.setflags(write=False)
    return view


def _id_column(ids: Sequence[str]) -> np.ndarray:
    """Any sequence of id strings as a read-only 1-d object column.

    Object dtype keeps each id exactly as given: a fixed-width ``U`` column
    would drop trailing ``"\\x00"`` and size every cell to the longest id.
    """
    column = np.asarray(ids, dtype=object)
    if column.ndim != 1:
        raise DataValidationError("ids must be a 1-d sequence of strings")
    return _read_only(column)


_PROOF_STRIDE = 256  # every this many ids are compared before all neighbours are


def strictly_ascending(ids: Sequence[str]) -> bool:
    """Whether each id sorts above the one before it under Python's ``<``,
    which proves the ids distinct; False when two neighbours do not compare.

    Ids that ascend do so in any subsequence, so every
    ``_PROOF_STRIDE``-th id is compared first: shuffled ids, or ids that
    ascend only within each stratum, cost a small part of the full check.
    """
    try:
        for part in (ids[::_PROOF_STRIDE], ids):
            part = np.asarray(part, dtype=object)
            if not (part[:-1] < part[1:]).all():
                return False
    except TypeError:
        return False
    return True


def repeated_ids(ids: Sequence[str], rows: np.ndarray | None = None) -> np.ndarray:
    """True at each position of ``ids`` after the first of ``rows``
    (ascending positions, default all) that holds its id.

    Ids that ascend are distinct without a set, and ids a set finds
    distinct are so without a first row per id.
    """
    n = len(ids)
    if strictly_ascending(ids) or len(set(ids)) == n:
        return np.zeros(n, dtype=bool)
    rows = range(n) if rows is None else rows.tolist()
    first = dict(zip([ids[i] for i in reversed(rows)], reversed(rows)))
    return np.arange(n) > np.fromiter(map(first.get, ids, repeat(n)), dtype=np.intp, count=n)


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
    ``strata`` holds each record's stratum as an int32 code into
    ``stratum_labels`` (distinct strings, kept exactly as given; a label
    may have no records), and ``features`` holds one column per feature:
    float64 for numeric features, object arrays of strings for categorical
    ones.  Every column has one entry per id.
    """

    ids: np.ndarray
    outcomes: np.ndarray
    strata: np.ndarray
    stratum_labels: tuple[str, ...]
    features: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        ids = _id_column(self.ids)
        n = len(ids)
        if n == 0:
            raise DataValidationError("population must contain at least one record")
        y = np.asarray(self.outcomes)
        strata = np.asarray(self.strata)
        if y.shape != (n,) or strata.shape != (n,):
            raise DataValidationError("outcomes and strata must have one entry per id")
        labels = tuple(self.stratum_labels)
        if not all(isinstance(label, str) for label in labels):
            raise DataValidationError("stratum labels must be strings")
        if len(set(labels)) != len(labels):
            raise DataValidationError("stratum labels must be distinct")
        if strata.dtype.kind not in "iu" or strata.min() < 0 or strata.max() >= len(labels):
            raise DataValidationError(
                f"strata must be integer codes in [0, {len(labels)}) into stratum_labels"
            )
        strata = strata.astype(np.int32)
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
        repeats = repeated_ids(ids)
        if repeats.any():
            raise DataValidationError(f"duplicate record id {ids[repeats.argmax()]!r}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "outcomes", _read_only(y.astype(np.int8)))
        object.__setattr__(self, "strata", _read_only(strata))
        object.__setattr__(self, "stratum_labels", labels)
        object.__setattr__(self, "features", tuple(_read_only(col) for col in columns))

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
        """Row indices of each stratum with records, in row order; strata by
        first appearance."""
        counts = np.bincount(self.strata, minlength=len(self.stratum_labels))
        starts = np.cumsum(counts) - counts
        order = np.argsort(self.strata, kind="stable")
        groups = np.split(order, starts[1:])
        present = np.flatnonzero(counts)
        out = {}
        for k in present[np.argsort(order[starts[present]])]:
            groups[k].setflags(write=False)
            out[self.stratum_labels[k]] = groups[k]
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
            stratum=p.stratum_labels[p.strata.item(i)],
        )


@dataclass(frozen=True)
class SurveySample:
    """Sampled record ids with their design weights w_i.

    ``rows`` holds each record's row in the population it was drawn from
    (or, for an ingested sample, in the loaded data), so that callers slice
    columns by row instead of looking ids up.
    """

    ids: np.ndarray
    weights: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", _id_column(self.ids))
        w = np.asarray(self.weights, dtype=np.float64)
        r = np.asarray(self.rows)
        if len(self.ids) != w.size:
            raise DataValidationError("ids and weights must have equal length")
        if w.size == 0:
            raise DataValidationError("sample must be non-empty")
        if r.shape != w.shape:
            raise DataValidationError("rows length mismatch")
        if r.dtype.kind not in "iu":
            raise DataValidationError("rows must be integer row numbers")
        object.__setattr__(self, "weights", _read_only(w))
        object.__setattr__(self, "rows", _read_only(r.astype(np.intp, copy=False)))

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class EvaluationSet:
    """Test-split records with compound weights, outcomes, and scores.

    Weights are the compound w*_i = w_i * (n / n_e) for the split that
    produced the set, and ``scores`` the model's scores, in [0, 1].  The
    three are aligned 1-d columns, one entry per record.
    """

    weights: np.ndarray
    outcomes: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        y = np.asarray(self.outcomes)
        if w.ndim != 1 or y.shape != w.shape:
            raise DataValidationError("weights and outcomes must be 1-d with one entry per record")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise DataValidationError("evaluation weights must be positive and finite")
        if not np.all((y == 0) | (y == 1)):
            raise DataValidationError("outcomes must be 0 or 1")
        s = np.asarray(self.scores, dtype=np.float64)
        if s.shape != w.shape:
            raise DataValidationError("scores must align with weights")
        if not np.all(np.isfinite(s)) or np.any((s < 0.0) | (s > 1.0)):
            raise DataValidationError("scores must lie in [0, 1]")
        for name, arr in (("weights", w), ("outcomes", y.astype(np.int8, copy=False)),
                          ("scores", s)):
            object.__setattr__(self, name, _read_only(arr))

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ConfusionTally:
    """Sums of weights in the four confusion cells: estimated population
    totals for inverse-probability weights, counts for unit weights."""

    tp: float
    tn: float
    fp: float
    fn: float
