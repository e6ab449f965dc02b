"""Feature encoding: numeric passthrough plus one-hot categories.

Categorical features get one indicator column per category observed in
training data, in sorted order.  Unseen categories at prediction time map
to the all-zeros encoding with a warning; survey test splits can contain
rare codes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataValidationError, SchemaError
from ..types import Record


def binary_outcomes(y) -> np.ndarray:
    """Every fitter's outcomes: float64, not empty, each 0 or 1."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise DataValidationError("no training records")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataValidationError("outcomes must be 0 or 1")
    return y


def extract_columns(records: Sequence[Record]) -> list[np.ndarray]:
    """Split Record rows back into per-feature columns (float64 or object)."""
    if not records:
        raise DataValidationError("no records supplied")
    h = len(records[0].features)
    columns: list[np.ndarray] = []
    for j in range(h):
        values = [rec.features[j] for rec in records]
        if any(isinstance(v, str) for v in values):
            if not all(isinstance(v, str) for v in values):
                raise DataValidationError(f"feature {j} mixes strings and numbers")
            columns.append(np.asarray(values, dtype=object))
        else:
            columns.append(np.asarray(values, dtype=np.float64))
    return columns


@dataclass(frozen=True)
class FeatureEncoder:
    """Maps raw feature columns to a float design matrix.

    ``specs`` holds one entry per raw feature: ("numeric", None) or
    ("categorical", categories-tuple).
    """

    specs: tuple[tuple[str, tuple[str, ...] | None], ...]

    @classmethod
    def fit(cls, columns: Sequence[np.ndarray]) -> "FeatureEncoder":
        """Learn one spec per raw column (a 1-d array): object or string
        columns are categorical, anything else numeric."""
        specs = []
        for j, col in enumerate(columns):
            if col.dtype.kind in "OU":
                categories = set(col.tolist())
                if not all(isinstance(c, str) for c in categories):
                    raise DataValidationError(f"feature {j} mixes strings and numbers")
                specs.append(("categorical", tuple(sorted(categories))))
            else:
                if not np.all(np.isfinite(col)):
                    raise DataValidationError("numeric features must be finite")
                specs.append(("numeric", None))
        return cls(specs=tuple(specs))

    @property
    def width(self) -> int:
        """Number of encoded columns."""
        total = 0
        for kind, cats in self.specs:
            total += 1 if kind == "numeric" else len(cats)
        return total

    def transform(
        self, columns: Sequence[np.ndarray], n_rows: int | None = None
    ) -> np.ndarray:
        """Encoded design matrix; ``n_rows`` is required only without features."""
        if len(columns) != len(self.specs):
            raise DataValidationError(
                f"expected {len(self.specs)} features, got {len(columns)}"
            )
        if not columns:
            if n_rows is None:
                raise DataValidationError("row count required for zero-feature data")
            return np.empty((n_rows, 0), dtype=np.float64)
        n = columns[0].shape[0]
        if n_rows is not None and n != n_rows:
            raise DataValidationError(f"feature columns have {n} rows, expected {n_rows}")
        out = np.empty((n, self.width), dtype=np.float64)
        pos = 0
        for col, (kind, cats) in zip(columns, self.specs):
            if col.shape[0] != n:
                raise DataValidationError("feature columns have unequal lengths")
            if kind == "numeric":
                if col.dtype.kind in "OU":
                    raise DataValidationError("categorical value in numeric feature")
                out[:, pos] = col
                pos += 1
            else:
                index = {c: k for k, c in enumerate(cats)}
                codes = np.fromiter(
                    (index.get(v, -1) for v in col.tolist()), dtype=np.int64, count=n
                )
                unseen = int((codes < 0).sum())
                if unseen:
                    warnings.warn(
                        f"{unseen} record(s) carry categories unseen in training; "
                        "encoded as all zeros",
                        stacklevel=2,
                    )
                block = np.zeros((n, len(cats)))
                seen = codes >= 0
                block[np.nonzero(seen)[0], codes[seen]] = 1.0
                out[:, pos : pos + len(cats)] = block
                pos += len(cats)
        return out

    def to_json_dict(self) -> dict:
        return {
            "features": [
                {"kind": kind, "categories": list(cats) if cats else None}
                for kind, cats in self.specs
            ]
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FeatureEncoder":
        specs = []
        for item in payload["features"]:
            kind, cats = item["kind"], item.get("categories")
            if kind == "numeric" and cats is None:
                specs.append(("numeric", None))
            elif kind == "categorical" and isinstance(cats, list) and all(
                isinstance(c, str) for c in cats
            ):
                specs.append(("categorical", tuple(cats)))
            else:
                raise SchemaError(f"malformed encoder feature {item!r}")
        return cls(specs=tuple(specs))
