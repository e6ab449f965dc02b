"""Bootstrap-aggregated Gini trees (random forest).

Each tree trains on a bootstrap resample of size n with ``m_try`` features
considered per split.  The distinct training rows are found once per fit,
and each resample is held as copy counts over them.  Per-tree randomness
derives from (seed, tree index), so trees are reproducible individually and
the forest is deterministic for a fixed seed regardless of training-row
order (rows are canonically sorted by id before fitting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataValidationError
from ..rng import stream_seed
from .encoding import FeatureEncoder
from .tree import (
    FlatTree, check_tree_limits, distinct_rows, grow_counted, threshold_cells,
)

PAPER_PARITY_TREE_COUNT = 1000  # the cited simulations use 1,000 trees


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    m_try: int | None = None  # None -> floor(sqrt(encoded feature count))
    min_node_size: int = 1
    max_depth: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if self.trees < 1:
            raise DataValidationError(f"trees must be >= 1, got {self.trees}")
        if self.m_try is not None and self.m_try < 1:
            raise DataValidationError(f"m_try must be >= 1, got {self.m_try}")
        check_tree_limits(self.max_depth, self.min_node_size)


@dataclass(frozen=True)
class ForestModel:
    encoder: FeatureEncoder
    trees: tuple[FlatTree, ...]
    tree_seeds: tuple[int, ...]
    config: ForestConfig

    def predict_proba(
        self, columns: Sequence[np.ndarray], n_rows: int | None = None
    ) -> np.ndarray:
        """Mean of the trees' leaf proportions for the rows of raw feature columns."""
        x = self.encoder.transform(columns, n_rows)
        representatives, inverse = threshold_cells(self.trees, x)
        cells = x[representatives]
        total = np.zeros(cells.shape[0])
        for tree in self.trees:
            total += tree.predict(cells)
        return (total / len(self.trees))[inverse]

    # The simulation harness scores through this name; perfbench traces both names.
    predict_proba_columns = predict_proba


def fit_forest(
    columns: Sequence[np.ndarray],
    y: np.ndarray,
    ids: Sequence[str],
    config: ForestConfig = ForestConfig(),
    rng: np.random.Generator | int = 0,
) -> ForestModel:
    """Fit a forest on raw feature columns and 0/1 outcomes ``y``.

    ``ids`` names each row; rows are fitted in stable id order.  ``rng``
    may be a generator or a bare integer seed.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise DataValidationError("no training records")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataValidationError("forest outcomes must be 0 or 1")
    if len(ids) != y.size:
        raise DataValidationError("ids and outcomes must have equal length")
    if isinstance(rng, (int, np.integer)):
        base_seed = int(rng)
    else:
        base_seed = int(rng.integers(np.iinfo(np.int64).max))
    # An object column sorts with Python's ``<``, so this stable order is
    # the one ``sorted(range(n), key=ids.__getitem__)`` gives.
    order = np.argsort(np.asarray(ids, dtype=object), kind="stable")
    columns = [col[order] for col in columns]
    encoder = FeatureEncoder.fit(columns)
    x = encoder.transform(columns, y.size)
    n, width = x.shape
    m_try = config.m_try if config.m_try is not None else max(1, math.isqrt(width))
    m_try = min(m_try, width)
    representatives, inverse = distinct_rows(x.T, n)
    patterns = x[representatives]
    # One bincount of a resample's cells gives each pattern's negatives and
    # positives, interleaved.
    cell = inverse * 2 + y[order].astype(np.intp)

    trees = []
    seeds = []
    for k in range(config.trees):
        tree_seed = stream_seed(base_seed, k)
        seeds.append(tree_seed)
        tree_rng = np.random.default_rng(tree_seed)
        rows = tree_rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        cells = np.bincount(cell[rows], minlength=2 * representatives.size)
        pos = cells[1::2].astype(np.float64)
        count = cells[::2] + pos
        trees.append(
            grow_counted(
                patterns,
                count,
                pos,
                min_node_size=config.min_node_size,
                max_depth=config.max_depth,
                m_try=m_try if m_try < width else None,
                rng=tree_rng,
            )
        )
    return ForestModel(
        encoder=encoder, trees=tuple(trees), tree_seeds=tuple(seeds), config=config
    )
