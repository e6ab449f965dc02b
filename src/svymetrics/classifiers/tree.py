"""Binary classification trees grown by greedy Gini splitting.

Trees are stored flat (parallel node arrays) so prediction can route whole
record batches level by level without Python recursion.  Leaf values are
positive-class proportions of the training records that reached the leaf.
Trees grow on the distinct rows of their training data, each weighted by
its count of copies (see :func:`grow_counted`).  Models score one
representative row per threshold cell (see :func:`score_trees`) and
expand the result to every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import DataValidationError, SchemaError
from .encoding import FeatureEncoder


def check_tree_limits(max_depth: int | None, min_node_size: int) -> None:
    """The tree and forest configs' checks: max_depth None or >= 0, min_node_size >= 1."""
    if max_depth is not None and max_depth < 0:
        raise DataValidationError(f"max_depth must be >= 0, got {max_depth}")
    if min_node_size < 1:
        raise DataValidationError(f"min_node_size must be >= 1, got {min_node_size}")


def binary_outcomes(y) -> np.ndarray:
    """The tree and forest fitters' outcomes: float64, not empty, each 0 or 1."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise DataValidationError("no training records")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataValidationError("outcomes must be 0 or 1")
    return y


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_node_size: int = 1  # nodes smaller than this are not split

    def __post_init__(self):
        check_tree_limits(self.max_depth, self.min_node_size)


@dataclass(frozen=True)
class FlatTree:
    """Array-of-nodes tree; leaves point to themselves so routing is branch-free."""

    feature: np.ndarray  # int32, 0 for leaves (unused)
    threshold: np.ndarray  # float64, +inf for leaves
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    value: np.ndarray  # float64 positive proportion per node
    route_steps: int

    @property
    def node_count(self) -> int:
        return int(self.feature.size)

    @property
    def split_nodes(self) -> np.ndarray:
        """True at each internal node: one whose children are not itself."""
        nodes = np.arange(self.node_count)
        return (self.left != nodes) | (self.right != nodes)

    def predict(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        node = np.zeros(n, dtype=np.int32)
        rows = np.arange(n)
        for _ in range(self.route_steps):
            go_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": [
                t if np.isfinite(t) else ("inf" if t > 0 else "-inf") for t in self.threshold
            ],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "route_steps": self.route_steps,
        }

    @classmethod
    def from_json_dict(cls, payload: dict, width: int) -> "FlatTree":
        """Parse a tree over ``width`` encoded columns; SchemaError unless
        it routes every row to a leaf without leaving its arrays."""
        tree = cls(
            feature=np.asarray(payload["feature"], dtype=np.int32),
            # float() reads the "inf" and "-inf" that to_json_dict writes.
            threshold=np.array([float(t) for t in payload["threshold"]]),
            left=np.asarray(payload["left"], dtype=np.int32),
            right=np.asarray(payload["right"], dtype=np.int32),
            value=np.asarray(payload["value"], dtype=np.float64),
            route_steps=int(payload["route_steps"]),
        )
        m = tree.feature.size
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if m == 0 or any(a.shape != (m,) for a in arrays):
            raise SchemaError("tree node arrays must be non-empty and aligned")
        internal = tree.split_nodes
        children = np.concatenate([tree.left, tree.right])
        if (
            np.any((children < 0) | (children >= m))
            or np.any((tree.feature < 0) | (tree.feature >= max(width, 1)))
            or np.any(internal & (tree.feature >= width))
            or np.any(np.isnan(tree.threshold))
            or not np.all((tree.value >= 0.0) & (tree.value <= 1.0))
            or not 0 <= tree.route_steps <= int(internal.sum())
        ):
            raise SchemaError("malformed tree in model document")
        return tree


# Largest count of distinct cell keys an int64 key can hold.
_KEY_SPAN = 2**63


def _fold_codes(
    coded: Iterable[tuple[np.ndarray, int]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group ``n`` rows by their codes on several columns.

    ``coded`` yields ``(codes, radix)`` per column, every code in
    ``[0, radix)``.  The codes are folded into one int64 key with a mixed
    radix, densified whenever the next radix could overflow it.  Returns
    ``(representatives, inverse)``: the first row of each distinct tuple
    of codes, and each row's group, groups in ascending key order.
    """
    key = np.zeros(n, dtype=np.int64)
    span = 1  # key values lie in [0, span)
    for codes, radix in coded:
        if span * radix > _KEY_SPAN:
            cells, key = np.unique(key, return_inverse=True)
            span = cells.size
        key = key * radix + codes
        span *= radix
    if span <= 2 * n:
        # Few enough keys to index an array by: no sort needed.
        first = np.full(span, n, dtype=np.intp)
        np.minimum.at(first, key, np.arange(n))
        present = first < n
        return first[present], (np.cumsum(present) - 1)[key]
    order = np.argsort(key)  # unstable: the least row of a group is its first
    starts = np.diff(key[order], prepend=-1) != 0
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return np.minimum.reduceat(order, np.flatnonzero(starts)), inverse


def _split_cuts(trees: Sequence[FlatTree]):
    """Tree, column (an index into ``features``, the split columns) and
    threshold of every internal node, in tree order; and ``cuts``, the
    sorted unique thresholds on each split column."""
    internal = np.concatenate([tree.split_nodes for tree in trees])
    owner = np.repeat(np.arange(len(trees)), [tree.node_count for tree in trees])[internal]
    thresholds = np.concatenate([tree.threshold for tree in trees])[internal]
    features, column = np.unique(
        np.concatenate([tree.feature for tree in trees])[internal], return_inverse=True
    )
    cuts = [np.unique(thresholds[column == k]) for k in range(features.size)]
    return owner, column, thresholds, features, cuts


def score_trees(trees: Sequence[FlatTree], x: np.ndarray) -> np.ndarray:
    """Mean leaf value of ``trees`` per row of ``x``, read once per threshold cell.

    A tree reads a row only through ``x[f] <= t`` for its split thresholds
    ``t`` on column ``f``.  With ``cut`` the sorted unique thresholds on
    ``f`` over all ``trees``, ``code = searchsorted(cut, x[:, f], "left")``
    satisfies ``x[f] <= cut[k]`` exactly when ``code <= k`` (NaN sorts
    last), so the rows of a cell, equal codes on every split column, reach
    the same nodes.  ``lut = [0] + searchsorted(local, cut, "right")`` maps
    a code to one on a tree's own thresholds ``local``; a tree whose local
    codes index a table much smaller than the cells fills it by
    ``tree.predict`` on one cell per entry, and the others route every
    cell.  Summed in tree order from 0.0, the mean is that of routing rows.
    """
    owner, column, thresholds, features, cuts = _split_cuts(trees)
    representatives, inverse = _fold_codes(
        ((np.searchsorted(cut, x[:, f], side="left"), cut.size + 1)
         for f, cut in zip(features, cuts)),
        x.shape[0],
    )
    cells = x[representatives]
    n = cells.shape[0]
    codes = [np.searchsorted(cut, cells[:, f], side="left") for f, cut in zip(features, cuts)]
    # Each table's size is at most the product of (splits on a column + 1).
    splits = np.bincount(owner * features.size + column, minlength=len(trees) * features.size)
    bounds = np.prod(splits.reshape(len(trees), -1) + 1.0, axis=1)
    first = np.searchsorted(owner, np.arange(len(trees) + 1))
    total = 0.0
    for t, tree in enumerate(trees):
        if 4 * bounds[t] > n or tree.route_steps <= 2:  # lookups would not pay
            total = total + tree.predict(cells)
            continue
        own, own_thresholds = column[first[t]:first[t + 1]], thresholds[first[t]:first[t + 1]]
        key, span = 0, 1
        for k in np.unique(own):
            local = np.unique(own_thresholds[own == k])
            lut = np.concatenate(([0], np.searchsorted(local, cuts[k], side="right")))
            key = key + (lut * span)[codes[k]]
            span *= local.size + 1
        cell_of = np.full(span, -1)
        cell_of[key] = np.arange(n)
        present = np.flatnonzero(cell_of >= 0)
        table = np.zeros(span)
        table[present] = tree.predict(cells[cell_of[present]])
        total = total + table[key]
    return (total / len(trees))[inverse]


def distinct_rows(
    columns: Iterable[np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a table held as ``n``-row columns: the
    columns of an encoded matrix (``x.T``), or raw feature columns with
    object arrays of strings among them.

    Returns ``(representatives, inverse)`` as :func:`_fold_codes` does.
    Equal means equal under ``==``, except that NaN equals NaN, so a
    representative may differ from its rows only in the sign of a zero.
    """
    columns = (np.unique(col, return_inverse=True) for col in columns)
    return _fold_codes(((codes, values.size) for values, codes in columns), n)


def row_counts(
    groups: np.ndarray, y: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and positives per group, as float64 counts, of the rows that
    fall in ``groups`` (each in ``[0, size)``) with 0/1 outcomes ``y``."""
    return (
        np.bincount(groups, minlength=size).astype(np.float64),
        np.bincount(groups, weights=y, minlength=size),
    )


def _split_threshold(lo: float, hi: float) -> float:
    """A threshold ``t`` with ``lo <= t < hi`` for adjacent sorted values
    ``lo < hi``, so that ``x <= t`` routes each value to the side it was
    counted on.

    The midpoint, when it qualifies.  It overflows to +-inf near the ends
    of the float range, and rounds onto ``hi`` when the two values are
    adjacent floats; then half of each, and last ``lo`` itself.  ``+ 0.0``
    reads a zero ``lo`` as 0.0, because which of -0.0 and 0.0 sorts last
    among tied zeros is arbitrary.
    """
    for t in ((lo + hi) / 2.0, lo / 2.0 + hi / 2.0):
        if lo <= t < hi:
            return t
    return lo + 0.0


def _best_split_on_feature(col: np.ndarray, count: np.ndarray, pos: np.ndarray):
    """Best boundary for one feature; returns (score, threshold, order, cut).

    Row ``i`` stands for ``count[i]`` training rows, ``pos[i]`` of them
    positive.  ``score`` is sum over children of (pos^2 + neg^2)/n_child,
    which is a monotone transform of the Gini decrease, so maximizing it
    maximizes the impurity decrease.  Returns None when the feature is
    constant.
    """
    order = np.argsort(col)
    xs = col[order]
    boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
    if boundaries.size == 0:
        return None
    cum_n = np.cumsum(count[order])
    cum_pos = np.cumsum(pos[order])
    m = cum_n[-1]
    total_pos = cum_pos[-1]
    n_left = cum_n[boundaries]
    pos_left = cum_pos[boundaries]
    neg_left = n_left - pos_left
    n_right = m - n_left
    pos_right = total_pos - pos_left
    neg_right = n_right - pos_right
    score = (pos_left * pos_left + neg_left * neg_left) / n_left + (
        pos_right * pos_right + neg_right * neg_right
    ) / n_right
    best = int(np.argmax(score))  # first max -> smallest split point
    cut = int(boundaries[best])
    threshold = _split_threshold(float(xs[cut]), float(xs[cut + 1]))
    return float(score[best]), threshold, order, cut


def _best_small_split(col: list, count: list, pos: list, rows: list, m: float, p: float):
    """:func:`_best_split_on_feature` on Python floats, for a node holding
    the rows ``rows`` of a small table, ``m`` training rows, ``p`` of them
    positive.

    ``col``, ``count`` and ``pos`` are the table's lists.  NaN sorts last,
    as in numpy, and no boundary precedes it, so its rows always go right.
    The running sums are exact integers and the score is the same float
    expression, so the result equals numpy's.  Returns (score, threshold,
    order, cut) with ``order`` a list of rows, or None.
    """
    order = [i for i in rows if col[i] == col[i]]
    order.sort(key=col.__getitem__)
    if len(order) < len(rows):
        order += [i for i in rows if col[i] != col[i]]
    best = None
    n_left = pos_left = 0.0
    lo = col[order[0]]
    for k in range(len(order) - 1):
        i = order[k]
        n_left += count[i]
        pos_left += pos[i]
        hi = col[order[k + 1]]
        if lo < hi:
            neg_left = n_left - pos_left
            n_right = m - n_left
            pos_right = p - pos_left
            neg_right = n_right - pos_right
            score = (pos_left * pos_left + neg_left * neg_left) / n_left + (
                pos_right * pos_right + neg_right * neg_right
            ) / n_right
            if best is None or score > best:
                best = score
                cut = k
        lo = hi
    if best is None:
        return None
    return best, _split_threshold(col[order[cut]], col[order[cut + 1]]), order, cut


# Nodes with at most this many distinct rows search on Python floats: below
# it numpy's per-call overhead outweighs its per-element speed.
SMALL_NODE = 32


def grow_counted(
    x: np.ndarray,
    count: np.ndarray,
    pos: np.ndarray,
    *,
    min_node_size: int = 1,
    max_depth: int | None = None,
    m_try: int | None = None,
    rng: np.random.Generator | None = None,
) -> FlatTree:
    """Grow a Gini tree on distinct encoded rows ``x``, where row ``i``
    stands for ``count[i]`` training rows, ``pos[i]`` of them positive.

    The search reads a node only through cumulative sums of ``count`` and
    ``pos`` in sorted order, which are exact integers in float64, so the
    tree is bit for bit the one grown on the copies.  Rows with a zero
    count take no part.  When ``m_try`` is given (and smaller than the
    feature count) each node considers a random feature subset drawn from
    ``rng``; otherwise the search is exhaustive and deterministic.  Ties
    between equal-gain splits resolve to the lowest feature index, then
    the smallest split point.

    A node of at most :data:`SMALL_NODE` distinct rows converts its rows
    to Python lists once, and its whole subtree searches them with
    :func:`_best_small_split`; larger nodes search with numpy.
    """
    width = x.shape[1]
    root_rows = np.flatnonzero(count)
    if root_rows.size == 0:
        raise DataValidationError("cannot grow a tree on empty data")
    use_subset = m_try is not None and width > 0 and m_try < width
    if use_subset and rng is None:
        raise DataValidationError("feature subsetting requires an rng")

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        idx = len(feature)
        feature.append(0)
        threshold.append(np.inf)
        left.append(idx)
        right.append(idx)
        value.append(0.0)
        return idx

    # ``table`` is None on the numpy path, where ``rows`` index ``x``;
    # below the switch it is (columns, counts, positives) as lists, which
    # ``rows`` (a list) index.
    stack: list = [(new_node(), root_rows, 0, None)]
    max_internal_depth = -1
    while stack:
        node_id, rows, depth, table = stack.pop()
        if table is None and rows.size <= SMALL_NODE:
            table = (x[rows].T.tolist(), count[rows].tolist(), pos[rows].tolist())
            rows = list(range(len(table[1])))
        if table is None:
            node_count = count[rows]
            node_pos = pos[rows]
            m = float(node_count.sum())
            p = float(node_pos.sum())
        else:
            cols, table_count, table_pos = table
            m = sum([table_count[i] for i in rows])
            p = sum([table_pos[i] for i in rows])
        value[node_id] = p / m
        if (
            m < 2
            or m < min_node_size
            or p == 0.0
            or p == m
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        if use_subset:
            if m_try == 1:
                candidates = [int(rng.integers(width))]
            else:
                candidates = sorted(int(f) for f in rng.choice(width, size=m_try, replace=False))
        else:
            candidates = range(width)
        parent_score = (p * p + (m - p) * (m - p)) / m
        best = None
        best_feature = -1
        for f in candidates:
            if table is None:
                found = _best_split_on_feature(x[rows, f], node_count, node_pos)
            else:
                found = _best_small_split(cols[f], table_count, table_pos, rows, m, p)
            if found is None:
                continue
            if best is None or found[0] > best[0]:
                best = found
                best_feature = f
        if best is None or best[0] <= parent_score:
            continue  # zero achievable gain
        score, thr, order, cut = best
        feature[node_id] = best_feature
        threshold[node_id] = thr
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        max_internal_depth = max(max_internal_depth, depth)
        if table is None:
            order = rows[order]
        stack.append((right_id, order[cut + 1 :], depth + 1, table))
        stack.append((left_id, order[: cut + 1], depth + 1, table))

    return FlatTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        route_steps=max_internal_depth + 1,
    )


def grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    *,
    min_node_size: int = 1,
    max_depth: int | None = None,
    m_try: int | None = None,
    rng: np.random.Generator | None = None,
) -> FlatTree:
    """Grow a Gini tree on an encoded matrix and 0/1 outcomes, by
    :func:`grow_counted` on its distinct rows."""
    representatives, inverse = distinct_rows(x.T, x.shape[0])
    count, pos = row_counts(inverse, y, representatives.size)
    return grow_counted(
        x[representatives],
        count,
        pos,
        min_node_size=min_node_size,
        max_depth=max_depth,
        m_try=m_try,
        rng=rng,
    )


@dataclass(frozen=True)
class TreeModel:
    """A standalone CART classifier (exhaustive deterministic splits)."""

    encoder: FeatureEncoder
    tree: FlatTree
    config: TreeConfig

    def predict_proba(
        self, columns: Sequence[np.ndarray], n_rows: int | None = None
    ) -> np.ndarray:
        """Leaf proportions reached by the rows of raw feature columns."""
        return score_trees((self.tree,), self.encoder.transform(columns, n_rows))

    # The simulation harness scores every model through this name.
    predict_proba_columns = predict_proba


def fit_tree(
    columns: Sequence[np.ndarray], y: np.ndarray, config: TreeConfig = TreeConfig()
) -> TreeModel:
    """Fit a CART tree on raw feature columns and 0/1 outcomes ``y`` by
    greedy binary splitting on Gini impurity decrease."""
    y = binary_outcomes(y)
    encoder = FeatureEncoder.fit(columns)
    x = encoder.transform(columns, y.size)
    tree = grow_tree(
        x, y, min_node_size=config.min_node_size, max_depth=config.max_depth
    )
    return TreeModel(encoder=encoder, tree=tree, config=config)
