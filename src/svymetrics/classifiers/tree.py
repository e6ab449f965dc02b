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
from ..types import FEW_LEVELS, PROBE
from .encoding import FeatureEncoder, binary_outcomes


def check_tree_limits(max_depth: int | None, min_node_size: int) -> None:
    """The tree and forest configs' checks: max_depth None or >= 0, min_node_size >= 1."""
    if max_depth is not None and max_depth < 0:
        raise DataValidationError(f"max_depth must be >= 0, got {max_depth}")
    if min_node_size < 1:
        raise DataValidationError(f"min_node_size must be >= 1, got {min_node_size}")


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


def level_codes(levels: np.ndarray, col: np.ndarray) -> np.ndarray:
    """``np.searchsorted(levels, col, side="left")`` for ascending float
    ``levels`` (NaN last): each value's count of the levels that sort
    below it, where NaN sorts above every number and -0.0 equals 0.0.

    At most :data:`FEW_LEVELS` levels are read by one comparison each.
    Above that the values are sorted once: a value sorts above
    ``levels[k]`` from ``searchsorted(sorted values, levels[k], "right")``
    on, so each run between those bounds takes one code, scattered back
    through the sort order.  A search per value would mispredict at every
    step on unordered values.
    """
    if levels.size > FEW_LEVELS:
        order = np.argsort(col)
        bounds = np.searchsorted(col[order], levels, side="right")
        runs = np.diff(bounds, prepend=0, append=col.shape[0])
        codes = np.empty(col.shape[0], dtype=np.intp)
        codes[order] = np.repeat(
            np.arange(levels.size + 1, dtype=np.min_scalar_type(levels.size)), runs
        )
        return codes
    numbers = [level for level in levels.tolist() if level == level]
    if len(numbers) > 1:
        col = np.ascontiguousarray(col)  # a strided column compares several times slower
    # ``col <= level`` is False for a NaN value, which stays above them all.
    codes = np.full(col.shape[0], len(numbers), dtype=np.uint8)
    at_most = np.empty(col.shape[0], dtype=bool)
    for level in numbers:
        np.less_equal(col, level, out=at_most)
        codes -= at_most.view(np.uint8)
    return codes.astype(np.intp)


def _split_cuts(trees: Sequence[FlatTree]):
    """Tree, column (an index into ``features``, the split columns) and
    position among its column's cuts of every internal node, in tree
    order; and ``cuts``, the sorted unique thresholds on each split
    column."""
    internal = np.concatenate([tree.split_nodes for tree in trees])
    owner = np.repeat(np.arange(len(trees)), [tree.node_count for tree in trees])[internal]
    thresholds = np.concatenate([tree.threshold for tree in trees])[internal]
    features, column = np.unique(
        np.concatenate([tree.feature for tree in trees])[internal], return_inverse=True
    )
    position = np.empty(column.size, dtype=np.intp)
    cuts = []
    for k in range(features.size):
        mine = column == k
        cut, position[mine] = np.unique(thresholds[mine], return_inverse=True)
        cuts.append(cut)
    return owner, column, position, features, cuts


def score_trees(trees: Sequence[FlatTree], x: np.ndarray) -> np.ndarray:
    """Mean leaf value of ``trees`` per row of ``x``, read once per threshold cell.

    A tree reads a row only through ``x[f] <= t`` for its split thresholds
    ``t`` on column ``f``.  With ``cut`` the sorted unique thresholds on
    ``f`` over all ``trees``, ``code = searchsorted(cut, x[:, f], "left")``
    (:func:`level_codes`, once per column) satisfies ``x[f] <= cut[k]``
    exactly when ``code <= k`` (NaN sorts last), so the rows of a cell,
    equal codes on every split column, reach the same nodes.  Summed in
    tree order from 0.0 (:func:`_cell_totals`), the mean is that of
    routing rows.
    """
    split = _split_cuts(trees)
    features, cuts = split[3:]
    # Narrow codes, since every column's are held until the cells are known.
    codes = [level_codes(cut, x[:, f]).astype(np.min_scalar_type(cut.size))
             for f, cut in zip(features, cuts)]
    representatives, inverse = _fold_codes(
        zip(codes, [cut.size + 1 for cut in cuts]), x.shape[0]
    )
    codes = [c[representatives].astype(np.intp) for c in codes]
    total = _cell_totals(trees, x[representatives], codes, *split)
    return (total / len(trees))[inverse]


def _cell_totals(trees, cells, codes, owner, column, position, features, cuts) -> np.ndarray:
    """Leaf values of ``trees`` per row of ``cells``, summed in tree order
    from 0.0; ``codes`` are the cells' codes on the split columns, the
    rest is what :func:`_split_cuts` returns.

    A tree whose own thresholds cut the cells into a table much smaller
    than the cell count fills the table by one ``tree.predict`` on a row
    per entry, holding the entry's own threshold on each column (NaN above
    the last), and reads its cells through one lookup per column: a
    cumulative count, over every such tree at once, of its thresholds'
    marks among the column's cuts, which maps a code to the tree's own.
    The other trees route every cell.
    """
    n = cells.shape[0]
    # Distinct thresholds of each tree on each column, plus one for NaN.
    most = max((cut.size for cut in cuts), default=1)
    marked = np.unique((owner * len(cuts) + column) * most + position) // most
    radix = 1 + np.bincount(marked, minlength=len(trees) * len(cuts)).reshape(len(trees), -1)
    table = 4 * np.prod(radix, axis=1, dtype=np.float64) <= n  # lookups pay
    radix[~table] = 1
    stride = np.cumprod(radix, axis=1) // radix
    base = np.cumsum(radix, axis=0) - radix
    size = np.prod(radix, axis=1) * table
    # One row per table entry, tree after tree.
    first = np.cumsum(size) - size
    tree_of = np.repeat(np.arange(len(trees)), size)
    entry = np.arange(tree_of.size) - first[tree_of]
    grid = np.zeros((tree_of.size, cells.shape[1]))
    dtype = np.min_scalar_type(n)  # holds every key, since a table has at most n / 4 entries
    luts = []
    for k, cut in enumerate(cuts):
        # mark[t, p + 1] is 1 when tree t looks up and splits at cut[p]; the
        # last entry stands for NaN.
        mine = (column == k) & table[owner]
        mark = np.zeros((len(trees), cut.size + 2), dtype=dtype)
        mark[owner[mine], position[mine] + 1] = 1
        mark[:, -1] = 1
        own = np.append(cut, np.nan)[np.flatnonzero(mark) % mark.shape[1] - 1]
        grid[:, features[k]] = own[base[tree_of, k] + entry // stride[tree_of, k] % radix[tree_of, k]]
        lut = np.cumsum(mark, axis=1, out=mark)[:, :-1]
        lut *= stride[:, k, None].astype(dtype)
        luts.append(lut)
    used = (radix > 1).tolist()
    total = np.zeros(n)
    for t, tree in enumerate(trees):
        if not table[t]:
            total += tree.predict(cells)
            continue
        key = sum(lut[t].take(code) for lut, code, on in zip(luts, codes, used[t]) if on)
        total += tree.predict(grid[first[t]:first[t] + size[t]]).take(key)
    return total


def distinct_rows(
    columns: Iterable[np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a table held as ``n``-row columns: the
    columns of an encoded matrix (``x.T``), or raw feature columns with
    object arrays of strings among them.

    Returns ``(representatives, inverse)`` as :func:`_fold_codes` does.
    Equal means equal under ``==``, except that NaN equals NaN, so a
    representative may differ from its rows only in the sign of a zero.
    A float column codes each value as its index among the column's sorted
    distinct values, by :func:`level_codes` when there are at most
    :data:`FEW_LEVELS` of them; other columns by ``np.unique``'s inverse.
    """
    return _fold_codes(map(_value_codes, columns), n)


def _value_codes(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's index among the sorted distinct values of ``col``, and
    their count."""
    # A column whose first entries hold more than FEW_LEVELS values is
    # sorted once, not once to count its values and again for the codes.
    if col.dtype.kind == "f" and np.unique(col[:PROBE]).size <= FEW_LEVELS:
        values = np.unique(col)
        if values.size <= FEW_LEVELS:
            return level_codes(values, col), values.size
    values, codes = np.unique(col, return_inverse=True)
    return codes, values.size


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


def _split_score(n_left, pos_left, m, p):
    """Sum over the two children of (pos^2 + neg^2)/n_child, for a left
    child of ``n_left`` training rows, ``pos_left`` of them positive, out
    of ``m`` rows and ``p`` positives; floats or arrays of them.

    It is a monotone transform of the Gini decrease, so maximizing it
    maximizes the impurity decrease.  Every count is an exact integer, so
    the score is the same float however the counts were summed.
    """
    neg_left = n_left - pos_left
    n_right = m - n_left
    pos_right = p - pos_left
    neg_right = n_right - pos_right
    return (pos_left * pos_left + neg_left * neg_left) / n_left + (
        pos_right * pos_right + neg_right * neg_right
    ) / n_right


def _best_sorted_split(col: np.ndarray, rows: np.ndarray, w: np.ndarray, m: float, p: float,
                       tie_free: bool = False):
    """Best boundary between the rows ``rows`` of column ``col``, given in
    ascending order of their values (NaN last), by :func:`_split_score`;
    returns (score, threshold, cut, left), or None when the values are all
    equal.

    Row ``rows[i]`` stands for ``w[i].real`` training rows, ``w[i].imag``
    of them positive, at a node of ``m`` rows, ``p`` of them positive.
    The left child is the first ``cut + 1`` rows, and ``left`` its packed
    sum.  ``tie_free`` says that no two of the values are equal and none is
    NaN, so every adjacent pair is a boundary and only the two values at
    the cut are read.
    """
    if tie_free:
        boundaries = None
    else:
        xs = col[rows]
        boundaries = np.flatnonzero(xs[:-1] < xs[1:])
        if boundaries.size == 0:
            return None
    cum = np.cumsum(w)
    left = cum[:-1] if tie_free else cum[boundaries]
    score = _split_score(left.real, left.imag, m, p)
    best = int(np.argmax(score))  # first max -> smallest split point
    cut = best if tie_free else int(boundaries[best])
    threshold = _split_threshold(float(col[rows[cut]]), float(col[rows[cut + 1]]))
    return float(score[best]), threshold, cut, left[best]


def _two_valued_split(threshold: float, high: complex, m: float, p: float):
    """:func:`_best_sorted_split` for a column of two values, at a node of
    ``m`` training rows, ``p`` of them positive, where ``high`` is the
    packed sum of the rows that hold the higher value; the only boundary is
    ``threshold``.  Returns (score, threshold, None, left), or None when
    one side is empty."""
    n_high = high.real
    if n_high == 0.0 or n_high == m:
        return None
    n_left, pos_left = m - n_high, p - high.imag
    return _split_score(n_left, pos_left, m, p), threshold, None, complex(n_left, pos_left)


def _best_small_split(col: list, count: list, pos: list, rows: list, m: float, p: float):
    """The best boundary on one column, as :func:`_best_sorted_split` finds
    it on the column's argsort, on Python floats, for a node holding
    the rows ``rows`` of a small table, ``m`` training rows, ``p`` of them
    positive.

    ``col``, ``count`` and ``pos`` are the table's lists.  NaN sorts last,
    as in numpy, and no boundary precedes it, so its rows always go right.
    The running sums are exact integers and the score is
    :func:`_split_score`'s float expression, written out, so the result
    equals numpy's.  Returns (score, threshold, order, cut) with ``order``
    a list of rows, or None.
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


@dataclass(frozen=True)
class ColumnTable:
    """The distinct encoded rows that a tree, or every tree of a forest,
    grows on, laid out for the split search.

    ``columns`` is the rows' transpose, one contiguous array per column.
    ``key`` is the column with the most distinct values (the first such),
    ``key_order`` the stable argsort of its values, and ``key_tie_free``
    whether those values are all distinct and none is NaN.  ``two_valued``
    maps each column of exactly two distinct values, neither NaN, to the
    split threshold between them and the rows above it, as a complex 0/1
    mask for :func:`numpy.dot` with packed counts.
    """

    columns: np.ndarray
    key: int
    key_order: np.ndarray
    key_tie_free: bool
    two_valued: dict[int, tuple[float, np.ndarray]]

    @classmethod
    def of(cls, x: np.ndarray) -> "ColumnTable":
        """The table of the rows of the encoded matrix ``x``."""
        columns = np.ascontiguousarray(x.T)
        if columns.shape[0] == 0:
            return cls(columns, 0, np.arange(x.shape[0]), False, {})
        distinct = [np.unique(col) for col in columns]  # ascending, NaN last
        key = max(range(len(distinct)), key=lambda f: distinct[f].size)
        two_valued = {}
        for f, values in enumerate(distinct):
            if values.size == 2 and values[1] == values[1]:
                threshold = _split_threshold(float(values[0]), float(values[1]))
                two_valued[f] = (threshold, (columns[f] > threshold).astype(np.complex128))
        values = distinct[key]
        return cls(
            columns=columns,
            key=key,
            key_order=np.argsort(columns[key], kind="stable"),
            key_tie_free=bool(values.size == x.shape[0] and values[-1] == values[-1]),
            two_valued=two_valued,
        )


def grow_counted(
    table: ColumnTable,
    count: np.ndarray,
    pos: np.ndarray,
    *,
    min_node_size: int = 1,
    max_depth: int | None = None,
    m_try: int | None = None,
    rng: np.random.Generator | None = None,
) -> FlatTree:
    """Grow a Gini tree on the distinct encoded rows of ``table``, where
    row ``i`` stands for ``count[i]`` training rows, ``pos[i]`` of them
    positive.

    The search reads a node only through sums of ``count`` and ``pos``
    over its rows, which are exact integers in float64, so the tree is
    bit for bit the one grown on the copies.  Rows with a zero count take
    no part.  When ``m_try`` is given (and smaller than the feature count)
    each node considers a random feature subset drawn from ``rng``;
    otherwise the search is exhaustive and deterministic.  Ties between
    equal-gain splits resolve to the lowest feature index, then the
    smallest split point.

    A node of more than :data:`SMALL_NODE` distinct rows searches with
    numpy, on the counts packed as ``count + 1j * pos``: one gather, and
    one sum or prefix sum, serves both (the sums stay exact in any order).
    It holds its rows in the table's key order, which a split on the key
    column cuts into two slices and a split on another column partitions
    by ``x <= threshold``; so the key column is searched without a sort,
    and, when the table's key has no ties, without reading its values.  A
    two-valued column is searched by the sum of its high rows; below a
    split on it the column is constant, so such a node skips it without a
    numpy call.  Other columns are argsorted.  Each node's totals come down
    from its parent's split.  A node of at most :data:`SMALL_NODE` rows
    converts its rows to Python lists once, and its whole subtree searches
    them with :func:`_best_small_split`.
    """
    width, _ = table.columns.shape
    root_rows = table.key_order[count[table.key_order] != 0]
    if root_rows.size == 0:
        raise DataValidationError("cannot grow a tree on empty data")
    use_subset = m_try is not None and width > 0 and m_try < width
    if use_subset and rng is None:
        raise DataValidationError("feature subsetting requires an rng")
    # The root's totals and packed counts; a root on the list path needs
    # neither.
    m = p = w = None
    if root_rows.size > SMALL_NODE:
        m, p = float(count.sum()), float(pos.sum())
        w = np.empty(count.size, dtype=np.complex128)
        w.real, w.imag = count, pos

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

    # ``small`` is None on the numpy path, where ``rows`` index the table,
    # ``m`` and ``p`` are the node's totals and ``settled`` the two-valued
    # columns that an ancestor split on; below the switch it is (columns,
    # counts, positives) as lists, which ``rows`` (a list) index, and the
    # totals are summed there.
    stack: list = [(new_node(), root_rows, 0, None, m, p, frozenset())]
    max_internal_depth = -1
    while stack:
        node_id, rows, depth, small, m, p, settled = stack.pop()
        if small is None and rows.size <= SMALL_NODE:
            small = (table.columns[:, rows].tolist(), count[rows].tolist(), pos[rows].tolist())
            rows = list(range(len(small[1])))
        if small is not None:
            cols, small_count, small_pos = small
            m = sum([small_count[i] for i in rows])
            p = sum([small_pos[i] for i in rows])
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
        if small is None:
            candidates = [f for f in candidates if f not in settled]
            if not candidates:
                continue
            node_w = w[rows]
        parent_score = (p * p + (m - p) * (m - p)) / m
        best = None
        best_feature = -1
        for f in candidates:
            if small is not None:
                found = _best_small_split(cols[f], small_count, small_pos, rows, m, p)
            elif f in table.two_valued:
                thr, high = table.two_valued[f]
                found = _two_valued_split(thr, np.dot(high[rows], node_w), m, p)
            elif f == table.key:
                found = _best_sorted_split(
                    table.columns[f], rows, node_w, m, p, table.key_tie_free
                )
            else:
                order = np.argsort(table.columns[f][rows])
                found = _best_sorted_split(table.columns[f], rows[order], node_w[order], m, p)
                if found is not None:
                    found = (*found[:2], None, found[3])
            if found is None:
                continue
            if best is None or found[0] > best[0]:
                best = found
                best_feature = f
        if best is None or best[0] <= parent_score:
            continue  # zero achievable gain
        thr = best[1]
        feature[node_id] = best_feature
        threshold[node_id] = thr
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        max_internal_depth = max(max_internal_depth, depth)
        if small is not None:
            order, cut = best[2:]
            stack.append((right_id, order[cut + 1 :], depth + 1, small, None, None, None))
            stack.append((left_id, order[: cut + 1], depth + 1, small, None, None, None))
            continue
        cut, left_w = best[2:]
        if cut is not None:  # the key column: rows are in its order
            left_rows, right_rows = rows[: cut + 1], rows[cut + 1 :]
        else:
            go_left = table.columns[best_feature][rows] <= thr
            left_rows, right_rows = rows[go_left], rows[~go_left]
        if best_feature in table.two_valued:
            settled = settled | {best_feature}
        n_left, p_left = float(left_w.real), float(left_w.imag)
        stack.append((right_id, right_rows, depth + 1, None, m - n_left, p - p_left, settled))
        stack.append((left_id, left_rows, depth + 1, None, n_left, p_left, settled))

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
        ColumnTable.of(x[representatives]),
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
