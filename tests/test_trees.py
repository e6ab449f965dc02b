import hashlib
import itertools
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    distinct_rows_by_unique, gini_impurity, grow_counted_numpy, grow_tree_per_row,
    make_population, numeric_columns, route_one_row, score_trees_routed, threshold_cells_routed,
)
from svymetrics.classifiers import (
    FeatureEncoder,
    ForestConfig,
    ForestModel,
    TreeConfig,
    TreeModel,
    fit_forest,
    fit_tree,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
)
from svymetrics.classifiers import tree as tree_module
from svymetrics.classifiers.imbalance import upsample_minority
from svymetrics.classifiers.tree import (
    FEW_LEVELS, SMALL_NODE, ColumnTable, FlatTree, distinct_rows, grow_counted, grow_tree,
    level_codes, row_counts, score_trees,
)
from svymetrics.errors import DataValidationError
from svymetrics.rng import derive_stream
from svymetrics.simulation import (
    POPULATION_PRESETS, ClassifierSpec, fit_classifier, generate_population,
)


def _data(x_rows, y):
    return numeric_columns(x_rows), np.asarray(y)


def _forest_data(x_rows, y):
    columns, y = _data(x_rows, y)
    return columns, y, [str(i) for i in range(len(y))]


def brute_force_best_split(x, y):
    """Exhaustive search over every feature and every midpoint between
    consecutive distinct values, scoring by weighted child Gini."""
    n, h = x.shape
    parent = gini_impurity(float(np.sum(y)), float(n))
    best = None
    for f in range(h):
        values = np.unique(x[:, f])
        for lo, hi in zip(values, values[1:]):
            cut = (lo + hi) / 2.0
            left = x[:, f] <= cut
            nl, nr = int(left.sum()), int((~left).sum())
            g = (
                nl * gini_impurity(float(y[left].sum()), nl)
                + nr * gini_impurity(float(y[~left].sum()), nr)
            ) / n
            gain = parent - g
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, cut)
    return best


class TestGini:
    """The brute-force split oracle's impurity on hand-computed nodes."""

    def test_balanced_node(self):
        # 5 positives, 5 negatives: 1 - 0.25 - 0.25 = 0.5
        assert gini_impurity(5, 10) == pytest.approx(0.5)

    def test_pure_node(self):
        assert gini_impurity(0, 7) == pytest.approx(0.0)
        assert gini_impurity(7, 7) == pytest.approx(0.0)


class TestFitTree:
    def test_pure_node_is_not_split(self):
        model = fit_tree(*_data([[0.1], [0.2], [0.3]], [1, 1, 1]))
        assert model.tree.node_count == 1
        assert model.predict_proba([np.array([0.15])])[0] == 1.0

    def test_single_leaf_proportion(self):
        model = fit_tree(
            *_data([[1.0]] * 4, [1, 1, 1, 0])  # constant feature: no split possible
        )
        assert model.tree.node_count == 1
        assert model.predict_proba([np.array([1.0])])[0] == pytest.approx(0.75)

    def test_step_function_split_at_midpoint(self):
        """1-d data with y = 1 iff x >= 0: the single split lands at the
        midpoint between the largest negative and smallest non-negative
        training values, and training accuracy is 1."""
        xs = [-3.0, -1.5, -0.25, 0.5, 1.0, 4.0]
        y = [0, 0, 0, 1, 1, 1]
        columns, y = _data([[v] for v in xs], y)
        model = fit_tree(columns, y)
        assert model.tree.node_count == 3
        assert model.tree.threshold[0] == pytest.approx((-0.25 + 0.5) / 2)
        scores = model.predict_proba(columns)
        assert np.array_equal(scores >= 0.5, np.array(y) == 1)

    def test_matches_brute_force_split_search(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 40))
            x = np.round(rng.normal(size=(n, 3)), 1)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            best = brute_force_best_split(x, y)
            if best is None or best[0] <= 1e-12:
                continue
            model = fit_tree(*_data(x, y), TreeConfig(max_depth=1))
            assert model.tree.feature[0] == best[1]
            assert model.tree.threshold[0] == pytest.approx(best[2])

    def test_max_depth_respected(self, rng):
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = fit_tree(*_data(x, y), TreeConfig(max_depth=2))
        assert model.tree.route_steps <= 2

    def test_min_node_size_stops_splitting(self, rng):
        x = rng.normal(size=(50, 1))
        y = rng.integers(0, 2, size=50)
        model = fit_tree(*_data(x, y), TreeConfig(min_node_size=100))
        assert model.tree.node_count == 1

    def test_leaf_values_are_proportions(self, rng):
        x = rng.normal(size=(80, 2))
        y = rng.integers(0, 2, size=80)
        model = fit_tree(*_data(x, y), TreeConfig(max_depth=3))
        assert np.all((model.tree.value >= 0) & (model.tree.value <= 1))

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan, np.inf])
    def test_non_binary_outcome_is_refused(self, bad):
        """Leaf values are outcome means, so an outcome outside {0, 1} would
        make a score outside [0, 1]."""
        columns, y = _data([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 0])
        y = np.asarray(y, dtype=np.float64)
        y[2] = bad
        with pytest.raises(DataValidationError, match="0 or 1"):
            fit_tree(columns, y)

    def test_empty_outcomes_are_refused(self):
        with pytest.raises(DataValidationError, match="no training records"):
            fit_tree([np.array([])], np.array([]))


class TestForest:
    def test_degenerate_forest_equals_single_tree(self, rng):
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] > 0.2).astype(int)
        columns, y, ids = _forest_data(x, y)
        tree_model = fit_tree(columns, y)
        forest = fit_forest(
            columns, y, ids, ForestConfig(trees=1, bootstrap=False, m_try=2), rng=123
        )
        probe = numeric_columns(rng.normal(size=(40, 2)))
        assert np.array_equal(
            forest.predict_proba(probe), tree_model.predict_proba(probe)
        )

    def test_fixed_seed_reproducible(self, rng):
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, size=100)
        data = _forest_data(x, y)
        first = fit_forest(*data, ForestConfig(trees=12), rng=99)
        second = fit_forest(*data, ForestConfig(trees=12), rng=99)
        probe = numeric_columns(rng.normal(size=(30, 3)))
        assert first.tree_seeds == second.tree_seeds
        assert np.array_equal(first.predict_proba(probe), second.predict_proba(probe))

    def test_training_order_invariance(self, rng):
        """Permuting the training rows does not change the fitted forest
        (rows are canonically pre-sorted by id before fitting)."""
        x = rng.normal(size=(80, 2))
        y = rng.integers(0, 2, size=80)
        columns, y, ids = _forest_data(x, y)
        perm = rng.permutation(80)
        shuffled = ([c[perm] for c in columns], y[perm], [ids[i] for i in perm])
        probe = numeric_columns(rng.normal(size=(25, 2)))
        a = fit_forest(columns, y, ids, ForestConfig(trees=8), rng=5)
        b = fit_forest(*shuffled, ForestConfig(trees=8), rng=5)
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_forest_size_matches_config(self, rng):
        x = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        forest = fit_forest(*_forest_data(x, y), ForestConfig(trees=17), rng=3)
        assert len(forest.trees) == 17

    def test_mean_of_tree_leaf_outputs(self):
        """A forest whose two trees emit 0.2 and 0.6 for a point predicts
        0.4 there (plain average)."""
        data = _forest_data([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1, 1])
        forest = fit_forest(*data, ForestConfig(trees=2), rng=11)
        probe = [np.array([2.5])]
        per_tree = [float(t.predict(np.array([[2.5]]))[0]) for t in forest.trees]
        assert float(forest.predict_proba(probe)[0]) == pytest.approx(
            float(np.mean(per_tree))
        )

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan, np.inf])
    def test_non_binary_outcome_is_refused(self, bad):
        """Resamples are counted by one bincount over (row, outcome) cells,
        which holds only for 0/1 outcomes."""
        columns, y, ids = _forest_data([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 0])
        y = y.astype(np.float64)
        y[2] = bad
        with pytest.raises(DataValidationError, match="0 or 1"):
            fit_forest(columns, y, ids, ForestConfig(trees=2), rng=1)

    def test_scores_in_unit_interval(self, rng):
        x = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, size=100)
        forest = fit_forest(*_forest_data(x, y), ForestConfig(trees=10), rng=0)
        s = forest.predict_proba(numeric_columns(rng.normal(size=(50, 2))))
        assert np.all((s >= 0) & (s <= 1))


class TestGrowTreeInternals:
    def test_tie_break_prefers_lowest_feature_index(self):
        # duplicated feature: both give identical gains; feature 0 must win
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = grow_tree(x, y)
        assert tree.feature[0] == 0

    def test_tie_break_prefers_smallest_split_point(self):
        # y = (0, 1, 0, 1): splits after x=0 and after x=2 both give zero
        # gain; a genuine tie among positive gains needs a crafted pattern
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        tree = grow_tree(x, y)
        # splits at 0.5 and 2.5 tie; the smaller split point wins
        assert tree.threshold[0] == pytest.approx(0.5)


    def test_threshold_does_not_overflow(self):
        """The midpoint of -1.7e308 and -1e308 overflows to -inf, which
        would route the positive row right of its own split."""
        x = np.array([[-1.7e308], [-1e308], [0.0], [1.0]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        tree = grow_tree(x, y)
        assert -1.7e308 <= tree.threshold[0] < -1e308
        internal = tree.left != np.arange(tree.node_count)
        assert np.all(np.isfinite(tree.threshold[internal]))
        assert tree.predict(x).tobytes() == y.tobytes()

    def test_threshold_below_adjacent_upper_value(self):
        """Between adjacent floats a and b the midpoint rounds onto b; the
        threshold must stay below b so the negative row b routes right."""
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        x = np.array([[a], [b]])
        y = np.array([1.0, 0.0])
        tree = grow_tree(x, y)
        assert a <= tree.threshold[0] < b
        assert tree.predict(x).tobytes() == y.tobytes()


_GROW_VALUES = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0)
_NON_FINITE = (np.nan, np.inf, -np.inf)


@st.composite
def _training_tables(draw, values):
    """An encoded table of a few distinct rows, each repeated, so rows
    tie on columns and duplicate with mixed outcomes."""
    width = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(values) | st.floats(-5, 5), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    n = draw(st.integers(1, 40))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    x = np.asarray([pool[i] for i in picks], dtype=np.float64).reshape(n, width)
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
    return x, y


def _row_key(row):
    """A row as the grower's distinct-row grouping sees it: NaN equals NaN
    and -0.0 equals 0.0."""
    return tuple("nan" if v != v else v + 0.0 for v in row)


@st.composite
def _switch_pools(draw, values):
    """Exactly ``SMALL_NODE - 1``, ``SMALL_NODE``, ``SMALL_NODE + 1`` or
    ``2 * SMALL_NODE`` distinct encoded rows, so that a root and its
    children fall on both sides of the grower's small-node switch."""
    width = draw(st.integers(1, 4))
    k = draw(st.sampled_from((SMALL_NODE - 1, SMALL_NODE, SMALL_NODE + 1, 2 * SMALL_NODE)))
    row = st.lists(st.sampled_from(values) | st.floats(-5, 5), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=k, max_size=k, unique_by=_row_key))
    return np.asarray(pool, dtype=np.float64).reshape(k, width)


@st.composite
def _switch_tables(draw, values):
    """A table holding every row of a switch pool once and a few of them
    again, with 0/1 outcomes."""
    pool = draw(_switch_pools(values))
    extra = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
    x = np.concatenate([pool, pool[extra]])
    y = draw(st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x)))
    return x, np.asarray(y, dtype=np.float64)


# The values of a path table's other columns: two values (in one column a
# zero of each sign and 2.5), one value and NaN, and three values.
_SIDE_COLUMNS = (
    (0.0, 1.0), (-0.0, 2.5, 0.0), (-np.inf, 0.5), (-1.0, np.inf),
    (1.5, np.nan), (-1.0, 0.0, 1.0),
)


@st.composite
def _path_tables(draw):
    """``(x, count, pos)`` on ``SMALL_NODE + 8`` to ``3 * SMALL_NODE``
    rows: a key column, and one to three columns of :data:`_SIDE_COLUMNS`,
    each value of which some row holds, in a drawn column order.  The key
    has ties and now and then a non-finite value, or has distinct values,
    infinities among them and now and then one NaN on a heavy row of one
    outcome, which would be the best row to cut off if a boundary preceded
    NaN.  A few other rows have a zero count."""
    k = draw(st.integers(SMALL_NODE + 8, 3 * SMALL_NODE))
    nan_row = None
    if draw(st.booleans()):
        key_value = st.integers(0, k // 3).map(float) | st.sampled_from(_NON_FINITE)
        key = draw(st.lists(key_value, min_size=k, max_size=k))
    else:
        key_value = st.floats(allow_nan=False)
        key = draw(st.lists(key_value, min_size=k, max_size=k, unique_by=lambda v: v + 0.0))
        if draw(st.booleans()):
            nan_row = draw(st.integers(0, k - 1))
            key[nan_row] = np.nan
    columns = [key]
    for values in draw(st.lists(st.sampled_from(_SIDE_COLUMNS), min_size=1, max_size=3)):
        picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=k, max_size=k))
        picks[: len(values)] = range(len(values))
        columns.append([values[i] for i in picks])
    columns = draw(st.permutations(columns))
    count = draw(st.lists(st.integers(1, 40), min_size=k, max_size=k))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=6)):
        count[i] = 0
    pos = [draw(st.integers(0, c)) for c in count]
    if nan_row is not None:
        count[nan_row] = 400
        pos[nan_row] = draw(st.sampled_from((0, 400)))
    return (
        np.asarray(columns, dtype=np.float64).T.copy(),
        np.asarray(count, dtype=np.float64),
        np.asarray(pos, dtype=np.float64),
    )


def _m_try_values(width):
    """m_try of 1, 2 and the full width."""
    return st.sampled_from(sorted({1, min(2, width), width}))


def _node_arrays(tree):
    return (
        tree.feature.tobytes(),
        tree.threshold.tobytes(),
        tree.left.tobytes(),
        tree.right.tobytes(),
        tree.value.tobytes(),
        tree.route_steps,
    )


def _count_searches(monkeypatch, table):
    """Count the grower's split searches by kind, for trees grown on
    ``table``."""
    calls = {}

    def note(kind):
        calls[kind] = calls.get(kind, 0) + 1

    small, scan, two_valued = (
        tree_module._best_small_split, tree_module._best_sorted_split, tree_module._two_valued_split
    )

    def counted_small(*args):
        note("small")
        return small(*args)

    def counted_scan(col, rows, w, m, p, tie_free=False):
        if not np.shares_memory(col, table.columns[table.key]):
            note("argsort")
        else:
            note("key, tie-free" if tie_free else "key, ties")
        return scan(col, rows, w, m, p, tie_free)

    def counted_two_valued(*args):
        found = two_valued(*args)
        note("two-valued" if found is not None else "two-valued, one side empty")
        return found

    monkeypatch.setattr(tree_module, "_best_small_split", counted_small)
    monkeypatch.setattr(tree_module, "_best_sorted_split", counted_scan)
    monkeypatch.setattr(tree_module, "_two_valued_split", counted_two_valued)
    return calls


class TestCountedGrower:
    """Trees grow on distinct rows weighted by their copy counts; they
    must equal, bit for bit, the trees grown on every copy."""

    @settings(max_examples=250, deadline=None)
    @given(table=_training_tables(_GROW_VALUES + _NON_FINITE), data=st.data())
    def test_matches_per_row_grower(self, table, data):
        x, y = table
        kwargs = {
            "min_node_size": data.draw(st.integers(1, 6)),
            "max_depth": data.draw(st.none() | st.integers(0, 4)),
            "m_try": data.draw(st.none() | st.integers(1, x.shape[1])),
        }
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = grow_tree(x, y, rng=np.random.default_rng(seed), **kwargs)
        want = grow_tree_per_row(x, y, rng=np.random.default_rng(seed), **kwargs)
        assert _node_arrays(got) == _node_arrays(want)

    @settings(max_examples=40, deadline=None)
    @given(table=_switch_tables(_GROW_VALUES + _NON_FINITE), data=st.data())
    def test_matches_per_row_grower_across_size_switch(self, table, data):
        """Tables around the small-node switch: the library, the per-row
        grower and the all-numpy counted grower give one tree."""
        x, y = table
        kwargs = {
            "min_node_size": data.draw(st.integers(1, 4)),
            "max_depth": data.draw(st.none() | st.integers(1, 6)),
            "m_try": data.draw(st.none() | _m_try_values(x.shape[1])),
        }
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = grow_tree(x, y, rng=np.random.default_rng(seed), **kwargs)
        want = grow_tree_per_row(x, y, rng=np.random.default_rng(seed), **kwargs)
        assert _node_arrays(got) == _node_arrays(want)
        representatives, inverse = distinct_rows(x.T, y.size)
        count, pos = row_counts(inverse, y, representatives.size)
        oracle = grow_counted_numpy(
            x[representatives], count, pos, rng=np.random.default_rng(seed), **kwargs
        )
        assert _node_arrays(got) == _node_arrays(oracle)

    @settings(max_examples=40, deadline=None)
    @given(patterns=_switch_pools(_GROW_VALUES + _NON_FINITE), data=st.data())
    def test_matches_numpy_grower_on_large_counts(self, patterns, data):
        """Copy counts in the hundreds, and zero counts, on tables around
        the switch; the per-row grower would be too slow here."""
        k, width = patterns.shape
        count = data.draw(st.lists(st.integers(0, 500), min_size=k, max_size=k))
        count[0] = max(count[0], 1)
        pos = [data.draw(st.integers(0, c)) for c in count]
        kwargs = {
            "min_node_size": data.draw(st.integers(1, 50)),
            "max_depth": data.draw(st.none() | st.integers(1, 8)),
            "m_try": data.draw(st.none() | _m_try_values(width)),
        }
        seed = data.draw(st.integers(0, 2**32 - 1))
        count, pos = np.asarray(count, dtype=np.float64), np.asarray(pos, dtype=np.float64)
        got = grow_counted(
            ColumnTable.of(patterns), count, pos, rng=np.random.default_rng(seed), **kwargs
        )
        want = grow_counted_numpy(patterns, count, pos, rng=np.random.default_rng(seed), **kwargs)
        assert _node_arrays(got) == _node_arrays(want)

    def test_switch_tables_reach_both_searches(self, monkeypatch):
        """A table of 2 * SMALL_NODE distinct rows searches its root with
        numpy and its small descendants on Python floats.  Its columns are
        the key (all distinct, so tie-free), one of two values and one of
        three, so the numpy nodes reach each search: the key scan that
        reads no values, the two-valued sums and the argsorted scan."""
        k = 2 * SMALL_NODE
        x = np.stack([np.arange(k), np.arange(k) % 2, np.arange(k) % 3], axis=1).astype(np.float64)
        y = (np.arange(k) % 5 == 0).astype(np.float64)
        table = ColumnTable.of(x)
        calls = _count_searches(monkeypatch, table)
        got = grow_counted(table, np.ones(k), y)
        assert table.key_tie_free
        assert set(calls) == {"small", "key, tie-free", "two-valued", "argsort"}, calls
        assert _node_arrays(got) == _node_arrays(grow_tree_per_row(x, y))

    @pytest.mark.parametrize("m_try", [None, 1])
    def test_settled_two_valued_column_is_not_searched(self, monkeypatch, m_try):
        """The root splits on a two-valued column, and its numpy children
        search a key with ties.  Below the split the column is constant,
        and no node searches it again: every two-valued search that runs
        finds rows on both sides."""
        k = 4 * SMALL_NODE
        i = np.arange(k)
        x = np.stack([i // 2, i % 2], axis=1).astype(np.float64)
        y = (i % 2).astype(np.float64)
        flips = [3, 17, 40, 70, 101, 120]
        y[flips] = 1.0 - y[flips]
        table = ColumnTable.of(x)
        calls = _count_searches(monkeypatch, table)
        got = grow_counted(table, np.ones(k), y, m_try=m_try, rng=np.random.default_rng(12))
        want = grow_counted_numpy(x, np.ones(k), y, m_try=m_try, rng=np.random.default_rng(12))
        assert _node_arrays(got) == _node_arrays(want)
        assert not table.key_tie_free
        assert got.feature[0] == 1 and calls["key, ties"] >= 3, calls
        assert "two-valued, one side empty" not in calls, calls

    def test_key_tie_free_needs_distinct_values_and_no_nan(self):
        def flag(key):
            return ColumnTable.of(np.array([key, [0.0, 1.0, 0.0]]).T).key_tie_free

        assert flag([1.0, -np.inf, 2.0])
        assert not flag([1.0, 1.0, 2.0])
        assert not flag([1.0, np.nan, 2.0])
        assert not flag([-0.0, 0.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(table=_path_tables(), data=st.data())
    def test_numpy_searches_match_numpy_grower(self, table, data):
        """Tables larger than SMALL_NODE, whose numpy nodes search a key
        column with ties and non-finite values, or a tie-free one without
        reading it, two-valued columns (``{-0.0, 0.0, v}`` and ``{-inf, v}``
        among them) by sums, skipping them below a split on them, and
        ``{v, NaN}`` and three-valued columns by argsort, with zero counts
        among the rows: the library equals the all-argsort grower."""
        x, count, pos = table
        kwargs = {
            "min_node_size": data.draw(st.integers(1, 20)),
            "max_depth": data.draw(st.none() | st.integers(1, 8)),
            "m_try": data.draw(st.sampled_from((None, 1, x.shape[1]))),
        }
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = grow_counted(
            ColumnTable.of(x), count, pos, rng=np.random.default_rng(seed), **kwargs
        )
        want = grow_counted_numpy(x, count, pos, rng=np.random.default_rng(seed), **kwargs)
        assert _node_arrays(got) == _node_arrays(want)

    @settings(max_examples=80, deadline=None)
    @given(table=_training_tables(_GROW_VALUES), data=st.data())
    def test_forest_matches_per_row_trees_on_resamples(self, table, data):
        """Each tree equals the per-row grower on the copies ``x[rows]``
        that its seed draws, the rng continuing into the feature subsets."""
        m_try = data.draw(st.integers(1, table[0].shape[1]))
        _assert_forest_matches_per_row_trees(table, m_try, data)

    @settings(max_examples=30, deadline=None)
    @given(table=_switch_tables(_GROW_VALUES), data=st.data())
    def test_forest_matches_per_row_trees_across_size_switch(self, table, data):
        """As above, on tables around the small-node switch."""
        m_try = data.draw(_m_try_values(table[0].shape[1]))
        _assert_forest_matches_per_row_trees(table, m_try, data)


def _assert_forest_matches_per_row_trees(table, m_try, data):
    x, y = table
    n = y.size
    config = ForestConfig(
        trees=data.draw(st.integers(1, 4)),
        m_try=m_try,
        min_node_size=data.draw(st.integers(1, 4)),
        max_depth=data.draw(st.none() | st.integers(0, 4)),
        bootstrap=data.draw(st.booleans()),
    )
    ids = [f"r{i:03d}" for i in range(n)]  # already in id order
    columns = numeric_columns(x)
    forest = fit_forest(columns, y, ids, config, rng=data.draw(st.integers(0, 99)))
    x = forest.encoder.transform(columns, n)
    for tree, seed in zip(forest.trees, forest.tree_seeds):
        tree_rng = np.random.default_rng(seed)
        rows = tree_rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        want = grow_tree_per_row(
            x[rows],
            y[rows],
            min_node_size=config.min_node_size,
            max_depth=config.max_depth,
            m_try=m_try,
            rng=tree_rng,
        )
        assert _node_arrays(tree) == _node_arrays(want)


class TestGoldenForest:
    """Fixed-seed 100-tree balanced forests on two preset populations of
    20,000 rows must keep these sha256 digests of their node arrays.  The
    experiment population has 8 distinct rows, so every node searches on
    Python floats; the paper population's continuous age sends the upper
    nodes through numpy."""

    @pytest.mark.parametrize("preset, digest", [
        ("experiment", "ce61aff68c62f27882ed4f5bf7af1f494af2f8d157eaf27d08072751d6445175"),
        ("paper", "0b3bbb208652095b39980bf0ad9f7324d0fa3f4be88d8e1c4f89f286845537a9"),
    ])
    def test_node_arrays_digest(self, preset, digest):
        forest, _ = self._forest(preset)
        assert _node_arrays_digest(forest.trees) == digest

    def test_paper_scores_digest(self):
        """The paper forest's scores on its own population, as routing every
        threshold cell through every tree gave them."""
        forest, population = self._forest("paper")
        scores = forest.predict_proba(population.features)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == (
            "39c52ba923b4070a128749c33a37ad2deda53bbb72177bccf4df79202189771e"
        )

    @staticmethod
    def _forest(preset):
        population = generate_population(
            POPULATION_PRESETS[preset](20_000), np.random.default_rng(2023)
        )
        rows = upsample_minority(population.outcomes, np.random.default_rng(7))
        forest = fit_forest(
            [col[rows] for col in population.features], population.outcomes[rows],
            population.ids[rows], ForestConfig(trees=100), rng=9,
        )
        return forest, population


def _node_arrays_digest(trees):
    h = hashlib.sha256()
    for tree in trees:
        *arrays, route_steps = _node_arrays(tree)
        for data in arrays:
            h.update(data)
        h.update(str(route_steps).encode())
    return h.hexdigest()


class TestGoldenTree:
    """An exhaustive CART tree on the paper population of 20,000 rows must
    keep this sha256 digest of its node arrays.  Every node searches all
    three encoded columns: continuous age, which orders the rows, and two
    columns of two values each, so the digest covers each numpy search and
    the lowest-column rule between equal gains."""

    def test_node_arrays_digest(self):
        population = generate_population(
            POPULATION_PRESETS["paper"](20_000), np.random.default_rng(2023)
        )
        model = fit_tree(population.features, population.outcomes)
        assert _node_arrays_digest([model.tree]) == (
            "4873b9581592c54a04d73637a104a1399540ee9746e1ec0f353eed9c1d844257"
        )


class TestForestIdOrder:
    """A forest fits its rows in the stable order of their ids under
    Python's ``<``, whatever sequence holds the ids."""

    @settings(max_examples=80, deadline=None)
    @given(table=_training_tables(_GROW_VALUES), data=st.data())
    def test_trees_equal_across_id_sequences_and_row_orders(self, table, data):
        x, y = table
        n = y.size
        unique = data.draw(st.booleans())
        ids = data.draw(
            st.lists(st.text("ab\x00\xe9", max_size=3), min_size=n, max_size=n, unique=unique)
        )
        columns = numeric_columns(x)
        config = ForestConfig(trees=3, m_try=data.draw(st.integers(1, x.shape[1])))
        seed = data.draw(st.integers(0, 99))

        def trees(rows, as_ids):
            forest = fit_forest(
                [col[rows] for col in columns], y[rows], as_ids([ids[i] for i in rows]),
                config, rng=seed,
            )
            return [_node_arrays(tree) for tree in forest.trees]

        # rows handed over already in ``sorted`` order are fitted as they come
        want = trees(sorted(range(n), key=ids.__getitem__), list)
        for as_ids in (list, tuple, lambda v: np.array(v, dtype=object)):
            assert trees(list(range(n)), as_ids) == want
        if unique:
            assert trees(data.draw(st.permutations(range(n))), list) == want

    @settings(max_examples=80, deadline=None)
    @given(table=_training_tables(_GROW_VALUES), data=st.data())
    def test_population_rows_in_any_order_fit_the_same_trees(self, table, data):
        """Rows of a population whose ids do not ascend, repeated as
        upsampling repeats them: shuffled rows fit the trees sorted rows
        fit, so ``fit_classifier``, which sorts them, fits the trees of the
        rows as drawn."""
        x, y = table
        n = y.size
        ids = data.draw(st.permutations([f"r{i:02d}" for i in range(n)]))
        population = make_population(y, features=numeric_columns(x), ids=ids)
        rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        seed = data.draw(st.integers(0, 99))
        stream = lambda stage: derive_stream(seed, stage)  # noqa: E731

        def trees(rows, rng=seed):
            forest = fit_forest(
                [col[rows] for col in population.features], population.outcomes[rows],
                population.ids[rows], ForestConfig(trees=3), rng=rng,
            )
            return [_node_arrays(tree) for tree in forest.trees]

        assert trees(rows) == trees(np.sort(rows))
        spec = ClassifierSpec(kind="forest", trees=3)
        assert trees(rows, stream("train")) == [
            _node_arrays(tree) for tree in fit_classifier(spec, population, rows, stream).trees
        ]
        if 0 < population.outcomes[rows].sum() < rows.size:
            upsampled = rows[upsample_minority(population.outcomes[rows], stream("upsample"))]
            spec = ClassifierSpec(kind="balanced_forest", trees=3)
            assert trees(upsampled, stream("train")) == [
                _node_arrays(tree) for tree in fit_classifier(spec, population, rows, stream).trees
            ]

    def test_one_long_id_does_not_widen_every_id(self):
        """A fixed-width array of 200 ids, one of 40,000 characters, would
        take 32 MB; the fit must sort them without it, in the same order as
        ids of a few characters that sort alike."""
        rng = np.random.default_rng(3)
        columns = [rng.integers(0, 3, 200).astype(float), rng.random(200)]
        y = rng.integers(0, 2, 200).astype(float)
        short = [f"r{i:03d}" for i in range(200)]
        long = short[:5] + [short[5] + "x" * 40_000] + short[6:]
        config = ForestConfig(trees=3)
        want = [_node_arrays(tree) for tree in fit_forest(columns, y, short, config).trees]
        tracemalloc.start()
        try:
            forest = fit_forest(columns, y, long, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert [_node_arrays(tree) for tree in forest.trees] == want


class TestTreeJson:
    def test_negative_infinite_threshold_round_trips(self, tmp_path):
        """A split between -inf and finite values has threshold -inf; it
        must reload as -inf, not +inf, and score the same."""
        x = np.array([[-np.inf], [-np.inf], [0.0], [1.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        tree = grow_tree(x, y)
        assert tree.threshold[0] == -np.inf
        model = TreeModel(FeatureEncoder.fit([np.zeros(1)]), tree, TreeConfig())
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = [np.array([-np.inf, -1e308, 0.0, 1.0, np.inf, np.nan])]
        expected = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert loaded.tree.threshold.tobytes() == tree.threshold.tobytes()
        assert loaded.predict_proba(probe).tobytes() == expected.tobytes()
        assert model.predict_proba(probe).tobytes() == expected.tobytes()


_TRAIN_VALUES = (-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.5)
_SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0)


def _walk_scores(model, columns, n_rows=None):
    """Reference scores: each encoded row walked through each tree on its
    own, tree outputs summed in tree order from 0.0 and then averaged."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x = model.encoder.transform(columns, n_rows)
    if isinstance(model, TreeModel):
        return np.array([route_one_row(model.tree, row) for row in x], dtype=np.float64)
    out = []
    for row in x:
        total = 0.0
        for tree in model.trees:
            total += route_one_row(tree, row)
        out.append(total / len(model.trees))
    return np.array(out, dtype=np.float64)


def _scores(model, columns, n_rows=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unseen categories are expected here
        return model.predict_proba(columns, n_rows)


@st.composite
def _fitted_models(draw):
    """A tree or forest fitted on a small numeric-plus-categorical table."""
    n = draw(st.integers(2, 30))
    numeric = draw(st.lists(st.sampled_from(_TRAIN_VALUES), min_size=n, max_size=n))
    floats = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    region = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    columns = [np.asarray(numeric), np.asarray(floats), np.asarray(region, dtype=object)]
    if draw(st.booleans()):
        depth = draw(st.none() | st.integers(0, 4))
        return fit_tree(columns, y, TreeConfig(max_depth=depth))
    config = ForestConfig(
        trees=draw(st.integers(1, 4)), m_try=draw(st.none() | st.integers(1, 5))
    )
    ids = [f"r{i}" for i in range(n)]
    return fit_forest(columns, y, ids, config, rng=draw(st.integers(0, 99)))


def _trees(model):
    return (model.tree,) if isinstance(model, TreeModel) else model.trees


def _probe_columns(data, model, rows):
    """Scoring columns whose numbers hit every threshold of the model
    exactly, along with training values, NaN, +-inf and -0.0, and whose
    categories include one unseen in training."""
    thresholds = tuple(float(t) for tree in _trees(model) for t in tree.threshold)
    pool = st.sampled_from(_TRAIN_VALUES + _SPECIAL_VALUES + thresholds)

    def column(values, dtype=np.float64):
        return np.asarray(data.draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)

    return [
        column(pool),
        column(pool | st.floats(allow_nan=True, allow_infinity=True)),
        column(st.sampled_from(["a", "b", "c", "zz"]), dtype=object),
    ]


# 121 distinct split values for the lookup-path forests.
_LOOKUP_POOL = tuple(np.round(np.linspace(-3.0, 3.0, 121), 6).tolist())


def _tree_doc(draw, features, thresholds, depth, grow):
    """Node arrays of a tree grown from the root down, in preorder: a node
    above ``depth`` splits when ``grow(level)`` says so, on a column drawn
    from ``features`` at the value ``thresholds()`` gives; routing runs to
    the deepest leaf.  Every node's value is drawn, split or leaf."""
    doc = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
    deepest = [-1]

    def node(level):
        i = len(doc["feature"])
        for key, v in zip(doc, (0, "inf", i, i, draw(st.floats(0, 1)))):
            doc[key].append(v)
        if level < depth and grow(level):
            deepest[0] = max(deepest[0], level)
            doc["feature"][i] = draw(st.sampled_from(features))
            doc["threshold"][i] = thresholds()
            doc["left"][i] = node(level + 1)
            doc["right"][i] = node(level + 1)
        return i

    node(0)
    doc["route_steps"] = deepest[0] + 1
    return doc


@st.composite
def _lookup_forest(draw):
    """A parsed forest over (x0, x1, region) whose trees split on one or
    two encoded columns, and scoring columns for it.

    A full depth-5 tree on x0 with 31 distinct thresholds gives at least 31
    cells, since each of its thresholds is a row, and its table would be as
    large as that, so it routes; a chain of three splits has a table of at
    most 6 values and looks up.  Zero to two trees of any shape up to depth
    3 to 5, a single leaf among them, join the two in drawn order, and all
    but the chain may have their routing cut short."""
    features = draw(st.sampled_from([(0,), (0, 1), (0, 2)]))
    pool = st.sampled_from(_LOOKUP_POOL)
    wide_cuts = draw(st.lists(pool, min_size=31, max_size=31, unique=True))
    wide = _tree_doc(draw, (0,), iter(wide_cuts).__next__, 5, lambda level: True)
    # Grown in preorder, the chain's left children are leaves.
    splits = iter((True, False, True, False, True))
    chain = _tree_doc(draw, features, lambda: draw(pool), 3, lambda level: next(splits))
    others = [
        _tree_doc(draw, features, lambda: draw(pool), draw(st.integers(3, 5)),
                  lambda level: draw(st.booleans()))
        for _ in range(draw(st.integers(0, 2)))
    ]
    for doc in [wide, *others]:
        doc["route_steps"] = draw(st.integers(0, doc["route_steps"]))
    docs = draw(st.permutations([wide, chain, *others]))
    payload = {
        "schema_version": "1", "model": "forest",
        "encoder": {"features": [{"kind": "numeric", "categories": None},
                                 {"kind": "numeric", "categories": None},
                                 {"kind": "categorical", "categories": ["a", "b"]}]},
        "trees": docs, "tree_seeds": list(range(len(docs))),
        "config": {"trees": len(docs), "m_try": None, "min_node_size": 1,
                   "max_depth": None, "bootstrap": True},
    }
    forest = model_from_json_dict(payload)
    values = st.sampled_from(_LOOKUP_POOL + _SPECIAL_VALUES)
    extra = draw(st.integers(0, 60))
    x0 = wide_cuts + draw(st.lists(values, min_size=extra, max_size=extra))
    rows = len(x0)
    columns = [
        np.asarray(x0, dtype=np.float64),
        np.asarray(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=np.float64),
        np.asarray(draw(st.lists(st.sampled_from("abz"), min_size=rows, max_size=rows)),
                   dtype=object),
    ]
    return forest, docs.index(wide), docs.index(chain), columns


class TestThresholdCellScoring:
    """Trees and forests score one representative row per threshold cell;
    every row must still get exactly what a node-by-node walk gives."""

    @settings(max_examples=120, deadline=None)
    @given(model=_fitted_models(), data=st.data())
    def test_fitted_models_match_row_walk(self, model, data):
        columns = _probe_columns(data, model, data.draw(st.integers(0, 40)))
        got = _scores(model, columns)
        assert got.tobytes() == _walk_scores(model, columns).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(model=_fitted_models(), data=st.data())
    def test_json_round_trip_with_short_route_steps(self, model, data):
        """Routing that stops above the leaves returns internal-node values;
        the deeper thresholds still split cells, which must not matter."""
        payload = model_to_json_dict(model)
        docs = [payload["tree"]] if "tree" in payload else payload["trees"]
        for doc in docs:
            doc["route_steps"] = data.draw(st.integers(0, doc["route_steps"]))
        loaded = model_from_json_dict(payload)
        columns = _probe_columns(data, loaded, data.draw(st.integers(1, 40)))
        got = _scores(loaded, columns)
        assert got.tobytes() == _walk_scores(loaded, columns).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_parsed_tree_documents_match_row_walk(self, data):
        """Any node arrays the model parser accepts: nodes that route to
        themselves on one side only, cycles, unreachable nodes, infinite
        thresholds and routing that stops early."""
        width = 3  # x, then the one-hot columns of region ("a", "b")
        payload = {
            "schema_version": "1", "model": "forest",
            "encoder": {"features": [{"kind": "numeric", "categories": None},
                                     {"kind": "categorical", "categories": ["a", "b"]}]},
            "trees": [], "tree_seeds": [],
            "config": {"trees": 1, "m_try": None, "min_node_size": 1, "max_depth": None,
                       "bootstrap": True},
        }
        thresholds = st.sampled_from(_TRAIN_VALUES + (np.inf, -np.inf, 0.75))
        for k in range(data.draw(st.integers(1, 3))):
            m = data.draw(st.integers(1, 8))
            nodes = st.integers(0, m - 1)
            doc = {
                "feature": data.draw(st.lists(st.integers(0, width - 1), min_size=m, max_size=m)),
                "threshold": data.draw(st.lists(thresholds, min_size=m, max_size=m)),
                "left": data.draw(st.lists(nodes, min_size=m, max_size=m)),
                "right": data.draw(st.lists(nodes, min_size=m, max_size=m)),
                "value": data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)),
            }
            internal = sum(
                (l, r) != (i, i) for i, (l, r) in enumerate(zip(doc["left"], doc["right"]))
            )
            doc["route_steps"] = data.draw(st.integers(0, internal))
            payload["trees"].append(doc)
            payload["tree_seeds"].append(k)
        forest = model_from_json_dict(payload)
        rows = data.draw(st.integers(1, 30))
        pool = st.sampled_from(_TRAIN_VALUES + _SPECIAL_VALUES + (0.75,))
        columns = [
            np.asarray(data.draw(st.lists(pool, min_size=rows, max_size=rows))),
            np.asarray(data.draw(st.lists(st.sampled_from("abz"), min_size=rows,
                                          max_size=rows)), dtype=object),
        ]
        tree = TreeModel(forest.encoder, forest.trees[0], TreeConfig())
        for model in (forest, tree):
            got = _scores(model, columns)
            assert got.tobytes() == _walk_scores(model, columns).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        y=st.lists(st.integers(0, 1), min_size=1, max_size=12),
        rows=st.integers(0, 20),
        forest=st.booleans(),
    )
    def test_zero_feature_models(self, y, rows, forest):
        y = np.asarray(y)
        if forest:
            ids = [f"r{i}" for i in range(y.size)]
            model = fit_forest([], y, ids, ForestConfig(trees=3), rng=1)
        else:
            model = fit_tree([], y)
        assert all(tree.node_count == 1 for tree in _trees(model))
        got = model.predict_proba([], n_rows=rows)
        assert got.shape == (rows,)
        assert got.tobytes() == _walk_scores(model, [], rows).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        label=st.integers(0, 1),
        x=st.lists(st.sampled_from(_TRAIN_VALUES + _SPECIAL_VALUES), min_size=0, max_size=20),
    )
    def test_single_leaf_tree_scores_its_leaf_everywhere(self, label, x):
        model = fit_tree([np.array([0.0, 1.0, 2.0])], np.full(3, label))
        assert model.tree.node_count == 1
        got = model.predict_proba([np.asarray(x, dtype=np.float64)])
        assert got.tobytes() == np.full(len(x), float(label)).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(drawn=_lookup_forest())
    def test_lookup_tables_match_routing_and_row_walk(self, drawn):
        """Trees whose tables are small read them, the others route; either
        way each tree's ``predict`` runs once, and the scores are those of
        routing every cell and of walking every row, byte for byte."""
        forest, wide, chain, columns = drawn
        calls = []
        predict = FlatTree.predict

        def spy(tree, x):
            calls.append((tree, x.shape[0]))
            return predict(tree, x)

        with mock.patch.object(FlatTree, "predict", spy):
            got = _scores(forest, columns)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = forest.encoder.transform(columns)
        cells = threshold_cells_routed(forest.trees, x)[0].size
        assert len(calls) == len(forest.trees)
        assert all(tree is want for (tree, _), want in zip(calls, forest.trees))
        assert all(rows <= cells for _, rows in calls)
        assert calls[wide][1] == cells  # its table would outsize the cells
        assert calls[chain][1] < cells
        assert got.tobytes() == score_trees_routed(forest.trees, x).tobytes()
        assert got.tobytes() == _walk_scores(forest, columns).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_key_wider_than_int64_is_densified(self, data):
        """Seventy columns with one threshold each give 2**70 possible cells,
        more than an int64 key holds.  Rows share their last 62 columns and
        differ in the first 8, whose codes a wrapped key would lose."""
        width, varied = 70, 8
        values = st.sampled_from((0.0, 0.5, 1.0, np.nan))
        rows = data.draw(st.integers(1, 30))
        base = data.draw(st.lists(values, min_size=width, max_size=width))
        x = np.tile(np.asarray(base), (rows, 1))
        x[:, :varied] = data.draw(
            st.lists(st.lists(values, min_size=varied, max_size=varied),
                     min_size=rows, max_size=rows)
        )
        columns = [x[:, j] for j in range(width)]
        encoder = FeatureEncoder.fit([np.zeros(1)] * width)
        trees = (_chain_tree(range(width)), _chain_tree(reversed(range(width))))
        forest = ForestModel(encoder, trees, (0, 1), ForestConfig(trees=2))
        tree = TreeModel(encoder, trees[0], TreeConfig())
        for model in (forest, tree):
            got = model.predict_proba(columns)
            assert got.tobytes() == _walk_scores(model, columns).tobytes()


def _chain_tree(features) -> FlatTree:
    """Internal node k splits column features[k] at 0.5; its left child is a
    leaf and its right child the next internal node, down to a last leaf."""
    features = list(features)
    h = len(features)
    # internal nodes 0..h-1, left leaves h..2h-1, final right leaf 2h
    left = list(range(h, 2 * h)) + list(range(h, 2 * h + 1))
    right = list(range(1, h + 1)) + list(range(h, 2 * h + 1))
    right[h - 1] = 2 * h
    return FlatTree(
        feature=np.asarray(features + [0] * (h + 1), dtype=np.int32),
        threshold=np.asarray([0.5] * h + [np.inf] * (h + 1)),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.linspace(0.0, 1.0, 2 * h + 1),
        route_steps=h,
    )


_LEVEL_VALUES = st.sampled_from((np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, -1.0, 2.0)) | st.floats()


class TestLevelCodes:
    """``level_codes`` is ``np.searchsorted(levels, col, "left")``: by one
    comparison per level up to :data:`FEW_LEVELS` levels, by the search
    above."""

    @staticmethod
    def _check(levels, col, strided):
        levels = np.sort(np.asarray(levels, dtype=np.float64))  # NaN last
        col = np.asarray(col, dtype=np.float64)
        if strided:
            col = np.column_stack([col, -col])[:, 0]
        got = level_codes(levels, col)
        want = np.searchsorted(levels, col, side="left")
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(_LEVEL_VALUES, max_size=6), col=st.lists(_LEVEL_VALUES, max_size=30),
           strided=st.booleans())
    def test_few_levels_equal_searchsorted(self, levels, col, strided):
        """Repeated levels, NaN, +-0.0 and +-inf among levels and values."""
        self._check(levels, col, strided)

    @settings(max_examples=50, deadline=None)
    @given(levels=st.lists(_LEVEL_VALUES, min_size=FEW_LEVELS - 1, max_size=FEW_LEVELS + 2),
           col=st.lists(_LEVEL_VALUES, max_size=30), strided=st.booleans())
    def test_levels_around_the_crossover_equal_searchsorted(self, levels, col, strided):
        self._check(levels, col, strided)


class TestDistinctRows:
    """``distinct_rows`` groups rows as coding every column by
    ``np.unique(col, return_inverse=True)`` does."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_unique_inverse_grouping(self, data):
        n = data.draw(st.integers(0, 60))
        few = st.sampled_from((np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 2.5))
        kinds = {
            "few": lambda: np.asarray(data.draw(st.lists(few, min_size=n, max_size=n))),
            "many": lambda: np.asarray(
                data.draw(st.lists(few | st.floats(), min_size=n, max_size=n)), dtype=np.float64
            ),
            "object": lambda: np.asarray(
                data.draw(st.lists(st.sampled_from(["", "a", "b", "zz"]), min_size=n, max_size=n)),
                dtype=object,
            ),
        }
        columns = [kinds[k]() for k in data.draw(st.lists(st.sampled_from(list(kinds)), max_size=4))]
        numeric = [col for col in columns if col.dtype.kind == "f"]
        tables = [columns]
        if numeric:  # the encoded-matrix form: strided rows of ``x.T``
            tables.append(np.column_stack(numeric).T)
        for table in tables:
            got = distinct_rows(table, n)
            want = distinct_rows_by_unique(table, n)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_few_values_first_and_many_later(self, data):
        """Float columns whose leading entries hold at most, or more than,
        :data:`FEW_LEVELS` values, with more values after them: coded as
        ``np.unique``'s inverse, contiguous and strided."""
        head = data.draw(st.integers(0, tree_module.PROBE + 3))
        levels = data.draw(st.sampled_from([3, FEW_LEVELS, FEW_LEVELS + 1]))
        pool = np.array([-0.0, 0.0, np.nan, np.inf, *range(1, levels - 2)], dtype=np.float64)
        tail = data.draw(st.integers(0, 40))
        col = np.concatenate([
            pool[np.arange(head) % pool.size],
            np.asarray(data.draw(st.lists(st.floats() | st.sampled_from(pool.tolist()),
                                          min_size=tail, max_size=tail)), dtype=np.float64),
        ])
        n = col.size
        for table in ([col], np.column_stack([col, col[::-1]]).T):
            got = distinct_rows(table, n)
            want = distinct_rows_by_unique(table, n)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]


class TestScoreTreesOnParsedCuts:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_json_trees_with_infinite_thresholds_match_per_row_predict(self, data):
        """Trees loaded from JSON that split each column at a few, or more
        than :data:`FEW_LEVELS`, distinct cuts, +-inf among them: every
        row scores as ``FlatTree.predict`` routes it on its own, summed in
        tree order."""
        pool = list(_LOOKUP_POOL[::4]) + ["inf", "-inf"]
        k = data.draw(st.integers(1, FEW_LEVELS + 4))
        cuts = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
        threshold = lambda: data.draw(st.sampled_from(cuts))  # noqa: E731
        # 63 splits on column 0 that take every cut in turn
        docs = [_tree_doc(data.draw, (0,), itertools.cycle(cuts).__next__, 6, lambda level: True)]
        for _ in range(data.draw(st.integers(0, 3))):
            docs.append(_tree_doc(data.draw, (0, 1), threshold, data.draw(st.integers(1, 5)),
                                  lambda level: data.draw(st.booleans())))
        trees = [FlatTree.from_json_dict(json.loads(json.dumps(doc)), 2) for doc in docs]
        values = st.sampled_from([float(c) for c in cuts] + list(_SPECIAL_VALUES)) | st.floats()
        rows = data.draw(st.lists(st.tuples(values, values), min_size=1, max_size=40))
        x = np.asarray(rows, dtype=np.float64)
        want = []
        for row in x:
            total = 0.0
            for tree in trees:
                total += tree.predict(row[None, :])[0]
            want.append(total / len(trees))
        assert score_trees(trees, x).tobytes() == np.asarray(want).tobytes()
