import numpy as np
import pytest

from helpers import gini_impurity, numeric_columns
from svymetrics.classifiers import ForestConfig, TreeConfig, fit_forest, fit_tree
from svymetrics.classifiers.tree import grow_tree


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
