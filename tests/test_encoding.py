import numpy as np
import pytest

from svymetrics.classifiers import (
    FeatureEncoder, ForestConfig, fit_forest, fit_logistic, fit_tree, upsample_minority,
)
from svymetrics.errors import DataValidationError


def _mixed_data(n=40, seed=0):
    """Columns (age, region) and outcomes; region drives the outcome."""
    rng = np.random.default_rng(seed)
    regions, ages, y = [], [], []
    for _ in range(n):
        region = ["north", "south", "east"][int(rng.integers(3))]
        ages.append(float(rng.uniform(20, 80)))
        y.append(int(rng.random() < (0.7 if region == "north" else 0.3)))
        regions.append(region)
    return [np.array(ages), np.array(regions, dtype=object)], np.array(y)


class TestFeatureEncoder:
    def test_one_hot_layout(self):
        columns = [np.array([1.0, 2.0, 3.0]), np.array(["b", "a", "b"], dtype=object)]
        encoder = FeatureEncoder.fit(columns)
        assert encoder.specs == (("numeric", None), ("categorical", ("a", "b")))
        x = encoder.transform(columns)
        assert x.shape == (3, 3)
        assert np.array_equal(x[:, 1], [0.0, 1.0, 0.0])  # category "a"
        assert np.array_equal(x[:, 2], [1.0, 0.0, 1.0])  # category "b"

    def test_unseen_category_maps_to_zeros_with_warning(self):
        encoder = FeatureEncoder.fit([np.array(["a", "b"], dtype=object)])
        probe = [np.array(["mystery"], dtype=object)]
        with pytest.warns(UserWarning, match="unseen"):
            x = encoder.transform(probe)
        assert np.array_equal(x, [[0.0, 0.0]])

    def test_mixed_kind_feature_rejected(self):
        with pytest.raises(DataValidationError, match="mixes"):
            FeatureEncoder.fit([np.array([1.0, "oops"], dtype=object)])

    def test_json_round_trip(self):
        encoder = FeatureEncoder.fit(_mixed_data()[0])
        assert FeatureEncoder.from_json_dict(encoder.to_json_dict()) == encoder


class TestModelsOnCategoricalData:
    def test_logistic_uses_category_indicators(self):
        model = fit_logistic(*_mixed_data(n=400))
        north = [np.array([40.0]), np.array(["north"], dtype=object)]
        south = [np.array([40.0]), np.array(["south"], dtype=object)]
        assert model.predict_proba(north)[0] > model.predict_proba(south)[0]

    def test_tree_splits_on_indicators(self):
        columns, y = _mixed_data(n=300)
        model = fit_tree(columns, y)
        scores = model.predict_proba(columns)
        assert np.all((scores >= 0) & (scores <= 1))
        # the region signal dominates: training accuracy beats prevalence
        accuracy = float(np.mean((scores >= 0.5) == (y == 1)))
        assert accuracy >= max(y.mean(), 1 - y.mean())


_OUTCOME_READERS = {
    "logistic": lambda columns, y: fit_logistic(columns, y),
    "tree": lambda columns, y: fit_tree(columns, y),
    "forest": lambda columns, y: fit_forest(
        columns, y, [f"r{i}" for i in range(y.size)], ForestConfig(trees=2), rng=0
    ),
    "upsample": lambda columns, y: upsample_minority(y, np.random.default_rng(0)),
}


class TestBinaryOutcomes:
    """Every fitter, and the upsampling of a balanced forest's training
    rows, refuses the same outcomes with the same one-line message."""

    @pytest.mark.parametrize("reader", _OUTCOME_READERS)
    @pytest.mark.parametrize(
        "y, message",
        [
            ([0, 0.5, 1, 0], "outcomes must be 0 or 1"),
            ([0, 2, 1, 0], "outcomes must be 0 or 1"),
            ([0, float("nan"), 1, 0], "outcomes must be 0 or 1"),
            ([], "no training records"),
        ],
    )
    def test_refused_before_any_fit(self, capfd, reader, y, message):
        """A NaN outcome never reaches the logistic solver, so no LAPACK
        error and no ``LinAlgError`` appear."""
        y = np.asarray(y, dtype=np.float64)
        with pytest.raises(DataValidationError, match=f"^{message}$"):
            _OUTCOME_READERS[reader]([np.arange(y.size, dtype=np.float64)], y)
        assert capfd.readouterr().err == ""

    def test_a_single_record_has_one_class(self):
        with pytest.raises(DataValidationError, match="^training data must contain both classes$"):
            fit_logistic([np.array([1.0])], np.array([1]))
