import math

import numpy as np
import pytest

from helpers import grid_search_loglik, logistic_loglik, numeric_columns
from svymetrics.classifiers import fit_logistic
from svymetrics.errors import DataValidationError, SeparationError


def _data(x_rows, y):
    return numeric_columns(x_rows), np.asarray(y)


class TestClosedForms:
    def test_intercept_only_balanced_outcome(self):
        # logit(0.5) = 0
        model = fit_logistic(*_data([[]] * 4, [1, 0, 1, 0]))
        assert model.intercept == pytest.approx(0.0, abs=1e-10)

    def test_intercept_only_three_quarters(self):
        # logit(0.75) = ln 3
        model = fit_logistic(*_data([[]] * 8, [1, 1, 1, 0] * 2))
        assert model.intercept == pytest.approx(math.log(3.0), abs=1e-8)

    def test_zero_coefficients_score_half(self):
        from dataclasses import replace

        fitted = fit_logistic(*_data([[1.0], [2.0], [3.0], [4.0]], [1, 0, 0, 1]))
        null = replace(fitted, coefficients=np.zeros_like(fitted.coefficients))
        scores = null.predict_proba([np.array([10.0, -3000.0])])
        assert scores == pytest.approx([0.5, 0.5])


class TestConvergenceBehaviour:
    def test_deviance_path_is_non_increasing(self, rng):
        x = rng.normal(size=(400, 3))
        eta = 0.5 * x[:, 0] - 1.2 * x[:, 1] + 0.3
        y = (rng.random(400) < 1 / (1 + np.exp(-eta))).astype(int)
        model = fit_logistic(*_data(x, y))
        path = model.deviance_path
        assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))
        assert model.final_deviance_change < 1e-8

    def test_separation_detected(self):
        # perfectly separable in one feature
        x = [[float(v)] for v in range(-5, 5)]
        y = [0] * 5 + [1] * 5
        with pytest.raises(SeparationError):
            fit_logistic(*_data(x, y))

    def test_single_class_rejected(self):
        with pytest.raises(DataValidationError):
            fit_logistic(*_data([[1.0], [2.0]], [1, 1]))

    def test_exhausted_iteration_budget_raises(self, rng):
        from svymetrics.classifiers import LogisticConfig
        from svymetrics.errors import NonConvergenceError

        x = rng.normal(size=(500, 4))
        eta = x @ np.array([1.0, -2.0, 0.5, 1.5]) - 0.3
        y = (rng.random(500) < 1 / (1 + np.exp(-eta))).astype(int)
        with pytest.raises(NonConvergenceError):
            fit_logistic(*_data(x, y), LogisticConfig(max_iterations=1))

    def test_scores_lie_in_unit_interval(self, rng):
        x = rng.normal(size=(200, 2))
        y = rng.integers(0, 2, size=200)
        columns, y = _data(x, y)
        scores = fit_logistic(columns, y).predict_proba(columns)
        assert np.all((scores >= 0) & (scores <= 1))


class TestRecovery:
    def test_generator_coefficients_recovered_within_three_ses(self):
        """Data generated from the default synthetic model's coefficients
        (0.04, -1.03, 0.43) with intercept -1.25 at n = 50,000: the fit must
        land within 3 reported standard errors of the truth, coordinatewise."""
        rng = np.random.default_rng(20240801)
        n = 50_000
        age = rng.uniform(19, 100, n)
        sex = rng.integers(0, 2, n).astype(float)
        smoker = (rng.random(n) < 0.12).astype(float)
        eta = 0.04 * age - 1.03 * sex + 0.43 * smoker - 1.25
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        model = fit_logistic(*_data(np.column_stack([age, sex, smoker]), y))
        truth = np.array([0.04, -1.03, 0.43, -1.25])
        for est, se, true in zip(model.coefficients, model.coefficient_standard_errors, truth):
            assert abs(est - true) <= 3 * se

    def test_reduced_model_beats_coarse_grid_search_oracle(self):
        """On a 2-parameter model the IRLS fit must achieve at least the
        log-likelihood of an exhaustive coarse grid search, and the grid's
        argmax must lie within one grid step of the fit."""
        rng = np.random.default_rng(7)
        n = 4000
        x = rng.uniform(-2, 2, n)
        eta = -0.5 + 1.2 * x
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        model = fit_logistic(*_data(x[:, None], y))
        b1_hat, b0_hat = model.coefficients[0], model.coefficients[1]
        fit_ll = logistic_loglik(x, y, b0_hat, b1_hat)
        b0_grid = np.arange(-1.5, 0.55, 0.1)
        b1_grid = np.arange(0.2, 2.25, 0.1)
        best_ll, b0_star, b1_star = grid_search_loglik(x, y, b0_grid, b1_grid)
        assert fit_ll >= best_ll - 1e-9
        assert abs(b0_star - b0_hat) <= 0.1 + 1e-9
        assert abs(b1_star - b1_hat) <= 0.1 + 1e-9
