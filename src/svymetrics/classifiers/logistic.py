"""Logistic regression fit by iteratively reweighted least squares.

Training is unweighted maximum likelihood: survey weights enter this
library only at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import DataValidationError, NonConvergenceError, SeparationError
from .encoding import FeatureEncoder, binary_outcomes

MAX_ABS_COEF = 30.0  # separation declared beyond this on the encoded scale
MAX_HALVINGS = 10  # step halvings tried before an IRLS step counts as converged
_MU_EPS = 1e-12


@dataclass(frozen=True)
class LogisticConfig:
    max_iterations: int = 100
    tolerance: float = 1e-8  # on deviance change

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DataValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance >= 0:  # NaN too
            raise DataValidationError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class LogisticModel:
    """Fitted coefficients plus a convergence record.

    ``coefficients`` covers the encoded features with the intercept as the
    final entry.  ``deviance_path`` records the deviance after each
    accepted IRLS step (non-increasing by construction).
    """

    encoder: FeatureEncoder
    coefficients: np.ndarray
    iterations: int
    final_deviance_change: float
    deviance_path: tuple[float, ...]
    coefficient_standard_errors: np.ndarray = field(repr=False, default=None)

    @property
    def intercept(self) -> float:
        return float(self.coefficients[-1])

    def predict_proba(
        self, columns: Sequence[np.ndarray], n_rows: int | None = None
    ) -> np.ndarray:
        """Positive-class probabilities of the rows of raw feature columns."""
        x = self.encoder.transform(columns, n_rows)
        return _sigmoid(x @ self.coefficients[:-1] + self.coefficients[-1])

    # The simulation harness scores through this name; perfbench traces both names.
    predict_proba_columns = predict_proba


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) without overflow: with ``e = exp(-|eta|)``,
    ``1 / (1 + e)`` where ``eta >= 0`` and ``e / (1 + e)`` elsewhere."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _deviance(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
    ll = y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)
    return float(-2.0 * ll.sum())


def fit_logistic(
    columns: Sequence[np.ndarray],
    y: np.ndarray,
    config: LogisticConfig = LogisticConfig(),
) -> LogisticModel:
    """Fit on raw feature columns and 0/1 outcomes ``y`` by IRLS with step
    halving; converge on |deviance change| < tol.

    Raises SeparationError when any coefficient diverges past
    ``MAX_ABS_COEF`` (complete or quasi-complete separation) and
    NonConvergenceError when the iteration budget runs out.
    """
    y = binary_outcomes(y)
    if y.min() == y.max():
        raise DataValidationError("training data must contain both classes")
    encoder = FeatureEncoder.fit(columns)
    x = encoder.transform(columns, y.size)
    design = np.hstack([x, np.ones((x.shape[0], 1))])

    beta = np.zeros(design.shape[1])
    deviance = _deviance(y, _sigmoid(design @ beta))
    path = [deviance]
    iterations = 0
    change = np.inf
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        eta = design @ beta
        mu = np.clip(_sigmoid(eta), _MU_EPS, 1.0 - _MU_EPS)
        irls_w = mu * (1.0 - mu)
        z = eta + (y - mu) / np.clip(mu * (1.0 - mu), 1e-10, None)
        root_w = np.sqrt(irls_w)
        proposal, *_ = np.linalg.lstsq(design * root_w[:, None], z * root_w, rcond=None)

        candidate = proposal
        new_dev = _deviance(y, _sigmoid(design @ candidate))
        halvings = 0
        while new_dev > deviance and halvings < MAX_HALVINGS:
            candidate = (candidate + beta) / 2.0
            new_dev = _deviance(y, _sigmoid(design @ candidate))
            halvings += 1
        if new_dev > deviance:
            # step halving exhausted: no descent direction left, treat as converged
            change = 0.0
            converged = True
            break
        beta = candidate
        change = deviance - new_dev
        deviance = new_dev
        path.append(deviance)
        if np.max(np.abs(beta)) > MAX_ABS_COEF:
            raise SeparationError(
                "separation detected: coefficient magnitude exceeded "
                f"{MAX_ABS_COEF} on the encoded scale"
            )
        if abs(change) < config.tolerance:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"logistic fit did not converge in {config.max_iterations} iterations "
            f"(last deviance change {change:.3g})"
        )

    mu = np.clip(_sigmoid(design @ beta), _MU_EPS, 1.0 - _MU_EPS)
    irls_w = mu * (1.0 - mu)
    info = design.T @ (design * irls_w[:, None])
    covariance = np.linalg.pinv(info)
    ses = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return LogisticModel(
        encoder=encoder,
        coefficients=beta,
        iterations=iterations,
        final_deviance_change=float(change),
        deviance_path=tuple(path),
        coefficient_standard_errors=ses,
    )
