"""Independent oracles and small builders shared across test modules.

Everything here is deliberately brute-force (enumeration, double loops,
midpoint quadrature) so it stays independent of the library code paths it
checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from svymetrics.types import EvaluationSet, FinitePopulation, Record


def make_record(rid, y, score_features=(), stratum="s1"):
    return Record(
        record_id=str(rid), features=tuple(score_features), outcome=y, stratum=stratum
    )


def make_evaluation(y, scores, weights, ids=None):
    y = list(y)
    ids = tuple(str(i) for i in (ids if ids is not None else range(len(y))))
    return EvaluationSet(
        ids=ids,
        weights=np.asarray(weights, dtype=np.float64),
        outcomes=np.asarray(y),
        scores=np.asarray(scores, dtype=np.float64),
    )


def weighted_pairwise_auc(y, scores, weights):
    """Exhaustive weighted concordance:

        sum over (pos, neg) pairs of w_p * w_n * (1[s_p > s_n] + 0.5 * 1[s_p == s_n])
        divided by sum over pairs of w_p * w_n.
    """
    pos = [(s, w) for yi, s, w in zip(y, scores, weights) if yi == 1]
    neg = [(s, w) for yi, s, w in zip(y, scores, weights) if yi == 0]
    num = 0.0
    for sp, wp in pos:
        for sn, wn in neg:
            if sp > sn:
                num += wp * wn
            elif sp == sn:
                num += 0.5 * wp * wn
    den = sum(w for _, w in pos) * sum(w for _, w in neg)
    return num / den


def confusion_counts(y, predicted):
    """Direct per-record count of the four confusion cells."""
    tp = sum(1 for yi, pi in zip(y, predicted) if pi and yi == 1)
    fn = sum(1 for yi, pi in zip(y, predicted) if not pi and yi == 1)
    fp = sum(1 for yi, pi in zip(y, predicted) if pi and yi == 0)
    tn = sum(1 for yi, pi in zip(y, predicted) if not pi and yi == 0)
    return tp, tn, fp, fn


def brute_force_tally(y, scores, weights, threshold):
    """Per-threshold reference for the confusion engine: classify each
    record by s >= threshold, count the four cells and sum each cell's
    weights with ``math.fsum``."""
    predicted = [bool(s >= threshold) for s in scores]
    tp, tn, fp, fn = confusion_counts(y, predicted)
    cells = {"tp": (True, 1), "tn": (False, 0), "fp": (True, 0), "fn": (False, 1)}
    totals = {
        f"nhat_{cell}": math.fsum(
            w for yi, pi, w in zip(y, predicted, weights) if (pi, int(yi)) == key
        )
        for cell, key in cells.items()
    }
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn, **totals}


def enumerate_stratified_samples(ids_by_stratum, allocations):
    """Yield every possible stratified sample as a tuple of record ids."""
    per_stratum = [
        itertools.combinations(ids_by_stratum[label], allocations[label])
        for label in allocations
    ]
    for combo in itertools.product(*per_stratum):
        yield tuple(itertools.chain.from_iterable(combo))


def two_class_toy_population():
    """Fixed toy population: N = 8, two strata of 4, fixed scores.

    Per record (id, stratum, y, score); predicted positive iff score >= 0.5.
    Population confusion counts, by direct tally:
        TP: a0, b0, b2        -> N_TP = 3
        FN: a1                -> N_FN = 1
        FP: a2, b3            -> N_FP = 2
        TN: a3, b1            -> N_TN = 2
    """
    rows = [
        ("a0", "A", 1, 0.9),
        ("a1", "A", 1, 0.1),
        ("a2", "A", 0, 0.9),
        ("a3", "A", 0, 0.1),
        ("b0", "B", 1, 0.9),
        ("b1", "B", 0, 0.1),
        ("b2", "B", 1, 0.9),
        ("b3", "B", 0, 0.9),
    ]
    records = tuple(
        Record(record_id=rid, features=(), outcome=y, stratum=s) for rid, s, y, _ in rows
    )
    scores = {rid: score for rid, _, _, score in rows}
    population = FinitePopulation(records=records)
    return population, scores


def logistic_loglik(x, y, b0, b1):
    """Bernoulli log-likelihood of a 2-parameter model, computed directly."""
    eta = b0 + b1 * np.asarray(x)
    # log(1 + e^eta) computed stably
    softplus = np.where(eta > 30, eta, np.log1p(np.exp(np.minimum(eta, 30))))
    return float(np.sum(np.asarray(y) * eta - softplus))


def grid_search_loglik(x, y, b0_grid, b1_grid):
    """Coarse exhaustive maximum-likelihood search over a 2-d grid."""
    best = (-math.inf, None, None)
    for b0 in b0_grid:
        for b1 in b1_grid:
            ll = logistic_loglik(x, y, b0, b1)
            if ll > best[0]:
                best = (ll, b0, b1)
    return best


def prevalence_by_quadrature(spec, points_per_stratum=4000):
    """Expected outcome prevalence of a population spec, by midpoint rule.

    Integrates the outcome model over each uniform covariate's range and
    enumerates the binary covariates exactly, weighting by stratum
    proportions.  Categorical covariates are not supported here (the
    default specs do not use them in the outcome).
    """
    from svymetrics.simulation import BernoulliCovariate, UniformCovariate

    total = 0.0
    for label, share in zip(spec.strata, spec.proportions):
        uniforms = [c for c in spec.covariates if isinstance(c, UniformCovariate)]
        bernoullis = [c for c in spec.covariates if isinstance(c, BernoulliCovariate)]
        assert len(uniforms) <= 1, "oracle handles at most one uniform covariate"
        binary_states = list(itertools.product((0, 1), repeat=len(bernoullis)))
        stratum_mean = 0.0
        for states in binary_states:
            prob = 1.0
            base = spec.outcome.intercept
            for cov, state in zip(bernoullis, states):
                rate = cov.rates[label]
                prob *= rate if state else 1.0 - rate
                coef = spec.outcome.coefficients.get(cov.name, 0.0)
                base += coef * state
            if uniforms:
                cov = uniforms[0]
                lo, hi = cov.ranges[label]
                coef = spec.outcome.coefficients.get(cov.name, 0.0)
                grid = lo + (np.arange(points_per_stratum) + 0.5) * (hi - lo) / points_per_stratum
                vals = 1.0 / (1.0 + np.exp(-(base + coef * grid)))
                stratum_mean += prob * float(vals.mean())
            else:
                stratum_mean += prob / (1.0 + math.exp(-base))
        total += share * stratum_mean
    return total
