"""Independent oracles and small builders shared across test modules.

Everything here is deliberately brute-force (enumeration, double loops,
midpoint quadrature) so it stays independent of the library code paths it
checks.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from svymetrics.classifiers.tree import FlatTree
from svymetrics.errors import DataValidationError
from svymetrics.types import EvaluationSet, FinitePopulation


def make_population(outcomes, strata=None, features=(), ids=None):
    """A population from plain sequences; ids default to "r0", "r1", ..."""
    n = len(outcomes)
    return FinitePopulation(
        ids=tuple(ids) if ids is not None else tuple(f"r{i}" for i in range(n)),
        outcomes=np.asarray(outcomes),
        strata=np.asarray(strata if strata is not None else ["s1"] * n),
        features=tuple(features),
    )


def numeric_columns(x_rows):
    """Float64 feature columns of an (n, h) table given as rows."""
    x = np.asarray(x_rows, dtype=np.float64).reshape(len(x_rows), -1)
    return [x[:, j] for j in range(x.shape[1])]


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


def gini_impurity(positive: float, total: float) -> float:
    """Gini impurity 1 - p^2 - q^2 of a node with the given class totals."""
    if total <= 0:
        return 0.0
    p = positive / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


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


def route_one_row(tree, row):
    """A flat tree's output on one encoded row, walking node by node with
    scalar comparisons for the tree's ``route_steps`` steps."""
    node = 0
    for _ in range(tree.route_steps):
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def grow_tree_per_row(
    x, y, *, min_node_size=1, max_depth=None, m_try=None, rng=None
):
    """Reference Gini grower over every training row, copies included.

    Each node argsorts its own rows on each candidate column and scores
    every boundary between distinct values from running counts of rows and
    positives; the first best score wins, lowest feature index first.  The
    split threshold is the midpoint when ``lo <= t < hi`` holds, then half
    of each, then ``lo + 0.0``.  Feature subsets are drawn from ``rng`` per
    node, in the same depth-first order (left child first) as the library.
    """
    n, width = x.shape
    y = np.asarray(y, dtype=np.float64)
    use_subset = m_try is not None and width > 0 and m_try < width
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(proportion):
        idx = len(feature)
        feature.append(0)
        threshold.append(np.inf)
        left.append(idx)
        right.append(idx)
        value.append(proportion)
        return idx

    stack = [(new_node(float(y.mean())), np.arange(n), 0)]
    max_internal_depth = -1
    while stack:
        node_id, rows, depth = stack.pop()
        m = rows.size
        pos = float(y[rows].sum())
        if (
            m < 2
            or m < min_node_size
            or pos == 0.0
            or pos == m
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        if not use_subset:
            candidates = range(width)
        elif m_try == 1:
            candidates = [int(rng.integers(width))]
        else:
            candidates = sorted(int(f) for f in rng.choice(width, size=m_try, replace=False))
        best = None
        for f in candidates:
            order = np.argsort(x[rows, f])
            xs = x[rows, f][order]
            cum_pos = np.cumsum(y[rows][order])
            for cut in range(m - 1):
                if not xs[cut] < xs[cut + 1]:
                    continue
                n_left = float(cut + 1)
                pos_left = cum_pos[cut]
                neg_left = n_left - pos_left
                n_right = m - n_left
                pos_right = cum_pos[-1] - pos_left
                neg_right = n_right - pos_right
                score = (pos_left * pos_left + neg_left * neg_left) / n_left + (
                    pos_right * pos_right + neg_right * neg_right
                ) / n_right
                if best is None or score > best[0]:
                    best = (score, f, order, cut)
        if best is None or best[0] <= (pos * pos + (m - pos) * (m - pos)) / m:
            continue
        _, f, order, cut = best
        col = x[rows, f][order]
        lo, hi = float(col[cut]), float(col[cut + 1])
        thr = next(
            (t for t in ((lo + hi) / 2.0, lo / 2.0 + hi / 2.0) if lo <= t < hi), lo + 0.0
        )
        left_rows, right_rows = rows[order[: cut + 1]], rows[order[cut + 1 :]]
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = new_node(float(y[left_rows].mean()))
        right[node_id] = new_node(float(y[right_rows].mean()))
        max_internal_depth = max(max_internal_depth, depth)
        stack.append((right[node_id], right_rows, depth + 1))
        stack.append((left[node_id], left_rows, depth + 1))
    return FlatTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        route_steps=max_internal_depth + 1,
    )


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
    ids, strata, outcomes, scores = zip(*rows)
    return make_population(outcomes, strata, ids=ids), dict(zip(ids, scores))


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


_JUNK = (None, "x", -1, 0, 1.5, True, [], {}, [None], {"k": 1})


def _json_paths(node, prefix=()):
    """Every (key or index) path to a value inside nested dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _json_paths(value, prefix + (key,))


def parse_corrupted(data, payload, parse):
    """Delete keys or swap values for junk at one to three drawn paths of a
    JSON ``payload``, then ``parse`` it: a DataValidationError (SchemaError
    included) is the only exception allowed to escape."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(payload))))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            # A copy, so a later step that edits inside the junk value
            # cannot change _JUNK for the examples that follow.
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
    try:
        parse(payload)
    except DataValidationError:
        pass
