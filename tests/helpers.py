"""Independent oracles and small builders shared across test modules.

Everything here is deliberately brute-force (enumeration, double loops,
midpoint quadrature) so it stays independent of the library code paths it
checks.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import itertools
import math
from collections.abc import Iterable
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from svymetrics.classifiers.tree import FlatTree, _fold_codes, _split_score, _split_threshold
from svymetrics.errors import DataValidationError, SchemaError
from svymetrics.estimation import confusion_rate, ratio_standard_error, tally_confusion
from svymetrics.evaluation import EvaluationSummary, metric_key, resolve_grid
from svymetrics.io import LoadReport
from svymetrics.roc import RocCurve, auroc, roc_sweep
from svymetrics.types import EvaluationSet, FinitePopulation


def code_labels(labels: Iterable[str], count: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """``count`` labels as int32 codes into a tuple of the distinct labels,
    in order of first appearance, in one dict pass."""
    index: dict[str, int] = {}
    codes = np.fromiter(
        (index.setdefault(label, len(index)) for label in labels), dtype=np.int32, count=count
    )
    return codes, tuple(index)


def make_population(outcomes, strata=None, features=(), ids=None):
    """A population from plain sequences, its stratum labels (default "s1")
    coded in order of first appearance; ids default to "r0", "r1", ..."""
    n = len(outcomes)
    codes, labels = code_labels(strata if strata is not None else ["s1"] * n, n)
    return FinitePopulation(
        ids=tuple(ids) if ids is not None else tuple(f"r{i}" for i in range(n)),
        outcomes=np.asarray(outcomes),
        strata=codes,
        stratum_labels=labels,
        features=tuple(features),
    )


def check_ids_by_set(ids):
    """The uniqueness check ``FinitePopulation`` made on every id column
    before ascending ids were proved distinct by order: one set, then a
    loop that names the first repeated id."""
    if len(set(ids)) != len(ids):
        seen = set()
        for rid in ids:
            if rid in seen:
                raise DataValidationError(f"duplicate record id {rid!r}")
            seen.add(rid)


def first_row_duplicates(keys, rows):
    """True at each position of ``keys`` after the first of the ascending
    ``rows`` holding its key, from a dict of each key's first row built
    for every key list."""
    first = {}
    for i in rows.tolist():
        first.setdefault(keys[i], i)
    return np.array([i > first.get(key, len(keys)) for i, key in enumerate(keys)], dtype=bool)


def ascending_by_pairs(ids):
    """Whether each id compares above the one before it, pair by pair;
    False when a pair does not compare."""
    try:
        return all(a < b for a, b in itertools.pairwise(ids))
    except TypeError:
        return False


def stratum_rows_by_grouping(codes, labels):
    """Row lists of each stratum that has rows, grouped by a dict walk over
    the rows: rows in order, strata by first appearance."""
    groups = {}
    for row, code in enumerate(codes):
        groups.setdefault(labels[code], []).append(row)
    return groups


def record_ids_by_format(n):
    """Ids of ``n`` generated rows, one format string per row: ``r%0{w}d``
    with ``w`` one more than the digits below ``max(n, 10)``."""
    width = int(math.log10(max(n, 10))) + 1
    return [f"r%0{width}d" % i for i in range(n)]


def numeric_columns(x_rows):
    """Float64 feature columns of an (n, h) table given as rows."""
    x = np.asarray(x_rows, dtype=np.float64).reshape(len(x_rows), -1)
    return [x[:, j] for j in range(x.shape[1])]


def make_evaluation(y, scores, weights):
    return EvaluationSet(
        weights=np.asarray(weights, dtype=np.float64),
        outcomes=np.asarray(list(y)),
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
    record by s >= threshold and sum each confusion cell's weights with
    ``math.fsum``, which counts the cells when the weights are 1."""
    cells = {"tp": (True, 1), "tn": (False, 0), "fp": (True, 0), "fn": (False, 1)}
    members = {key: [] for key in cells.values()}
    for yi, si, w in zip(y, scores, weights):
        members[(bool(si >= threshold), int(yi))].append(w)
    return {cell: math.fsum(members[key]) for cell, key in cells.items()}


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


def threshold_cells_routed(trees, x):
    """``(representatives, inverse)`` of the rows of the encoded matrix
    ``x``, grouped by their codes ``searchsorted(cut, x[:, f], "left")``
    against the sorted unique thresholds ``cut`` of the trees' internal
    nodes on each split column ``f``: one row per threshold cell, and each
    row's cell, by ``np.unique`` of the code rows."""
    internal = [tree.split_nodes for tree in trees]
    features = np.concatenate([t.feature[s] for t, s in zip(trees, internal)])
    thresholds = np.concatenate([t.threshold[s] for t, s in zip(trees, internal)])
    codes = np.zeros((x.shape[0], 1), dtype=np.intp)
    for f in np.unique(features):
        cut = np.unique(thresholds[features == f])
        codes = np.column_stack([codes, np.searchsorted(cut, x[:, f], side="left")])
    _, representatives, inverse = np.unique(
        codes, axis=0, return_index=True, return_inverse=True
    )
    return representatives, inverse.reshape(-1)


def distinct_rows_by_unique(columns, n):
    """``(representatives, inverse)`` of the rows of ``n``-row columns,
    each column coded by ``np.unique(col, return_inverse=True)`` whatever
    its values, and the codes folded as the library folds them."""
    coded = (np.unique(col, return_inverse=True) for col in columns)
    return _fold_codes(((codes, values.size) for values, codes in coded), n)


def score_trees_routed(trees, x):
    """Mean leaf value of ``trees`` per row of ``x``: every threshold cell
    (:func:`threshold_cells_routed`) routed through every tree, the trees'
    outputs summed in tree order from 0 and divided by the tree count.
    The library reads most trees' outputs from per-tree tables instead."""
    representatives, inverse = threshold_cells_routed(trees, x)
    cells = x[representatives]
    return (sum(tree.predict(cells) for tree in trees) / len(trees))[inverse]


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


def argsort_split(col, count, pos):
    """The best boundary on one column, found by an argsort and one float
    cumsum each of ``count`` and ``pos``: (score, threshold, order, cut),
    the left child being ``order[:cut + 1]``, or None for a constant
    column.  The first of equal scores wins."""
    order = np.argsort(col)
    xs = col[order]
    boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
    if boundaries.size == 0:
        return None
    cum_n = np.cumsum(count[order])
    cum_pos = np.cumsum(pos[order])
    score = _split_score(cum_n[boundaries], cum_pos[boundaries], cum_n[-1], cum_pos[-1])
    best = int(np.argmax(score))
    cut = int(boundaries[best])
    return float(score[best]), _split_threshold(float(xs[cut]), float(xs[cut + 1])), order, cut


def grow_counted_numpy(
    x, count, pos, *, min_node_size=1, max_depth=None, m_try=None, rng=None
):
    """Reference counted grower that searches every node with numpy.

    Every node, whatever its size, gathers its counts and runs
    :func:`argsort_split` on each candidate column, with
    feature subsets drawn from ``rng`` in depth-first order (left child
    first).  Much faster than :func:`grow_tree_per_row` on tables of
    many copies, so it checks the library's small-node search on tables
    near and above its size switch.
    """
    width = x.shape[1]
    root_rows = np.flatnonzero(count)
    use_subset = m_try is not None and width > 0 and m_try < width
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        idx = len(feature)
        feature.append(0)
        threshold.append(np.inf)
        left.append(idx)
        right.append(idx)
        value.append(0.0)
        return idx

    stack = [(new_node(), root_rows, 0)]
    max_internal_depth = -1
    while stack:
        node_id, rows, depth = stack.pop()
        node_count = count[rows]
        node_pos = pos[rows]
        m = float(node_count.sum())
        p = float(node_pos.sum())
        value[node_id] = p / m
        if (
            m < 2
            or m < min_node_size
            or p == 0.0
            or p == m
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
        best_feature = -1
        for f in candidates:
            found = argsort_split(x[rows, f], node_count, node_pos)
            if found is not None and (best is None or found[0] > best[0]):
                best = found
                best_feature = f
        if best is None or best[0] <= (p * p + (m - p) * (m - p)) / m:
            continue
        _, thr, order, cut = best
        feature[node_id] = best_feature
        threshold[node_id] = thr
        left[node_id] = new_node()
        right[node_id] = new_node()
        max_internal_depth = max(max_internal_depth, depth)
        stack.append((right[node_id], rows[order[cut + 1 :]], depth + 1))
        stack.append((left[node_id], rows[order[: cut + 1]], depth + 1))
    return FlatTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        route_steps=max_internal_depth + 1,
    )


def population_summary_per_row(truth, thresholds, grid):
    """Row-form census truth: the scored census ``truth`` (an EvaluationSet
    with unit weights, one entry per record) tallied record by record at
    the fixed thresholds plus the grid, which an exact grid builds from the
    records' scores.  The library reads the same truth from per-group
    counts (``evaluation.population_summary``)."""
    g = resolve_grid(grid, truth.scores)
    k = len(thresholds)
    tally = tally_confusion(truth, np.concatenate([np.asarray(thresholds, dtype=np.float64), g]))
    sens = confusion_rate(tally, "sensitivity")
    spec = confusion_rate(tally, "specificity")
    metrics = {}
    for t, sn, sp in zip(thresholds, sens[:k].tolist(), spec[:k].tolist()):
        metrics[metric_key("sensitivity", t)] = (sn, None)
        metrics[metric_key("specificity", t)] = (sp, None)
    curve = RocCurve(thresholds=g, sensitivity=sens[k:], specificity=spec[k:])
    metrics["auroc"] = (auroc(curve), None)
    return EvaluationSummary("population-truth", tuple(map(float, thresholds)), metrics)


def evaluation_summary_two_tallies(evaluation, thresholds, grid, weighting):
    """``evaluation_summary`` in two passes: one tally of the fixed
    thresholds, with a linearized SE per threshold, then an ROC sweep of
    the grid for the AUROC.  The unweighted estimators tally and take
    their SEs on a unit-weight copy of the set.  The library reads both
    from one tally."""
    tallied = evaluation
    if weighting == "unweighted":
        tallied = dataclasses.replace(evaluation, weights=np.ones(evaluation.size))
    tally = tally_confusion(tallied, np.asarray(thresholds, dtype=np.float64))
    sens = confusion_rate(tally, "sensitivity").tolist()
    spec = confusion_rate(tally, "specificity").tolist()
    metrics = {}
    for t, sn, sp in zip(thresholds, sens, spec):
        for kind, value in (("sensitivity", sn), ("specificity", sp)):
            metrics[metric_key(kind, t)] = (value, ratio_standard_error(tallied, t, kind))
    curve = roc_sweep(evaluation, resolve_grid(grid, evaluation.scores), weighting)
    metrics["auroc"] = (auroc(curve), None)
    return EvaluationSummary(weighting, tuple(map(float, thresholds)), metrics)


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


def sigmoid_by_sign(eta):
    """The logistic function, split by a mask: ``1 / (1 + exp(-eta))``
    where ``eta >= 0`` and ``exp(eta) / (1 + exp(eta))`` elsewhere."""
    out = np.empty_like(eta)
    nonneg = eta >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-eta[nonneg]))
    exp_eta = np.exp(eta[~nonneg])
    out[~nonneg] = exp_eta / (1.0 + exp_eta)
    return out


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


def _parse_outcome(raw: str) -> int | None:
    text = raw.strip()
    if text in ("0", "1"):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        return None
    if value in (0.0, 1.0):
        return int(value)
    return None


def ingest_csv_per_row(path, schema):
    """Row-at-a-time survey CSV ingest: a ``csv.DictReader`` loop that checks
    each row field by field and stops at its first failing check.

    Returns (population, weights, load report, raw rows), where a raw row is
    a loaded record's fields as read, padded with "" or cut to the header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(fh)
    raw_rows = iter([row for row in list(csv.reader(lines))[1:] if row])
    ids, outcomes, weights, strata, loaded_raw = [], [], [], [], []
    features = [[] for _ in schema.features]
    dropped: dict[str, int] = {}
    rows_read = 0

    def drop(reason):
        dropped[reason] = dropped.get(reason, 0) + 1

    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        raise DataValidationError(f"{path} has no header row")
    missing = [c for c in schema.required_columns if c not in reader.fieldnames]
    if missing:
        raise SchemaError(f"{path} lacks schema columns: {missing}")
    width = len(reader.fieldnames)
    seen_ids = set()
    for row in reader:
        raw = next(raw_rows)
        rows_read += 1
        rid = (row.get(schema.id_column) or "").strip()
        if not rid:
            drop("missing id")
            continue
        if rid in seen_ids:
            drop("duplicate id")
            continue
        outcome_raw = row.get(schema.outcome_column)
        if outcome_raw is None or not outcome_raw.strip():
            drop("missing outcome")
            continue
        outcome = _parse_outcome(outcome_raw)
        if outcome is None:
            drop("non-binary outcome")
            continue
        if schema.weight_column is not None:
            weight_raw = row.get(schema.weight_column)
            if weight_raw is None or not weight_raw.strip():
                drop("missing weight")
                continue
            try:
                weight = float(weight_raw)
            except ValueError:
                drop("unparseable weight")
                continue
            if not np.isfinite(weight) or weight <= 0:
                drop("non-positive weight")
                continue
        else:
            weight = 1.0
        stratum = ""
        if schema.stratum_column is not None:
            stratum_raw = row.get(schema.stratum_column)
            if stratum_raw is None or not stratum_raw.strip():
                drop("missing stratum")
                continue
            stratum = stratum_raw.strip()
        values = []
        for col in schema.features:
            value = row.get(col.name)
            if value is None or not value.strip():
                drop(f"missing feature {col.name}")
                break
            if col.kind == "numeric":
                try:
                    value = float(value)
                except ValueError:
                    drop(f"unparseable feature {col.name}")
                    break
                if not np.isfinite(value):
                    drop(f"non-finite feature {col.name}")
                    break
            else:
                value = value.strip()
            values.append(value)
        else:
            seen_ids.add(rid)
            ids.append(rid)
            outcomes.append(outcome)
            weights.append(weight)
            strata.append(stratum)
            loaded_raw.append((raw + [""] * width)[:width])
            for column, value in zip(features, values):
                column.append(value)

    if not ids:
        raise DataValidationError(f"{path}: no usable rows ({rows_read} read)")
    codes, labels = code_labels(strata, len(strata))
    population = FinitePopulation(
        ids=tuple(ids),
        outcomes=np.asarray(outcomes, dtype=np.int8),
        strata=codes,
        stratum_labels=labels,
        features=tuple(
            np.asarray(values, dtype=np.float64 if col.kind == "numeric" else object)
            for col, values in zip(schema.features, features)
        ),
    )
    report = LoadReport(rows_read=rows_read, rows_loaded=len(ids), dropped=dropped)
    return population, np.asarray(weights, dtype=np.float64), report, loaded_raw


def read_predictions_per_row(path):
    """Row-at-a-time ``id,score`` reader: the first bad row raises."""
    scores = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "score"} <= set(reader.fieldnames):
            raise SchemaError(f"{path} must have 'id' and 'score' columns")
        for row in reader:
            rid = (row.get("id") or "").strip()
            raw = (row.get("score") or "").strip()
            if not rid or not raw:
                raise DataValidationError(f"{path}: prediction row missing id or score")
            try:
                score = float(raw)
            except ValueError as exc:
                raise DataValidationError(f"{path}: unparseable score {raw!r}") from exc
            if not (0.0 <= score <= 1.0):
                raise DataValidationError(f"{path}: score {score} outside [0, 1]")
            if rid in scores:
                raise DataValidationError(f"{path}: duplicate prediction for id {rid!r}")
            scores[rid] = score
    if not scores:
        raise DataValidationError(f"{path}: no predictions")
    return scores


def write_split_files_per_row(
    path,
    table,
    train_rows,
    train_weights,
    eval_rows,
    eval_design_weights,
    eval_compound_weights,
    train_out,
    eval_out,
    weight_column,
):
    """``io.write_split_files`` with every row written by ``csv.writer``
    from its fields, each data row of the input file read by
    ``csv.reader`` and padded with "" or cut to the header: the reference
    for the bytes of both files."""
    if "weight_eval" in table.header:
        raise SchemaError("input file already has a 'weight_eval' column")
    append_weight = weight_column != "weight"
    if append_weight and "weight" in table.header:
        raise SchemaError(
            "input file has a 'weight' column that is not the schema's weight column "
            f"{weight_column!r}"
        )

    rows = []
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        for row in reader:
            if row:
                rows.append((row + [""] * width)[:width])

    def write(out, header, file_rows, *weight_columns):
        fields = [rows[i] for i in file_rows]
        weights = [[float(w) for w in weights] for weights in weight_columns]
        with Path(out).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(row + list(ws) for row, *ws in zip(fields, *weights))

    header = list(table.header) + (["weight"] if append_weight else [])
    design = (train_weights,) if append_weight else ()
    write(train_out, header, train_rows, *design)
    design = (eval_design_weights,) if append_weight else ()
    write(eval_out, header + ["weight_eval"], eval_rows, *design, eval_compound_weights)


def write_predictions_per_row(path, ids, scores):
    """``io.write_predictions`` as ``csv.writer`` writes each row: the
    reference for the bytes of a predictions file."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score"])
        writer.writerows(zip(ids, np.asarray(scores, dtype=np.float64).tolist()))


def write_roc_per_row(path, curve):
    """``io.write_roc`` as ``csv.writer`` writes each row: the reference
    for the bytes of an ROC file."""
    columns = (curve.thresholds, curve.sensitivity, curve.specificity, curve.fpr)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "sensitivity", "specificity", "fpr"])
        writer.writerows(zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns)))


def schema_json_by_hand(schema):
    """A ``DataSchema`` as a schema file holds it, written key by key."""
    return {
        "id": schema.id_column,
        "outcome": schema.outcome_column,
        "weight": schema.weight_column,
        "stratum": schema.stratum_column,
        "features": [{"name": f.name, "kind": f.kind} for f in schema.features],
    }


def summary_json_by_hand(summary):
    """An ``ExperimentSummary`` as ``simulate --json`` holds it, written key
    by key, with each metric aggregate through ``dataclasses.asdict``."""
    return {
        "replicates_requested": summary.replicates_requested,
        "classifiers": {
            name: {
                weighting: {key: dataclasses.asdict(agg) for key, agg in metrics.items()}
                for weighting, metrics in by_weighting.items()
            }
            for name, by_weighting in summary.tables.items()
        },
        "failures": {
            name: {"count": info["count"], "errors": info["errors"]}
            for name, info in summary.failures.items()
        },
        "metadata": dict(summary.metadata),
    }
