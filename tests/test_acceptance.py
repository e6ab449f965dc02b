"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two replicated-experiment criteria share one R = 200 run (session
fixture); the balanced-forest criterion runs its own.  Seeds are fixed so
every check here is exactly reproducible.
"""

import itertools
import json
import time

import numpy as np
import pytest

from helpers import (
    enumerate_stratified_samples,
    make_evaluation,
    two_class_toy_population,
    weighted_pairwise_auc,
)
from svymetrics.cli import main as cli_main
from svymetrics.estimation import tally_confusion
from svymetrics.evaluation import evaluation_summary
from svymetrics.roc import auroc, roc_sweep, score_adapted_grid, uniform_grid
from svymetrics.simulation import (
    ClassifierSpec,
    default_experiment,
    experiment_to_json_dict,
    run_experiment,
)

CRIT4_SEED = 20240801
CRIT5_SEED = 20240805


def _verdict(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _population_confusion(population, scores, threshold=0.5):
    tp = fn = fp = tn = 0
    for rec in population.records:
        predicted = scores[rec.record_id] >= threshold
        if rec.outcome == 1:
            tp, fn = tp + predicted, fn + (not predicted)
        else:
            fp, tn = fp + predicted, tn + (not predicted)
    return tp, tn, fp, fn


@pytest.fixture(scope="session")
def crit4_run():
    experiment = default_experiment(seed=CRIT4_SEED, replicates=200)
    start = time.monotonic()
    result = run_experiment(experiment)
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def crit5_run():
    experiment = default_experiment(
        seed=CRIT5_SEED,
        replicates=200,
        classifiers=(ClassifierSpec(kind="balanced_forest", trees=100),),
    )
    start = time.monotonic()
    result = run_experiment(experiment)
    return result, time.monotonic() - start


def test_criterion_1_exhaustive_unbiasedness():
    """All C(4,2)*C(4,2) = 36 stratified samples of the toy population:
    the mean of each weighted confusion total equals the population count
    exactly (tolerance 1e-12), in under a second."""
    start = time.monotonic()
    population, scores = two_class_toy_population()
    truth = np.array(_population_confusion(population, scores), dtype=float)
    ids_by_stratum = {
        s: [r.record_id for r in population.records if r.stratum == s] for s in ("A", "B")
    }
    outcome = {r.record_id: r.outcome for r in population.records}
    samples = list(enumerate_stratified_samples(ids_by_stratum, {"A": 2, "B": 2}))
    assert len(samples) == 36
    totals = np.zeros(4)
    for sample in samples:
        evaluation = make_evaluation(
            [outcome[r] for r in sample],
            [scores[r] for r in sample],
            [2.0] * 4,
        )
        tally = tally_confusion(evaluation, 0.5)
        totals += (tally.tp, tally.tn, tally.fp, tally.fn)
    deviation = float(np.max(np.abs(totals / len(samples) - truth)))
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "exhaustive-unbiasedness",
        deviation <= 1e-12 and elapsed < 1.0,
        f"(max deviation {deviation:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_two_stage_unbiasedness():
    """Extending criterion 1: every size-2 evaluation subset of every
    sample, with compound weights 2 * (4/2) = 4; the grand mean of each
    estimated total equals the population count exactly."""
    start = time.monotonic()
    population, scores = two_class_toy_population()
    truth = np.array(_population_confusion(population, scores), dtype=float)
    ids_by_stratum = {
        s: [r.record_id for r in population.records if r.stratum == s] for s in ("A", "B")
    }
    outcome = {r.record_id: r.outcome for r in population.records}
    totals = np.zeros(4)
    pairs = 0
    for sample in enumerate_stratified_samples(ids_by_stratum, {"A": 2, "B": 2}):
        for subset in itertools.combinations(sample, 2):
            evaluation = make_evaluation(
                [outcome[r] for r in subset],
                [scores[r] for r in subset],
                [2.0 * (4 / 2)] * 2,
            )
            tally = tally_confusion(evaluation, 0.5)
            totals += (tally.tp, tally.tn, tally.fp, tally.fn)
            pairs += 1
    assert pairs == 36 * 6
    deviation = float(np.max(np.abs(totals / pairs - truth)))
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "two-stage-unbiasedness",
        deviation <= 1e-12 and elapsed < 1.0,
        f"(max deviation {deviation:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_constant_weight_reduction():
    """On 1,000 randomized datasets with constant weights, the weighted
    sensitivity, specificity, and AUROC equal the unweighted values to
    1e-12."""
    start = time.monotonic()
    rng = np.random.default_rng(33)
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        s = np.round(rng.random(n), 2)
        c = float(rng.uniform(0.1, 100.0))
        evaluation = make_evaluation(y, s, np.full(n, c))
        weighted, unweighted = (
            evaluation_summary(evaluation, (0.5,), "exact", weighting)
            for weighting in ("weighted", "unweighted")
        )
        gaps = [
            abs(weighted.metrics[key][0] - unweighted.metrics[key][0])
            for key in ("sensitivity@0.5", "specificity@0.5", "auroc")
        ]
        worst = max(worst, *gaps)
        done += 1
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "constant-weight-reduction",
        worst <= 1e-12 and elapsed < 10.0,
        f"(worst gap {worst:.2e}, {elapsed:.1f}s)",
    )


def _bias_table(result, classifier):
    table = result.summary.tables[classifier]
    rows = {}
    for metric in ("sensitivity@0.5", "specificity@0.5"):
        truth = table["population"][metric].mean
        rows[metric] = {
            "truth": truth,
            "weighted_bias": abs(table["weighted"][metric].mean - truth),
            "unweighted_bias": abs(table["unweighted"][metric].mean - truth),
        }
    return rows


def test_criterion_4_bias_direction(crit4_run):
    """Default synthetic experiment, logistic classifier, R = 200: the
    weighted means land within 0.01 of the truth means while the unweighted
    means miss by at least 3x the weighted absolute bias."""
    result, elapsed = crit4_run
    rows = _bias_table(result, "logistic")
    ok = elapsed <= 600.0
    details = [f"{elapsed:.0f}s"]
    for metric, row in rows.items():
        ok = ok and row["weighted_bias"] <= 0.01
        ok = ok and row["unweighted_bias"] >= 3 * row["weighted_bias"]
        details.append(
            f"{metric}: truth {row['truth']:.4f}, |w bias| {row['weighted_bias']:.4f}, "
            f"|u bias| {row['unweighted_bias']:.4f}"
        )
    _verdict(4, "bias-direction", ok, "(" + "; ".join(details) + ")")


def test_criterion_5_balanced_forest_ordering(crit5_run):
    """Criterion 4 rerun with the upsampled random forest (100 trees,
    desk scale): |weighted bias| < |unweighted bias| for both metrics."""
    result, elapsed = crit5_run
    rows = _bias_table(result, "balanced_forest")
    ok = elapsed <= 1800.0
    details = [f"{elapsed:.0f}s"]
    for metric, row in rows.items():
        ok = ok and row["weighted_bias"] < row["unweighted_bias"]
        details.append(
            f"{metric}: truth {row['truth']:.4f}, |w bias| {row['weighted_bias']:.4f}, "
            f"|u bias| {row['unweighted_bias']:.4f}"
        )
    _verdict(5, "balanced-forest-ordering", ok, "(" + "; ".join(details) + ")")


def test_criterion_6_auroc_near_equivalence(crit4_run):
    """In criterion 4's runs the weighted and unweighted mean AUROCs differ
    by at most 0.02."""
    result, _ = crit4_run
    table = result.summary.tables["logistic"]
    gap = abs(table["weighted"]["auroc"].mean - table["unweighted"]["auroc"].mean)
    _verdict(6, "auroc-near-equivalence", gap <= 0.02, f"(gap {gap:.4f})")


def test_criterion_7_variance_calibration(crit4_run):
    """Over criterion 4's replicates: mean linearized SE within +-30% of
    the Monte Carlo SD for both ratio estimators, and 95% normal-interval
    coverage of the replicate-mean truth inside [0.90, 0.98]."""
    result, _ = crit4_run
    ok = True
    details = []
    for metric in ("sensitivity", "specificity"):
        estimates, ses, truths = [], [], []
        for rep in result.reports:
            report = rep.outcomes[0]
            estimate, se = report.weighted.metrics[f"{metric}@0.5"]
            estimates.append(estimate)
            ses.append(se)
            truths.append(report.population.metrics[f"{metric}@0.5"][0])
        estimates = np.asarray(estimates)
        ses = np.asarray(ses, dtype=np.float64)
        mc_sd = float(estimates.std(ddof=1))
        mean_se = float(ses.mean())
        ratio = mean_se / mc_sd
        coverage = float(
            np.mean(np.abs(estimates - np.mean(truths)) <= 1.96 * ses)
        )
        ok = ok and 0.7 <= ratio <= 1.3 and 0.90 <= coverage <= 0.98
        details.append(f"{metric}: SE/SD {ratio:.3f}, coverage {coverage:.3f}")
    _verdict(7, "variance-calibration", ok, "(" + "; ".join(details) + ")")


def test_criterion_8_weighted_auroc_correctness():
    """Exact-threshold weighted AUROC matches the exhaustive pairwise
    concordance oracle to 1e-9 on 100 small datasets, and the default
    101-point grid stays within 0.005 of the exact sweep on datasets of
    1,000+ records."""
    rng = np.random.default_rng(88)
    worst_small = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(4, 51))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        s = np.round(rng.random(n), 1) if done % 2 else rng.random(n)
        w = rng.uniform(0.1, 50.0, size=n)
        evaluation = make_evaluation(y, s, w)
        exact = auroc(roc_sweep(evaluation, score_adapted_grid(s), "weighted"))
        oracle = weighted_pairwise_auc(y, s, w)
        worst_small = max(worst_small, abs(exact - oracle))
        done += 1

    worst_grid = 0.0
    for k in range(3):
        n = 1000 + 400 * k
        y = rng.integers(0, 2, size=n)
        s = np.clip(rng.beta(2, 2, size=n) * 0.6 + y * rng.uniform(0, 0.4, size=n), 0, 1)
        w = rng.uniform(0.5, 25.0, size=n)
        evaluation = make_evaluation(y, s, w)
        exact = auroc(roc_sweep(evaluation, score_adapted_grid(s), "weighted"))
        gridded = auroc(roc_sweep(evaluation, uniform_grid(101), "weighted"))
        worst_grid = max(worst_grid, abs(exact - gridded))

    ok = worst_small <= 1e-9 and worst_grid <= 0.005
    _verdict(
        8,
        "weighted-auroc-correctness",
        ok,
        f"(oracle gap {worst_small:.2e}, grid gap {worst_grid:.5f})",
    )


def test_criterion_9_determinism(tmp_path):
    """`simulate` with an identical spec and seed produces byte-identical
    JSON across two runs and across thread counts 1 and 8."""
    from dataclasses import replace

    experiment = default_experiment(seed=4242, replicates=4)
    experiment = replace(
        experiment,
        population=replace(experiment.population, size=4000),
        design_allocations={
            "18-25": 120, "26-34": 80, "35-49": 100, "50-64": 90, "65+": 110
        },
    )
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(experiment_to_json_dict(experiment)))
    outputs = []
    for run, workers in ((1, 1), (2, 1), (3, 8)):
        out = tmp_path / f"out{run}.json"
        code = cli_main(
            ["simulate", str(spec_path), "--json", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(9, "determinism", ok, f"({len(outputs[0])} bytes, workers 1/1/8)")
