"""Monte Carlo harness: synthetic populations and replicated experiments.

A replicate draws a stratified sample from a fixed finite population,
splits it into training and test parts, trains the configured classifiers
(unweighted; upsampling only for the balanced variant), scores the entire
population for truth metrics, and computes weighted and unweighted
test-split estimates.  Replicates are aggregated into means and Monte
Carlo standard deviations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .classifiers.encoding import extract_columns
from .classifiers.forest import ForestConfig, fit_forest
from .classifiers.imbalance import upsample_minority
from .classifiers.logistic import LogisticConfig, fit_logistic
from .classifiers.tree import TreeConfig, fit_tree
from .errors import (
    AggregationError,
    DataValidationError,
    NumericalError,
    SchemaError,
)
from .estimation import population_truth
from .evaluation import EvaluationSummary, ThresholdMetrics, evaluation_summary, resolve_grid
from .rng import derive_stream
from .roc import auroc, roc_sweep
from .sampling import StratifiedDesign, split_train_test, stratified_sample
from .types import EvaluationSet, FinitePopulation, MetricResult, Record

SPEC_VERSION = "1"

OUTPUT_METADATA = {
    "threshold_rule": "classify positive iff score >= threshold",
    "variance_method": "taylor-linearization, with-replacement, strata ignored",
    "auroc_default_grid": "101 evenly spaced thresholds on [0, 1]",
    "forest_note": (
        "m_try and node-size defaults are this library's choices; parity with "
        "other random-forest implementations' defaults is not guaranteed"
    ),
}


# ---------------------------------------------------------------------------
# Population specification and generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformCovariate:
    """Numeric covariate drawn uniformly from a per-stratum range."""

    name: str
    ranges: Mapping[str, tuple[float, float]]

    kind = "uniform"


@dataclass(frozen=True)
class BernoulliCovariate:
    """0/1 covariate with a per-stratum success rate."""

    name: str
    rates: Mapping[str, float]

    kind = "bernoulli"


@dataclass(frozen=True)
class CategoricalCovariate:
    """Labelled covariate with per-stratum level probabilities."""

    name: str
    levels: tuple[str, ...]
    probs: Mapping[str, tuple[float, ...]]

    kind = "categorical"


Covariate = UniformCovariate | BernoulliCovariate | CategoricalCovariate


@dataclass(frozen=True)
class OutcomeModel:
    """Bernoulli outcome through a logistic link over named covariates."""

    intercept: float
    coefficients: Mapping[str, float]


@dataclass(frozen=True)
class PopulationSpec:
    size: int
    strata: tuple[str, ...]
    proportions: tuple[float, ...]
    covariates: tuple[Covariate, ...]
    outcome: OutcomeModel

    def __post_init__(self):
        if self.size < 1:
            raise DataValidationError("population size must be >= 1")
        if len(self.strata) != len(self.proportions) or not self.strata:
            raise DataValidationError("strata and proportions must align and be non-empty")
        if any(p < 0 or p > 1 for p in self.proportions):
            raise DataValidationError("stratum proportions must lie in [0, 1]")
        if abs(sum(self.proportions) - 1.0) > 1e-9:
            raise DataValidationError("stratum proportions must sum to 1")
        names = set()
        for cov in self.covariates:
            if cov.name in names:
                raise DataValidationError(f"duplicate covariate name {cov.name!r}")
            names.add(cov.name)
            table = cov.ranges if isinstance(cov, UniformCovariate) else (
                cov.rates if isinstance(cov, BernoulliCovariate) else cov.probs
            )
            missing = [s for s in self.strata if s not in table]
            if missing:
                raise DataValidationError(
                    f"covariate {cov.name!r} lacks parameters for strata {missing}"
                )
            if isinstance(cov, BernoulliCovariate):
                if any(not (0.0 <= r <= 1.0) for r in cov.rates.values()):
                    raise DataValidationError(f"rates of {cov.name!r} must lie in [0, 1]")
            if isinstance(cov, CategoricalCovariate):
                for s, p in cov.probs.items():
                    if len(p) != len(cov.levels) or abs(sum(p) - 1.0) > 1e-9:
                        raise DataValidationError(
                            f"probabilities of {cov.name!r} invalid in stratum {s!r}"
                        )
        for name in self.outcome.coefficients:
            cov = next((c for c in self.covariates if c.name == name), None)
            if cov is None:
                raise DataValidationError(f"outcome references unknown covariate {name!r}")
            if isinstance(cov, CategoricalCovariate):
                raise DataValidationError(
                    "outcome model supports numeric covariates only; "
                    f"{name!r} is categorical"
                )


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> FinitePopulation:
    """Generate records with stratum, covariates, and Bernoulli outcomes.

    Draw order is fixed (stratum, then covariates in declaration order,
    then the outcome), so a seeded stream reproduces the population.
    """
    n = spec.size
    k = len(spec.strata)
    stratum_idx = rng.choice(k, size=n, p=np.asarray(spec.proportions))
    labels = np.asarray(spec.strata, dtype=object)[stratum_idx]

    columns: list[np.ndarray] = []
    linear = np.full(n, spec.outcome.intercept, dtype=np.float64)
    for cov in spec.covariates:
        if isinstance(cov, UniformCovariate):
            lows = np.array([cov.ranges[s][0] for s in spec.strata])[stratum_idx]
            highs = np.array([cov.ranges[s][1] for s in spec.strata])[stratum_idx]
            values = lows + rng.random(n) * (highs - lows)
            columns.append(values)
        elif isinstance(cov, BernoulliCovariate):
            rates = np.array([cov.rates[s] for s in spec.strata])[stratum_idx]
            values = (rng.random(n) < rates).astype(np.float64)
            columns.append(values)
        else:
            prob_rows = np.array([cov.probs[s] for s in spec.strata])[stratum_idx]
            cum = np.cumsum(prob_rows, axis=1)
            draws = rng.random(n)
            codes = (draws[:, None] > cum).sum(axis=1).clip(0, len(cov.levels) - 1)
            columns.append(np.asarray(cov.levels, dtype=object)[codes])
        coef = spec.outcome.coefficients.get(cov.name)
        if coef is not None:
            linear += coef * columns[-1].astype(np.float64)

    prob = 1.0 / (1.0 + np.exp(-linear))
    outcomes = (rng.random(n) < prob).astype(int)

    feature_lists = [col.tolist() for col in columns]
    label_list = labels.tolist()
    outcome_list = outcomes.tolist()
    width = int(math.log10(max(n, 10))) + 1
    records = tuple(
        Record(
            record_id=f"r{i:0{width}d}",
            features=tuple(fl[i] for fl in feature_lists),
            outcome=outcome_list[i],
            stratum=label_list[i],
        )
        for i in range(n)
    )
    return FinitePopulation(records=records)


def default_population_spec(size: int = 1_000_000) -> PopulationSpec:
    """Default synthetic population: five age strata, two binary covariates.

    Age is uniform within its stratum band, the binary covariates follow
    fixed and age-dependent rates, and the outcome is Bernoulli through a
    logistic model in (age, sex, smoker).  Outcome prevalence rises
    monotonically across the age strata and averages roughly 55%.
    """
    strata = ("19-25", "25-34", "34-54", "54-65", "65-100")
    bands = {
        "19-25": (19.0, 25.0),
        "25-34": (25.0, 34.0),
        "34-54": (34.0, 54.0),
        "54-65": (54.0, 65.0),
        "65-100": (65.0, 100.0),
    }
    smoker_rates = {
        "19-25": 0.074,
        "25-34": 0.14,
        "34-54": 0.15,
        "54-65": 0.15,
        "65-100": 0.09,
    }
    # the published age-bin probabilities sum to 0.99; rescale proportionally
    raw_shares = (0.11, 0.16, 0.33, 0.17, 0.22)
    total = sum(raw_shares)
    return PopulationSpec(
        size=size,
        strata=strata,
        proportions=tuple(p / total for p in raw_shares),
        covariates=(
            UniformCovariate(name="age", ranges=bands),
            BernoulliCovariate(name="sex", rates={s: 0.5 for s in strata}),
            BernoulliCovariate(name="smoker", rates=smoker_rates),
        ),
        outcome=OutcomeModel(
            intercept=-1.25,
            coefficients={"age": 0.04, "sex": -1.03, "smoker": 0.43},
        ),
    )


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierSpec:
    """One classifier to train per replicate.

    Kinds: ``logistic``, ``tree``, ``forest``, ``balanced_forest``
    (upsampled training data), and ``constant`` (a fixed-score baseline
    useful for diagnostics).
    """

    kind: str
    name: str = ""
    trees: int = 100
    m_try: int | None = None
    min_node_size: int = 1
    max_depth: int | None = None
    bootstrap: bool = True
    max_iterations: int = 100
    tolerance: float = 1e-8
    constant_score: float = 1.0

    KINDS = ("logistic", "tree", "forest", "balanced_forest", "constant")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DataValidationError(f"unknown classifier kind {self.kind!r}")

    @property
    def resolved_name(self) -> str:
        return self.name or self.kind


@dataclass(frozen=True)
class ExperimentSpec:
    seed: int
    replicates: int
    design_allocations: Mapping[str, int]
    classifiers: tuple[ClassifierSpec, ...]
    population: PopulationSpec | None = None
    population_file: str | None = None
    population_schema: dict | None = None
    eval_fraction: float = 0.2
    thresholds: tuple[float, ...] = (0.5,)
    auroc_grid: int | str = 101
    include_sample_in_truth: bool = True

    def __post_init__(self):
        object.__setattr__(self, "design_allocations", dict(self.design_allocations))
        if self.replicates < 1:
            raise DataValidationError("replicates must be >= 1")
        if (self.population is None) == (self.population_file is None):
            raise DataValidationError(
                "exactly one of population / population_file must be given"
            )
        if not self.classifiers:
            raise DataValidationError("experiment needs at least one classifier")
        names = [c.resolved_name for c in self.classifiers]
        if len(set(names)) != len(names):
            raise DataValidationError("classifier names must be unique")
        if any(not (0.0 <= t <= 1.0) for t in self.thresholds):
            raise DataValidationError("thresholds must lie in [0, 1]")
        if self.auroc_grid != "exact" and int(self.auroc_grid) < 2:
            raise DataValidationError("auroc_grid must be 'exact' or a point count >= 2")


DEFAULT_DESIGN_ALLOCATIONS = {
    # heavily oversamples the two smallest (oldest) strata
    "18-25": 2300,
    "26-34": 1500,
    "35-49": 1950,
    "50-64": 1750,
    "65+": 2500,
}

DEFAULT_EXPERIMENT_POPULATION_SIZE = 117_000


def default_experiment_population_spec(
    size: int = DEFAULT_EXPERIMENT_POPULATION_SIZE,
) -> PopulationSpec:
    """Population behind the default experiment: five age strata with
    outcome prevalence falling monotonically across them.

    The three binary risk indicators give the score distribution a small
    number of cells, all well away from the 0.5 decision threshold, so the
    population truth barely moves when the classifier is refit on a new
    sample.  Stratum shares follow the same strongly unequal pattern as
    the default design's allocation targets.
    """
    strata = ("18-25", "26-34", "35-49", "50-64", "65+")
    shares = (38475.0, 23953.0, 30787.0, 13371.0, 10175.0)
    total = sum(shares)
    per_stratum = lambda values: dict(zip(strata, values))  # noqa: E731
    return PopulationSpec(
        size=size,
        strata=strata,
        proportions=tuple(s / total for s in shares),
        covariates=(
            BernoulliCovariate(
                name="risk_major", rates=per_stratum((0.42, 0.32, 0.22, 0.12, 0.06))
            ),
            BernoulliCovariate(
                name="risk_moderate", rates=per_stratum((0.50, 0.42, 0.34, 0.24, 0.16))
            ),
            BernoulliCovariate(
                name="risk_minor", rates=per_stratum((0.55, 0.48, 0.40, 0.32, 0.25))
            ),
        ),
        outcome=OutcomeModel(
            intercept=-2.0,
            coefficients={"risk_major": 2.5, "risk_moderate": 1.1, "risk_minor": 0.5},
        ),
    )


def default_experiment(
    seed: int,
    replicates: int = 200,
    classifiers: Sequence[ClassifierSpec] = (ClassifierSpec(kind="logistic"),),
) -> ExperimentSpec:
    """The default synthetic experiment: disproportionate stratified design,
    n = 10,000 from N = 117,000, 80/20 train/test split."""
    return ExperimentSpec(
        seed=seed,
        replicates=replicates,
        design_allocations=dict(DEFAULT_DESIGN_ALLOCATIONS),
        classifiers=tuple(classifiers),
        population=default_experiment_population_spec(),
        eval_fraction=0.2,
        thresholds=(0.5,),
        auroc_grid=101,
    )


# ---------------------------------------------------------------------------
# Replicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierReport:
    name: str
    population: EvaluationSummary
    weighted: EvaluationSummary
    unweighted: EvaluationSummary

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "population": self.population.to_json_dict(),
            "weighted": self.weighted.to_json_dict(),
            "unweighted": self.unweighted.to_json_dict(),
        }


@dataclass(frozen=True)
class ClassifierFailure:
    name: str
    error: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "error": self.error}


@dataclass(frozen=True)
class ReplicateReport:
    index: int
    seed_path: tuple[int, int]
    outcomes: tuple[ClassifierReport | ClassifierFailure, ...]

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "seed_path": list(self.seed_path),
            "classifiers": [o.to_json_dict() for o in self.outcomes],
        }


class _PopulationCache:
    """Per-population arrays shared by all replicates of a run."""

    def __init__(self, population: FinitePopulation):
        self.population = population
        self.columns = extract_columns(population.records)
        self.ids = population.ids
        self.outcomes = population.outcomes
        self.unit_weights = np.ones(population.size)
        self.index_by_id = population.index_by_id


def _fit_and_score(
    spec: ClassifierSpec,
    train_records: list[Record],
    cache: _PopulationCache,
    master_seed: int,
    index: int,
) -> np.ndarray:
    """Train one classifier and score the whole population."""
    name = spec.resolved_name
    if spec.kind == "constant":
        if not (0.0 <= spec.constant_score <= 1.0):
            raise DataValidationError("constant score must lie in [0, 1]")
        return np.full(cache.population.size, spec.constant_score)
    records = train_records
    if spec.kind == "balanced_forest":
        records = upsample_minority(
            records, derive_stream(master_seed, index, f"upsample:{name}")
        )
    if spec.kind == "logistic":
        model = fit_logistic(
            records,
            LogisticConfig(max_iterations=spec.max_iterations, tolerance=spec.tolerance),
        )
    elif spec.kind == "tree":
        model = fit_tree(
            records, TreeConfig(max_depth=spec.max_depth, min_node_size=spec.min_node_size)
        )
    else:
        model = fit_forest(
            records,
            ForestConfig(
                trees=spec.trees,
                m_try=spec.m_try,
                min_node_size=spec.min_node_size,
                max_depth=spec.max_depth,
                bootstrap=spec.bootstrap,
            ),
            rng=derive_stream(master_seed, index, f"train:{name}"),
        )
    return model.predict_proba_columns(cache.columns)


def run_replicate(
    experiment: ExperimentSpec,
    population: FinitePopulation,
    index: int,
    *,
    _cache: _PopulationCache | None = None,
) -> ReplicateReport:
    """Run one sample/split/train/evaluate cycle.

    Classifier and estimator failures are recorded per classifier rather
    than aborting the replicate set.
    """
    cache = _cache if _cache is not None else _PopulationCache(population)
    design = StratifiedDesign(experiment.design_allocations)
    sample = stratified_sample(
        population, design, derive_stream(experiment.seed, index, "sample")
    )
    train_sample, eval_sample = split_train_test(
        sample, experiment.eval_fraction, derive_stream(experiment.seed, index, "split")
    )
    train_records = [
        population.records[cache.index_by_id[rid]] for rid in train_sample.ids
    ]
    eval_rows = np.fromiter(
        (cache.index_by_id[rid] for rid in eval_sample.ids),
        dtype=np.intp,
        count=eval_sample.size,
    )
    y_eval = cache.outcomes[eval_rows]

    if experiment.include_sample_in_truth:
        truth_rows = None
    else:
        in_sample = np.zeros(population.size, dtype=bool)
        in_sample[[cache.index_by_id[rid] for rid in sample.ids]] = True
        truth_rows = np.nonzero(~in_sample)[0]

    outcomes: list[ClassifierReport | ClassifierFailure] = []
    for spec in experiment.classifiers:
        try:
            pop_scores = _fit_and_score(spec, train_records, cache, experiment.seed, index)
            if truth_rows is None:
                truth_y, truth_scores = cache.outcomes, pop_scores
                truth_ids, truth_w = cache.ids, cache.unit_weights
            else:
                truth_y = cache.outcomes[truth_rows]
                truth_scores = pop_scores[truth_rows]
                truth_ids = tuple(cache.ids[i] for i in truth_rows)
                truth_w = np.ones(truth_rows.size)
            rows = tuple(
                ThresholdMetrics(t, *population_truth(truth_y, truth_scores, t))
                for t in experiment.thresholds
            )
            census = EvaluationSet(
                ids=truth_ids, weights=truth_w, outcomes=truth_y, scores=truth_scores
            )
            grid = resolve_grid(experiment.auroc_grid, truth_scores)
            truth_auroc = MetricResult(
                value=auroc(roc_sweep(census, grid, "unweighted")),
                kind="auroc",
                weighting="population-truth",
            )
            population_summary = EvaluationSummary(
                weighting="population-truth",
                at_thresholds=rows,
                auroc=truth_auroc,
            )
            evaluation = EvaluationSet(
                ids=eval_sample.ids,
                weights=eval_sample.weights,
                outcomes=y_eval,
                scores=pop_scores[eval_rows],
            )
            weighted = evaluation_summary(
                evaluation, experiment.thresholds, experiment.auroc_grid, "weighted"
            )
            unweighted = evaluation_summary(
                evaluation, experiment.thresholds, experiment.auroc_grid, "unweighted"
            )
            outcomes.append(
                ClassifierReport(
                    name=spec.resolved_name,
                    population=population_summary,
                    weighted=weighted,
                    unweighted=unweighted,
                )
            )
        except (NumericalError, DataValidationError) as exc:
            outcomes.append(
                ClassifierFailure(
                    name=spec.resolved_name, error=f"{type(exc).__name__}: {exc}"
                )
            )
    return ReplicateReport(
        index=index, seed_path=(experiment.seed, index), outcomes=tuple(outcomes)
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricAggregate:
    """Mean and spread of one metric across successful replicates.

    ``mc_sd`` is the Monte Carlo standard deviation (divisor R-1);
    ``mc_se_of_mean`` is mc_sd / sqrt(R) so either reading of a
    parenthesized table entry can be compared.
    """

    mean: float
    mc_sd: float
    mc_se_of_mean: float
    replicates: int
    mean_linearized_se: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "mc_sd": self.mc_sd,
            "mc_se_of_mean": self.mc_se_of_mean,
            "replicates": self.replicates,
            "mean_linearized_se": self.mean_linearized_se,
        }


@dataclass(frozen=True)
class ExperimentSummary:
    replicates_requested: int
    tables: dict
    failures: dict
    metadata: dict = field(default_factory=lambda: dict(OUTPUT_METADATA))

    def to_json_dict(self) -> dict:
        return {
            "replicates_requested": self.replicates_requested,
            "classifiers": {
                name: {
                    weighting: {key: agg.to_json_dict() for key, agg in metrics.items()}
                    for weighting, metrics in by_weighting.items()
                }
                for name, by_weighting in self.tables.items()
            },
            "failures": {
                name: {"count": info["count"], "errors": info["errors"]}
                for name, info in self.failures.items()
            },
            "metadata": dict(self.metadata),
        }


def metric_key(kind: str, threshold: float | None = None) -> str:
    return kind if threshold is None else f"{kind}@{threshold:g}"


def metric_values(summary: EvaluationSummary) -> dict[str, tuple[float, float | None]]:
    """Map each metric key of a summary to its (value, standard error)."""
    out: dict[str, tuple[float, float | None]] = {}
    for tm in summary.at_thresholds:
        for metric in (tm.sensitivity, tm.specificity):
            out[metric_key(metric.kind, tm.threshold)] = (metric.value, metric.standard_error)
    out[metric_key("auroc")] = (summary.auroc.value, summary.auroc.standard_error)
    return out


def aggregate(
    reports: Sequence[ReplicateReport], experiment: ExperimentSpec
) -> ExperimentSummary:
    """Means and Monte Carlo SDs per classifier/weighting/metric.

    Failed replicates are excluded per classifier and counted separately;
    fewer than two successes for any configured classifier is an error.
    """
    tables: dict = {}
    failures: dict = {}
    for spec in experiment.classifiers:
        name = spec.resolved_name
        successes: list[ClassifierReport] = []
        errors: list[str] = []
        for rep in sorted(reports, key=lambda r: r.index):
            for outcome in rep.outcomes:
                if outcome.name != name:
                    continue
                if isinstance(outcome, ClassifierFailure):
                    errors.append(f"replicate {rep.index}: {outcome.error}")
                else:
                    successes.append(outcome)
        failures[name] = {"count": len(errors), "errors": errors[:20]}
        if len(successes) < 2:
            raise AggregationError(
                f"classifier {name!r} has {len(successes)} successful replicates; "
                "need at least 2 to aggregate"
            )
        by_weighting: dict = {}
        for weighting in ("population", "weighted", "unweighted"):
            rows: dict[str, MetricAggregate] = {}
            per_rep = [metric_values(getattr(rep, weighting)) for rep in successes]
            for key in per_rep[0]:
                values = np.array([pr[key][0] for pr in per_rep])
                ses = [pr[key][1] for pr in per_rep if pr[key][1] is not None]
                r = values.size
                sd = float(values.std(ddof=1))
                rows[key] = MetricAggregate(
                    mean=float(values.mean()),
                    mc_sd=sd,
                    mc_se_of_mean=sd / math.sqrt(r),
                    replicates=r,
                    mean_linearized_se=float(np.mean(ses)) if ses else None,
                )
            by_weighting[weighting] = rows
        tables[name] = by_weighting
    metadata = dict(OUTPUT_METADATA)
    metadata["auroc_grid"] = (
        "exact" if experiment.auroc_grid == "exact"
        else f"uniform-{int(experiment.auroc_grid)}"
    )
    return ExperimentSummary(
        replicates_requested=experiment.replicates,
        tables=tables,
        failures=failures,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Running a whole experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    experiment: ExperimentSpec
    reports: tuple[ReplicateReport, ...]
    summary: ExperimentSummary


def resolve_population(experiment: ExperimentSpec) -> FinitePopulation:
    """Generate the synthetic population, or load the external file."""
    if experiment.population is not None:
        return generate_population(
            experiment.population, derive_stream(experiment.seed, "population")
        )
    from .io import DataSchema, ingest_csv  # deferred: io depends on nothing here

    if experiment.population_schema is None:
        raise SchemaError("population_file requires population_schema")
    schema = DataSchema.from_json_dict(experiment.population_schema)
    result = ingest_csv(experiment.population_file, schema)
    if result.population is None:
        raise SchemaError(
            "population_file must be declared a population (schema without weight column)"
        )
    return result.population


def run_experiment(
    experiment: ExperimentSpec,
    *,
    workers: int = 1,
    population: FinitePopulation | None = None,
) -> ExperimentResult:
    """Run all replicates (optionally on a thread pool) and aggregate.

    Output is independent of ``workers``: every replicate derives its own
    random streams from (seed, index, stage) and aggregation consumes
    reports in index order.
    """
    if population is None:
        population = resolve_population(experiment)
    StratifiedDesign(experiment.design_allocations).validate_against(population)
    cache = _PopulationCache(population)
    indices = range(experiment.replicates)
    if workers <= 1:
        reports = [
            run_replicate(experiment, population, i, _cache=cache) for i in indices
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(
                pool.map(
                    lambda i: run_replicate(experiment, population, i, _cache=cache),
                    indices,
                )
            )
    summary = aggregate(reports, experiment)
    return ExperimentResult(
        experiment=experiment, reports=tuple(reports), summary=summary
    )


# ---------------------------------------------------------------------------
# Experiment JSON round trip and text rendering
# ---------------------------------------------------------------------------


def _covariate_to_json(cov: Covariate) -> dict:
    if isinstance(cov, UniformCovariate):
        return {
            "name": cov.name,
            "kind": "uniform",
            "ranges": {s: list(r) for s, r in cov.ranges.items()},
        }
    if isinstance(cov, BernoulliCovariate):
        return {"name": cov.name, "kind": "bernoulli", "rates": dict(cov.rates)}
    return {
        "name": cov.name,
        "kind": "categorical",
        "levels": list(cov.levels),
        "probs": {s: list(p) for s, p in cov.probs.items()},
    }


def _covariate_from_json(payload: dict, strata: Sequence[str]) -> Covariate:
    kind = payload.get("kind")
    name = payload["name"]
    if kind == "uniform":
        if "range" in payload:  # shared across strata
            ranges = {s: tuple(payload["range"]) for s in strata}
        else:
            ranges = {s: tuple(r) for s, r in payload["ranges"].items()}
        return UniformCovariate(name=name, ranges=ranges)
    if kind == "bernoulli":
        if "rate" in payload:
            rates = {s: float(payload["rate"]) for s in strata}
        else:
            rates = {s: float(r) for s, r in payload["rates"].items()}
        return BernoulliCovariate(name=name, rates=rates)
    if kind == "categorical":
        levels = tuple(payload["levels"])
        if isinstance(payload["probs"], list):
            probs = {s: tuple(payload["probs"]) for s in strata}
        else:
            probs = {s: tuple(p) for s, p in payload["probs"].items()}
        return CategoricalCovariate(name=name, levels=levels, probs=probs)
    raise SchemaError(f"unknown covariate kind {kind!r}")


def population_spec_to_json_dict(spec: PopulationSpec) -> dict:
    return {
        "size": spec.size,
        "strata": list(spec.strata),
        "proportions": list(spec.proportions),
        "covariates": [_covariate_to_json(c) for c in spec.covariates],
        "outcome": {
            "intercept": spec.outcome.intercept,
            "coefficients": dict(spec.outcome.coefficients),
        },
    }


# "default" names the population the default experiment draws from.
POPULATION_PRESETS = {
    "experiment": default_experiment_population_spec,
    "default": default_experiment_population_spec,
    "paper": default_population_spec,
}


def population_spec_from_json_dict(payload: dict) -> PopulationSpec:
    if "preset" in payload:
        preset = payload["preset"]
        if preset not in POPULATION_PRESETS:
            raise SchemaError(
                f"unknown population preset {preset!r}; "
                f"expected one of {', '.join(POPULATION_PRESETS)}"
            )
        return POPULATION_PRESETS[preset](
            size=int(payload.get("size", DEFAULT_EXPERIMENT_POPULATION_SIZE))
        )
    strata = tuple(payload["strata"])
    return PopulationSpec(
        size=int(payload["size"]),
        strata=strata,
        proportions=tuple(float(p) for p in payload["proportions"]),
        covariates=tuple(
            _covariate_from_json(c, strata) for c in payload["covariates"]
        ),
        outcome=OutcomeModel(
            intercept=float(payload["outcome"]["intercept"]),
            coefficients={
                k: float(v) for k, v in payload["outcome"]["coefficients"].items()
            },
        ),
    )


def classifier_spec_to_json_dict(spec: ClassifierSpec) -> dict:
    return {
        "kind": spec.kind,
        "name": spec.name,
        "trees": spec.trees,
        "m_try": spec.m_try,
        "min_node_size": spec.min_node_size,
        "max_depth": spec.max_depth,
        "bootstrap": spec.bootstrap,
        "max_iterations": spec.max_iterations,
        "tolerance": spec.tolerance,
        "constant_score": spec.constant_score,
    }


def classifier_spec_from_json_dict(payload: dict) -> ClassifierSpec:
    defaults = ClassifierSpec(kind=payload["kind"])
    return ClassifierSpec(
        kind=payload["kind"],
        name=payload.get("name", defaults.name),
        trees=int(payload.get("trees", defaults.trees)),
        m_try=payload.get("m_try", defaults.m_try),
        min_node_size=int(payload.get("min_node_size", defaults.min_node_size)),
        max_depth=payload.get("max_depth", defaults.max_depth),
        bootstrap=bool(payload.get("bootstrap", defaults.bootstrap)),
        max_iterations=int(payload.get("max_iterations", defaults.max_iterations)),
        tolerance=float(payload.get("tolerance", defaults.tolerance)),
        constant_score=float(payload.get("constant_score", defaults.constant_score)),
    )


def experiment_to_json_dict(experiment: ExperimentSpec) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "seed": experiment.seed,
        "replicates": experiment.replicates,
        "design": {"allocations": dict(experiment.design_allocations)},
        "classifiers": [classifier_spec_to_json_dict(c) for c in experiment.classifiers],
        "population": None
        if experiment.population is None
        else population_spec_to_json_dict(experiment.population),
        "population_file": experiment.population_file,
        "population_schema": experiment.population_schema,
        "eval_fraction": experiment.eval_fraction,
        "thresholds": list(experiment.thresholds),
        "auroc_grid": experiment.auroc_grid,
        "include_sample_in_truth": experiment.include_sample_in_truth,
    }


def experiment_from_json_dict(payload: dict) -> ExperimentSpec:
    """Parse an experiment spec; any missing key or wrong type raises
    SchemaError, and an invalid value raises DataValidationError."""
    if not isinstance(payload, dict):
        raise SchemaError("experiment spec must be a JSON object")
    version = payload.get("spec_version")
    if version != SPEC_VERSION:
        raise SchemaError(f"unsupported experiment spec version {version!r}")
    if "seed" not in payload:
        raise SchemaError("experiment spec must carry an explicit seed")
    try:
        population = payload.get("population")
        return ExperimentSpec(
            seed=int(payload["seed"]),
            replicates=int(payload["replicates"]),
            design_allocations={
                k: int(v) for k, v in payload["design"]["allocations"].items()
            },
            classifiers=tuple(
                classifier_spec_from_json_dict(c) for c in payload["classifiers"]
            ),
            population=None if population is None else population_spec_from_json_dict(population),
            population_file=payload.get("population_file"),
            population_schema=payload.get("population_schema"),
            eval_fraction=float(payload.get("eval_fraction", 0.2)),
            thresholds=tuple(float(t) for t in payload.get("thresholds", [0.5])),
            auroc_grid=payload.get("auroc_grid", 101),
            include_sample_in_truth=bool(payload.get("include_sample_in_truth", True)),
        )
    except KeyError as exc:
        raise SchemaError(f"experiment spec is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed experiment spec: {exc}") from exc


def render_summary_json(payload: dict) -> str:
    """Aligned text table (one block per classifier) from the JSON mirror.

    Rendering from the JSON-dict form guarantees every printed number is
    exactly a 4-decimal view of a value present in the machine output.
    """
    lines: list[str] = []
    for name, by_weighting in payload["classifiers"].items():
        n_ok = next(iter(by_weighting["population"].values()))["replicates"]
        failed = payload["failures"].get(name, {}).get("count", 0)
        lines.append(f"Classifier: {name}  ({n_ok} replicates, {failed} failed)")
        lines.append(
            f"  {'Metric':<20} {'Population':<20} {'Unweighted':<20} {'Weighted':<20}".rstrip()
        )
        for key in by_weighting["population"]:
            row = f"  {key:<20}"
            for weighting in ("population", "unweighted", "weighted"):
                agg = by_weighting[weighting][key]
                cell = f"{agg['mean']:.4f} ({agg['mc_sd']:.4f})"
                row += f" {cell:<20}"
            lines.append(row.rstrip())
        lines.append("")
    lines.append("Parentheses hold Monte Carlo standard deviations across replicates;")
    lines.append("the JSON mirror also carries SD/sqrt(R) for each entry.")
    return "\n".join(lines)


def render_summary(summary: ExperimentSummary) -> str:
    return render_summary_json(summary.to_json_dict())
