"""Monte Carlo harness: synthetic populations and replicated experiments.

A replicate draws a stratified sample from a fixed finite population,
splits it into training and test parts, trains the configured classifiers
(unweighted; upsampling only for the balanced variant), scores the
population, reads the truth metrics from each distinct feature pattern's
score and its count of positive and negative rows, and computes weighted
and unweighted test-split estimates.  Replicates are aggregated
into means and Monte Carlo standard deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

# No caller here; re-exported because perfbench's tracer swaps these names.
from .classifiers.encoding import extract_columns  # noqa: F401
from .estimation import population_truth  # noqa: F401
from .roc import auroc, roc_sweep  # noqa: F401
from .classifiers.forest import ForestConfig, fit_forest
from .classifiers.imbalance import upsample_minority
from .classifiers.logistic import LogisticConfig, fit_logistic
from .classifiers.tree import TreeConfig, distinct_rows, fit_tree, row_counts
from .errors import (
    AggregationError,
    DataValidationError,
    NumericalError,
    SchemaError,
)
from .evaluation import EvaluationSummary, evaluation_summary, parse_grid, population_summary
from .io import DataSchema, check_keys, expect, from_json, ingest_csv, read_fields, to_json
from .roc import uniform_grid
from .rng import derive_stream
from .sampling import StratifiedDesign, split_train_test, stratified_sample
from .types import EvaluationSet, FinitePopulation

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

    @classmethod
    def from_json_dict(cls, payload) -> "PopulationSpec":
        """A preset population (``{"preset": name, "size": N}``) or an inline spec."""
        if "preset" in expect(payload, dict, "a JSON object for the population"):
            check_keys(payload, ("preset", "size"))
            preset = payload["preset"]
            if preset not in POPULATION_PRESETS:
                raise SchemaError(
                    f"unknown population preset {preset!r}; "
                    f"expected one of {', '.join(POPULATION_PRESETS)}"
                )
            return POPULATION_PRESETS[preset](
                size=int(payload.get("size", DEFAULT_EXPERIMENT_POPULATION_SIZE))
            )
        covariates = payload.get("covariates")
        if isinstance(covariates, list):
            strata = from_json(tuple[str, ...], payload.get("strata", []))
            payload = {**payload, "covariates": [_per_stratum(c, strata) for c in covariates]}
        return read_fields(cls, payload)

    def __post_init__(self):
        if self.size < 1:
            raise DataValidationError("population size must be >= 1")
        if len(self.strata) != len(self.proportions) or not self.strata:
            raise DataValidationError("strata and proportions must align and be non-empty")
        if len(set(self.strata)) != len(self.strata):
            raise DataValidationError(f"strata must be distinct, got {list(self.strata)}")
        if any(not (0.0 <= p <= 1.0) for p in self.proportions):  # NaN too
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
            if isinstance(cov, UniformCovariate):
                for s, (lo, hi) in cov.ranges.items():
                    if not (lo <= hi and math.isfinite(hi - lo)):  # NaN too
                        raise DataValidationError(
                            f"range of {cov.name!r} in stratum {s!r} must have low <= high "
                            f"and a finite width, got [{lo}, {hi}]"
                        )
            if isinstance(cov, BernoulliCovariate):
                if any(not (0.0 <= r <= 1.0) for r in cov.rates.values()):
                    raise DataValidationError(f"rates of {cov.name!r} must lie in [0, 1]")
            if isinstance(cov, CategoricalCovariate):
                for s, p in cov.probs.items():
                    in_range = all(0.0 <= q <= 1.0 for q in p)  # NaN too
                    if len(p) != len(cov.levels) or not in_range or abs(sum(p) - 1.0) > 1e-9:
                        raise DataValidationError(
                            f"probabilities of {cov.name!r} invalid in stratum {s!r}"
                        )
        if not math.isfinite(self.outcome.intercept):
            raise DataValidationError("outcome intercept must be finite")
        for name, coef in self.outcome.coefficients.items():
            cov = next((c for c in self.covariates if c.name == name), None)
            if cov is None:
                raise DataValidationError(f"outcome references unknown covariate {name!r}")
            if not math.isfinite(coef):
                raise DataValidationError(f"outcome coefficient of {name!r} must be finite")
            if isinstance(cov, CategoricalCovariate):
                raise DataValidationError(
                    "outcome model supports numeric covariates only; "
                    f"{name!r} is categorical"
                )


_ID_CHUNK = 1 << 14  # rows per label conversion; bounds the temporary digit matrix


def record_ids(n: int) -> np.ndarray:
    """Ids of ``n`` generated rows, ``r%0{w}d`` with ``w`` one more than the
    digits below ``max(n, 10)``, as an object column of Python strings.

    Each chunk of rows is a matrix of character codes viewed as fixed-width
    unicode, so no Python-level format call runs per row.
    """
    width = int(math.log10(max(n, 10))) + 1
    ids = np.empty(n, dtype=object)
    for start in range(0, n, _ID_CHUNK):
        stop = min(start + _ID_CHUNK, n)
        rows = np.arange(start, stop)
        codes = np.empty((rows.size, width + 1), dtype=np.uint32)
        codes[:, 0] = ord("r")
        for j in range(width, 0, -1):
            codes[:, j] = rows % 10 + ord("0")
            rows //= 10
        ids[start:stop] = codes.view(f"U{width + 1}").ravel()
    return ids


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> FinitePopulation:
    """Generate the columns of a population: stratum, covariates, outcome.

    Draw order is fixed (stratum, then covariates in declaration order,
    then the outcome), so a seeded stream reproduces the population.
    """
    n = spec.size
    k = len(spec.strata)
    stratum_idx = rng.choice(k, size=n, p=np.asarray(spec.proportions))

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
    return FinitePopulation(
        ids=record_ids(n),
        outcomes=(rng.random(n) < prob).astype(np.int8),
        strata=stratum_idx,
        stratum_labels=spec.strata,
        features=tuple(columns),
    )


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
    trees: int = ForestConfig.trees
    m_try: int | None = ForestConfig.m_try
    min_node_size: int = ForestConfig.min_node_size
    max_depth: int | None = ForestConfig.max_depth
    bootstrap: bool = ForestConfig.bootstrap
    max_iterations: int = LogisticConfig.max_iterations
    tolerance: float = LogisticConfig.tolerance
    constant_score: float = 1.0

    KINDS = ("logistic", "tree", "forest", "balanced_forest", "constant")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DataValidationError(f"unknown classifier kind {self.kind!r}")
        if not (0.0 <= self.constant_score <= 1.0):  # NaN too
            raise DataValidationError(
                f"constant_score must lie in [0, 1], got {self.constant_score}"
            )
        # Build both configs so their checks apply to every kind.
        self.config(ForestConfig)
        self.config(LogisticConfig)

    @property
    def resolved_name(self) -> str:
        return self.name or self.kind

    def config(self, cls):
        """The config ``cls`` (forest, tree or logistic) built from this spec's fields."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


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
        if self.seed < 0:
            raise DataValidationError(f"seed must be non-negative, got {self.seed}")
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
        object.__setattr__(self, "auroc_grid", parse_grid(self.auroc_grid, "auroc_grid"))
        if self.auroc_grid != "exact":
            # Here, not in every replicate, where it would fail each classifier.
            uniform_grid(self.auroc_grid)


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
        return to_json(self)


@dataclass(frozen=True)
class ReplicateReport:
    index: int
    outcomes: tuple[ClassifierReport | ClassifierFailure, ...]


@dataclass(frozen=True)
class PatternTable:
    """The distinct raw feature rows of a population.

    ``representatives`` holds the first row of each pattern, ``inverse``
    (int32) each row's pattern, and ``positives`` and ``negatives`` the
    rows of each pattern by outcome, as float64 counts.  A replicate reads
    the census truth from each pattern's score and counts.
    """

    representatives: np.ndarray
    inverse: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    @classmethod
    def of(cls, population: FinitePopulation) -> "PatternTable":
        representatives, inverse = distinct_rows(population.features, population.size)
        count, positives = row_counts(inverse, population.outcomes, representatives.size)
        arrays = (representatives, inverse.astype(np.int32), positives, count - positives)
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)


def fit_classifier(spec: ClassifierSpec, data: FinitePopulation, rows: np.ndarray, stream):
    """Fit ``spec`` (any kind but ``constant``) on ``rows`` of ``data``.

    ``stream(stage)`` gives the random stream of the ``"upsample"`` and
    ``"train"`` stages; only the kinds that draw call it.
    """
    if spec.kind == "constant":
        raise DataValidationError("a constant classifier has no model to fit")
    if spec.kind == "balanced_forest":
        rows = rows[upsample_minority(data.outcomes[rows], stream("upsample"))]
    if spec.kind in ("forest", "balanced_forest"):
        # A forest fits its rows in id order, and equal ids are copies of one
        # row, so row order cannot change it; in population order, ids that
        # ascend with the rows reach its sort as one ascending run.
        rows = np.sort(rows)
    columns = [col[rows] for col in data.features]
    y = data.outcomes[rows]
    if spec.kind == "logistic":
        return fit_logistic(columns, y, spec.config(LogisticConfig))
    if spec.kind == "tree":
        return fit_tree(columns, y, spec.config(TreeConfig))
    return fit_forest(columns, y, data.ids[rows], spec.config(ForestConfig), rng=stream("train"))


def _fit_and_score(
    spec: ClassifierSpec,
    population: FinitePopulation,
    train_rows: np.ndarray,
    master_seed: int,
    index: int,
) -> np.ndarray:
    """Train one classifier on the given population rows and score every
    row; DataValidationError unless every score lies in [0, 1]."""
    if spec.kind == "constant":
        return np.full(population.size, spec.constant_score)
    name = spec.resolved_name
    stream = lambda stage: derive_stream(master_seed, index, f"{stage}:{name}")  # noqa: E731
    model = fit_classifier(spec, population, train_rows, stream)
    scores = model.predict_proba_columns(population.features, n_rows=population.size)
    if not np.all(np.isfinite(scores)) or np.any((scores < 0.0) | (scores > 1.0)):
        raise DataValidationError("scores must lie in [0, 1]")
    return scores


def run_replicate(
    experiment: ExperimentSpec,
    population: FinitePopulation,
    index: int,
    patterns: PatternTable,
) -> ReplicateReport:
    """Run one sample/split/train/evaluate cycle.

    ``patterns`` is the population's :class:`PatternTable`.  Classifier and
    estimator failures are recorded per classifier rather than aborting the
    replicate set.
    """
    design = StratifiedDesign(experiment.design_allocations)
    sample = stratified_sample(
        population, design, derive_stream(experiment.seed, index, "sample")
    )
    train_sample, eval_sample = split_train_test(
        sample, experiment.eval_fraction, derive_stream(experiment.seed, index, "split")
    )
    eval_rows = eval_sample.rows

    # The census truth counts each pattern's rows, less the sample's when
    # the sample is left out of the truth.
    positives, negatives = patterns.positives, patterns.negatives
    if not experiment.include_sample_in_truth:
        count, pos = row_counts(
            patterns.inverse[sample.rows],
            population.outcomes[sample.rows],
            patterns.representatives.size,
        )
        positives, negatives = positives - pos, negatives - (count - pos)

    outcomes: list[ClassifierReport | ClassifierFailure] = []
    for spec in experiment.classifiers:
        try:
            scores = _fit_and_score(spec, population, train_sample.rows, experiment.seed, index)
            truth_summary = population_summary(
                scores[patterns.representatives],
                positives,
                negatives,
                experiment.thresholds,
                experiment.auroc_grid,
            )
            evaluation = EvaluationSet(
                ids=eval_sample.ids,
                weights=eval_sample.weights,
                outcomes=population.outcomes[eval_rows],
                scores=scores[eval_rows],
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
                    population=truth_summary,
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
    return ReplicateReport(index=index, outcomes=tuple(outcomes))


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


@dataclass(frozen=True)
class ExperimentSummary:
    replicates_requested: int
    tables: dict = field(metadata={"json": "classifiers"})
    failures: dict
    metadata: dict = field(default_factory=lambda: dict(OUTPUT_METADATA))

    def to_json_dict(self) -> dict:
        return to_json(self)


def threshold_label(threshold: float) -> str:
    """``threshold`` as ``:g`` writes it when that reads back exactly, else
    its repr, so two distinct thresholds never share a label."""
    text = f"{threshold:g}"
    return text if float(text) == threshold else repr(threshold)


def metric_key(kind: str, threshold: float | None = None) -> str:
    return kind if threshold is None else f"{kind}@{threshold_label(threshold)}"


def metric_values(summary: EvaluationSummary) -> dict[str, tuple[float, float | None]]:
    """Map each metric key of a summary to its (value, standard error)."""
    out: dict[str, tuple[float, float | None]] = {}
    for tm in summary.at_thresholds:
        for metric in (tm.sensitivity, tm.specificity):
            out[metric_key(metric.kind, tm.threshold)] = (metric.value, metric.standard_error)
    out[metric_key("auroc")] = (summary.auroc.value, summary.auroc.standard_error)
    return out


def replicate_rows(reports: Sequence[ReplicateReport]) -> list[list]:
    """Rows of the per-replicate dump: replicate, classifier, weighting,
    metric, value and standard error (as ``repr``; "" for none), or a
    ``failure`` row that carries the error in the metric column."""
    rows = []
    for rep in reports:
        for outcome in rep.outcomes:
            if isinstance(outcome, ClassifierFailure):
                rows.append([rep.index, outcome.name, "failure", outcome.error, "", ""])
                continue
            for weighting in ("population", "weighted", "unweighted"):
                for key, (value, se) in metric_values(getattr(outcome, weighting)).items():
                    rows.append([rep.index, outcome.name, weighting, key, repr(value),
                                 "" if se is None else repr(se)])
    return rows


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
    grid = experiment.auroc_grid
    metadata["auroc_grid"] = "exact" if grid == "exact" else f"uniform-{grid}"
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
    reports: tuple[ReplicateReport, ...]
    summary: ExperimentSummary


def resolve_population(experiment: ExperimentSpec) -> FinitePopulation:
    """Generate the synthetic population, or load the external file."""
    if experiment.population is not None:
        return generate_population(
            experiment.population, derive_stream(experiment.seed, "population")
        )
    if experiment.population_schema is None:
        raise SchemaError("population_file requires population_schema")
    try:
        schema = from_json(DataSchema, experiment.population_schema)
    except SchemaError as exc:
        raise SchemaError(f"population_schema: {exc}") from exc
    if schema.weight_column is not None:
        raise SchemaError(
            "population_file must be declared a population (schema without weight column)"
        )
    return ingest_csv(experiment.population_file, schema).data


def run_experiment(
    experiment: ExperimentSpec,
    *,
    workers: int = 1,
    population: FinitePopulation | None = None,
) -> ExperimentResult:
    """Run all replicates in index order on the calling thread, and aggregate.

    ``workers`` is accepted and has no effect.  Every replicate derives its
    own random streams from (seed, index, stage), so a parallel runner may
    give it a meaning again without changing any output.
    """
    if population is None:
        population = resolve_population(experiment)
    StratifiedDesign(experiment.design_allocations).validate_against(population)
    patterns = PatternTable.of(population)
    reports = tuple(
        run_replicate(experiment, population, i, patterns)
        for i in range(experiment.replicates)
    )
    return ExperimentResult(reports=reports, summary=aggregate(reports, experiment))


# ---------------------------------------------------------------------------
# Experiment JSON round trip and text rendering
# ---------------------------------------------------------------------------


# "default" names the population the default experiment draws from.
POPULATION_PRESETS = {
    "experiment": default_experiment_population_spec,
    "default": default_experiment_population_spec,
    "paper": default_population_spec,
}


def experiment_to_json_dict(experiment: ExperimentSpec) -> dict:
    payload = to_json(experiment)
    payload["design"] = {"allocations": payload.pop("design_allocations")}
    return {"spec_version": SPEC_VERSION, **payload}


def _per_stratum(covariate, strata: tuple[str, ...]):
    """Move a covariate's ``range``, ``rate`` or list ``probs`` into its kind's table."""
    if not isinstance(covariate, dict):
        return covariate
    covariate = dict(covariate)
    short, table = {"uniform": ("range", "ranges"), "bernoulli": ("rate", "rates"),
                    "categorical": ("probs", "probs")}.get(covariate.get("kind"), ("", ""))
    if short in covariate and (short != "probs" or isinstance(covariate[short], list)):
        covariate[table] = dict.fromkeys(strata, covariate.pop(short))
    return covariate


def experiment_from_json_dict(payload: dict) -> ExperimentSpec:
    """Parse an experiment spec; any missing or unknown key or wrong type
    raises SchemaError, and an invalid value raises DataValidationError."""
    if not isinstance(payload, dict):
        raise SchemaError("experiment spec must be a JSON object")
    version = payload.get("spec_version")
    if version != SPEC_VERSION:
        raise SchemaError(f"unsupported experiment spec version {version!r}")
    if "seed" not in payload:
        raise SchemaError("experiment spec must carry an explicit seed")
    try:
        spec = {k: v for k, v in payload.items() if k not in ("spec_version", "design")}
        if "design_allocations" in spec:  # the field is written only under "design"
            raise SchemaError("unknown key 'design_allocations'")
        try:
            design = read_fields(StratifiedDesign, payload["design"])
        except SchemaError as exc:
            raise SchemaError(f"design: {exc}") from exc
        return read_fields(ExperimentSpec, {**spec, "design_allocations": design.allocations})
    except KeyError as exc:
        raise SchemaError(f"experiment spec is missing key {exc.args[0]!r}") from exc
    except (SchemaError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
