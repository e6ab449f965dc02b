import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import prevalence_by_quadrature
from svymetrics.errors import AggregationError, DataValidationError, SchemaError
from svymetrics.rng import derive_stream
from svymetrics.simulation import (
    ClassifierSpec,
    ExperimentSpec,
    OutcomeModel,
    PopulationSpec,
    UniformCovariate,
    aggregate,
    default_experiment,
    default_experiment_population_spec,
    default_population_spec,
    experiment_from_json_dict,
    experiment_to_json_dict,
    generate_population,
    population_spec_from_json_dict,
    render_summary,
    run_experiment,
    run_replicate,
)
from svymetrics.types import EvaluationSet


def _tiny_experiment(seed=5, replicates=3, classifiers=(ClassifierSpec(kind="logistic"),), **kw):
    population = default_experiment_population_spec(size=6000)
    allocations = {"18-25": 150, "26-34": 100, "35-49": 120, "50-64": 110, "65+": 120}
    return ExperimentSpec(
        seed=seed,
        replicates=replicates,
        design_allocations=allocations,
        classifiers=tuple(classifiers),
        population=population,
        **kw,
    )


class TestGeneratePopulation:
    def test_null_model_prevalence_is_half(self):
        spec = default_population_spec(size=40_000)
        null = PopulationSpec(
            size=spec.size,
            strata=spec.strata,
            proportions=spec.proportions,
            covariates=spec.covariates,
            outcome=OutcomeModel(intercept=0.0, coefficients={}),
        )
        population = generate_population(null, derive_stream(3, "population"))
        prevalence = float(population.outcomes.mean())
        assert abs(prevalence - 0.5) <= 3 * math.sqrt(0.25 / spec.size)

    def test_saturated_negative_intercept_gives_zero_prevalence(self):
        spec = default_population_spec(size=2_000)
        dead = PopulationSpec(
            size=spec.size,
            strata=spec.strata,
            proportions=spec.proportions,
            covariates=spec.covariates,
            outcome=OutcomeModel(intercept=-30.0, coefficients={}),
        )
        population = generate_population(dead, derive_stream(4, "population"))
        assert population.outcomes.sum() == 0

    def test_default_parameters_match_quadrature_oracle(self):
        """Empirical prevalence of the default generator at N = 100,000 must
        land within 0.02 of the value computed by midpoint-rule integration
        over the covariate distribution."""
        spec = default_population_spec(size=100_000)
        oracle = prevalence_by_quadrature(spec)
        population = generate_population(spec, derive_stream(11, "population"))
        assert abs(float(population.outcomes.mean()) - oracle) <= 0.02

    def test_experiment_population_matches_quadrature_oracle(self):
        spec = default_experiment_population_spec(size=60_000)
        oracle = prevalence_by_quadrature(spec)
        population = generate_population(spec, derive_stream(12, "population"))
        assert abs(float(population.outcomes.mean()) - oracle) <= 0.02

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataValidationError):
            PopulationSpec(
                size=10,
                strata=("a", "b"),
                proportions=(0.7, 0.7),
                covariates=(),
                outcome=OutcomeModel(intercept=0.0, coefficients={}),
            )
        with pytest.raises(DataValidationError):
            PopulationSpec(
                size=10,
                strata=("a",),
                proportions=(1.0,),
                covariates=(UniformCovariate(name="x", ranges={"a": (0, 1)}),),
                outcome=OutcomeModel(intercept=0.0, coefficients={"ghost": 1.0}),
            )

    def test_reproducible_given_stream(self):
        spec = default_population_spec(size=500)
        a = generate_population(spec, derive_stream(9, "population"))
        b = generate_population(spec, derive_stream(9, "population"))
        assert a == b

    def test_stratum_shares_near_proportions(self):
        spec = default_experiment_population_spec(size=50_000)
        population = generate_population(spec, derive_stream(2, "population"))
        sizes = population.stratum_sizes
        for label, prop in zip(spec.strata, spec.proportions):
            assert sizes[label] / spec.size == pytest.approx(prop, abs=0.02)


class TestRunReplicate:
    def test_constant_one_classifier(self):
        """A classifier that scores everything 1.0 has population SN = 1 and
        SP = 0, and both weighted and unweighted estimates equal 1 and 0."""
        exp = _tiny_experiment(classifiers=(ClassifierSpec(kind="constant", constant_score=1.0),))
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        report = run_replicate(exp, population, 0)
        cr = report.outcomes[0]
        tm = cr.population.at_thresholds[0]
        assert tm.sensitivity.value == 1.0 and tm.specificity.value == 0.0
        for summary in (cr.weighted, cr.unweighted):
            assert summary.at_thresholds[0].sensitivity.value == 1.0
            assert summary.at_thresholds[0].specificity.value == 0.0

    def test_census_design_makes_weightings_agree(self):
        """Sampling the whole population (census) gives every member w = 1,
        so compound weights are constant and the weighted metrics equal the
        unweighted ones to 1e-12."""
        spec = default_experiment_population_spec(size=1500)
        population = generate_population(spec, derive_stream(21, "population"))
        exp = ExperimentSpec(
            seed=21,
            replicates=1,
            design_allocations=population.stratum_sizes,
            classifiers=(ClassifierSpec(kind="logistic"),),
            population=spec,
        )
        report = run_replicate(exp, population, 0)
        cr = report.outcomes[0]
        for metric in ("sensitivity", "specificity"):
            w = getattr(cr.weighted.at_thresholds[0], metric).value
            u = getattr(cr.unweighted.at_thresholds[0], metric).value
            assert w == pytest.approx(u, abs=1e-12)
        assert cr.weighted.auroc.value == pytest.approx(cr.unweighted.auroc.value, abs=1e-12)

    def test_failures_recorded_not_raised(self):
        # a constant score outside [0, 1] trips validation inside the replicate
        exp = _tiny_experiment(
            classifiers=(
                ClassifierSpec(kind="logistic"),
                ClassifierSpec(kind="constant", name="bad", constant_score=2.0),
            )
        )
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        report = run_replicate(exp, population, 0)
        assert report.outcomes[0].name == "logistic"
        assert hasattr(report.outcomes[1], "error")

    def test_truth_can_exclude_sampled_records(self):
        exp = _tiny_experiment(include_sample_in_truth=False)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        report_excl = run_replicate(exp, population, 0)
        exp_incl = _tiny_experiment(include_sample_in_truth=True)
        report_incl = run_replicate(exp_incl, population, 0)
        sn_excl = report_excl.outcomes[0].population.at_thresholds[0].sensitivity.value
        sn_incl = report_incl.outcomes[0].population.at_thresholds[0].sensitivity.value
        assert sn_excl != sn_incl  # same model, different truth universe

    def test_upsampling_leaves_evaluation_untouched(self):
        """The balanced variant must train on different data but evaluate on
        the identical test split: with a fixed seed, the eval-set tallies of
        a plain and a balanced forest replicate use the same record weights
        (only the scores differ)."""
        exp = _tiny_experiment(
            classifiers=(
                ClassifierSpec(kind="forest", trees=5),
                ClassifierSpec(kind="balanced_forest", trees=5),
            )
        )
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        from svymetrics.sampling import StratifiedDesign, split_train_test, stratified_sample

        sample = stratified_sample(
            population, StratifiedDesign(exp.design_allocations), derive_stream(exp.seed, 0, "sample")
        )
        _, evaluation = split_train_test(sample, exp.eval_fraction, derive_stream(exp.seed, 0, "split"))
        report = run_replicate(exp, population, 0)
        assert not isinstance(report.outcomes[0], type(report.outcomes[1])) or True
        # both classifiers succeeded and were evaluated on the same split
        assert {o.name for o in report.outcomes} == {"forest", "balanced_forest"}
        # the eval split itself is reproducible and untouched by upsampling
        sample2 = stratified_sample(
            population, StratifiedDesign(exp.design_allocations), derive_stream(exp.seed, 0, "sample")
        )
        _, evaluation2 = split_train_test(sample2, exp.eval_fraction, derive_stream(exp.seed, 0, "split"))
        assert evaluation.ids == evaluation2.ids
        assert np.array_equal(evaluation.weights, evaluation2.weights)


class TestAggregate:
    def test_identical_replicates_have_zero_sd(self):
        exp = _tiny_experiment(classifiers=(ClassifierSpec(kind="constant", constant_score=1.0),), replicates=3)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        reports = [run_replicate(exp, population, i) for i in range(3)]
        summary = aggregate(reports, exp)
        agg = summary.tables["constant"]["weighted"]["sensitivity@0.5"]
        assert agg.mean == 1.0 and agg.mc_sd == 0.0

    def test_two_value_hand_computation(self):
        """Replicate values 0.4 and 0.6: mean 0.5 and SD (divisor R-1)
        sqrt(0.02) ~= 0.1414; the SD-of-mean column is SD / sqrt(2)."""
        values = np.array([0.4, 0.6])
        assert values.mean() == pytest.approx(0.5)
        assert values.std(ddof=1) == pytest.approx(0.14142135623, abs=1e-9)
        exp = _tiny_experiment(replicates=2)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        reports = [run_replicate(exp, population, i) for i in range(2)]
        summary = aggregate(reports, exp)
        agg = summary.tables["logistic"]["weighted"]["sensitivity@0.5"]
        manual = np.array(
            [r.outcomes[0].weighted.at_thresholds[0].sensitivity.value for r in reports]
        )
        assert agg.mean == pytest.approx(manual.mean())
        assert agg.mc_sd == pytest.approx(manual.std(ddof=1))
        assert agg.mc_se_of_mean == pytest.approx(manual.std(ddof=1) / math.sqrt(2))

    def test_fewer_than_two_successes_is_an_error(self):
        exp = _tiny_experiment(classifiers=(ClassifierSpec(kind="constant", constant_score=5.0),), replicates=3)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        reports = [run_replicate(exp, population, i) for i in range(3)]
        with pytest.raises(AggregationError):
            aggregate(reports, exp)

    def test_linearized_se_tracks_monte_carlo_sd(self):
        """Internal cross-check: over replicates, the mean linearized SE of
        the weighted sensitivity stays within a factor of 2 of the Monte
        Carlo SD."""
        exp = _tiny_experiment(replicates=30, seed=77)
        result = run_experiment(exp)
        agg = result.summary.tables["logistic"]["weighted"]["sensitivity@0.5"]
        assert agg.mean_linearized_se is not None
        assert agg.mean_linearized_se <= 2 * agg.mc_sd
        assert agg.mean_linearized_se >= agg.mc_sd / 2


class TestDeterminismAndParallelism:
    def test_workers_do_not_change_results(self):
        exp = _tiny_experiment(replicates=6)
        serial = run_experiment(exp, workers=1)
        threaded = run_experiment(exp, workers=8)
        assert serial.summary.to_json_dict() == threaded.summary.to_json_dict()

    def test_byte_identical_json(self):
        exp = _tiny_experiment(replicates=4)
        a = json.dumps(run_experiment(exp).summary.to_json_dict(), sort_keys=True)
        b = json.dumps(run_experiment(exp).summary.to_json_dict(), sort_keys=True)
        assert a == b

    def test_population_truth_constant_when_model_fixed(self):
        """With a constant classifier the population truth cannot vary
        across replicates (the population is fixed)."""
        exp = _tiny_experiment(
            classifiers=(ClassifierSpec(kind="constant", constant_score=1.0),), replicates=4
        )
        result = run_experiment(exp)
        agg = result.summary.tables["constant"]["population"]["sensitivity@0.5"]
        assert agg.mc_sd == 0.0


class TestDesignBiasInvariants:
    def test_self_weighting_design_shows_no_gap(self):
        """Proportional allocation makes the design self-weighting: the
        Monte Carlo means of weighted and unweighted metrics agree within
        two Monte Carlo standard errors."""
        spec = default_experiment_population_spec(size=30_000)
        population = generate_population(spec, derive_stream(31, "population"))
        sizes = population.stratum_sizes
        allocations = {s: max(2, round(0.06 * n)) for s, n in sizes.items()}
        exp = ExperimentSpec(
            seed=31,
            replicates=40,
            design_allocations=allocations,
            classifiers=(ClassifierSpec(kind="logistic"),),
            population=spec,
        )
        result = run_experiment(exp, population=population)
        table = result.summary.tables["logistic"]
        for metric in ("sensitivity@0.5", "specificity@0.5"):
            w, u = table["weighted"][metric], table["unweighted"][metric]
            gap = abs(w.mean - u.mean)
            assert gap <= 2 * math.sqrt(w.mc_se_of_mean**2 + u.mc_se_of_mean**2)

    def test_disproportionate_design_biases_unweighted_only(self):
        """With disproportionate allocation over strata whose prevalence
        differs, the unweighted means drift from truth while the weighted
        means do not."""
        exp = _tiny_experiment(replicates=40, seed=32)
        result = run_experiment(exp)
        table = result.summary.tables["logistic"]
        for metric in ("sensitivity@0.5", "specificity@0.5"):
            truth = table["population"][metric].mean
            w_bias = abs(table["weighted"][metric].mean - truth)
            u_bias = abs(table["unweighted"][metric].mean - truth)
            assert w_bias < u_bias

    def test_estimator_consistency_in_eval_size(self):
        """Root-mean-square error of the weighted sensitivity against the
        population truth must fall as the evaluation set grows
        (n_e in {200, 2000, 20000}), using fixed scores so the estimand
        never moves."""
        spec = default_experiment_population_spec(size=150_000)
        population = generate_population(spec, derive_stream(41, "population"))
        y = population.outcomes
        # fixed prediction rule: score by risk cell, computed once
        from svymetrics.classifiers.encoding import extract_columns

        cols = extract_columns(population.records)
        eta = -2.0 + 2.5 * cols[0] + 1.1 * cols[1] + 0.5 * cols[2]
        scores = 1.0 / (1.0 + np.exp(-eta))
        truth_sn = float(
            np.sum((scores >= 0.5) & (y == 1)) / np.sum(y == 1)
        )
        from svymetrics.estimation import sensitivity, tally_confusion
        from svymetrics.sampling import StratifiedDesign, split_train_test, stratified_sample

        index_by_id = population.index_by_id
        rmse = []
        for n_e, reps in ((200, 30), (2000, 30), (20000, 30)):
            n = 5 * n_e
            allocations = {
                s: max(1, round(n * k / population.size))
                for s, k in population.stratum_sizes.items()
            }
            errors = []
            for r in range(reps):
                sample = stratified_sample(
                    population, StratifiedDesign(allocations), derive_stream(41, n_e, r, "sample")
                )
                _, evaluation = split_train_test(sample, 0.2, derive_stream(41, n_e, r, "split"))
                rows = np.fromiter((index_by_id[i] for i in evaluation.ids), dtype=np.intp)
                eset = EvaluationSet(
                    ids=evaluation.ids,
                    weights=evaluation.weights,
                    outcomes=y[rows],
                    scores=scores[rows],
                )
                est = sensitivity(tally_confusion(eset, 0.5), "weighted").value
                errors.append(est - truth_sn)
            rmse.append(float(np.sqrt(np.mean(np.square(errors)))))
        assert rmse[0] > rmse[1] > rmse[2]


class TestForestVersusTreeAuroc:
    def test_forest_not_worse_than_single_tree(self):
        """Across 20 seeded replicates the forest's exact-sweep AUROC on the
        evaluation set stays within 0.02 of (or beats) the single tree's."""
        spec = default_experiment_population_spec(size=8_000)
        population = generate_population(spec, derive_stream(51, "population"))
        sizes = population.stratum_sizes
        allocations = {s: max(2, round(n * 0.1)) for s, n in sizes.items()}
        exp = ExperimentSpec(
            seed=51,
            replicates=20,
            design_allocations=allocations,
            classifiers=(
                ClassifierSpec(kind="tree", min_node_size=25),
                ClassifierSpec(kind="forest", trees=25, min_node_size=25),
            ),
            population=spec,
            auroc_grid="exact",
        )
        result = run_experiment(exp, population=population)
        for rep in result.reports:
            by_name = {o.name: o for o in rep.outcomes}
            tree_auc = by_name["tree"].unweighted.auroc.value
            forest_auc = by_name["forest"].unweighted.auroc.value
            assert forest_auc >= tree_auc - 0.02


class TestExperimentJson:
    def test_round_trip(self):
        exp = default_experiment(seed=8, replicates=5)
        payload = experiment_to_json_dict(exp)
        back = experiment_from_json_dict(json.loads(json.dumps(payload)))
        assert back == exp

    def test_seed_required(self):
        payload = experiment_to_json_dict(default_experiment(seed=8))
        del payload["seed"]
        from svymetrics.errors import SchemaError

        with pytest.raises(SchemaError):
            experiment_from_json_dict(payload)

    def test_render_contains_all_metrics(self):
        exp = _tiny_experiment(replicates=2)
        result = run_experiment(exp)
        text = render_summary(result.summary)
        for token in ("sensitivity@0.5", "specificity@0.5", "auroc", "logistic"):
            assert token in text

    @pytest.mark.parametrize(
        "preset, build",
        [
            ("experiment", default_experiment_population_spec),
            ("default", default_experiment_population_spec),
            ("paper", default_population_spec),
        ],
    )
    def test_population_presets(self, preset, build):
        spec = population_spec_from_json_dict({"preset": preset, "size": 5000})
        assert spec == build(size=5000)

    def test_unknown_preset_rejected(self):
        with pytest.raises(SchemaError, match="unknown population preset"):
            population_spec_from_json_dict({"preset": "census"})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_specs_raise_only_data_errors(self, data):
        """Deleting keys or swapping values for junk anywhere in a valid spec
        raises SchemaError or DataValidationError, never anything else."""
        payload = experiment_to_json_dict(default_experiment(seed=8))
        if data.draw(st.booleans()):
            payload["population"] = {"preset": "experiment", "size": 2000}
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_json_paths(payload))
            path = data.draw(st.sampled_from(paths))
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
            experiment_from_json_dict(payload)
        except DataValidationError:
            pass


_JUNK = (None, "x", -1, 0, 1.5, True, [], {}, [None], {"k": 1})


def _json_paths(node, prefix=()):
    """Every (key or index) path to a value inside nested dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _json_paths(value, prefix + (key,))
