import json
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ascending_by_pairs,
    make_population,
    parse_corrupted,
    population_summary_per_row,
    prevalence_by_quadrature,
    record_ids_by_format,
)
from svymetrics.classifiers import (
    FeatureEncoder,
    ForestConfig,
    LogisticModel,
    fit_forest,
    fit_logistic,
    fit_tree,
)
from svymetrics import simulation
from svymetrics.errors import (
    AggregationError, DataValidationError, DesignError, SchemaError, SvymetricsError,
)
from svymetrics.evaluation import evaluation_summary
from svymetrics.rng import derive_stream
from svymetrics.sampling import StratifiedDesign, split_train_test, stratified_sample
from svymetrics.simulation import (
    BernoulliCovariate,
    CategoricalCovariate,
    ClassifierSpec,
    ExperimentSpec,
    OutcomeModel,
    PatternTable,
    PopulationSpec,
    UniformCovariate,
    aggregate,
    default_experiment,
    default_experiment_population_spec,
    default_population_spec,
    experiment_from_json_dict,
    experiment_to_json_dict,
    generate_population,
    record_ids,
    render_summary_json,
    run_experiment,
    run_replicate,
    threshold_label,
)
from svymetrics.types import EvaluationSet, strictly_ascending


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
        assert list(a.records) == list(b.records)

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101])
    def test_population_ids_equal_the_format_string_oracle(self, n):
        spec = PopulationSpec(
            size=n,
            strata=("a",),
            proportions=(1.0,),
            covariates=(),
            outcome=OutcomeModel(intercept=0.0, coefficients={}),
        )
        population = generate_population(spec, derive_stream(1, "population"))
        assert population.ids.tolist() == record_ids_by_format(n)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3 * 2**14 + 5))
    @example(n=2**14)
    @example(n=2**14 + 1)
    def test_ids_equal_the_format_string_oracle_across_chunks(self, n):
        ids = record_ids(n)
        assert ids.dtype == object and ids.shape == (n,)
        assert ids.tolist() == record_ids_by_format(n)
        assert all(type(rid) is str for rid in ids.tolist())

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 2000))
    @example(n=9)
    @example(n=10)
    @example(n=11)
    @example(n=99)
    @example(n=100)
    @example(n=101)
    @example(n=99_999)
    @example(n=100_000)
    @example(n=100_001)
    def test_ids_ascend_strictly_at_every_width(self, n):
        """Generated ids ascend, so a population proves them distinct by
        order, at and around each width boundary."""
        ids = record_ids(n)
        assert strictly_ascending(ids)
        assert ascending_by_pairs(ids.tolist())

    def test_strata_are_the_drawn_codes_into_the_spec_labels(self):
        """Generation keeps the spec's labels, unused ones too, and holds
        each row's stratum as a read-only int32 code; a design that
        allocates to a stratum without rows names it as unknown."""
        spec = PopulationSpec(
            size=200,
            strata=("a", "never", "b"),
            proportions=(0.5, 0.0, 0.5),
            covariates=(),
            outcome=OutcomeModel(intercept=0.0, coefficients={}),
        )
        population = generate_population(spec, derive_stream(5, "population"))
        assert population.stratum_labels == spec.strata
        assert population.strata.dtype == np.int32 and not population.strata.flags.writeable
        assert set(population.strata.tolist()) == {0, 2}
        first_seen = dict.fromkeys(spec.strata[code] for code in population.strata.tolist())
        assert list(population.stratum_sizes) == list(first_seen) and "never" not in first_seen
        with pytest.raises(DesignError, match="unknown stratum label 'never'"):
            stratified_sample(population, StratifiedDesign({"never": 1}), derive_stream(5, "s"))

    def test_duplicate_strata_rejected(self):
        with pytest.raises(DataValidationError, match="strata must be distinct"):
            PopulationSpec(
                size=10,
                strata=("a", "a"),
                proportions=(0.5, 0.5),
                covariates=(),
                outcome=OutcomeModel(intercept=0.0, coefficients={}),
            )

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
        report = run_replicate(exp, population, 0, PatternTable.of(population))
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
        report = run_replicate(exp, population, 0, PatternTable.of(population))
        cr = report.outcomes[0]
        for metric in ("sensitivity", "specificity"):
            w = getattr(cr.weighted.at_thresholds[0], metric).value
            u = getattr(cr.unweighted.at_thresholds[0], metric).value
            assert w == pytest.approx(u, abs=1e-12)
        assert cr.weighted.auroc.value == pytest.approx(cr.unweighted.auroc.value, abs=1e-12)

    def test_failures_recorded_not_raised(self):
        # a logistic fit allowed one IRLS iteration fails to converge inside the replicate
        exp = _tiny_experiment(
            classifiers=(
                ClassifierSpec(kind="logistic"),
                ClassifierSpec(kind="logistic", name="bad", max_iterations=1),
            )
        )
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        report = run_replicate(exp, population, 0, PatternTable.of(population))
        assert report.outcomes[0].name == "logistic"
        assert report.outcomes[1].error.startswith("NonConvergenceError")

    def test_truth_can_exclude_sampled_records(self):
        exp = _tiny_experiment(include_sample_in_truth=False)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        report_excl = run_replicate(exp, population, 0, PatternTable.of(population))
        exp_incl = _tiny_experiment(include_sample_in_truth=True)
        report_incl = run_replicate(exp_incl, population, 0, PatternTable.of(population))
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
        report = run_replicate(exp, population, 0, PatternTable.of(population))
        assert not isinstance(report.outcomes[0], type(report.outcomes[1])) or True
        # both classifiers succeeded and were evaluated on the same split
        assert {o.name for o in report.outcomes} == {"forest", "balanced_forest"}
        # the eval split itself is reproducible and untouched by upsampling
        sample2 = stratified_sample(
            population, StratifiedDesign(exp.design_allocations), derive_stream(exp.seed, 0, "sample")
        )
        _, evaluation2 = split_train_test(sample2, exp.eval_fraction, derive_stream(exp.seed, 0, "split"))
        assert evaluation.ids.tolist() == evaluation2.ids.tolist()
        assert np.array_equal(evaluation.weights, evaluation2.weights)


class TestPatternTable:
    def test_counts_and_inverse_describe_the_rows(self):
        population = make_population(
            [1, 0, 1, 1, 0],
            features=(np.array([0.0, -0.0, 1.0, 0.0, 1.0]),
                      np.array(["a", "a", "b", "a", "b"], dtype=object)),
        )
        patterns = PatternTable.of(population)
        assert patterns.inverse.dtype == np.int32
        assert patterns.inverse.tolist() == [0, 0, 1, 0, 1]
        assert patterns.representatives.tolist() == [0, 2]
        assert patterns.positives.tolist() == [2.0, 1.0]
        assert patterns.negatives.tolist() == [1.0, 1.0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["logistic", "tree", "forest"]))
    def test_pattern_scores_expand_to_the_row_scores(self, data, kind):
        """Every row scores as its pattern's representative does, and so
        does scoring one row per pattern and expanding by ``inverse``, bit
        for bit, categorical columns and signed zeros included."""
        n = data.draw(st.integers(2, 150))

        def column(values):
            return data.draw(st.lists(values, min_size=n, max_size=n))

        tied = st.sampled_from([0.0, -0.0, 1.0, 2.5])
        population = make_population(
            column(st.integers(0, 1)),
            features=(
                np.array(column(st.sampled_from(["n", "s", "e"])), dtype=object),
                np.array(column(tied | st.floats(-50, 50))),
                np.array(column(tied)),
            ),
        )
        train = np.arange(0, n, 2)
        columns = [col[train] for col in population.features]
        y = population.outcomes[train]
        if kind == "logistic":
            encoder = FeatureEncoder.fit(columns)
            coefficients = data.draw(st.lists(st.floats(-5, 5), min_size=encoder.width + 1,
                                              max_size=encoder.width + 1))
            model = LogisticModel(encoder, np.array(coefficients), 0, 0.0, ())
        elif kind == "tree":
            model = fit_tree(columns, y)
        else:
            model = fit_forest(columns, y, [str(i) for i in train], ForestConfig(trees=4), rng=3)
        patterns = PatternTable.of(population)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # categories unseen in training
            one_per_pattern = model.predict_proba_columns(
                [col[patterns.representatives] for col in population.features]
            )
            expected = model.predict_proba(population.features)
        assert one_per_pattern[patterns.inverse].tobytes() == expected.tobytes()
        assert expected[patterns.representatives][patterns.inverse].tobytes() == (
            expected.tobytes())

    @pytest.mark.parametrize("make_spec", [default_population_spec,
                                           default_experiment_population_spec])
    def test_fitted_logistic_pattern_scores_match_at_scale(self, make_spec):
        population = generate_population(make_spec(size=40_000), derive_stream(2, "population"))
        train = np.arange(0, population.size, 13)
        model = fit_logistic([col[train] for col in population.features],
                             population.outcomes[train])
        patterns = PatternTable.of(population)
        got = model.predict_proba_columns(
            [col[patterns.representatives] for col in population.features]
        )
        expected = model.predict_proba(population.features)
        assert got[patterns.inverse].tobytes() == expected.tobytes()
        assert expected[patterns.representatives][patterns.inverse].tobytes() == (
            expected.tobytes())


class TestReplicateMatchesRowFormReplay:
    @pytest.mark.parametrize("grid", [101, "exact"])
    @pytest.mark.parametrize("include", [True, False])
    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest"])
    def test_report_equals_a_replay_scored_row_by_row(self, kind, include, grid):
        """A replicate's report equals a replay that finds the split's rows
        by id, fits with the public fitters, scores every row, and counts
        the truth record by record over the census (less the sample when
        the sample is left out)."""
        exp = _tiny_experiment(
            classifiers=(ClassifierSpec(kind=kind, trees=5),), thresholds=(0.3, 0.5),
            include_sample_in_truth=include, auroc_grid=grid,
        )
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        report = run_replicate(exp, population, 1, PatternTable.of(population))

        sample = stratified_sample(population, StratifiedDesign(exp.design_allocations),
                                   derive_stream(exp.seed, 1, "sample"))
        training, evaluation = split_train_test(sample, exp.eval_fraction,
                                                derive_stream(exp.seed, 1, "split"))
        row_of = population.index_by_id
        train_rows = np.array([row_of[i] for i in training.ids])
        eval_rows = np.array([row_of[i] for i in evaluation.ids])
        columns = [col[train_rows] for col in population.features]
        y = population.outcomes[train_rows]
        if kind == "logistic":
            model = fit_logistic(columns, y)
        elif kind == "tree":
            model = fit_tree(columns, y)
        else:
            model = fit_forest(columns, y, training.ids, ForestConfig(trees=5),
                               rng=derive_stream(exp.seed, 1, f"train:{kind}"))
        scores = model.predict_proba(population.features)
        census = np.ones(population.size, dtype=bool)
        if not include:
            census[[row_of[i] for i in sample.ids]] = False
        truth = EvaluationSet(
            weights=np.ones(int(census.sum())),
            outcomes=population.outcomes[census],
            scores=scores[census],
        )
        held_out = EvaluationSet(
            weights=evaluation.weights,
            outcomes=population.outcomes[eval_rows],
            scores=scores[eval_rows],
        )
        expected = {
            "name": kind,
            "population": population_summary_per_row(truth, exp.thresholds, grid).to_json_dict(),
            **{
                weighting: evaluation_summary(
                    held_out, exp.thresholds, grid, weighting
                ).to_json_dict()
                for weighting in ("weighted", "unweighted")
            },
        }
        assert json.dumps(report.outcomes[0].to_json_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("include", [True, False])
    def test_a_bad_score_on_a_pattern_outside_the_sample_fails_the_classifier(
        self, monkeypatch, include
    ):
        """Stratum b is never sampled and its rows alone have x = 5; a model
        that scores them NaN is a recorded failure, not a truth."""
        strata = ["a"] * 40 + ["b"] * 10
        x = np.array([float(i % 2) for i in range(40)] + [5.0] * 10)
        population = make_population([int(i % 3 == 0) for i in range(50)], strata, (x,))
        exp = ExperimentSpec(
            seed=3,
            replicates=1,
            design_allocations={"a": 30},
            classifiers=(ClassifierSpec(kind="logistic"),),
            population=default_experiment_population_spec(size=100),  # unused: given below
            eval_fraction=0.3,
            include_sample_in_truth=include,
        )
        original = LogisticModel.predict_proba_columns

        def nan_at_five(self, columns, n_rows=None):
            return np.where(columns[0] == 5.0, np.nan, original(self, columns, n_rows))

        monkeypatch.setattr(LogisticModel, "predict_proba_columns", nan_at_five)
        report = run_replicate(exp, population, 0, PatternTable.of(population))
        assert report.outcomes[0].to_json_dict() == {
            "name": "logistic", "error": "DataValidationError: scores must lie in [0, 1]"
        }

    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest"])
    def test_unseen_category_warning_counts_records(self, kind):
        """Stratum b is never sampled; its 7 rows, in 2 feature patterns,
        are the only ones with category "z", and the warning counts rows."""
        strata = ["a"] * 40 + ["b"] * 7
        x = np.array([float(i % 2) for i in range(40)] + [0.0] * 4 + [1.0] * 3)
        c = np.array(["p", "q"] * 20 + ["z"] * 7, dtype=object)
        population = make_population([int(i % 3 == 0) for i in range(47)], strata, (x, c))
        exp = ExperimentSpec(
            seed=3,
            replicates=1,
            design_allocations={"a": 30},
            classifiers=(ClassifierSpec(kind=kind, trees=3),),
            population=default_experiment_population_spec(size=100),  # unused: given below
            eval_fraction=0.3,
        )
        patterns = PatternTable.of(population)
        assert np.unique(patterns.inverse[40:]).size == 2
        with pytest.warns(UserWarning) as caught:
            run_replicate(exp, population, 0, patterns)
        assert [str(w.message) for w in caught] == [
            "7 record(s) carry categories unseen in training; encoded as all zeros"
        ]


class TestAggregate:
    @pytest.mark.parametrize(
        "threshold, label",
        [(0.0, "0"), (1.0, "1"), (0.5, "0.5"), (0.3, "0.3"), (1e-07, "1e-07"),
         (0.3000001, "0.3000001"), (0.1234567891, "0.1234567891")],
    )
    def test_threshold_label_reads_back_as_its_threshold(self, threshold, label):
        assert threshold_label(threshold) == label
        assert float(label) == threshold

    def test_identical_replicates_have_zero_sd(self):
        exp = _tiny_experiment(classifiers=(ClassifierSpec(kind="constant", constant_score=1.0),), replicates=3)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        patterns = PatternTable.of(population)
        reports = [run_replicate(exp, population, i, patterns) for i in range(3)]
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
        patterns = PatternTable.of(population)
        reports = [run_replicate(exp, population, i, patterns) for i in range(2)]
        summary = aggregate(reports, exp)
        agg = summary.tables["logistic"]["weighted"]["sensitivity@0.5"]
        manual = np.array(
            [r.outcomes[0].weighted.at_thresholds[0].sensitivity.value for r in reports]
        )
        assert agg.mean == pytest.approx(manual.mean())
        assert agg.mc_sd == pytest.approx(manual.std(ddof=1))
        assert agg.mc_se_of_mean == pytest.approx(manual.std(ddof=1) / math.sqrt(2))

    def test_fewer_than_two_successes_is_an_error(self):
        unconverged = ClassifierSpec(kind="logistic", max_iterations=1)
        exp = _tiny_experiment(classifiers=(unconverged,), replicates=3)
        population = generate_population(exp.population, derive_stream(exp.seed, "population"))
        patterns = PatternTable.of(population)
        reports = [run_replicate(exp, population, i, patterns) for i in range(3)]
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
        one = run_experiment(exp, workers=1)
        eight = run_experiment(exp, workers=8)
        assert one.summary.to_json_dict() == eight.summary.to_json_dict()

    def test_replicates_run_in_order_on_the_calling_thread(self, monkeypatch):
        """``workers`` is accepted and has no effect: replicates run one
        after another, in index order, on the caller's thread."""
        calls = []
        run = simulation.run_replicate

        def recording(experiment, population, index, patterns):
            calls.append((index, threading.get_ident()))
            return run(experiment, population, index, patterns)

        monkeypatch.setattr(simulation, "run_replicate", recording)
        result = run_experiment(_tiny_experiment(replicates=5), workers=4)
        assert calls == [(i, threading.get_ident()) for i in range(5)]
        assert [r.index for r in result.reports] == list(range(5))

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
        cols = population.features
        eta = -2.0 + 2.5 * cols[0] + 1.1 * cols[1] + 0.5 * cols[2]
        scores = 1.0 / (1.0 + np.exp(-eta))
        truth_sn = float(
            np.sum((scores >= 0.5) & (y == 1)) / np.sum(y == 1)
        )
        from svymetrics.estimation import confusion_rate, tally_confusion
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
                    weights=evaluation.weights,
                    outcomes=y[rows],
                    scores=scores[rows],
                )
                est = float(confusion_rate(tally_confusion(eset, 0.5), "sensitivity"))
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


_SMALL_CLASSIFIERS = [
    {"kind": "logistic"},
    {"kind": "tree", "max_depth": 3},
    {"kind": "forest", "trees": 3, "m_try": 1},
]

# Small valid specs (N = 2,000, R = 2) that run in milliseconds: the
# experiment preset, the same population written inline, and an inline
# population with every covariate kind, each table given per stratum and
# as a shorthand shared by every stratum.
_SMALL_SPECS = [
    {
        "spec_version": "1",
        "seed": 8,
        "replicates": 2,
        "design": {"allocations": {"18-25": 39, "26-34": 26, "35-49": 33, "50-64": 30, "65+": 43}},
        "classifiers": _SMALL_CLASSIFIERS,
        "population": {"preset": "experiment", "size": 2000},
    },
    experiment_to_json_dict(
        ExperimentSpec(
            seed=8,
            replicates=2,
            design_allocations={"18-25": 39, "26-34": 26, "35-49": 33, "50-64": 30, "65+": 43},
            classifiers=tuple(ClassifierSpec(**c) for c in _SMALL_CLASSIFIERS),
            population=default_experiment_population_spec(size=2000),
        )
    ),
    {
        "spec_version": "1",
        "seed": 8,
        "replicates": 2,
        "design": {"allocations": {"a": 60, "b": 40, "c": 30}},
        "classifiers": _SMALL_CLASSIFIERS,
        "population": {
            "size": 2000,
            "strata": ["a", "b", "c"],
            "proportions": [0.5, 0.3, 0.2],
            "covariates": [
                {"name": "age", "kind": "uniform", "range": [18.0, 80.0]},
                {"name": "sex", "kind": "bernoulli", "rate": 0.5},
                {"name": "region", "kind": "categorical", "levels": ["n", "s", "e"],
                 "probs": [0.2, 0.3, 0.5]},
                {"name": "income", "kind": "uniform",
                 "ranges": {"a": [0.0, 1.0], "b": [0.5, 2.0], "c": [1.0, 3.0]}},
                {"name": "smoker", "kind": "bernoulli", "rates": {"a": 0.1, "b": 0.2, "c": 0.3}},
                {"name": "school", "kind": "categorical", "levels": ["lo", "hi"],
                 "probs": {"a": [0.7, 0.3], "b": [0.5, 0.5], "c": [0.2, 0.8]}},
            ],
            "outcome": {"intercept": -1.0,
                        "coefficients": {"age": 0.02, "sex": -0.5, "smoker": 0.8}},
        },
        "thresholds": [0.3, 0.5],
    },
]

# Each covariate kind's per-stratum table and the shorthand for a shared value.
_SHORTHAND = {
    "uniform": ("ranges", "range"),
    "bernoulli": ("rates", "rate"),
    "categorical": ("probs", "probs"),
}

_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_UNIT = st.floats(0.0, 1.0)


def _shares(draw, n):
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return tuple(w / sum(weights) for w in weights)


@st.composite
def _inline_experiments(draw):
    """An experiment spec with an inline population that draws on every
    covariate kind, some tables shared by every stratum, and classifiers
    with unset and set ``m_try`` and ``max_depth``."""
    strata = tuple(draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True)))
    per_stratum = lambda value: {s: value() for s in strata}  # noqa: E731
    covariates = []
    for i, kind in enumerate(draw(st.permutations(["uniform", "bernoulli", "categorical"]))):
        shared = draw(st.booleans())
        if kind == "uniform":
            low = draw(_FINITE)
            span = lambda: (low, low + draw(st.floats(0.0, 100.0)))  # noqa: E731
            table = dict.fromkeys(strata, span()) if shared else per_stratum(span)
            covariates.append(UniformCovariate(name=f"c{i}", ranges=table))
        elif kind == "bernoulli":
            rate = lambda: draw(_UNIT)  # noqa: E731
            table = dict.fromkeys(strata, rate()) if shared else per_stratum(rate)
            covariates.append(BernoulliCovariate(name=f"c{i}", rates=table))
        else:
            levels = tuple(draw(st.lists(st.text(max_size=2), min_size=1, max_size=3, unique=True)))
            probs = lambda: _shares(draw, len(levels))  # noqa: E731
            table = dict.fromkeys(strata, probs()) if shared else per_stratum(probs)
            covariates.append(CategoricalCovariate(name=f"c{i}", levels=levels, probs=table))
    numeric = [c.name for c in covariates if not isinstance(c, CategoricalCovariate)]
    coefficients = {name: draw(_FINITE) for name in numeric if draw(st.booleans())}
    classifiers = tuple(
        ClassifierSpec(
            kind=kind,
            name=f"k{i}",
            trees=draw(st.integers(1, 500)),
            m_try=draw(st.none() | st.integers(1, 9)),
            min_node_size=draw(st.integers(1, 50)),
            max_depth=draw(st.none() | st.integers(0, 9)),
            bootstrap=draw(st.booleans()),
            max_iterations=draw(st.integers(1, 200)),
            tolerance=draw(st.floats(1e-12, 1.0)),
            constant_score=draw(_UNIT),
        )
        for i, kind in enumerate(
            draw(st.lists(st.sampled_from(ClassifierSpec.KINDS), min_size=1, max_size=5))
        )
    )
    return ExperimentSpec(
        seed=draw(st.integers(0, 2**63)),
        replicates=draw(st.integers(1, 1000)),
        design_allocations={s: draw(st.integers(1, 10_000)) for s in strata},
        classifiers=classifiers,
        population=PopulationSpec(
            size=draw(st.integers(1, 10**7)),
            strata=strata,
            proportions=_shares(draw, len(strata)),
            covariates=tuple(covariates),
            outcome=OutcomeModel(intercept=draw(_FINITE), coefficients=coefficients),
        ),
        eval_fraction=draw(_UNIT),
        thresholds=tuple(draw(st.lists(_UNIT, max_size=3))),
        auroc_grid=draw(st.sampled_from(["exact"]) | st.integers(2, 1001)),
        include_sample_in_truth=draw(st.booleans()),
    )


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
        text = render_summary_json(result.summary.to_json_dict())
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
        spec = PopulationSpec.from_json_dict({"preset": preset, "size": 5000})
        assert spec == build(size=5000)

    def test_unknown_preset_rejected(self):
        with pytest.raises(SchemaError, match="unknown population preset"):
            PopulationSpec.from_json_dict({"preset": "census"})

    @pytest.mark.parametrize("key", ["sise", "strata"])
    def test_preset_form_holds_only_preset_and_size(self, key):
        with pytest.raises(SchemaError, match=f"^unknown key '{key}'$"):
            PopulationSpec.from_json_dict({"preset": "experiment", "size": 500, key: 1})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_specs_raise_only_data_errors(self, data):
        """Deleting keys or swapping values for junk anywhere in a valid spec
        raises SchemaError or DataValidationError, never anything else, and
        a corrupted spec that still parses runs or fails with a library error."""
        payload = json.loads(json.dumps(data.draw(st.sampled_from(_SMALL_SPECS))))

        def parse_and_run(p):
            spec = experiment_from_json_dict(p)
            try:
                run_experiment(spec)
            except SvymetricsError:
                pass

        parse_corrupted(data, payload, parse_and_run)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_inline_specs_round_trip(self, data):
        """Writing a spec, then reading its JSON text back, gives the same
        spec, also when a table shared by every stratum is written with the
        ``range``, ``rate`` or list ``probs`` shorthand."""
        spec = data.draw(_inline_experiments())
        payload = json.loads(json.dumps(experiment_to_json_dict(spec)))
        for cov in payload["population"]["covariates"]:
            table, short = _SHORTHAND[cov["kind"]]
            values = list(cov[table].values())
            if all(v == values[0] for v in values) and data.draw(st.booleans()):
                del cov[table]
                cov[short] = values[0]
        assert experiment_from_json_dict(payload) == spec

    def test_json_document_is_pinned(self):
        spec = ExperimentSpec(
            seed=4,
            replicates=3,
            design_allocations={"a": 20, "b": 10},
            classifiers=(ClassifierSpec(kind="forest", trees=3, m_try=1, name="rf"),),
            population=PopulationSpec(
                size=500,
                strata=("a", "b"),
                proportions=(0.75, 0.25),
                covariates=(
                    UniformCovariate(name="age", ranges={"a": (18.0, 40.0), "b": (40.0, 90.0)}),
                    BernoulliCovariate(name="sex", rates={"a": 0.5, "b": 0.5}),
                    CategoricalCovariate(
                        name="region", levels=("n", "s"), probs={"a": (0.5, 0.5), "b": (0.2, 0.8)}
                    ),
                ),
                outcome=OutcomeModel(intercept=-1.0, coefficients={"age": 0.03}),
            ),
            thresholds=(0.3, 0.5),
            auroc_grid="exact",
        )
        expected = {
            "spec_version": "1",
            "seed": 4,
            "replicates": 3,
            "design": {"allocations": {"a": 20, "b": 10}},
            "classifiers": [
                {
                    "kind": "forest",
                    "name": "rf",
                    "trees": 3,
                    "m_try": 1,
                    "min_node_size": 1,
                    "max_depth": None,
                    "bootstrap": True,
                    "max_iterations": 100,
                    "tolerance": 1e-08,
                    "constant_score": 1.0,
                }
            ],
            "population": {
                "size": 500,
                "strata": ["a", "b"],
                "proportions": [0.75, 0.25],
                "covariates": [
                    {"name": "age", "kind": "uniform",
                     "ranges": {"a": [18.0, 40.0], "b": [40.0, 90.0]}},
                    {"name": "sex", "kind": "bernoulli", "rates": {"a": 0.5, "b": 0.5}},
                    {"name": "region", "kind": "categorical", "levels": ["n", "s"],
                     "probs": {"a": [0.5, 0.5], "b": [0.2, 0.8]}},
                ],
                "outcome": {"intercept": -1.0, "coefficients": {"age": 0.03}},
            },
            "population_file": None,
            "population_schema": None,
            "eval_fraction": 0.2,
            "thresholds": [0.3, 0.5],
            "auroc_grid": "exact",
            "include_sample_in_truth": True,
        }
        got = experiment_to_json_dict(spec)
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert experiment_from_json_dict(expected) == spec

    def test_numbers_are_converted_by_field_type(self):
        """Integer literals in float fields (``range`` included) are echoed
        as floats, and a fractional ``m_try`` or ``trees`` reads as int()."""
        payload = json.loads(json.dumps(_SMALL_SPECS[2]))
        payload["population"]["covariates"][0]["range"] = [18, 80]
        payload["population"]["covariates"][1]["rate"] = 1
        payload["thresholds"] = [0, 1]
        payload["classifiers"] = [{"kind": "forest", "trees": 2.5, "m_try": 2.5}]
        doc = experiment_to_json_dict(experiment_from_json_dict(payload))
        covariates = doc["population"]["covariates"]
        assert json.dumps(covariates[0]["ranges"]["a"]) == "[18.0, 80.0]"
        assert json.dumps(covariates[1]["rates"]) == '{"a": 1.0, "b": 1.0, "c": 1.0}'
        assert json.dumps(doc["thresholds"]) == "[0.0, 1.0]"
        assert (doc["classifiers"][0]["trees"], doc["classifiers"][0]["m_try"]) == (2, 2)
        assert type(doc["classifiers"][0]["m_try"]) is int

    @pytest.mark.parametrize(
        "path, value",
        [
            (("replicates",), math.inf),
            (("auroc_grid",), math.inf),
            (("auroc_grid",), "abc"),
            (("auroc_grid",), True),
            (("include_sample_in_truth",), "false"),
            (("include_sample_in_truth",), 0),
            (("classifiers", 0, "bootstrap"), "false"),
            (("seed",), True),
            (("replicates",), False),
            (("thresholds", 0), True),
            (("design", "allocations", "a"), True),
            (("population_file",), 5),
            (("population", "strata"), "abc"),
            (("population", "covariates", 0, "range"), [18.0]),
            (("population", "covariates", 2, "kind"), "poisson"),
            (("population", "covariates", 2, "levels", 0), 3),
        ],
    )
    def test_wrong_types_are_schema_errors(self, path, value):
        payload = json.loads(json.dumps(_SMALL_SPECS[2]))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SchemaError):
            experiment_from_json_dict(payload)

    @pytest.mark.parametrize("points", [2**61, 10**23])  # refused before any allocation
    def test_grid_numpy_cannot_allocate_is_a_data_error_naming_it(self, points):
        payload = json.loads(json.dumps(_SMALL_SPECS[2]))
        payload["auroc_grid"] = points
        with pytest.raises(DataValidationError) as exc:
            experiment_from_json_dict(payload)
        assert str(exc.value) == f"a grid of {points} points cannot be allocated"

    @pytest.mark.parametrize(
        "path, key",
        [
            ((), "eval_fractoin"),
            ((), "populaton"),
            (("design",), "strata"),
            (("population",), "proportion"),
            (("population", "covariates", 0), "rnage"),
            (("population", "covariates", 4), "range"),  # a uniform shorthand on a bernoulli
            (("population", "covariates", 2), "prob"),
            (("population", "outcome"), "coefficient"),
            (("classifiers", 0), "tress"),
        ],
    )
    def test_unknown_keys_are_schema_errors_naming_the_key(self, path, key):
        """A misspelled key would otherwise leave its field at the default."""
        payload = json.loads(json.dumps(_SMALL_SPECS[2]))
        parent = payload
        for step in path:
            parent = parent[step]
        parent[key] = 1
        where = "design: " if path == ("design",) else ""
        message = f"^malformed experiment spec: .*{where}unknown key '{key}'$"
        with pytest.raises(SchemaError, match=message):
            experiment_from_json_dict(payload)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"design": "x"}, "design: expected a JSON object for StratifiedDesign, got str"),
            ({"design": [1]}, "design: expected a JSON object for StratifiedDesign, got list"),
            ({"design": {"allocations": [1]}},
             "design: allocations: expected a JSON object, got list"),
            ({"design_allocations": {"a": 30}}, "unknown key 'design_allocations'"),
        ],
    )
    def test_design_errors_speak_the_spec_keys(self, change, message):
        """``design`` is read like every other object of the spec: its errors
        name ``design`` and ``allocations``, and the field it fills is no key."""
        payload = {**json.loads(json.dumps(_SMALL_SPECS[2])), **change}
        with pytest.raises(SchemaError) as raised:
            experiment_from_json_dict(payload)
        assert str(raised.value) == f"malformed experiment spec: {message}"
