import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_tally, confusion_counts, make_evaluation, make_population
from svymetrics.errors import DataValidationError, UndefinedMetricError
from svymetrics.estimation import (
    confusion_rate,
    estimator_set,
    population_truth,
    ratio_standard_error,
    tally_confusion,
    weight_diagnostics,
)
from svymetrics.sampling import StratifiedDesign, stratified_sample


class TestHtTotal:
    """The inverse-probability total of a variable z is w @ z."""

    def test_indicator_total_estimates_population_size(self):
        """With z = 1 for every member, w @ z of a stratified SRS adds
        N_h / n_h once per member of each stratum: exactly N."""
        population = make_population([0, 1] * 25, ["a"] * 14 + ["b"] * 36)
        sample = stratified_sample(
            population, StratifiedDesign({"a": 3, "b": 7}), np.random.default_rng(0)
        )
        assert sample.weights @ np.ones(sample.size) == pytest.approx(50.0, abs=1e-12)


class TestTallyConfusion:
    """Hand example: (y, yhat, w*) = (1,1,2), (1,0,3), (0,0,5), (0,1,1).

    Evaluating the defining sums by hand:
        N_TP = 2 (record 1), N_FN = 3 (record 2),
        N_TN = 5 (record 3), N_FP = 1 (record 4).
    Raw counts are 1 each.  Scores encode yhat via 0.9 / 0.1 at t = 0.5.
    """

    @pytest.fixture
    def hand_eval(self):
        return make_evaluation(
            y=[1, 1, 0, 0], scores=[0.9, 0.1, 0.1, 0.9], weights=[2.0, 3.0, 5.0, 1.0]
        )

    def test_hand_example_weighted_totals(self, hand_eval):
        tally = tally_confusion(hand_eval, 0.5)
        assert (tally.tp, tally.fn, tally.tn, tally.fp) == (2.0, 3.0, 5.0, 1.0)

    def test_unit_weight_copy_tallies_raw_counts(self, hand_eval):
        assert estimator_set(hand_eval, "weighted") is hand_eval
        tally = tally_confusion(estimator_set(hand_eval, "unweighted"), 0.5)
        assert (tally.tp, tally.tn, tally.fp, tally.fn) == (1, 1, 1, 1)

    @pytest.mark.parametrize("weighting", ["population-truth", "Weighted", ""])
    def test_unknown_weighting_is_refused(self, hand_eval, weighting):
        with pytest.raises(DataValidationError, match="unknown weighting"):
            estimator_set(hand_eval, weighting)

    def test_all_correct_leaves_no_errors(self):
        evaluation = make_evaluation(
            y=[1, 0, 1], scores=[0.8, 0.2, 0.9], weights=[7.0, 11.0, 13.0]
        )
        tally = tally_confusion(evaluation, 0.5)
        assert tally.fp == 0.0 and tally.fn == 0.0

    def test_threshold_convention_is_greater_equal(self):
        evaluation = make_evaluation(y=[1, 0], scores=[0.5, 0.4999], weights=[1.0, 1.0])
        tally = tally_confusion(evaluation, 0.5)
        assert tally.tp == 1 and tally.tn == 1

    def test_weighted_totals_sum_to_total_weight(self, hand_eval):
        tally = tally_confusion(hand_eval, 0.5)
        total = tally.tp + tally.tn + tally.fp + tally.fn
        assert total == pytest.approx(float(hand_eval.weights.sum()), rel=1e-9)

    def test_random_tallies_match_direct_counting(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 40))
            y = rng.integers(0, 2, size=n)
            scores = rng.random(n)
            t = float(rng.random())
            evaluation = make_evaluation(y, scores, np.ones(n))
            tally = tally_confusion(evaluation, t)
            tp, tn, fp, fn = confusion_counts(y, scores >= t)
            assert (tally.tp, tally.tn, tally.fp, tally.fn) == (tp, tn, fp, fn)


def _rates(evaluation, threshold, weighting):
    """Sensitivity and specificity of one weighting's tally at a threshold."""
    tally = tally_confusion(estimator_set(evaluation, weighting), threshold)
    return tuple(float(confusion_rate(tally, kind)) for kind in ("sensitivity", "specificity"))


class TestSensitivitySpecificity:
    @pytest.fixture
    def hand_eval(self):
        return make_evaluation(
            y=[1, 1, 0, 0], scores=[0.9, 0.1, 0.1, 0.9], weights=[2.0, 3.0, 5.0, 1.0]
        )

    def test_hand_example(self, hand_eval):
        # weighted: SN = 2/5, SP = 5/6; unweighted: both 1/2
        assert _rates(hand_eval, 0.5, "weighted") == pytest.approx((0.4, 5.0 / 6.0))
        assert _rates(hand_eval, 0.5, "unweighted") == pytest.approx((0.5, 0.5))

    def test_perfect_classifier(self):
        evaluation = make_evaluation(
            y=[1, 0, 1, 0], scores=[1.0, 0.0, 0.9, 0.1], weights=[2.0, 9.0, 4.0, 1.0]
        )
        for weighting in ("weighted", "unweighted"):
            assert _rates(evaluation, 0.5, weighting) == (1.0, 1.0)

    def test_no_positives_is_undefined(self):
        evaluation = make_evaluation(y=[0, 0], scores=[0.9, 0.1], weights=[1.0, 1.0])
        tally = tally_confusion(evaluation, 0.5)
        with pytest.raises(UndefinedMetricError):
            confusion_rate(tally, "sensitivity")

    def test_no_negatives_is_undefined(self):
        evaluation = make_evaluation(y=[1, 1], scores=[0.9, 0.1], weights=[1.0, 1.0])
        tally = tally_confusion(evaluation, 0.5)
        with pytest.raises(UndefinedMetricError):
            confusion_rate(tally, "specificity")

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.floats(0.0, 1.0),
                st.floats(0.01, 100.0),
            ),
            min_size=2,
            max_size=30,
        ).filter(lambda d: len({y for y, _, _ in d}) == 2),
        scale=st.floats(0.001, 1000.0),
    )
    def test_scale_invariance_and_constant_weight_reduction(self, data, scale):
        y = [d[0] for d in data]
        scores = [d[1] for d in data]
        weights = [d[2] for d in data]
        rates = _rates(make_evaluation(y, scores, weights), 0.5, "weighted")
        scaled = _rates(make_evaluation(y, scores, [w * scale for w in weights]), 0.5, "weighted")
        assert scaled == pytest.approx(rates, abs=1e-12)
        constant = make_evaluation(y, scores, [3.7] * len(y))
        assert _rates(constant, 0.5, "weighted") == pytest.approx(
            _rates(constant, 0.5, "unweighted"), abs=1e-12
        )

    def test_values_stay_in_unit_interval(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            evaluation = make_evaluation(y, rng.random(n), rng.uniform(0.1, 50, n))
            sn, sp = _rates(evaluation, float(rng.random()), "weighted")
            assert 0.0 <= sn <= 1.0 and 0.0 <= sp <= 1.0


# Scores drawn from a coarse set force ties; weights from a short list repeat.
_engine_records = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
        st.sampled_from([1.0, 2.5, 7.25]) | st.floats(0.01, 100.0),
    ),
    min_size=1,
    max_size=40,
)
_CELLS = ("tp", "tn", "fp", "fn")


class TestConfusionEngine:
    """The one-sort engine against the per-threshold brute-force tally."""

    @settings(max_examples=150, deadline=None)
    @given(data=_engine_records, extra=st.lists(st.floats(0.0, 1.0), max_size=5))
    def test_array_tally_matches_per_threshold_reference(self, data, extra):
        """Thresholds cover 0, 1, every observed score exactly and a few
        arbitrary values.  Unit-weight totals (counts) match bit-exactly;
        weighted totals to 1e-12 of the total weight."""
        y, s, w = (list(col) for col in zip(*data))
        thresholds = np.array(sorted({0.0, 1.0, *s, *extra}))
        evaluation = make_evaluation(y, s, w)
        units = estimator_set(evaluation, "unweighted")
        tally = tally_confusion(evaluation, thresholds)
        counts = tally_confusion(units, thresholds)
        tolerance = 1e-12 * math.fsum(w)
        for i, t in enumerate(thresholds.tolist()):
            ref = brute_force_tally(y, s, w, t)
            ref_counts = brute_force_tally(y, s, [1.0] * len(y), t)
            for cell in _CELLS:
                assert getattr(counts, cell)[i] == ref_counts[cell], (cell, t)
                assert getattr(tally, cell)[i] == pytest.approx(ref[cell], abs=tolerance)
            for scalar, array in ((tally_confusion(evaluation, t), tally),
                                  (tally_confusion(units, t), counts)):
                for cell in _CELLS:
                    value = getattr(scalar, cell)
                    assert type(value) is float
                    assert value == getattr(array, cell)[i]

    @settings(max_examples=100, deadline=None)
    @given(data=_engine_records.filter(lambda d: len({y for y, _, _ in d}) == 2))
    def test_rates_match_reference_ratios(self, data):
        """Unweighted rates are the count ratios bit for bit; weighted
        rates agree to 1e-12."""
        y, s, w = (list(col) for col in zip(*data))
        thresholds = np.array(sorted({0.0, 1.0, *s}))
        evaluation = make_evaluation(y, s, w)
        tally = tally_confusion(evaluation, thresholds)
        counts = tally_confusion(estimator_set(evaluation, "unweighted"), thresholds)
        for i, t in enumerate(thresholds.tolist()):
            tp, tn, fp, fn = confusion_counts(y, [v >= t for v in s])
            assert confusion_rate(counts, "sensitivity")[i] == tp / (tp + fn)
            assert confusion_rate(counts, "specificity")[i] == tn / (tn + fp)
            ref = brute_force_tally(y, s, w, t)
            sn = ref["tp"] / (ref["tp"] + ref["fn"])
            sp = ref["tn"] / (ref["tn"] + ref["fp"])
            assert confusion_rate(tally, "sensitivity")[i] == pytest.approx(sn, abs=1e-12)
            assert confusion_rate(tally, "specificity")[i] == pytest.approx(sp, abs=1e-12)
            truth_sn, truth_sp = population_truth(np.array(y), np.array(s), t)
            assert (truth_sn.value, truth_sp.value) == (tp / (tp + fn), tn / (tn + fp))

    @settings(max_examples=40, deadline=None)
    @given(
        label=st.integers(0, 1),
        data=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 100.0)), min_size=1, max_size=20
        ),
    )
    def test_one_class_set_tallies_but_its_missing_rate_is_undefined(self, label, data):
        s, w = (list(col) for col in zip(*data))
        y = [label] * len(s)
        thresholds = np.array([0.0, 0.5, 1.0])
        evaluation = make_evaluation(y, s, w)
        missing = "specificity" if label == 1 else "sensitivity"
        present = "sensitivity" if label == 1 else "specificity"
        for weighting in ("weighted", "unweighted"):
            tally = tally_confusion(estimator_set(evaluation, weighting), thresholds)
            assert np.all(confusion_rate(tally, present) >= 0.0)
            with pytest.raises(UndefinedMetricError):
                confusion_rate(tally, missing)
        with pytest.raises(UndefinedMetricError):
            population_truth(np.array(y), np.array(s), 0.5)

    def test_threshold_on_a_tie_block_classifies_the_whole_block(self):
        """Scores 0.5 x3 with mixed labels: t = 0.5 takes the whole block as
        positive, and any t just above it takes none of it."""
        evaluation = make_evaluation([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.2], [1.0, 2.0, 3.0, 4.0])
        thresholds = np.array([0.5, np.nextafter(0.5, 1.0)])
        tally = tally_confusion(evaluation, thresholds)
        counts = tally_confusion(estimator_set(evaluation, "unweighted"), thresholds)
        assert counts.tp.tolist() == [2, 0] and counts.fp.tolist() == [1, 0]
        assert tally.tp.tolist() == [4.0, 0.0] and tally.fp.tolist() == [2.0, 0.0]


class TestDesignUnbiasednessOfTallies:
    def test_mean_weighted_tally_equals_population_counts(self):
        """One-stratum toy: every sample of size 2 from N=5 has weight 2.5.

        Fixed predictions; enumerating all C(5,2) = 10 samples, the mean of
        each weighted confusion total must equal the population count
        exactly."""
        import itertools

        y = [1, 1, 0, 0, 1]
        yhat = [1, 0, 0, 1, 1]
        scores = [0.9 if p else 0.1 for p in yhat]
        n_tp = sum(1 for a, b in zip(y, yhat) if a == 1 and b == 1)  # 2
        n_fn = sum(1 for a, b in zip(y, yhat) if a == 1 and b == 0)  # 1
        totals = np.zeros(4)
        samples = list(itertools.combinations(range(5), 2))
        for rows in samples:
            evaluation = make_evaluation(
                [y[i] for i in rows], [scores[i] for i in rows], [2.5, 2.5]
            )
            tally = tally_confusion(evaluation, 0.5)
            totals += (tally.tp, tally.fn, tally.tn, tally.fp)
        means = totals / len(samples)
        assert means[0] == pytest.approx(n_tp, abs=1e-12)
        assert means[1] == pytest.approx(n_fn, abs=1e-12)


class TestRatioStandardError:
    def test_zero_residuals_give_zero_se(self):
        # every positive correctly classified: numerator equals denominator
        evaluation = make_evaluation(
            y=[1, 1, 0, 0], scores=[0.9, 0.8, 0.9, 0.1], weights=[2.0, 5.0, 1.0, 4.0]
        )
        assert ratio_standard_error(evaluation, 0.5, "sensitivity") == 0.0

    def test_single_record_class_is_degenerate(self):
        evaluation = make_evaluation(
            y=[1, 0, 0, 0], scores=[0.9, 0.1, 0.2, 0.8], weights=[2.0, 1.0, 1.0, 1.0]
        )
        assert ratio_standard_error(evaluation, 0.5, "sensitivity") is None

    def test_undefined_metric_raises(self):
        evaluation = make_evaluation(y=[0, 0], scores=[0.9, 0.1], weights=[1.0, 1.0])
        with pytest.raises(UndefinedMetricError):
            ratio_standard_error(evaluation, 0.5, "sensitivity")

    def test_formula_against_direct_computation(self):
        """Direct evaluation of
        Var = (1/Y^2) * (m/(m-1)) * sum((w_i (x_i - R y_i))^2)
        for a 5-record set, computed by hand in this test."""
        y = np.array([1, 1, 1, 0, 0])
        scores = np.array([0.9, 0.1, 0.8, 0.2, 0.9])
        w = np.array([2.0, 3.0, 1.0, 4.0, 5.0])
        evaluation = make_evaluation(y, scores, w)
        x = ((scores >= 0.5) & (y == 1)).astype(float)
        z = (y == 1).astype(float)
        ratio = (w @ x) / (w @ z)
        resid = w * (x - ratio * z)
        expected = math.sqrt((5 / 4) * float(resid @ resid) / float(w @ z) ** 2)
        assert ratio_standard_error(evaluation, 0.5, "sensitivity") == pytest.approx(
            expected, rel=1e-12
        )

    def test_specificity_side(self):
        evaluation = make_evaluation(
            y=[0, 0, 0, 1, 1], scores=[0.1, 0.9, 0.2, 0.9, 0.8], weights=[1.0] * 5
        )
        se = ratio_standard_error(evaluation, 0.5, "specificity")
        assert se is not None and se > 0


class TestPopulationTruth:
    def test_four_record_direct_count(self):
        """Scores (0.9, 0.2, 0.7, 0.1) with y = (1, 1, 0, 0) at t = 0.5:
        positives split 1 TP / 1 FN and negatives 1 FP / 1 TN, so
        SN = SP = 0.5."""
        sn, sp = population_truth(
            np.array([1, 1, 0, 0]), np.array([0.9, 0.2, 0.7, 0.1]), 0.5
        )
        assert sn.value == 0.5 and sp.value == 0.5
        assert sn.weighting == "population-truth"

    def test_majority_class_predictor(self):
        sn, sp = population_truth(np.array([1, 0, 0]), np.array([0.1, 0.1, 0.2]), 0.5)
        assert sn.value == 0.0 and sp.value == 1.0

    def test_oracle_scores_give_perfect_metrics(self):
        y = np.array([1, 0, 1, 0, 1])
        sn, sp = population_truth(y, y.astype(float), 0.5)
        assert sn.value == 1.0 and sp.value == 1.0

    def test_missing_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            population_truth(np.array([1, 1]), np.array([0.5, 0.6]), 0.5)


class TestWeightDiagnostics:
    def test_constant_weights_have_zero_cv(self):
        diag = weight_diagnostics([4.2] * 10)
        assert diag.cv == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_computation(self):
        # weights (1, 3): mean 2, population-style SD 1, cv 0.5
        diag = weight_diagnostics([1.0, 3.0])
        assert diag.mean == 2.0
        assert diag.cv == pytest.approx(0.5)
        assert diag.min == 1.0 and diag.max == 3.0

    def test_lognormal_profile_hits_target_cv(self):
        """A deterministic lognormal quantile profile tuned to cv = 1.09:
        sigma = sqrt(log(1 + cv^2)), weights = exp(sigma * z_q) over the
        (i + 1/2)/n normal quantiles.  The realized cv must come out
        within 0.01 of the 1.09 target."""
        target = 1.09
        sigma = math.sqrt(math.log1p(target * target))
        n = 40_000
        quantiles = [(i + 0.5) / n for i in range(n)]
        z = [NormalDist().inv_cdf(q) for q in quantiles]
        weights = np.exp(sigma * np.asarray(z))
        diag = weight_diagnostics(weights)
        assert diag.cv == pytest.approx(target, abs=0.01)

    def test_deciles_are_monotone(self, rng):
        diag = weight_diagnostics(rng.uniform(1, 100, size=500))
        assert list(diag.deciles) == sorted(diag.deciles)
        assert len(diag.deciles) == 9

    def test_empty_and_invalid_weights_rejected(self):
        with pytest.raises(DataValidationError):
            weight_diagnostics([])
        with pytest.raises(DataValidationError):
            weight_diagnostics([1.0, -1.0])


class TestUnweightedStandardError:
    def test_unit_weight_clone_matches_srs_formula(self):
        """For unit weights the linearized SE reduces to the SRS form
        sqrt((m/(m-1)) * sum((x - R z)^2) / n_class^2)."""
        y = np.array([1, 1, 1, 1, 0, 0])
        scores = np.array([0.9, 0.8, 0.1, 0.9, 0.2, 0.9])
        evaluation = make_evaluation(y, scores, np.ones(6))
        x = ((scores >= 0.5) & (y == 1)).astype(float)
        z = (y == 1).astype(float)
        ratio = x.sum() / z.sum()
        resid = x - ratio * z
        expected = math.sqrt((6 / 5) * float(resid @ resid) / z.sum() ** 2)
        assert ratio_standard_error(evaluation, 0.5, "sensitivity") == pytest.approx(
            expected
        )

    def test_replace_weights_for_unweighted_reporting(self):
        evaluation = make_evaluation(
            y=[1, 1, 0, 0], scores=[0.9, 0.1, 0.1, 0.9], weights=[2.0, 3.0, 5.0, 1.0]
        )
        unit = replace(evaluation, weights=np.ones(4))
        se_w = ratio_standard_error(evaluation, 0.5, "sensitivity")
        se_u = ratio_standard_error(unit, 0.5, "sensitivity")
        assert se_w != se_u
