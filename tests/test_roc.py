import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_tally,
    confusion_counts,
    evaluation_summary_two_tallies,
    make_evaluation,
    population_summary_per_row,
    weighted_pairwise_auc,
)
from svymetrics import evaluation as evaluation_module
from svymetrics import roc as roc_module
from svymetrics.errors import DataValidationError, SchemaError, UndefinedMetricError
from svymetrics.estimation import population_truth, tally_binned_counts, tally_counts
from svymetrics.evaluation import (
    EvaluationSummary,
    evaluation_summary,
    metric_key,
    parse_grid,
    population_summary,
    resolve_grid,
)
from svymetrics.roc import (
    RocCurve,
    auroc,
    roc_sweep,
    score_adapted_grid,
    uniform_grid,
)


class TestGrids:
    def test_uniform_grid_includes_endpoints(self):
        grid = uniform_grid(101)
        assert grid[0] == 0.0 and grid[-1] == 1.0 and grid.size == 101
        assert np.all(np.diff(grid) > 0)

    def test_score_adapted_grid_midpoints(self):
        grid = score_adapted_grid([0.2, 0.6, 0.6, 0.9])
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert 0.4 in grid and 0.75 in grid

    def test_single_score_gives_endpoints_only(self):
        assert list(score_adapted_grid([0.3])) == [0.0, 1.0]

    def test_invalid_grid_rejected(self):
        evaluation = make_evaluation([1, 0], [0.9, 0.1], [1.0, 1.0])
        with pytest.raises(DataValidationError):
            roc_sweep(evaluation, [0.0, 0.5], "weighted")  # missing endpoint 1
        with pytest.raises(DataValidationError):
            roc_sweep(evaluation, [0.0, 0.5, 0.5, 1.0], "weighted")  # not strict

    @pytest.mark.parametrize("value, points", [("exact", "exact"), (101, 101), (2.0, 2),
                                               ("101", 101), (np.int64(7), 7)])
    def test_parse_grid_reads_a_count_as_int_does(self, value, points):
        assert parse_grid(value, "auroc_grid") == points
        assert type(parse_grid(value, "auroc_grid")) is type(points)

    @pytest.mark.parametrize("value", ["abc", "2.7", 2.7, 11.5, "", float("inf"), float("nan"),
                                       True, None, [101]])
    def test_parse_grid_refuses_what_int_refuses_naming_the_value(self, value):
        with pytest.raises(SchemaError) as raised:
            parse_grid(value, "--grid")
        assert str(raised.value) == f"--grid: expected 'exact' or a point count, got {value!r}"

    @pytest.mark.parametrize("value", [1, 0, -5, 1.0])
    def test_parse_grid_refuses_fewer_than_two_points(self, value):
        with pytest.raises(DataValidationError, match="^auroc_grid must be 'exact' or a point "
                                                      "count >= 2, got"):
            parse_grid(value, "auroc_grid")


class TestRocSweep:
    def test_perfect_separation_curve(self):
        """Scores equal to labels with grid {0, 0.5, 1}: at t=0 everything is
        classified positive (SN 1, SP 0); at 0.5 and 1 the 1-scores stay
        positive and 0-scores negative (SN 1, SP 1)."""
        evaluation = make_evaluation([1, 0, 1, 0], [1.0, 0.0, 1.0, 0.0], [3, 1, 4, 1])
        curve = roc_sweep(evaluation, [0.0, 0.5, 1.0], "weighted")
        points = list(zip(curve.sensitivity.tolist(), curve.specificity.tolist()))
        assert points == [(1.0, 0.0), (1.0, 1.0), (1.0, 1.0)]
        assert curve.thresholds.tolist() == [0.0, 0.5, 1.0]
        assert curve.fpr.tolist() == [1.0, 0.0, 0.0]

    def test_nan_grid_point_rejected(self):
        """At t = NaN no record is positive under s >= t, so a NaN point
        inside the endpoints has no (sensitivity, specificity) to report."""
        evaluation = make_evaluation([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2], [1, 2, 3, 4])
        with pytest.raises(DataValidationError, match="grid must be finite"):
            roc_sweep(evaluation, [0.0, np.nan, 1.0], "weighted")

    def test_unit_weights_match_unweighted_sweep(self):
        y = [1, 0, 1, 0, 1]
        s = [0.9, 0.8, 0.4, 0.2, 0.6]
        unit = make_evaluation(y, s, np.ones(5))
        grid = uniform_grid(21)
        weighted = roc_sweep(unit, grid, "weighted")
        unweighted = roc_sweep(unit, grid, "unweighted")
        np.testing.assert_allclose(
            weighted.sensitivity, unweighted.sensitivity, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            weighted.specificity, unweighted.specificity, rtol=0, atol=1e-15
        )

    def test_four_record_hand_example(self):
        """Records (y, s, w) = (1,.9,2), (1,.2,3), (0,.7,5), (0,.1,1) on the
        grid {0, .25, .5, .75, 1}, evaluating the weighted sums by hand:

            t=0.00: everything positive          -> SN 1,   SP 0
            t=0.25: positives {.9}, FP {.7}      -> SN 2/5, SP 1/6
            t=0.50: same classification          -> SN 2/5, SP 1/6
            t=0.75: positives {.9}, no FP        -> SN 2/5, SP 1
            t=1.00: nothing positive             -> SN 0,   SP 1
        """
        evaluation = make_evaluation([1, 1, 0, 0], [0.9, 0.2, 0.7, 0.1], [2, 3, 5, 1])
        curve = roc_sweep(evaluation, [0.0, 0.25, 0.5, 0.75, 1.0], "weighted")
        expected = [
            (1.0, 0.0),
            (0.4, 1.0 / 6.0),
            (0.4, 1.0 / 6.0),
            (0.4, 1.0),
            (0.0, 1.0),
        ]
        assert curve.thresholds.size == len(expected)
        for sens, spec, (sn, sp) in zip(curve.sensitivity, curve.specificity, expected):
            assert sens == pytest.approx(sn, abs=1e-12)
            assert spec == pytest.approx(sp, abs=1e-12)

    def test_missing_class_rejected(self):
        evaluation = make_evaluation([1, 1], [0.9, 0.1], [1.0, 1.0])
        with pytest.raises(UndefinedMetricError):
            roc_sweep(evaluation, uniform_grid(11), "weighted")

    def test_monotone_in_threshold(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 60))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            evaluation = make_evaluation(y, rng.random(n), rng.uniform(0.5, 20, n))
            curve = roc_sweep(evaluation, uniform_grid(26), "weighted")
            sn = curve.sensitivity.tolist()
            sp = curve.specificity.tolist()
            assert all(a >= b - 1e-12 for a, b in zip(sn, sn[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(sp, sp[1:]))


    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
                st.sampled_from([1.0, 4.0]) | st.floats(0.1, 10.0),
            ),
            min_size=2,
            max_size=30,
        ).filter(lambda d: len({y for y, _, _ in d}) == 2)
    )
    def test_sweep_matches_per_threshold_loop(self, data):
        """Each curve point equals the brute-force tally's ratio at its
        threshold: bit for bit unweighted, to 1e-12 weighted."""
        y, s, w = (list(col) for col in zip(*data))
        evaluation = make_evaluation(y, s, w)
        grid = score_adapted_grid(s)
        unweighted = roc_sweep(evaluation, grid, "unweighted")
        weighted = roc_sweep(evaluation, grid, "weighted")
        for i, t in enumerate(grid.tolist()):
            counts = brute_force_tally(y, s, [1.0] * len(y), t)
            ref = brute_force_tally(y, s, w, t)
            assert unweighted.sensitivity[i] == counts["tp"] / (counts["tp"] + counts["fn"])
            assert unweighted.specificity[i] == counts["tn"] / (counts["tn"] + counts["fp"])
            assert weighted.sensitivity[i] == pytest.approx(
                ref["tp"] / (ref["tp"] + ref["fn"]), abs=1e-12
            )
            assert weighted.specificity[i] == pytest.approx(
                ref["tn"] / (ref["tn"] + ref["fp"]), abs=1e-12
            )

    def test_population_truth_is_not_an_estimator_weighting(self):
        """A census truth is no weighting of a test split: the sweep refuses
        it rather than drawing one of the estimators' curves under its name."""
        evaluation = make_evaluation([1, 1, 0, 0], [0.9, 0.2, 0.6, 0.1], [1.0, 5.0, 1.0, 3.0])
        with pytest.raises(DataValidationError, match="unknown weighting 'population-truth'"):
            roc_sweep(evaluation, uniform_grid(11), "population-truth")

    def test_one_tally_per_sweep_and_per_summary(self, monkeypatch, rng):
        """An exact-grid sweep tallies once whatever its size; a summary
        and the census truth each tally their fixed thresholds and their
        grid at once."""
        calls = []

        def counting(tally):
            def wrapper(*args):
                calls.append(np.size(args[-1]))
                return tally(*args)
            return wrapper

        monkeypatch.setattr(roc_module, "tally_confusion", counting(roc_module.tally_confusion))
        for name in ("tally_confusion", "tally_counts"):
            monkeypatch.setattr(
                evaluation_module, name, counting(getattr(evaluation_module, name))
            )
        n = 200
        evaluation = make_evaluation(rng.integers(0, 2, n), rng.random(n), rng.uniform(1, 5, n))
        roc_sweep(evaluation, score_adapted_grid(evaluation.scores), "weighted")
        assert calls == [n + 1]
        calls.clear()
        evaluation_summary(evaluation, (0.25, 0.5), "exact", "unweighted")
        assert calls == [2 + n + 1]
        calls.clear()
        population_summary(*census_counts(evaluation), (0.25, 0.5), "exact")
        assert calls == [2 + n + 1]


def census_counts(truth):
    """(scores, positives, negatives) of a census with one group per record."""
    positive = (truth.outcomes == 1).astype(np.float64)
    return truth.scores, positive, 1.0 - positive


# -0.0, 0.25 and the points of the 2-, 11- and 101-point grids.
_ON_CUTS = st.sampled_from(
    [-0.0, 0.25, *uniform_grid(2).tolist(), *uniform_grid(11).tolist(),
     *uniform_grid(101).tolist()]
)


class TestPopulationSummary:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1)),
            min_size=1,
            max_size=30,
        ),
        thresholds=st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1), max_size=4),
        grid=st.sampled_from(["exact", 2, 11, 101]),
    )
    def test_matches_per_threshold_truth_and_census_sweep(self, data, thresholds, grid):
        """One tally of the fixed thresholds plus the grid serializes byte
        for byte like the per-threshold ``population_truth`` rows and the
        census sweep's AUROC; a one-class census is undefined either way."""
        y, s = (list(col) for col in zip(*data))
        truth = make_evaluation(y, s, np.ones(len(y)))
        if len(set(y)) < 2:
            with pytest.raises(UndefinedMetricError):
                population_summary(*census_counts(truth), thresholds, grid)
            with pytest.raises(UndefinedMetricError):
                roc_sweep(truth, resolve_grid(grid, truth.scores), "unweighted")
            return
        area = auroc(roc_sweep(truth, resolve_grid(grid, truth.scores), "unweighted"))
        metrics = {}
        for t in thresholds:
            sn, sp = population_truth(truth.outcomes, truth.scores, t)
            metrics[metric_key("sensitivity", t)] = (sn, None)
            metrics[metric_key("specificity", t)] = (sp, None)
        metrics["auroc"] = (area, None)
        expected = EvaluationSummary("population-truth", tuple(thresholds), metrics)
        got = population_summary(*census_counts(truth), thresholds, grid)
        assert json.dumps(got.to_json_dict()) == json.dumps(expected.to_json_dict())

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                _ON_CUTS | st.floats(0, 1),
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=8,
        ),
        thresholds=st.lists(_ON_CUTS | st.floats(0, 1), max_size=3),
        grid=st.sampled_from(["exact", 2, 11, 101]),
    )
    def test_counts_equal_the_row_form_oracle(self, cells, thresholds, grid):
        """Groups of tied records, less a sample that may empty whole groups,
        give the truth the row-form oracle counts record by record: the same
        JSON, the same grid, or the same error.  Scores of -0.0 and scores on
        grid points and fixed thresholds are counted where ``s >= t`` puts
        them."""
        scores, positives, negatives, y, s = [], [], [], [], []
        for score, pos, neg, pos_out, neg_out in cells:
            # pos_out/neg_out of the group's records are in the sample
            pos_out, neg_out = min(pos_out, pos), min(neg_out, neg)
            scores.append(score)
            positives.append(pos - pos_out)
            negatives.append(neg - neg_out)
            y += [1] * (pos - pos_out) + [0] * (neg - neg_out)
            s += [score] * (pos + neg - pos_out - neg_out)
        truth = make_evaluation(y, s, np.ones(len(y)))
        curves = []
        with mock.patch.object(evaluation_module, "auroc",
                               side_effect=lambda c: curves.append(c) or auroc(c)):
            got = _outcome(population_summary, np.asarray(scores),
                           np.asarray(positives, dtype=np.float64),
                           np.asarray(negatives, dtype=np.float64), thresholds, grid)
        expected = _outcome(population_summary_per_row, truth, thresholds, grid)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert json.dumps(got.to_json_dict()) == json.dumps(expected.to_json_dict())
        assert curves[0].thresholds.tobytes() == resolve_grid(grid, truth.scores).tobytes()


    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from([np.nan, np.inf, -np.inf, -0.0]) | _ON_CUTS
                | st.floats(allow_nan=True, allow_infinity=True),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=12,
        ),
        thresholds=st.lists(_ON_CUTS | st.floats(0, 1), max_size=3),
        points=st.sampled_from([2, 11, 101]),
    )
    def test_binned_counts_equal_the_sorted_counts(self, cells, thresholds, points):
        """Binning counts every cell as the sort does, for NaN (never
        positive), +-inf and -0.0 scores too, which an EvaluationSet and so
        the row-form oracle refuse."""
        scores, positives, negatives = (np.asarray(col, dtype=np.float64) for col in zip(*cells))
        t = np.concatenate([np.asarray(thresholds, dtype=np.float64), uniform_grid(points)])
        got = _outcome(tally_binned_counts, scores, positives, negatives, t)
        expected = _outcome(tally_counts, scores, positives, negatives, t)
        if isinstance(expected, tuple):
            assert got == expected
            return
        for cell in ("tp", "tn", "fp", "fn"):
            assert getattr(got, cell).tobytes() == getattr(expected, cell).tobytes(), cell

    def test_point_count_grid_makes_no_sort(self, monkeypatch, rng):
        """A point-count grid bins the census scores once, with the fixed
        thresholds; only an exact grid sorts them (see
        ``test_one_tally_per_sweep_and_per_summary``)."""
        calls = []

        def counting(name, tally):
            def wrapper(*args):
                calls.append((name, np.size(args[-1])))
                return tally(*args)
            return wrapper

        for name in ("tally_counts", "tally_binned_counts"):
            monkeypatch.setattr(
                evaluation_module, name, counting(name, getattr(evaluation_module, name))
            )
        n = 200
        truth = make_evaluation(rng.integers(0, 2, n), rng.random(n), np.ones(n))
        for points in (2, 11, 101):
            population_summary(*census_counts(truth), (0.25, 0.5), points)
        assert calls == [("tally_binned_counts", 2 + points) for points in (2, 11, 101)]


class TestEvaluationSummary:
    @settings(max_examples=300, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1),
                st.sampled_from([1.0, 2.5]) | st.floats(0.01, 100),
            ),
            min_size=1,
            max_size=30,
        ),
        thresholds=st.lists(
            st.sampled_from([0, 1, 0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1), max_size=4
        ),
        grid=st.sampled_from(["exact", 2, 101]),
        weighting=st.sampled_from(["weighted", "unweighted"]),
    )
    @example(
        records=[(1, 0.5, 1.0), (0, 0.5, 2.0), (1, 1.0, 3.0), (0, 0.0, 1.0), (1, 0.0, 1.0)],
        thresholds=[0.0, 0.5, 0.5, 1.0],
        grid="exact",
        weighting="unweighted",
    )
    def test_one_tally_equals_the_two_tally_oracle(self, records, thresholds, grid, weighting):
        """The fixed thresholds and the grid read from one tally give the
        summary of a threshold tally plus a separate ROC sweep bit for bit,
        with tied scores, scores at 0 and 1 and repeated thresholds; a
        one-class set raises the same error either way."""
        y, s, w = (list(col) for col in zip(*records))
        evaluation = make_evaluation(y, s, w)
        args = (evaluation, thresholds, grid, weighting)
        got = _outcome(evaluation_summary, *args)
        expected = _outcome(evaluation_summary_two_tallies, *args)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert json.dumps(got.to_json_dict()) == json.dumps(expected.to_json_dict())
        area, expected_area = got.metrics["auroc"][0], expected.metrics["auroc"][0]
        assert np.float64(area).tobytes() == np.float64(expected_area).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1),
                st.sampled_from([0.5, 1.0, 40.0]) | st.floats(0.01, 1000),
            ),
            min_size=1,
            max_size=30,
        ),
        thresholds=st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0, 1), max_size=4),
        grid=st.sampled_from(["exact", 2, 11, 101]),
    )
    def test_unweighted_is_weighted_on_unit_weights(self, records, thresholds, grid):
        """The unweighted summary of a set is the weighted summary of its
        unit-weight copy, every value and SE bit for bit, and its rates are
        the record-by-record count ratios; only the weighting labels differ."""
        y, s, w = (list(col) for col in zip(*records))
        got = _outcome(evaluation_summary, make_evaluation(y, s, w), thresholds, grid,
                       "unweighted")
        expected = _outcome(evaluation_summary, make_evaluation(y, s, [1.0] * len(y)),
                            thresholds, grid, "weighted")
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert (got.weighting, expected.weighting) == ("unweighted", "weighted")

        def exact(metrics):
            return {key: (np.float64(value).tobytes(), None if se is None else np.float64(se).tobytes())
                    for key, (value, se) in metrics.items()}

        assert got.thresholds == expected.thresholds == tuple(thresholds)
        assert list(got.metrics) == list(expected.metrics)
        assert exact(got.metrics) == exact(expected.metrics)
        for t in thresholds:
            tp, tn, fp, fn = confusion_counts(y, [v >= t for v in s])
            assert got.metrics[metric_key("sensitivity", t)][0] == tp / (tp + fn)
            assert got.metrics[metric_key("specificity", t)][0] == tn / (tn + fp)

    def test_population_truth_is_not_an_estimator_weighting(self):
        """A census truth is no weighting of a test split: the summary
        refuses it rather than mixing the unweighted rates with the weighted
        standard errors."""
        evaluation = make_evaluation([1, 1, 0, 0], [0.9, 0.2, 0.6, 0.1], [1.0, 5.0, 1.0, 3.0])
        with pytest.raises(DataValidationError, match="unknown weighting 'population-truth'"):
            evaluation_summary(evaluation, (0.5,), 11, "population-truth")

    @pytest.mark.parametrize("threshold", [np.nan, -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        """A NaN threshold would count every record positive in the rate and
        none in its standard error; it is refused, as is any outside [0, 1]."""
        evaluation = make_evaluation([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2], [1, 2, 3, 4])
        with pytest.raises(DataValidationError, match=r"thresholds must lie in \[0, 1\]"):
            evaluation_summary(evaluation, (threshold,), 11, "weighted")


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (DataValidationError, UndefinedMetricError) as exc:
        return type(exc), str(exc)


class TestRocCurve:
    def test_arrays_are_read_only_copies(self):
        thresholds = np.array([0.0, 0.5, 1.0])
        curve = RocCurve(
            thresholds=thresholds,
            sensitivity=[1.0, 0.5, 0.0],
            specificity=[0.0, 0.5, 1.0],
        )
        assert thresholds.flags.writeable
        assert curve.fpr.tolist() == [1.0, 0.5, 0.0]
        with pytest.raises(ValueError):
            curve.sensitivity[0] = 0.0

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(DataValidationError):
            RocCurve(
                thresholds=np.array([0.0, 1.0]),
                sensitivity=np.array([1.0]),
                specificity=np.array([0.0, 1.0]),
            )


class TestAuroc:
    def test_perfect_classifier(self):
        evaluation = make_evaluation([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2], [1, 2, 3, 4])
        curve = roc_sweep(evaluation, score_adapted_grid(evaluation.scores), "weighted")
        assert auroc(curve) == pytest.approx(1.0)

    def test_identical_scores_give_chance_performance(self):
        evaluation = make_evaluation([1, 0, 1, 0], [0.4] * 4, [1, 2, 3, 4])
        curve = roc_sweep(evaluation, score_adapted_grid(evaluation.scores), "weighted")
        assert auroc(curve) == pytest.approx(0.5)

    def test_hand_example_grid_value(self):
        """The coarse-grid curve of the 4-record hand example integrates to
        0.45 by hand: sorted by FPR with anchors, the trapezoids are
        (0 -> 5/6 at SN .4) = 1/3 and (5/6 -> 1, SN .4 -> 1) = 7/60."""
        evaluation = make_evaluation([1, 1, 0, 0], [0.9, 0.2, 0.7, 0.1], [2, 3, 5, 1])
        curve = roc_sweep(evaluation, [0.0, 0.25, 0.5, 0.75, 1.0], "weighted")
        assert auroc(curve) == pytest.approx(0.45, abs=1e-12)

    def test_weighted_six_record_case_matches_concordance_oracle(self):
        """Exact-mode AUROC equals the exhaustive weighted pairwise
        concordance (ties counted half)."""
        y = [1, 1, 1, 0, 0, 0]
        s = [0.9, 0.5, 0.5, 0.5, 0.3, 0.1]
        w = [2.0, 1.0, 4.0, 3.0, 5.0, 1.5]
        evaluation = make_evaluation(y, s, w)
        curve = roc_sweep(evaluation, score_adapted_grid(s), "weighted")
        oracle = weighted_pairwise_auc(y, s, w)
        assert auroc(curve) == pytest.approx(oracle, abs=1e-12)
        # and at the default grid, within the grid-resolution tolerance
        coarse = roc_sweep(evaluation, uniform_grid(101), "weighted")
        assert auroc(coarse) == pytest.approx(oracle, abs=0.01)

    def test_exact_sweep_matches_oracle_on_random_data(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 50))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            # quantize some scores to force ties
            s = np.round(rng.random(n), 1)
            w = rng.uniform(0.2, 30, n)
            evaluation = make_evaluation(y, s, w)
            curve = roc_sweep(evaluation, score_adapted_grid(s), "weighted")
            assert auroc(curve) == pytest.approx(
                weighted_pairwise_auc(y, s, w), abs=1e-9
            )

    def test_constant_weight_reduction(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            s = rng.random(n)
            grid = score_adapted_grid(s)
            weighted = auroc(roc_sweep(make_evaluation(y, s, np.full(n, 7.3)), grid, "weighted"))
            unweighted = auroc(roc_sweep(make_evaluation(y, s, np.ones(n)), grid, "unweighted"))
            assert weighted == pytest.approx(unweighted, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 1), st.floats(0.0, 1.0), st.floats(0.1, 10.0)),
            min_size=4,
            max_size=25,
        ).filter(lambda d: len({y for y, _, _ in d}) == 2)
    )
    def test_auroc_in_unit_interval(self, data):
        y = [d[0] for d in data]
        s = [d[1] for d in data]
        w = [d[2] for d in data]
        curve = roc_sweep(make_evaluation(y, s, w), score_adapted_grid(s), "weighted")
        assert 0.0 <= auroc(curve) <= 1.0

    def test_monotone_transform_invariance(self, rng):
        """With the grid taken at the transformed scores, AUROC is invariant
        under strictly monotone transforms (here s -> s^3)."""
        for _ in range(10):
            n = int(rng.integers(6, 40))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            s = rng.random(n)
            w = rng.uniform(0.5, 5, n)
            base = auroc(
                roc_sweep(make_evaluation(y, s, w), score_adapted_grid(s), "weighted")
            )
            cubed = s**3
            transformed = auroc(
                roc_sweep(
                    make_evaluation(y, cubed, w), score_adapted_grid(cubed), "weighted"
                )
            )
            assert transformed == pytest.approx(base, abs=1e-12)

    def test_grid_refinement_bounded_by_largest_trapezoid(self, rng):
        """Refining a grid never moves AUROC by more than the largest single
        trapezoid area of the coarser curve."""
        for _ in range(10):
            n = int(rng.integers(10, 80))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            s = rng.random(n)
            w = rng.uniform(0.5, 10, n)
            evaluation = make_evaluation(y, s, w)
            coarse_grid = uniform_grid(11)
            fine_grid = np.unique(np.concatenate([coarse_grid, uniform_grid(21)]))
            coarse = roc_sweep(evaluation, coarse_grid, "weighted")
            fine = roc_sweep(evaluation, fine_grid, "weighted")
            pts = sorted(zip(coarse.fpr.tolist(), coarse.sensitivity.tolist()))
            pts = [(0.0, 0.0)] + pts + [(1.0, 1.0)]
            biggest = max(
                (x2 - x1) * (y1 + y2) / 2.0
                for (x1, y1), (x2, y2) in zip(pts, pts[1:])
            )
            assert abs(auroc(fine) - auroc(coarse)) <= biggest + 1e-12

    def test_curve_threshold_ordering_enforced(self):
        with pytest.raises(DataValidationError):
            RocCurve(
                thresholds=np.array([0.5, 0.2]),
                sensitivity=np.array([1.0, 1.0]),
                specificity=np.array([0.0, 0.0]),
            )
