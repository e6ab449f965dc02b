import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_tally, make_evaluation, weighted_pairwise_auc
from svymetrics import evaluation as evaluation_module
from svymetrics import roc as roc_module
from svymetrics.errors import DataValidationError, UndefinedMetricError
from svymetrics.evaluation import evaluation_summary
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
            ref = brute_force_tally(y, s, w, t)
            assert unweighted.sensitivity[i] == ref["tp"] / (ref["tp"] + ref["fn"])
            assert unweighted.specificity[i] == ref["tn"] / (ref["tn"] + ref["fp"])
            assert weighted.sensitivity[i] == pytest.approx(
                ref["nhat_tp"] / (ref["nhat_tp"] + ref["nhat_fn"]), abs=1e-12
            )
            assert weighted.specificity[i] == pytest.approx(
                ref["nhat_tn"] / (ref["nhat_tn"] + ref["nhat_fp"]), abs=1e-12
            )

    def test_one_tally_per_sweep_and_per_summary(self, monkeypatch, rng):
        """An exact-grid sweep tallies once whatever its size; a summary
        tallies its fixed thresholds once plus once for its sweep."""
        calls = []

        def counting(tally):
            def wrapper(evaluation, threshold):
                calls.append(np.size(threshold))
                return tally(evaluation, threshold)
            return wrapper

        monkeypatch.setattr(roc_module, "tally_confusion", counting(roc_module.tally_confusion))
        monkeypatch.setattr(
            evaluation_module, "tally_confusion", counting(evaluation_module.tally_confusion)
        )
        n = 200
        evaluation = make_evaluation(rng.integers(0, 2, n), rng.random(n), rng.uniform(1, 5, n))
        roc_sweep(evaluation, score_adapted_grid(evaluation.scores), "weighted")
        assert calls == [n + 1]
        calls.clear()
        evaluation_summary(evaluation, (0.25, 0.5), "exact", "unweighted")
        assert calls == [2, n + 1]


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
