import numpy as np
import pytest

from svymetrics.errors import DataValidationError
from svymetrics.types import (
    ConfusionTally,
    EvaluationSet,
    FinitePopulation,
    MetricResult,
    Record,
    SampleMember,
    SurveySample,
    validate_sample,
)


def _sample(weights, ids=None, probs=None):
    ids = ids or [f"r{i}" for i in range(len(weights))]
    return SurveySample(
        ids=tuple(ids),
        weights=np.asarray(weights, dtype=np.float64),
        inclusion_probs=None if probs is None else np.asarray(probs, dtype=np.float64),
    )


class TestValidateSample:
    def test_valid_sample_against_population(self):
        records = tuple(
            Record(record_id=f"r{i}", features=(float(i),), outcome=i % 2, stratum="s")
            for i in range(4)
        )
        population = FinitePopulation(records=records)
        report = validate_sample(_sample([2.0, 2.0], ids=["r0", "r1"]), population)
        assert report.ok

    def test_zero_weight_reported(self):
        report = validate_sample(_sample([2.0, 0.0], ids=["a", "b"]))
        assert not report.ok
        assert any("non-positive weight" in issue and "'b'" in issue for issue in report.issues)

    def test_duplicate_id_reported(self):
        report = validate_sample(_sample([1.0, 1.0], ids=["a", "a"]))
        assert any("duplicate id" in issue for issue in report.issues)

    def test_unknown_id_reported_when_population_given(self):
        records = (Record(record_id="x", features=(), outcome=1, stratum="s"),)
        report = validate_sample(
            _sample([1.0], ids=["ghost"]), FinitePopulation(records=records)
        )
        assert any("not present in population" in issue for issue in report.issues)

    def test_inclusion_probability_out_of_range(self):
        report = validate_sample(_sample([1.0], probs=[1.5]))
        assert any("inclusion probability" in issue for issue in report.issues)

    def test_validation_reports_all_issues_without_raising(self):
        report = validate_sample(_sample([-1.0, 2.0, 2.0], ids=["a", "b", "b"]))
        assert len(report.issues) == 2


class TestPopulationInvariants:
    def test_duplicate_record_id_rejected(self):
        records = tuple(
            Record(record_id="same", features=(), outcome=0, stratum="s") for _ in range(2)
        )
        with pytest.raises(DataValidationError, match="duplicate"):
            FinitePopulation(records=records)

    def test_inconsistent_feature_length_rejected(self):
        records = (
            Record(record_id="a", features=(1.0,), outcome=0, stratum="s"),
            Record(record_id="b", features=(1.0, 2.0), outcome=1, stratum="s"),
        )
        with pytest.raises(DataValidationError, match="features"):
            FinitePopulation(records=records)

    def test_non_binary_outcome_rejected(self):
        records = (Record(record_id="a", features=(), outcome=2, stratum="s"),)
        with pytest.raises(DataValidationError, match="outcome"):
            FinitePopulation(records=records)

    def test_size_matches_record_count(self):
        records = tuple(
            Record(record_id=f"r{i}", features=(), outcome=0, stratum="s") for i in range(5)
        )
        assert FinitePopulation(records=records).size == 5


class TestEvaluationSet:
    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(DataValidationError, match="scores"):
            EvaluationSet(
                ids=("a",),
                weights=np.array([1.0]),
                outcomes=np.array([1]),
                scores=np.array([1.5]),
            )

    def test_non_positive_weight_rejected(self):
        with pytest.raises(DataValidationError, match="weights"):
            EvaluationSet(
                ids=("a", "b"),
                weights=np.array([1.0, 0.0]),
                outcomes=np.array([1, 0]),
            )

    def test_with_scores_attaches_predictions(self):
        skeleton = EvaluationSet(
            ids=("a", "b"), weights=np.array([2.0, 2.0]), outcomes=np.array([1, 0])
        )
        scored = skeleton.with_scores(np.array([0.8, 0.3]))
        assert skeleton.scores is None
        assert scored.scores is not None and scored.scores[0] == 0.8

    def test_require_scores_raises_on_skeleton(self):
        skeleton = EvaluationSet(
            ids=("a",), weights=np.array([1.0]), outcomes=np.array([0])
        )
        with pytest.raises(DataValidationError):
            skeleton.require_scores()


class TestConfusionTally:
    def test_totals(self):
        tally = ConfusionTally(
            nhat_tp=2.0, nhat_tn=5.0, nhat_fp=1.0, nhat_fn=3.0, tp=1, tn=1, fp=1, fn=1
        )
        assert tally.count == 4
        assert tally.weighted_total == pytest.approx(11.0)


class TestMetricResult:
    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(DataValidationError):
            MetricResult(value=1.2, kind="sensitivity", weighting="weighted")


class TestSampleMembersView:
    def test_members_round_trip(self):
        members = [
            SampleMember(record_id="a", weight=2.0, inclusion_prob=0.5),
            SampleMember(record_id="b", weight=4.0, inclusion_prob=0.25),
        ]
        sample = SurveySample.from_members(members)
        assert list(sample.members) == members
        assert sample.size == 2
