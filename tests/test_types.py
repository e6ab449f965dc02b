import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ascending_by_pairs, check_ids_by_set, code_labels, make_population, stratum_rows_by_grouping,
)
from svymetrics import types as types_module
from svymetrics.errors import DataValidationError
from svymetrics.simulation import record_ids
from svymetrics.types import (
    ConfusionTally, EvaluationSet, FinitePopulation, MetricResult, Record, SurveySample,
    strictly_ascending,
)


class TestPopulationInvariants:
    def test_duplicate_record_id_rejected(self):
        with pytest.raises(DataValidationError, match="duplicate record id 'same'"):
            make_population([0, 1, 0], ids=["same", "other", "same"])

    def test_inconsistent_feature_length_rejected(self):
        with pytest.raises(DataValidationError, match="feature 1 has 1 values, expected 2"):
            make_population([0, 1], features=[np.array([1.0, 2.0]), np.array([3.0])])

    def test_non_binary_outcome_rejected(self):
        with pytest.raises(DataValidationError, match="record 'r1' has non-binary outcome 2"):
            make_population([0, 2])

    def test_size_matches_record_count(self):
        assert make_population([0] * 5).size == 5


class TestPopulationViews:
    def test_record_view_reads_the_columns(self):
        population = make_population(
            [1, 0, 1],
            ["a", "b", "a"],
            features=[np.array([0.5, 1.5, 2.5]), np.array(["x", "y", "x"], dtype=object)],
        )
        records = population.records
        assert len(records) == 3
        assert records[1] == Record(
            record_id="r1", features=(1.5, "y"), outcome=0, stratum="b"
        )
        assert records[-1].record_id == "r2"
        assert [type(v) for v in records[0].features] == [float, str]
        assert type(records[0].outcome) is int and type(records[0].stratum) is str
        assert [r.record_id for r in records] == list(population.ids)
        assert records[1:] == (records[1], records[2])
        with pytest.raises(IndexError):
            records[3]

    def test_stratum_indices_keep_row_order_and_first_appearance(self):
        population = make_population([0] * 6, ["b", "a", "b", "c", "a", "b"])
        indices = population.stratum_indices
        assert list(indices) == ["b", "a", "c"]
        assert [indices[s].tolist() for s in indices] == [[0, 2, 5], [1, 4], [3]]
        assert population.stratum_sizes == {"b": 3, "a": 2, "c": 1}
        assert population.index_by_id == {f"r{i}": i for i in range(6)}

    def test_labels_differing_by_a_trailing_nul_or_blank_stay_apart(self):
        population = make_population([0, 1, 0, 1], ["s", "s\x00", "", "s"])
        assert population.stratum_labels == ("s", "s\x00", "")
        assert population.strata.tolist() == [0, 1, 2, 0]
        assert population.stratum_sizes == {"s": 2, "s\x00": 1, "": 1}
        assert [r.stratum for r in population.records] == ["s", "s\x00", "", "s"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stratum_indices_match_dict_grouping(self, data):
        """Random labels (some never used, some on one row) and random codes:
        the argsort-and-bincount grouping equals a dict walk over the rows."""
        labels = data.draw(st.lists(st.text(max_size=3), min_size=1, max_size=6, unique=True))
        codes = data.draw(
            st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=40)
        )
        population = FinitePopulation(
            ids=[f"r{i}" for i in range(len(codes))],
            outcomes=np.zeros(len(codes)),
            strata=np.asarray(codes, dtype=data.draw(st.sampled_from([np.int64, np.uint8]))),
            stratum_labels=labels,
        )
        expected = stratum_rows_by_grouping(codes, labels)
        indices = population.stratum_indices
        assert list(indices) == list(expected)
        assert {k: v.tolist() for k, v in indices.items()} == expected
        assert population.stratum_sizes == {k: len(v) for k, v in expected.items()}
        assert all(not v.flags.writeable for v in indices.values())
        assert code_labels([labels[c] for c in codes], len(codes))[1] == tuple(expected)

    @pytest.mark.parametrize(
        "strata, labels, match",
        [
            ([0, 2], ("a", "b"), "codes in \\[0, 2\\)"),
            ([-1, 0], ("a", "b"), "codes"),
            ([0.0, 1.0], ("a", "b"), "codes"),
            (["a", "b"], ("a", "b"), "codes"),
            ([0, 0], (), "codes"),
            ([0, 1], ("a", "a"), "distinct"),
            ([0, 1], ("a", 1), "strings"),
            ([0], ("a",), "one entry per id"),
        ],
    )
    def test_malformed_strata_rejected(self, strata, labels, match):
        with pytest.raises(DataValidationError, match=match):
            FinitePopulation(
                ids=("r0", "r1"), outcomes=np.zeros(2), strata=strata, stratum_labels=labels
            )

    def test_columns_are_read_only(self):
        population = make_population([0, 1], features=[np.array([1.0, 2.0])])
        for column in (population.outcomes, population.strata, *population.features):
            assert not column.flags.writeable
        assert population.outcomes.dtype == np.int8
        assert population.strata.dtype == np.int32


@st.composite
def id_lists(draw):
    """Ascending, shuffled and duplicate-bearing ids, among them ids that
    differ only by trailing NULs, and ids of mixed types."""
    texts = draw(st.lists(st.text(alphabet="ab\x00", max_size=3), min_size=1, max_size=12))
    form = draw(st.sampled_from(["ascending", "ascending with a repeat", "shuffled", "mixed"]))
    if form == "ascending":
        return sorted(set(texts))
    if form == "ascending with a repeat":
        ids = sorted(set(texts))
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
        return ids
    if form == "mixed":
        texts += draw(st.lists(st.sampled_from([1, "1", None, 1.0]), min_size=1, max_size=3))
    return draw(st.permutations(texts))


_PROOF_STRIDES = st.sampled_from([1, 2, 3, types_module._PROOF_STRIDE])


class TestIdUniqueness:
    """Ascending ids are proved distinct by order; any others by a set."""

    @settings(max_examples=400, deadline=None)
    @given(ids=id_lists(), stride=_PROOF_STRIDES)
    def test_accepts_and_rejects_as_the_set_check(self, ids, stride):
        """A population accepts exactly the ids the set-then-loop check
        accepts, and rejects the others naming the same first repeat."""
        try:
            check_ids_by_set(ids)
            want = None
        except DataValidationError as exc:
            want = str(exc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(types_module, "_PROOF_STRIDE", stride)
            try:
                population = make_population([0] * len(ids), ids=ids)
                got = None
            except DataValidationError as exc:
                got = str(exc)
        assert got == want
        if got is None:
            assert population.ids.tolist() == ids

    @settings(max_examples=400, deadline=None)
    @given(ids=id_lists(), stride=_PROOF_STRIDES)
    def test_ascent_is_checked_pair_by_pair(self, ids, stride):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(types_module, "_PROOF_STRIDE", stride)
            got = strictly_ascending(np.asarray(ids, dtype=object))
        assert got == ascending_by_pairs(ids)

    def test_ascending_ids_build_no_set(self):
        """117,000 ascending ids are checked in far less memory than the
        4 MB a set of them takes."""
        n = 117_000
        ids = record_ids(n)
        outcomes = np.zeros(n, dtype=np.int8)
        strata = np.zeros(n, dtype=np.int32)
        tracemalloc.start()
        try:
            FinitePopulation(ids=ids, outcomes=outcomes, strata=strata, stratum_labels=("s",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"


def _caller_arrays(kind):
    """Arrays a caller hands to a constructor, already of the stored dtype,
    and the constructor applied to them."""
    ids = np.array(["a", "b", "c"], dtype=object)
    if kind == "population":
        arrays = {"ids": ids, "outcomes": np.array([0, 1, 1], dtype=np.int8),
                  "strata": np.zeros(3, dtype=np.int32), "features": np.array([1.0, 2.0, 3.0])}
        build = lambda a: FinitePopulation(  # noqa: E731
            ids=a["ids"], outcomes=a["outcomes"], strata=a["strata"],
            stratum_labels=("s",), features=(a["features"],),
        )
    elif kind == "sample":
        arrays = {"ids": ids, "weights": np.array([1.0, 2.0, 3.0]),
                  "rows": np.arange(3, dtype=np.intp)}
        build = lambda a: SurveySample(**a)  # noqa: E731
    else:
        arrays = {"weights": np.array([1.0, 2.0, 3.0]),
                  "outcomes": np.array([0, 1, 1], dtype=np.int8),
                  "scores": np.array([0.1, 0.5, 0.9])}
        build = lambda a: EvaluationSet(**a)  # noqa: E731
    return arrays, build


@pytest.mark.parametrize(
    "kind, column",
    [("population", c) for c in ("ids", "outcomes", "strata", "features")]
    + [("sample", c) for c in ("ids", "weights", "rows")]
    + [("evaluation", c) for c in ("weights", "outcomes", "scores")],
)
def test_constructor_leaves_caller_array_writable(kind, column):
    """Each type freezes a view of the caller's array, never the array
    itself; the stored column is read-only and costs no copy."""
    arrays, build = _caller_arrays(kind)
    built = build(arrays)
    stored = getattr(built, column)
    stored = stored[0] if column == "features" else stored
    assert arrays[column].flags.writeable
    assert not stored.flags.writeable
    assert np.array_equal(stored, arrays[column])
    if column not in ("outcomes", "strata"):  # population recasts these to its own copy
        assert np.shares_memory(stored, arrays[column])


class TestEvaluationSet:
    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(DataValidationError, match="scores"):
            EvaluationSet(
                weights=np.array([1.0]),
                outcomes=np.array([1]),
                scores=np.array([1.5]),
            )

    def test_non_positive_weight_rejected(self):
        with pytest.raises(DataValidationError, match="weights"):
            EvaluationSet(
                weights=np.array([1.0, 0.0]),
                outcomes=np.array([1, 0]),
                scores=np.array([0.8, 0.3]),
            )

    @pytest.mark.parametrize("outcome", [0.5, 1.9, -0.5, np.nan])
    def test_non_binary_outcome_rejected_as_given(self, outcome):
        """An outcome other than 0 or 1 is refused, not cast to one of them."""
        with pytest.raises(DataValidationError, match="outcomes must be 0 or 1"):
            EvaluationSet(
                weights=np.ones(2),
                outcomes=np.array([outcome, 1.0]),
                scores=np.array([0.2, 0.8]),
            )


class TestConfusionTally:
    def test_totals(self):
        tally = ConfusionTally(tp=2.0, tn=5.0, fp=1.0, fn=3.0)
        assert [f.name for f in dataclasses.fields(tally)] == ["tp", "tn", "fp", "fn"]
        assert tally.tp + tally.tn + tally.fp + tally.fn == 11.0


class TestMetricResult:
    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(DataValidationError):
            MetricResult(value=1.2, kind="sensitivity", weighting="weighted")
