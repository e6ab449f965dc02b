import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svymetrics.classifiers import upsample_minority
from svymetrics.errors import DataValidationError


def _outcomes(positives, negatives):
    return np.array([1] * positives + [0] * negatives, dtype=np.int8)


def _upsample_rows_reference(y, rng):
    """The per-row list form: originals, then minority rows drawn with
    replacement until the classes balance."""
    positives = [i for i, v in enumerate(y) if v == 1]
    negatives = [i for i, v in enumerate(y) if v == 0]
    out = list(range(len(y)))
    if len(positives) == len(negatives):
        return out
    minority = positives if len(positives) < len(negatives) else negatives
    picks = rng.integers(0, len(minority), size=abs(len(positives) - len(negatives)))
    return out + [minority[int(i)] for i in picks]


class TestUpsampleMinority:
    def test_balances_class_counts(self, rng):
        y = _outcomes(10, 30)
        rows = upsample_minority(y, rng)
        assert np.sum(y[rows] == 1) == 30
        assert np.sum(y[rows] == 0) == 30

    def test_duplicates_are_copies_of_original_minority(self, rng):
        y = _outcomes(10, 30)
        added = upsample_minority(y, rng)[len(y) :]
        assert len(added) == 20
        assert np.all(y[added] == 1)

    def test_originals_all_retained_in_order(self, rng):
        y = _outcomes(3, 7)
        rows = upsample_minority(y, rng)
        assert np.array_equal(rows[: len(y)], np.arange(len(y)))

    def test_balanced_input_returned_unchanged(self, rng):
        y = _outcomes(5, 5)
        assert np.array_equal(upsample_minority(y, rng), np.arange(10))

    def test_single_minority_record_duplicated(self, rng):
        y = _outcomes(1, 5)
        rows = upsample_minority(y, rng)
        positives = rows[y[rows] == 1]
        assert len(positives) == 5
        assert set(positives.tolist()) == {0}

    def test_majority_side_can_be_positive(self, rng):
        y = _outcomes(8, 2)
        assert np.sum(y[upsample_minority(y, rng)] == 0) == 8

    def test_single_class_rejected(self, rng):
        with pytest.raises(DataValidationError):
            upsample_minority(_outcomes(4, 0), rng)

    def test_deterministic_given_stream(self):
        y = _outcomes(4, 9)
        first = upsample_minority(y, np.random.default_rng(42))
        second = upsample_minority(y, np.random.default_rng(42))
        assert np.array_equal(first, second)

    @given(
        y=st.lists(st.sampled_from([0, 1]), min_size=2, max_size=60).filter(
            lambda v: 0 < sum(v) < len(v)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_per_row_reference(self, y, seed):
        rows = upsample_minority(np.array(y), np.random.default_rng(seed))
        assert rows.tolist() == _upsample_rows_reference(y, np.random.default_rng(seed))
