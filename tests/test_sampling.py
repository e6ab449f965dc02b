import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_stratified_samples, make_population, two_class_toy_population
from svymetrics.errors import DataValidationError, DegenerateSplitError, DesignError
from svymetrics.sampling import StratifiedDesign, split_train_test, stratified_sample
from svymetrics.types import SurveySample


def _population(sizes_by_stratum):
    strata = [label for label, count in sizes_by_stratum.items() for _ in range(count)]
    return make_population([i % 2 for i in range(len(strata))], strata)


class TestStratifiedSample:
    def test_census_of_one_stratum_selects_everything_with_unit_weights(self):
        population = _population({"s": 10})
        sample = stratified_sample(
            population, StratifiedDesign({"s": 10}), np.random.default_rng(0)
        )
        assert sample.size == 10
        assert sorted(sample.ids) == sorted(population.ids)
        assert np.all(sample.weights == 1.0)

    def test_two_strata_weights_are_population_over_sample_size(self):
        population = _population({"a": 4, "b": 6})
        sample = stratified_sample(
            population, StratifiedDesign({"a": 2, "b": 3}), np.random.default_rng(1)
        )
        assert sample.size == 5
        assert np.allclose(sample.weights, 2.0)

    def test_paper_design_weights(self):
        """Stratum sizes (38475, 23953, 30787, 13371, 10175) with allocations
        (2300, 1500, 1950, 1750, 2500) give weights N_h/n_h of approximately
        (16.728, 15.969, 15.788, 7.641, 4.070) and a total size of 10,000."""
        sizes = {"h1": 38475, "h2": 23953, "h3": 30787, "h4": 13371, "h5": 10175}
        alloc = {"h1": 2300, "h2": 1500, "h3": 1950, "h4": 1750, "h5": 2500}
        population = _population(sizes)
        sample = stratified_sample(
            population, StratifiedDesign(alloc), np.random.default_rng(7)
        )
        assert sample.size == 10_000
        by_stratum = {}
        for rid, w in zip(sample.ids, sample.weights):
            stratum = population.stratum_labels[population.strata[population.index_by_id[rid]]]
            by_stratum.setdefault(stratum, set()).add(float(w))
        expected = {"h1": 16.728, "h2": 15.969, "h3": 15.788, "h4": 7.641, "h5": 4.070}
        for label, weights in by_stratum.items():
            assert len(weights) == 1
            assert weights.pop() == pytest.approx(expected[label], abs=5e-4)

    def test_weight_is_exact_inverse_of_inclusion_probability(self):
        population = _population({"a": 7, "b": 9})
        sample = stratified_sample(
            population, StratifiedDesign({"a": 3, "b": 4}), np.random.default_rng(3)
        )
        assert sample.weights.tolist() == [1.0 / (3 / 7)] * 3 + [1.0 / (4 / 9)] * 4

    def test_unknown_stratum_rejected(self):
        population = _population({"a": 4})
        with pytest.raises(DesignError, match="unknown stratum"):
            stratified_sample(
                population, StratifiedDesign({"zzz": 1}), np.random.default_rng(0)
            )

    def test_oversized_allocation_rejected(self):
        population = _population({"a": 4})
        with pytest.raises(DesignError, match="exceeds"):
            stratified_sample(
                population, StratifiedDesign({"a": 5}), np.random.default_rng(0)
            )

    def test_no_duplicates_within_sample(self):
        population = _population({"a": 12, "b": 5})
        sample = stratified_sample(
            population, StratifiedDesign({"a": 6, "b": 5}), np.random.default_rng(11)
        )
        assert len(set(sample.ids)) == sample.size


class TestExhaustiveEnumerationUnbiasedness:
    def test_ht_total_unbiased_over_all_samples(self):
        """Enumerating every stratified sample of a toy population and
        averaging the weighted totals must reproduce the true total exactly.

        Population: 8 records split 4/4 over strata A and B, allocations
        (2, 2), so every sample carries weight 2 per member and there are
        C(4,2) * C(4,2) = 36 samples.  The checked variable is the record's
        outcome; its true total is the number of 1-outcomes.
        """
        population, _ = two_class_toy_population()
        outcome = dict(zip(population.ids, population.outcomes.tolist()))
        ids_by_stratum = {
            label: [population.ids[i] for i in rows]
            for label, rows in population.stratum_indices.items()
        }
        samples = list(
            enumerate_stratified_samples(ids_by_stratum, {"A": 2, "B": 2})
        )
        assert len(samples) == 36
        true_total = sum(outcome.values())
        w = np.full(4, 2.0)
        totals = [w @ np.array([outcome[rid] for rid in sample]) for sample in samples]
        assert abs(np.mean(totals) - true_total) <= 1e-12

    def test_selection_frequency_matches_inclusion_probability(self):
        """Across R seeded replicates each record's selection frequency
        converges to n_h / N_h within 4 / sqrt(R)."""
        population = _population({"a": 10, "b": 10})
        design = StratifiedDesign({"a": 4, "b": 6})
        r = 1500
        counts = {rid: 0 for rid in population.ids}
        for k in range(r):
            sample = stratified_sample(population, design, np.random.default_rng(k))
            for rid in sample.ids:
                counts[rid] += 1
        slack = 4.0 / np.sqrt(r)
        for rid, hits in counts.items():
            code = population.strata[population.index_by_id[rid]]
            target = 0.4 if population.stratum_labels[code] == "a" else 0.6
            assert abs(hits / r - target) <= slack


class TestSplitTrainTest:
    def test_compound_weights_scale_by_inflation_factor(self):
        """n = 100, f = 0.2, all w_i = 50: the evaluation side has
        n_e = 20 members, each with compound weight 50 * (100/20) = 250."""
        sample = SurveySample(
            ids=tuple(f"r{i}" for i in range(100)), weights=np.full(100, 50.0), rows=np.arange(100)
        )
        training, evaluation = split_train_test(sample, 0.2, np.random.default_rng(5))
        assert evaluation.size == 20
        assert training.size == 80
        assert np.all(evaluation.weights == 250.0)
        assert np.all(training.weights == 50.0)

    def test_partition_of_sample(self):
        population = _population({"a": 30, "b": 20})
        sample = stratified_sample(
            population, StratifiedDesign({"a": 15, "b": 10}), np.random.default_rng(2)
        )
        training, evaluation = split_train_test(sample, 0.2, np.random.default_rng(9))
        assert set(training.ids) | set(evaluation.ids) == set(sample.ids)
        assert not set(training.ids) & set(evaluation.ids)

    def test_heterogeneous_weights_keep_exact_ratio(self):
        """With n=10 and f=0.2 the inflation factor is exactly 5; every
        evaluation weight equals its design weight times that factor by
        construction."""
        weights = np.random.default_rng(4).uniform(0.5, 40.0, size=10)
        sample = SurveySample(
            ids=tuple(f"r{i}" for i in range(10)), weights=weights, rows=np.arange(10)
        )
        _, evaluation = split_train_test(sample, 0.2, np.random.default_rng(0))
        index = {rid: i for i, rid in enumerate(sample.ids)}
        for rid, w_eval in zip(evaluation.ids, evaluation.weights):
            assert w_eval == weights[index[rid]] * (10 / 2)

    def test_round_half_to_even(self):
        sample_ids = tuple(f"r{i}" for i in range(10))
        sample = SurveySample(ids=sample_ids, weights=np.ones(10), rows=np.arange(10))
        # 0.25 * 10 = 2.5 rounds to 2 under round-half-to-even
        _, evaluation = split_train_test(sample, 0.25, np.random.default_rng(0))
        assert evaluation.size == 2

    def test_degenerate_split_rejected(self):
        sample = SurveySample(ids=("a", "b"), weights=np.ones(2), rows=np.arange(2))
        with pytest.raises(DegenerateSplitError):
            split_train_test(sample, 0.95, np.random.default_rng(0))
        with pytest.raises(DegenerateSplitError):
            split_train_test(sample, 1.0, np.random.default_rng(0))


class TestSampleRows:
    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_rows_name_the_ids_of_the_sample_and_of_both_split_parts(self, sizes, data):
        """A stratified draw carries the population row of each member, and
        the split carries them to both parts, in the order of their ids."""
        labels = [f"s{k}" for k in range(len(sizes))]
        labelled = [lab for lab, m in zip(labels, sizes) for _ in range(m)]
        strata = data.draw(st.permutations(labelled))
        order = data.draw(st.permutations(range(len(strata))))
        population = make_population(
            [i % 2 for i in range(len(strata))], strata, ids=[f"id{i:03d}" for i in order]
        )
        allocations = {lab: data.draw(st.integers(1, m)) for lab, m in zip(labels, sizes)}
        seed = data.draw(st.integers(0, 2**32 - 1))
        sample = stratified_sample(
            population, StratifiedDesign(allocations), np.random.default_rng(seed)
        )
        assert sample.rows.dtype == np.intp
        assert [population.ids[i] for i in sample.rows] == sample.ids.tolist()
        if sample.size < 2:
            return
        parts = split_train_test(sample, 0.5, np.random.default_rng(seed + 1))
        for part in parts:
            assert [population.ids[i] for i in part.rows] == part.ids.tolist()
        both = np.concatenate([part.rows for part in parts])
        assert sorted(both.tolist()) == sorted(sample.rows.tolist())

    @pytest.mark.parametrize("rows", [[0.5, 1.7], [0.0, 1.0], [True, False]])
    def test_non_integer_rows_rejected(self, rows):
        """Rows are refused unless given as integers, rather than cast to
        them: [0.5, 1.7] would name rows 0 and 1."""
        with pytest.raises(DataValidationError, match="rows must be integer"):
            SurveySample(ids=("a", "b"), weights=np.ones(2), rows=rows)


class TestIdColumns:
    def test_ids_are_read_only_object_columns_of_str(self):
        """The population, the sample and both split parts hold ids as
        read-only 1-d object columns."""
        population = _population({"s1": 30, "s2": 20})
        sample = stratified_sample(
            population, StratifiedDesign({"s1": 12, "s2": 8}), np.random.default_rng(4)
        )
        training, evaluation = split_train_test(sample, 0.25, np.random.default_rng(5))
        for ids in (population.ids, sample.ids, training.ids, evaluation.ids):
            assert ids.dtype == object and ids.ndim == 1
            assert not ids.flags.writeable
            assert all(type(rid) is str for rid in ids.tolist())
            with pytest.raises(ValueError):
                ids[0] = "changed"

    def test_ids_must_be_one_dimensional(self):
        with pytest.raises(DataValidationError, match="1-d"):
            SurveySample(ids=[["a"], ["b"]], weights=np.ones(2), rows=np.arange(2))
