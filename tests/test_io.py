import contextlib
import csv
import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ingest_csv_per_row, parse_corrupted, read_predictions_per_row
from svymetrics.cli import main
from svymetrics.errors import DataValidationError, SchemaError
from svymetrics.io import (
    DataSchema,
    FeatureColumn,
    ingest_csv,
    read_predictions,
    write_predictions,
)

SCHEMA = DataSchema(
    id_column="id",
    outcome_column="y",
    weight_column="wt",
    stratum_column="grp",
    features=(FeatureColumn("age", "numeric"), FeatureColumn("region", "categorical")),
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestCsv:
    def test_valid_file_with_unit_weights(self, tmp_path):
        path = _write(
            tmp_path,
            "id,y,wt,grp,age,region\n"
            "a,1,1,g1,34,north\n"
            "b,0,1,g1,55,south\n"
            "c,1,1,g2,21,north\n"
            "d,0,1,g2,67,east\n"
            "e,1,1,g2,40,south\n",
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.size == 5
        assert np.all(result.sample.weights == 1.0)
        assert result.report.rows_read == 5 and result.report.rows_dropped == 0
        assert result.data.records[0].features == (34.0, "north")
        assert result.data.strata.tolist() == [0, 0, 1, 1, 1]
        assert result.data.stratum_labels == ("g1", "g2")
        assert result.population is None

    def test_blank_outcome_dropped_and_counted(self, tmp_path):
        path = _write(
            tmp_path,
            "id,y,wt,grp,age,region\na,1,2,g,30,n\nb,,2,g,40,n\nc,0,2,g,50,n\n",
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.size == 2
        assert result.report.dropped == {"missing outcome": 1}

    def test_negative_weight_rejected_with_reason(self, tmp_path):
        path = _write(
            tmp_path,
            "id,y,wt,grp,age,region\na,1,-2,g,30,n\nb,0,3,g,40,n\nc,0,2,g,50,n\n",
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.size == 2
        assert result.report.dropped == {"non-positive weight": 1}

    def test_unparseable_feature_dropped(self, tmp_path):
        path = _write(
            tmp_path,
            "id,y,wt,grp,age,region\na,1,2,g,thirty,n\nb,0,3,g,40,n\nc,1,1,g,50,n\n",
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.size == 2
        assert result.report.dropped == {"unparseable feature age": 1}

    def test_duplicate_ids_dropped(self, tmp_path):
        path = _write(
            tmp_path,
            "id,y,wt,grp,age,region\na,1,2,g,30,n\na,0,3,g,40,n\nb,0,2,g,50,n\n",
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.size == 2
        assert result.report.dropped == {"duplicate id": 1}

    def test_missing_schema_column_is_schema_error(self, tmp_path):
        path = _write(tmp_path, "id,y\na,1\n")
        with pytest.raises(SchemaError, match="lacks schema columns"):
            ingest_csv(path, SCHEMA)

    def test_zero_usable_rows_is_an_error(self, tmp_path):
        path = _write(tmp_path, "id,y,wt,grp,age,region\na,,2,g,30,n\n")
        with pytest.raises(DataValidationError, match="no usable rows"):
            ingest_csv(path, SCHEMA)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            ingest_csv(tmp_path / "ghost.csv", SCHEMA)

    def test_population_mode_without_weight_column(self, tmp_path):
        schema = DataSchema(
            id_column="id",
            outcome_column="y",
            features=(FeatureColumn("age", "numeric"),),
        )
        path = _write(tmp_path, "id,y,age\na,1,30\nb,0,40\n")
        result = ingest_csv(path, schema)
        assert result.population is result.data
        assert result.population.size == 2
        assert np.all(result.sample.weights == 1.0)

    def test_long_stratum_label_is_one_code_and_kept_intact(self, tmp_path):
        """One 10,000-character label among 2,000 rows costs 4 bytes a row:
        strata are int32 codes into the labels, not a fixed-width column."""
        long_label = "q" * 10_000
        rows = "".join(
            f"r{i},{i % 2},2,{long_label if i == 7 else f'g{i % 3}'},30,n\n" for i in range(2000)
        )
        result = ingest_csv(_write(tmp_path, "id,y,wt,grp,age,region\n" + rows), SCHEMA)
        data = result.data
        assert data.size == 2000
        assert data.strata.dtype == np.int32 and not data.strata.flags.writeable
        assert data.strata.nbytes == 4 * data.size
        assert data.stratum_labels == ("g0", "g1", "g2", long_label)
        assert data.records[7].stratum == long_label
        assert data.stratum_sizes[long_label] == 1

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL before 3.11")
    def test_strata_kept_exactly_with_trailing_nul(self, tmp_path):
        path = _write(tmp_path, "id,y,wt,grp,age,region\na,1,2,s,30,n\nb,0,2,s\x00,40,n\n")
        data = ingest_csv(path, SCHEMA).data
        assert data.stratum_labels == ("s", "s\x00")
        assert data.stratum_sizes == {"s": 1, "s\x00": 1}

    def test_file_without_stratum_column_is_one_blank_stratum(self, tmp_path):
        schema = DataSchema(id_column="id", outcome_column="y", weight_column="wt")
        result = ingest_csv(_write(tmp_path, "id,y,wt\na,1,2\nb,0,3\n"), schema)
        assert result.data.stratum_labels == ("",)
        assert result.data.strata.tolist() == [0, 0]

    def test_numeric_ids_stored_as_strings(self, tmp_path):
        path = _write(
            tmp_path, "id,y,wt,grp,age,region\n101,1,2,g,30,n\n102,0,2,g,40,n\n"
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.ids.tolist() == ["101", "102"]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL before 3.11")
    def test_ids_kept_exactly_with_trailing_nul_and_at_length_ten_thousand(self, tmp_path):
        """A fixed-width string column would strip the NUL, making "a" and
        "a\x00" one id, and size every cell to the longest id."""
        ids = ["a", "a\x00", "x" * 10_000]
        path = _write(
            tmp_path, "id,y,wt,grp,age,region\n" + "".join(f"{rid},1,2,g,30,n\n" for rid in ids)
        )
        result = ingest_csv(path, SCHEMA)
        assert result.report.rows_dropped == 0
        assert result.data.ids.tolist() == ids
        assert result.sample.ids.tolist() == ids
        assert result.data.ids.dtype == object


class TestSchema:
    def test_round_trip(self):
        payload = SCHEMA.to_json_dict()
        assert DataSchema.from_json_dict(payload) == SCHEMA

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            DataSchema(id_column="x", outcome_column="x")

    def test_bad_feature_kind_rejected(self):
        with pytest.raises(SchemaError):
            FeatureColumn("age", "continuous")

    def test_missing_required_key(self):
        with pytest.raises(SchemaError):
            DataSchema.from_json_dict({"id": "a"})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_schemas_raise_only_data_errors(self, data):
        parse_corrupted(data, SCHEMA.to_json_dict(), DataSchema.from_json_dict)


class TestPredictions:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_predictions(path, ["a", "b"], [0.125, 1.0])
        scores = read_predictions(path)
        assert scores == {"a": 0.125, "b": 1.0}

    def test_score_out_of_range_rejected(self, tmp_path):
        path = _write(tmp_path, "id,score\na,1.5\n", name="p.csv")
        with pytest.raises(DataValidationError, match="outside"):
            read_predictions(path)

    def test_duplicate_prediction_rejected(self, tmp_path):
        path = _write(tmp_path, "id,score\na,0.5\na,0.6\n", name="p.csv")
        with pytest.raises(DataValidationError, match="duplicate"):
            read_predictions(path)

    def test_full_precision_round_trip(self, tmp_path):
        value = 1.0 / 3.0
        path = tmp_path / "scores.csv"
        write_predictions(path, ["a"], [value])
        assert read_predictions(path)["a"] == value


# ---------------------------------------------------------------------------
# Columnar reading against the row-at-a-time oracles, on generated files
# ---------------------------------------------------------------------------

# Per column: cells that pass every check, then cells that fail one.
NUMBERS = (["1", "2.5", " 3 ", "1_000", "+4", "1e-3"],
           ["", " ", "0", "-1", "abc", "nan", "inf", "-inf", "1e400", "1,5", "0x1"])
CATEGORIES = (["north", " south ", "a,b", "ü", "x\ny"], ["", " "])
CELLS = {
    "id": (["a", "b", "c", " a ", "é", "日本", "x,y", 'q"t'], ["", "  "]),
    "y": (["0", "1", " 1 ", "1.0", "0e0", "-0"], ["", " ", "2", "yes", "nan", "1_0"]),
    "wt": NUMBERS, "age": NUMBERS, "x2": NUMBERS, "weight": NUMBERS,
    "grp": CATEGORIES, "region": CATEGORIES,
    "note": (["", "n1", "n,2", "ñ"], []),
    "score": (["0", "1", "0.5", " 0.25 ", "-0", "1e-3"],
              ["", " ", "x", "nan", "1.5", "inf", "-0.1", "1_0"]),
}


@st.composite
def survey_schemas(draw):
    features = draw(st.lists(
        st.sampled_from([FeatureColumn("age", "numeric"), FeatureColumn("x2", "numeric"),
                         FeatureColumn("region", "categorical")]),
        unique=True, max_size=3,
    ))
    return DataSchema(
        id_column="id",
        outcome_column="y",
        weight_column=draw(st.sampled_from(["wt", None])),
        stratum_column=draw(st.sampled_from(["grp", None])),
        features=tuple(features),
    )


@st.composite
def csv_texts(draw, columns, extras):
    """A CSV over ``columns`` plus drawn ``extras`` (repeats allowed), with
    blank lines, short and long rows, quoted fields and either line ending;
    sometimes with a blank header line or no lines at all."""
    header = draw(st.permutations(list(columns) + draw(st.lists(st.sampled_from(extras),
                                                                 max_size=3))))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])  # a blank line
            continue
        row = []
        for name in header:
            good, junk = CELLS[name]
            junky = junk and draw(st.integers(0, 5)) == 5
            row.append(draw(st.sampled_from(junk if junky else good)))
        change = draw(st.integers(-2, 2)) if draw(st.integers(0, 4)) == 0 else 0
        rows.append(row[:change] if change < 0 else row + ["extra"] * change)
    kind = draw(st.sampled_from(["header"] * 18 + ["blank header", "empty"]))
    if kind == "empty":
        return ""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header if kind == "header" else [])
    writer.writerows(rows)
    return out.getvalue()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataValidationError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


class TestColumnarReadersMatchOracles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ingest_equals_row_loop(self, workdir, data):
        schema = data.draw(survey_schemas())
        path = _write(workdir, data.draw(csv_texts(schema.required_columns,
                                                   ["note", "weight"])))
        expected = _outcome(ingest_csv_per_row, path, schema)
        got = _outcome(ingest_csv, path, schema)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
            return
        population, weights, report, _ = expected
        assert got.data.ids.tolist() == population.ids.tolist()
        for ours, theirs in ((got.data.outcomes, population.outcomes),
                             (got.data.strata, population.strata),
                             (got.sample.weights, weights)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert got.data.stratum_labels == population.stratum_labels
        for ours, theirs in zip(got.data.features, population.features, strict=True):
            assert ours.dtype == theirs.dtype
            if ours.dtype == object:
                assert ours.tolist() == theirs.tolist()
            else:
                assert ours.tobytes() == theirs.tobytes()
        assert got.report == report
        assert list(got.report.dropped) == list(report.dropped)
        assert (got.population is got.data) == (schema.weight_column is None)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_read_predictions_equals_row_loop(self, workdir, data):
        path = _write(workdir, data.draw(csv_texts(["id", "score"], ["id", "score", "note"])),
                      name="p.csv")
        expected = _outcome(read_predictions_per_row, path)
        got = _outcome(read_predictions, path)
        assert got == expected
        if isinstance(got, dict):
            assert list(got) == list(expected)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_split_writes_each_loaded_row_as_read(self, workdir, data):
        schema = data.draw(survey_schemas())
        path = _write(workdir, data.draw(csv_texts(schema.required_columns,
                                                   ["note", "weight"])))
        flags = ["--id-col", "id", "--outcome-col", "y"]
        if schema.weight_column:
            flags += ["--weight-col", schema.weight_column]
        if schema.stratum_column:
            flags += ["--stratum-col", schema.stratum_column]
        for col in schema.features:
            flags += ["--feature", f"{col.name}:{col.kind}"]
        train, held_out = workdir / "train.csv", workdir / "eval.csv"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["split", "--input", str(path), *flags, "--eval-fraction", "0.5",
                         "--seed", str(data.draw(st.integers(0, 3))),
                         "--train-out", str(train), "--eval-out", str(held_out)])
        expected = _outcome(ingest_csv_per_row, path, schema)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert code == 3
            return
        population, weights, _, raw_rows = expected
        if population.size < 2:  # one record cannot be split
            assert code == 3
            return
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        if "weight" in header:  # never the schema's weight column here
            assert code == 3
            return
        assert code == 0
        raw_by_id = dict(zip(population.ids, raw_rows))
        weight_by_id = dict(zip(population.ids, weights.tolist()))
        written = []
        for out in (train, held_out):
            with out.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][:len(header)] == header
            for row in rows[1:]:
                rid = row[header.index("id")].strip()
                assert row[:len(header)] == raw_by_id[rid]
                assert float(row[len(header)]) == weight_by_id[rid]  # the design weight
                written.append(rid)
        assert sorted(written) == sorted(population.ids)
