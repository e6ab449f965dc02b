import contextlib
import csv
import io
import json
import struct
import sys
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    first_row_duplicates,
    ingest_csv_per_row,
    parse_corrupted,
    read_predictions_per_row,
    schema_json_by_hand,
    summary_json_by_hand,
    write_predictions_per_row,
    write_roc_per_row,
    write_split_files_per_row,
)
from svymetrics import io as io_module
from svymetrics import types as types_module
from svymetrics.cli import main
from svymetrics.errors import DataValidationError, SchemaError
from svymetrics.simulation import ExperimentSummary, MetricAggregate
from svymetrics.io import (
    DataSchema,
    FeatureColumn,
    _parse_floats,
    from_json,
    ingest_csv,
    load_schema,
    read_predictions,
    to_json,
    write_predictions,
    write_roc,
    write_split_files,
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


def _plain_lines(text):
    """The header and data lines ``text`` is split into when the CSV
    driver splits it on "," directly, or None when it reads ``text``
    through ``csv.reader``."""

    def check_header(header):
        if header is None:
            raise DataValidationError("no header")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_module, "_text_pieces", lambda path, size=-1: [text])
        patch.setattr(io_module, "_opened",
                      lambda path: contextlib.nullcontext(io.StringIO(text, newline="")))
        try:
            table, _ = io_module._read_columns("text.csv", check_header, {})
        except DataValidationError:
            return None
        if table.splitter is not io_module._Lines:
            return None
        header, *chunks = io_module._Lines.read("text.csv")
    return [",".join(header), *chain.from_iterable(chunks)]


def _main_quietly(argv):
    """``main(argv)``'s exit code and what it printed on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


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
        assert result.data.size == 2
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


    @pytest.mark.parametrize("first_id", ["a", '"a"'])  # plain split, then csv.reader
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, first_id):
        path = _write(tmp_path, "\ufeffid,y,wt,grp,age,region\r\n"
                                f"{first_id},1,2,g,30,n\r\nb,0,3,g,40,s\r\n")
        result = ingest_csv(path, SCHEMA)
        assert result.table.header[0] == "id"
        assert result.data.ids.tolist() == ["a", "b"]

    def test_byte_order_mark_file_passes_diagnose_weights(self, tmp_path):
        path = _write(tmp_path, "\ufeffid,y,wt\na,1,2\nb,0,3\n", name="bom.csv")
        code, err = _main_quietly(["diagnose-weights", "--input", path, "--id-col", "id",
                                   "--outcome-col", "y", "--weight-col", "wt"])
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("ending", ["\r", "\r\n\r"])
    def test_bare_carriage_returns_end_lines(self, tmp_path, ending):
        """A lone "\\r" ends a line, as in file iteration; such a file goes
        through ``csv.reader``."""
        text = "id,y,wt,grp,age,region" + ending + "a,1,2,g,30,n\r\nb,0,3,g,40,s" + ending
        assert _plain_lines(text) is None
        result = ingest_csv(_write(tmp_path, text), SCHEMA)
        population, weights, report, _ = ingest_csv_per_row(tmp_path / "data.csv", SCHEMA)
        assert result.data.ids.tolist() == ["a", "b"] == population.ids.tolist()
        assert result.sample.weights.tolist() == [2.0, 3.0] == weights.tolist()
        assert result.report == report

    def test_quote_free_field_over_the_csv_limit_is_a_data_error(self, tmp_path):
        limit = csv.field_size_limit()
        path = _write(tmp_path, f"id,y,wt\n{'a' * (limit + 1)},1,2\n")
        schema = DataSchema(id_column="id", outcome_column="y", weight_column="wt")
        with pytest.raises(DataValidationError,
                           match=rf"field larger than field limit \({limit}\)"):
            ingest_csv(path, schema)
        code, err = _main_quietly(["diagnose-weights", "--input", path, "--id-col", "id",
                                   "--outcome-col", "y", "--weight-col", "wt"])
        assert code == 3
        assert err == f"error: {path}: field larger than field limit ({limit})\n"

    def test_rows_appended_between_the_two_reads_are_read(self, tmp_path, monkeypatch):
        """A quote-free file is read once to look for quotes and once to
        parse it; rows appended in between are parsed with the rest."""
        path = _write(tmp_path, "id,y\na,1\nb,0\n")
        reads = []

        def text_pieces(path, size=-1, _real=io_module._text_pieces):
            reads.append(size)
            if len(reads) == 2:
                path.write_text("id,y\na,1\nb,0\nc,1\nd,0\n", encoding="utf-8")
            return _real(path, size)

        monkeypatch.setattr(io_module, "_text_pieces", text_pieces)
        result = ingest_csv(path, DataSchema(id_column="id", outcome_column="y"))
        assert result.data.ids.tolist() == ["a", "b", "c", "d"]
        assert len(reads) == 2

    def test_field_at_the_csv_limit_is_read(self, tmp_path):
        limit = csv.field_size_limit()
        path = _write(tmp_path, f"id,y,wt\n{'a' * limit},1,2\n")
        schema = DataSchema(id_column="id", outcome_column="y", weight_column="wt")
        assert ingest_csv(path, schema).data.ids.tolist() == ["a" * limit]

    def test_missing_schema_column_with_a_bad_byte_later_is_not_utf8(self, tmp_path):
        """The whole file is decoded before the header is checked, so a bad
        byte is reported wherever it lies, here about 70 KB in."""
        path = tmp_path / "late.csv"
        path.write_bytes(b"id,y\n" + b"".join(b"r%d,1\n" % i for i in range(9000)) + b"\xff\n")
        code, err = _main_quietly(["diagnose-weights", "--input", path, "--id-col", "id",
                                   "--outcome-col", "y", "--weight-col", "wt"])
        assert code == 3
        assert err == f"error: {path} is not UTF-8 text: invalid start byte\n"


class TestSchema:
    def test_round_trip(self):
        payload = to_json(SCHEMA)
        assert from_json(DataSchema, payload) == SCHEMA

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            DataSchema(id_column="x", outcome_column="x")

    def test_bad_feature_kind_rejected(self):
        with pytest.raises(SchemaError):
            FeatureColumn("age", "continuous")

    def test_missing_required_key(self):
        with pytest.raises(SchemaError):
            from_json(DataSchema, {"id": "a"})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"id": "id", "outcome": "y", "wieght": "wt"}, "unknown key 'wieght'"),
            ({"id": "id", "outcome": "y", "features": [{"name": "x", "knd": "numeric"}]},
             "features: unknown key 'knd'"),
        ],
    )
    def test_unknown_key_is_schema_error_naming_it(self, payload, message):
        """A misspelled ``weight`` would otherwise read as a census schema."""
        with pytest.raises(SchemaError, match=f"^{message}$"):
            from_json(DataSchema, payload)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_schemas_raise_only_data_errors(self, data):
        parse_corrupted(data, to_json(SCHEMA), lambda p: from_json(DataSchema, p))

    def test_schema_file_with_byte_order_mark(self, tmp_path):
        path = _write(tmp_path, "\ufeff" + json.dumps(to_json(SCHEMA)), name="s.json")
        assert load_schema(path) == SCHEMA


_NAMES = st.text(st.sampled_from("abyz_ é"), min_size=1, max_size=4)
_FLOATS = st.floats(allow_nan=False)


@st.composite
def _schemas(draw):
    names = draw(st.lists(_NAMES, min_size=2, max_size=7, unique=True))
    optional = lambda name: draw(st.sampled_from([None, name]))  # noqa: E731
    kinds = st.sampled_from(["numeric", "categorical"])
    return DataSchema(
        id_column=names[0],
        outcome_column=names[1],
        weight_column=optional(names[2]) if len(names) > 2 else None,
        stratum_column=optional(names[3]) if len(names) > 3 else None,
        features=tuple(FeatureColumn(name, draw(kinds)) for name in names[4:]),
    )


_AGGREGATES = st.builds(
    MetricAggregate, mean=_FLOATS, mc_sd=_FLOATS, mc_se_of_mean=_FLOATS,
    replicates=st.integers(0, 500), mean_linearized_se=st.none() | _FLOATS,
)
_SUMMARIES = st.builds(
    ExperimentSummary,
    replicates_requested=st.integers(1, 500),
    tables=st.dictionaries(_NAMES, st.dictionaries(
        st.sampled_from(["population", "weighted", "unweighted"]),
        st.dictionaries(_NAMES, _AGGREGATES, max_size=3), max_size=3), max_size=3),
    # ``aggregate`` writes "count" before "errors".
    failures=st.dictionaries(_NAMES, st.builds(
        lambda count, errors: {"count": count, "errors": errors},
        st.integers(0, 50), st.lists(_NAMES, max_size=3)), max_size=3),
    metadata=st.dictionaries(_NAMES, _NAMES, max_size=3),
)


class TestJsonCodec:
    @settings(max_examples=150, deadline=None)
    @given(schema=_schemas(), summary=_SUMMARIES)
    def test_codec_writes_what_the_hand_written_writers_wrote(self, schema, summary):
        """``to_json`` writes schemas and summaries key for key, in the same
        order, as their hand-written writers did, and reads a schema back."""
        assert json.dumps(to_json(schema)) == json.dumps(schema_json_by_hand(schema))
        assert json.dumps(summary.to_json_dict()) == json.dumps(summary_json_by_hand(summary))
        assert from_json(DataSchema, to_json(schema)) == schema


@pytest.mark.parametrize("hint, value", [
    (int, "7"), (int, "1_0"), (int, " 7 "), (float, "0.5"), (float, "nan"), (float, ""),
])
def test_number_field_refuses_a_string(hint, value):
    """A JSON string is no number, though ``int()`` or ``float()`` would read it."""
    with pytest.raises(SchemaError, match="^expected a number, got str$"):
        from_json(hint, value)


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

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = _write(tmp_path, "\ufeffid,score\r\na,0.25\r\n", name="p.csv")
        assert read_predictions(path) == {"a": 0.25}


class TestSplitFiles:
    def test_byte_order_mark_is_not_written(self, tmp_path):
        path = _write(tmp_path, "\ufeffid,y,wt\n" + "".join(f"r{i},{i % 2},2\n" for i in range(6)))
        train, held_out = tmp_path / "train.csv", tmp_path / "eval.csv"
        code, err = _main_quietly(["split", "--input", path, "--id-col", "id", "--outcome-col", "y",
                                   "--weight-col", "wt", "--seed", 1,
                                   "--train-out", train, "--eval-out", held_out])
        assert (code, err) == (0, "")
        assert train.read_bytes().startswith(b"id,y,wt,weight\r\n")
        assert held_out.read_bytes().startswith(b"id,y,wt,weight,weight_eval\r\n")

    @pytest.mark.parametrize("quote", ["", '"'])  # split on ",", then csv.reader
    @pytest.mark.parametrize("change", ["rows appended", "a row removed", "header renamed"])
    def test_file_changed_before_the_write_pass_is_a_data_error(
        self, tmp_path, monkeypatch, quote, change
    ):
        """``split`` reads its input to parse it and again to copy its rows;
        a file that no longer has the parsed header and number of data rows
        is one error line naming it, and no split file is left."""
        rows = [f"{quote}r{i}{quote},{i % 2},2\n" for i in range(8)]
        path = _write(tmp_path, "id,y,wt\n" + "".join(rows))
        changed = {
            "rows appended": "id,y,wt\n" + "".join(rows) + "r8,1,2\nr9,0,2\n",
            "a row removed": "id,y,wt\n" + "".join(rows[:-1]),
            "header renamed": "id,y,w\n" + "".join(rows),
        }[change]

        def write_split_files(path, *args, **kwargs):
            _write(tmp_path, changed)
            return io_module.write_split_files(path, *args, **kwargs)

        monkeypatch.setattr("svymetrics.cli.write_split_files", write_split_files)
        train, held_out = tmp_path / "train.csv", tmp_path / "eval.csv"
        code, err = _main_quietly(["split", "--input", path, "--id-col", "id", "--outcome-col", "y",
                                   "--weight-col", "wt", "--seed", 1,
                                   "--train-out", train, "--eval-out", held_out])
        assert (code, err) == (3, f"error: {path} changed while split was reading it\n")
        assert not train.exists() and not held_out.exists()


class TestPlainLines:
    """Which texts are split on "," directly; each other one goes through
    ``csv.reader``."""

    @settings(max_examples=400, deadline=None)
    @given(text=st.text(alphabet=',"\r\n\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 a', max_size=30)
           | st.text(alphabet=",\r\n\x0b\x85\u2028 a", max_size=30))
    def test_plain_lines_split_as_csv_reader_reads_them(self, text):
        lines = _plain_lines(text)
        if '"' in text or "\x00" in text or text.count("\r") != text.count("\r\n"):
            assert lines is None
            return
        rows = list(csv.reader(io.StringIO(text, newline="")))
        header, data = (rows[0], list(filter(None, rows[1:]))) if rows else ([], [])
        if lines is None:
            assert not header or not data or {len(row) for row in data} != {len(header)}
            return
        assert [line.split(",") for line in lines] == [header, *data]
        assert {len(row) for row in data} == {len(header)}

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 4),
        data=st.data(),
        ending=st.sampled_from(["\n", "\r\n"]),
    )
    def test_rectangular_quote_free_texts_are_split(self, width, data, ending):
        cell = st.text(alphabet="a \x0b\x0c\x1c\x85\u2028\t\u00e9", max_size=3)
        rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width)
                                  .filter(lambda row: row != [""]), min_size=2, max_size=6))
        rows[0][0] = "h" + rows[0][0]
        blanks = data.draw(st.sets(st.integers(1, len(rows)), max_size=2))
        lines = [",".join(row) for row in rows]
        for at in sorted(blanks, reverse=True):
            lines.insert(at, "")
        text = ending.join(lines) + data.draw(st.sampled_from(["", ending]))
        assert _plain_lines(text) == [",".join(row) for row in rows]
        assert [line.split(",") for line in _plain_lines(text)] == list(
            filter(None, csv.reader(io.StringIO(text, newline=""))))

    @pytest.mark.parametrize("text", [
        'id\n"a"\n',  # quoted
        "id\na\x00\n",  # NUL: csv.reader keeps it on 3.11 and raises before
        "id\ra\r",  # bare carriage returns
        "id\r\r\na\n",
        "id\n" + "a" * (csv.field_size_limit() + 1) + "\n",
        "id,y\na\n",  # a short row
        "id,y\na,1\nb,0,x\n",  # a long row
        "\nid\na\n",  # a blank header
        "\r\nid\r\na\r\n",
        "id\n",  # no data row
        "id\n\n",
        "",
    ])
    def test_texts_left_to_csv_reader(self, text):
        assert _plain_lines(text) is None

    def test_only_newline_ends_a_line(self):
        text = "a\x0bb\x0cc\x1c\x1d\x1e\x85\u2028\u2029,d\r\ne,f"
        assert _plain_lines(text) == ["a\x0bb\x0cc\x1c\x1d\x1e\x85\u2028\u2029,d", "e,f"]


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
def survey_schemas(draw, weight_columns=("wt", None)):
    features = draw(st.lists(
        st.sampled_from([FeatureColumn("age", "numeric"), FeatureColumn("x2", "numeric"),
                         FeatureColumn("region", "categorical")]),
        unique=True, max_size=3,
    ))
    return DataSchema(
        id_column="id",
        outcome_column="y",
        weight_column=draw(st.sampled_from(weight_columns)),
        stratum_column=draw(st.sampled_from(["grp", None])),
        features=tuple(features),
    )


def _needs_no_quotes(cell):
    return not any(c in cell for c in ',"\r\n')


@st.composite
def csv_texts(draw, columns, extras, plain=False):
    """A CSV over ``columns`` plus drawn ``extras`` (repeats allowed), with
    blank lines, short and long rows, quoted fields and either line ending;
    sometimes with a blank header line or no lines at all.  A ``plain``
    CSV draws only cells that ``csv.writer`` writes unquoted."""
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
            if plain:
                good, junk = (list(filter(_needs_no_quotes, cells)) for cells in (good, junk))
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


def _check_ingest_equals_row_loop(workdir, data):
    schema = data.draw(survey_schemas())
    path = _write(workdir, data.draw(csv_texts(schema.required_columns, ["note", "weight"],
                                               plain=data.draw(st.booleans()))))
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


def _check_read_predictions_equals_row_loop(workdir, data):
    path = _write(workdir, data.draw(csv_texts(["id", "score"], ["id", "score", "note"],
                                               plain=data.draw(st.booleans()))),
                  name="p.csv")
    expected = _outcome(read_predictions_per_row, path)
    got = _outcome(read_predictions, path)
    assert got == expected
    if isinstance(got, dict):
        assert list(got) == list(expected)


def _check_split_writes_each_loaded_row_as_read(workdir, data):
    schema = data.draw(survey_schemas())
    path = _write(workdir, data.draw(csv_texts(schema.required_columns, ["note", "weight"],
                                               plain=data.draw(st.booleans()))))
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


def _check_split_files_equal_csv_writer_bytes(workdir, data):
    """Both split files, byte for byte, against ``csv.writer`` writing
    every row from its fields."""
    schema = data.draw(survey_schemas(weight_columns=("wt", "weight", None)))
    path = _write(workdir, data.draw(csv_texts(schema.required_columns, ["note", "weight"],
                                               plain=data.draw(st.booleans()))))
    try:
        result = ingest_csv(path, schema)
    except DataValidationError:
        return
    rows = data.draw(st.permutations(result.file_rows.tolist()))
    cut = data.draw(st.integers(0, len(rows)))
    weights = st.floats(min_value=1e-300, max_value=1e300)
    args = (
        sorted(rows[:cut]),
        data.draw(st.lists(weights, min_size=cut, max_size=cut)),
        sorted(rows[cut:]),
        *(data.draw(st.lists(weights, min_size=len(rows) - cut, max_size=len(rows) - cut))
          for _ in range(2)),
    )
    outs = {}
    for name, write in (("ours", write_split_files), ("oracle", write_split_files_per_row)):
        train, held_out = workdir / f"{name}_train.csv", workdir / f"{name}_eval.csv"
        try:
            write(path, result.table, *args, train, held_out, schema.weight_column)
        except SchemaError as exc:
            outs[name] = str(exc)
        else:
            outs[name] = (train.read_bytes(), held_out.read_bytes())
    assert outs["ours"] == outs["oracle"]


class TestColumnarReadersMatchOracles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ingest_equals_row_loop(self, workdir, data):
        _check_ingest_equals_row_loop(workdir, data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_read_predictions_equals_row_loop(self, workdir, data):
        _check_read_predictions_equals_row_loop(workdir, data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_split_writes_each_loaded_row_as_read(self, workdir, data):
        _check_split_writes_each_loaded_row_as_read(workdir, data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_split_files_equal_csv_writer_bytes(self, workdir, data):
        _check_split_files_equal_csv_writer_bytes(workdir, data)

    def test_generated_files_reach_both_read_paths(self, workdir, monkeypatch):
        _check_generated_files_reach_both_read_paths(workdir, monkeypatch)


def _check_generated_files_reach_both_read_paths(workdir, monkeypatch):
    """The drawn files above are read both by a plain split on "," into
    stride slices of a flat list per chunk (``_Lines``) and by
    ``csv.reader`` with rows padded or cut per chunk (``_Records``), the
    latter on quoted files and on quote-free files with short or long
    rows."""
    seen = Counter()

    def read_columns(path, *args, _real=io_module._read_columns):
        table, columns = _real(path, *args)
        if table.splitter is io_module._Lines:
            seen["split on ','"] += 1
        else:
            quoted = '"' in "".join(io_module._text_pieces(path))
            seen["csv.reader, quoted" if quoted else "csv.reader, quote-free"] += 1
        return table, columns

    monkeypatch.setattr(io_module, "_read_columns", read_columns)

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def read_drawn_files(data):
        schema = data.draw(survey_schemas())
        text = data.draw(csv_texts(schema.required_columns, ["note", "weight"],
                                   plain=data.draw(st.booleans())))
        _outcome(ingest_csv, _write(workdir, text), schema)
        text = data.draw(csv_texts(["id", "score"], ["id", "score", "note"],
                                   plain=data.draw(st.booleans())))
        _outcome(read_predictions, _write(workdir, text, name="p.csv"))

    read_drawn_files()
    assert set(seen) == {"split on ','", "csv.reader, quoted", "csv.reader, quote-free"}, seen


@pytest.mark.parametrize("lines", [1, 2, 3])
class TestOraclesAtChunkBoundaries:
    """The oracle properties above again, with files read, parsed and
    written ``lines`` lines (and read ``lines`` characters) at a time."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, lines):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_module, "CHUNK_LINES", lines)
            yield

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ingest_equals_row_loop(self, workdir, lines, data):
        _check_ingest_equals_row_loop(workdir, data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_read_predictions_equals_row_loop(self, workdir, lines, data):
        _check_read_predictions_equals_row_loop(workdir, data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_split_writes_each_loaded_row_as_read(self, workdir, lines, data):
        _check_split_writes_each_loaded_row_as_read(workdir, data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_split_files_equal_csv_writer_bytes(self, workdir, lines, data):
        _check_split_files_equal_csv_writer_bytes(workdir, data)

    def test_generated_files_reach_both_read_paths(self, workdir, lines, monkeypatch):
        _check_generated_files_reach_both_read_paths(workdir, monkeypatch)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="a,\r\n\u00e9\u65e5\U0001f600\ufeff", max_size=12),
       bom=st.booleans(), size=st.integers(1, 7))
def test_byte_pieces_decode_as_the_whole_file(workdir, text, bom, size):
    """Read ``size`` bytes at a time, a file with 2-, 3- and 4-byte
    characters, and a byte-order mark that a piece may cut, decodes to the
    text that reading it whole gives: its first mark dropped, if any."""
    path = workdir / "pieces.csv"
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
    with path.open(newline="", encoding="utf-8-sig") as fh:
        whole = fh.read()
    assert whole == (text if bom else text.removeprefix("\ufeff"))
    assert "".join(io_module._text_pieces(path, size)) == whole
    assert "".join(io_module._text_pieces(path)) == whole


@pytest.mark.parametrize("size", [1, 2, 3, 4, -1])
@pytest.mark.parametrize("data", [
    b"id\n\xc3", b"id\n\xe6\x97", b"id\n\xe6\x97a\n", b"id\n\xff\n", b"\xef\xbb\xbf\xff",
    b"\xef\xbb",  # a cut byte-order mark, which Python's utf-8-sig drops
])
def test_bad_bytes_read_as_a_text_file_reads_them(tmp_path, size, data):
    """Cut or bad bytes, read a few at a time, give the text or the error
    reason that reading the file whole in text mode gives."""
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            expected = fh.read()
    except UnicodeDecodeError as exc:
        expected = (DataValidationError, f"{path} is not UTF-8 text: {exc.reason}")
    assert _outcome(lambda: "".join(io_module._text_pieces(path, size))) == expected


@pytest.mark.parametrize("lines", [1, 2, 3])
def test_multibyte_survey_with_a_byte_order_mark_reads_as_without_it(tmp_path, lines):
    """A survey with a byte-order mark and multi-byte ids and strata, read
    and split a few bytes at a time, loads as the row loop loads the same
    file without the mark, and splits as ``csv.writer`` writes it."""
    text = ("id,y,wt,grp\r\n\u00e9,1,2,\u65e5\r\n\U0001f600,0,3,\u00fc\r\n"
            "a\u00e9\u65e5,1,4,\u65e5 \r\n\u00e9\u00e9,0,5,\U0001f600\r\n")
    plain = _write(tmp_path, text, name="plain.csv")
    marked = _write(tmp_path, "\ufeff" + text, name="marked.csv")
    schema = DataSchema(id_column="id", outcome_column="y", weight_column="wt",
                        stratum_column="grp")
    population, weights, report, _ = ingest_csv_per_row(plain, schema)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_module, "CHUNK_LINES", lines)
        result = ingest_csv(marked, schema)
        assert result.table.splitter is io_module._Lines
        assert result.data.ids.tolist() == population.ids.tolist()
        assert result.data.stratum_labels == population.stratum_labels
        assert result.sample.weights.tolist() == weights.tolist()
        assert result.report == report
        rows = result.file_rows.tolist()
        outs = {}
        for name, write in (("ours", write_split_files), ("oracle", write_split_files_per_row)):
            out = tmp_path / name
            out.mkdir()
            write(marked, result.table, rows[::2], [0.5] * len(rows[::2]), rows[1::2],
                  [1 / 3] * len(rows[1::2]), [0.1] * len(rows[1::2]),
                  out / "train.csv", out / "eval.csv", "wt")
            outs[name] = [(out / f).read_bytes() for f in ("train.csv", "eval.csv")]
    assert outs["ours"] == outs["oracle"]


_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("size", [_LIMIT // 2, _LIMIT - 3, _LIMIT, _LIMIT + 7, 3 * _LIMIT])
@pytest.mark.parametrize("field, splitter", [
    (_LIMIT - 2, io_module._Lines),  # its line ",1" is at the limit
    (_LIMIT - 1, io_module._Records),  # its line is over the limit, no field is
    (_LIMIT + 1, None),  # its field is over the limit: a data error
])
def test_long_line_across_pieces(tmp_path, size, field, splitter):
    """A line at or over ``csv.field_size_limit()``, read ``size`` bytes at
    a time so that it starts in one piece and ends in the next: a line over
    the limit is left to ``csv.reader``, which reads it as the row loop
    does, or refuses a field over the limit."""
    text = "id,y\n" + "".join(f"r{i},1\n" for i in range(9)) + "a" * field + ",1\nz,0\n"
    path = _write(tmp_path, text)
    schema = DataSchema(id_column="id", outcome_column="y")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_module, "CHUNK_LINES", size)
        got = _outcome(ingest_csv, path, schema)
    if splitter is None:
        assert got == (DataValidationError,
                       f"{path}: field larger than field limit ({_LIMIT})")
        return
    population, _, report, _ = ingest_csv_per_row(path, schema)
    assert got.table.splitter is splitter
    assert got.data.ids.tolist() == population.ids.tolist()
    assert got.report == report


_BOUNDARY_TEXTS = {
    # A quoted "\n" or "\r\n" in the first, middle and last data rows.
    "newline in a quoted field": 'id,y,wt,note\r\na,1,2,"x\r\ny"\r\nb,0,3,"p\nq\nr"\r\n'
                                 'c,1,4,n\r\n"d,",0,5,"s\n"\r\n"e\n",1,6,t',
    "short and long quoted rows": 'id,y,wt,note\na,1,2\n"b",0,3,n,extra,more\n'
                                  'c,1,4,"m"\n"d"\ne,0,"7",,\n"f",1,8,"o\np",x\n',
    "blank rows, quoted": '"id",y,wt\n\na,1,2\n\n\nb,0,3\n\r\nc,1,4\n\n"d",0,5\n\n',
    "blank rows, quote-free": "id,y,wt\n\na,1,2\n\n\nb,0,3\n\r\nc,1,4\n\nd,0,5\n\n",
}


@pytest.mark.parametrize("lines", [1, 2, 3])
@pytest.mark.parametrize("text", list(_BOUNDARY_TEXTS.values()), ids=list(_BOUNDARY_TEXTS))
def test_chunk_boundaries_read_and_split_as_the_row_loops(tmp_path, lines, text):
    """Files whose quoted fields hold line breaks, whose quoted rows are
    short or long, or whose blank rows fall between chunks: read and split
    ``lines`` rows at a time, they load as the row loop loads them and
    split as ``csv.writer`` writes them."""
    path = _write(tmp_path, text)
    schema = DataSchema(id_column="id", outcome_column="y", weight_column="wt")
    population, weights, report, _ = ingest_csv_per_row(path, schema)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_module, "CHUNK_LINES", lines)
        result = ingest_csv(path, schema)
        splitter = io_module._Records if '"' in text else io_module._Lines
        assert result.table.splitter is splitter
        assert result.data.ids.tolist() == population.ids.tolist()
        assert result.sample.weights.tolist() == weights.tolist()
        assert result.report == report
        rows = result.file_rows.tolist()
        train, held_out = rows[::2], rows[1::2]
        outs = {}
        for name, write in (("ours", write_split_files), ("oracle", write_split_files_per_row)):
            out = tmp_path / name
            out.mkdir()
            write(path, result.table, train, [0.5] * len(train), held_out,
                  [1 / 3] * len(held_out), [0.1] * len(held_out),
                  out / "train.csv", out / "eval.csv", "wt")
            outs[name] = [(out / f).read_bytes() for f in ("train.csv", "eval.csv")]
    assert outs["ours"] == outs["oracle"]


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.sampled_from(["", " ", "a", "b", "a ", "日"]) | st.text(max_size=2),
                    max_size=10),
       data=st.data())
def test_set_size_shortcut_marks_the_duplicates_first_rows_marks(ids, data):
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, max(len(ids) - 1, 0)),
                                             max_size=len(ids)))), dtype=np.intp)
    ours = types_module.repeated_ids(ids, rows)
    assert ours.dtype == bool
    assert ours.tolist() == first_row_duplicates(ids, rows).tolist()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stride=st.sampled_from([1, 2, 3, types_module._PROOF_STRIDE]))
def test_ascending_ids_mark_the_duplicates_first_rows_marks(data, stride):
    """Ids in ascending order (proved distinct without a set), with a
    repeat put in or a pair swapped, against the first-rows oracle."""
    ids = sorted(data.draw(st.sets(st.text("ab\x00 ", max_size=3), max_size=10)))
    form = data.draw(st.sampled_from(["ascending", "repeat", "swap"]))
    if ids and form == "repeat":
        ids.insert(data.draw(st.integers(0, len(ids))), data.draw(st.sampled_from(ids)))
    if len(ids) > 1 and form == "swap":
        i = data.draw(st.integers(0, len(ids) - 2))
        ids[i], ids[i + 1] = ids[i + 1], ids[i]
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, max(len(ids) - 1, 0)),
                                             max_size=len(ids)))), dtype=np.intp)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(types_module, "_PROOF_STRIDE", stride)
        ours = types_module.repeated_ids(ids, rows)
    assert ours.tolist() == first_row_duplicates(ids, rows).tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_set_size_shortcut_drops_what_first_rows_drops(workdir, data):
    """Drawn surveys, with blank and repeated ids, load with the same
    dropped counts whether or not distinct ids skip the first-rows mask."""
    schema = data.draw(survey_schemas())
    path = _write(workdir, data.draw(csv_texts(schema.required_columns, ["note", "weight"],
                                               plain=data.draw(st.booleans()))))
    got = _outcome(ingest_csv, path, schema)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_module, "repeated_ids", first_row_duplicates)
        expected = _outcome(ingest_csv, path, schema)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert got.report == expected.report
    assert list(got.report.dropped) == list(expected.report.dropped)
    assert got.data.ids.tolist() == expected.data.ids.tolist()


# ---------------------------------------------------------------------------
# Line writers against csv.writer, byte for byte
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, 1.0, 2.5e-300, 1e300,
                float("inf"), float("-inf"), float("nan")]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats()


def _bits(value):
    return struct.pack("<d", value)


@st.composite
def float_columns(draw, size):
    """``size`` floats that repeat a few values, that are all distinct, or
    that hold both -0.0 and 0.0."""
    kind = draw(st.sampled_from(["repeat", "distinct", "signed zeros"]))
    if kind == "distinct":
        return draw(st.lists(_FLOATS, min_size=size, max_size=size, unique_by=_bits))
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=3))
    if kind == "signed zeros":
        pool += [0.0, -0.0]
    return [draw(st.sampled_from(pool)) for _ in range(size)]


_CHUNKS = st.sampled_from([1, 2, 3, io_module.CHUNK_LINES])


class TestLineWritersMatchCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), chunk=_CHUNKS)
    def test_predictions_equal_csv_writer_bytes(self, workdir, data, chunk):
        alphabet = data.draw(st.sampled_from(["ab é", 'ab ,"\r\n']))
        ids = data.draw(st.lists(st.text(alphabet=alphabet, max_size=4), max_size=9))
        scores = data.draw(float_columns(len(ids)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_module, "CHUNK_LINES", chunk)
            write_predictions(workdir / "ours.csv", ids, scores)
        write_predictions_per_row(workdir / "oracle.csv", ids, scores)
        assert (workdir / "ours.csv").read_bytes() == (workdir / "oracle.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(0, 9), chunk=_CHUNKS)
    def test_roc_equals_csv_writer_bytes(self, workdir, data, size, chunk):
        curve = SimpleNamespace(**{name: np.array(data.draw(float_columns(size)))
                                   for name in ("thresholds", "sensitivity", "specificity")})
        curve.fpr = 1.0 - curve.specificity
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_module, "CHUNK_LINES", chunk)
            write_roc(workdir / "ours.csv", curve)
        write_roc_per_row(workdir / "oracle.csv", curve)
        assert (workdir / "ours.csv").read_bytes() == (workdir / "oracle.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), chunk=_CHUNKS)
    def test_split_weight_columns_equal_csv_writer_bytes(self, workdir, data, chunk):
        """Weight columns that repeat, that are all distinct, or that hold
        both -0.0 and 0.0, after rows read either way."""
        schema = data.draw(survey_schemas(weight_columns=("wt", "weight", None)))
        path = _write(workdir, data.draw(csv_texts(schema.required_columns, ["note", "weight"],
                                                   plain=data.draw(st.booleans()))))
        try:
            result = ingest_csv(path, schema)
        except DataValidationError:
            return
        rows = data.draw(st.permutations(result.file_rows.tolist()))
        cut = data.draw(st.integers(0, len(rows)))
        args = (sorted(rows[:cut]), data.draw(float_columns(cut)), sorted(rows[cut:]),
                data.draw(float_columns(len(rows) - cut)),
                data.draw(float_columns(len(rows) - cut)))
        outs = {}
        for name, write in (("ours", write_split_files), ("oracle", write_split_files_per_row)):
            train, held_out = workdir / f"{name}_train.csv", workdir / f"{name}_eval.csv"
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(io_module, "CHUNK_LINES", chunk)
                try:
                    write(path, result.table, *args, train, held_out, schema.weight_column)
                except SchemaError as exc:
                    outs[name] = str(exc)
                else:
                    outs[name] = (train.read_bytes(), held_out.read_bytes())
        assert outs["ours"] == outs["oracle"]


_NUMBER_CELLS = NUMBERS[0] + NUMBERS[1] + CELLS["score"][0] + CELLS["score"][1]


_CELL_TEXTS = (st.sampled_from(_NUMBER_CELLS)
               | st.text(alphabet="0123456789+-._eEinfxa \t\x00\u00a0\u0661", max_size=6))


def _check_float_parse_equals_float_per_cell(texts):
    """``_parse_floats`` reads each cell as ``float()`` does: NaN where it
    fails, which cells are blank and which do not parse."""
    values, blank, bad = _parse_floats(texts)
    expected, unparseable = [], []
    for text in texts:
        try:
            expected.append(float(text))
            unparseable.append(False)
        except ValueError:
            expected.append(float("nan"))
            unparseable.append(bool(text.strip()))
    assert values.dtype == np.float64
    assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()
    assert blank.tolist() == [not text.strip() for text in texts]
    assert bad.tolist() == unparseable


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_CELL_TEXTS, max_size=8))
def test_float_parse_equals_float_per_cell(texts):
    _check_float_parse_equals_float_per_cell(texts)


@settings(max_examples=150, deadline=None)
@given(size=st.integers(300, 600),
       pool=st.lists(_CELL_TEXTS, min_size=1, max_size=types_module.FEW_LEVELS + 3, unique=True),
       form=st.sampled_from(["as drawn", "distinct past the probe", "bad past the probe"]),
       data=st.data())
def test_long_float_columns_parse_as_float_per_cell(size, pool, form, data):
    """Columns longer than the probe, whose leading cells hold few or many
    distinct texts, some with many distinct texts or with cells that fail
    ``float()`` only past the probe, against ``float()`` per cell."""
    rng = data.draw(st.randoms(use_true_random=False))
    texts = rng.choices(pool, k=size)
    past = range(types_module.PROBE, size)
    if form == "distinct past the probe":
        texts[types_module.PROBE:] = [repr(rng.random()) for _ in past]
    elif form == "bad past the probe":
        for at in rng.sample(past, rng.randint(1, 3)):
            texts[at] = rng.choice(["", " ", "abc", "1,5", "0x1"])
    _check_float_parse_equals_float_per_cell(texts)


@pytest.mark.parametrize("lines", [1, 2, 3, io_module.CHUNK_LINES])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_code_labels_that_differ_by_blanks_are_one_stratum(workdir, lines, data):
    """Stratum cells that strip to one label get one code, in order of
    first appearance, whichever raw cell comes first."""
    cells = data.draw(st.lists(st.sampled_from(["a", " a", "a ", " a ", "b", "\tb", "b\t", "",
                                                " ", "ab", " a b "]), min_size=1, max_size=12))
    text = "id,y,grp\n" + "".join(f"r{i},1,{cell}\n" for i, cell in enumerate(cells))
    path = _write(workdir, text)
    schema = DataSchema(id_column="id", outcome_column="y", stratum_column="grp")
    expected = _outcome(ingest_csv_per_row, path, schema)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_module, "CHUNK_LINES", lines)
        got = _outcome(ingest_csv, path, schema)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
        return
    population, _, report, _ = expected
    assert got.data.strata.tobytes() == population.strata.tobytes()
    assert got.data.stratum_labels == population.stratum_labels
    assert got.report == report
