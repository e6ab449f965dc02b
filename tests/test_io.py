import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_corrupted
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
        assert result.data.strata.tolist() == ["g1", "g1", "g2", "g2", "g2"]
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

    def test_numeric_ids_stored_as_strings(self, tmp_path):
        path = _write(
            tmp_path, "id,y,wt,grp,age,region\n101,1,2,g,30,n\n102,0,2,g,40,n\n"
        )
        result = ingest_csv(path, SCHEMA)
        assert result.sample.ids == ("101", "102")


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
