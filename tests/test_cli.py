import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from svymetrics.cli import main, render_evaluate_text
from svymetrics.classifiers import load_model
from svymetrics.evaluation import evaluation_summary
from svymetrics.io import DataSchema, ingest_csv
from svymetrics.rng import derive_stream
from svymetrics.sampling import split_train_test
from svymetrics.simulation import (
    ClassifierSpec,
    default_experiment_population_spec,
    experiment_to_json_dict,
    ExperimentSpec,
)
from svymetrics.types import EvaluationSet


@pytest.fixture
def survey_csv(tmp_path, rng):
    """A small weighted survey file with two numeric features."""
    path = tmp_path / "survey.csv"
    rows = []
    for i in range(120):
        x1 = rng.normal()
        x2 = rng.normal()
        y = int(rng.random() < 1 / (1 + np.exp(-(1.5 * x1 - 0.5))))
        w = float(rng.uniform(1, 20))
        rows.append([f"r{i}", y, repr(w), "g1" if x2 > 0 else "g2", repr(x1), repr(x2)])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y", "wt", "grp", "x1", "x2"])
        writer.writerows(rows)
    return path


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(
        json.dumps(
            {
                "id": "id",
                "outcome": "y",
                "weight": "wt",
                "stratum": "grp",
                "features": [
                    {"name": "x1", "kind": "numeric"},
                    {"name": "x2", "kind": "numeric"},
                ],
            }
        )
    )
    return path


def _run(args):
    return main([str(a) for a in args])


class TestSplitTrainPredictEvaluate:
    def test_full_pipeline_round_trip(self, tmp_path, survey_csv, schema_file, capsys):
        train_csv = tmp_path / "train.csv"
        eval_csv = tmp_path / "eval.csv"
        model_json = tmp_path / "model.json"
        preds_csv = tmp_path / "preds.csv"
        report_json = tmp_path / "report.json"

        assert _run(
            ["split", "--input", survey_csv, "--schema", schema_file, "--seed", 7,
             "--eval-fraction", 0.25, "--train-out", train_csv, "--eval-out", eval_csv]
        ) == 0
        assert _run(
            ["train", "--input", train_csv, "--schema", schema_file,
             "--model", "logistic", "--out", model_json]
        ) == 0
        assert _run(
            ["predict", "--input", eval_csv, "--schema", schema_file,
             "--model", model_json, "--out", preds_csv]
        ) == 0
        assert _run(
            ["evaluate", "--input", eval_csv, "--schema", schema_file,
             "--predictions", preds_csv, "--json", report_json]
        ) == 0

        # JSON mirror carries exactly the printed numbers
        printed = capsys.readouterr().out
        report = json.loads(report_json.read_text())
        assert render_evaluate_text(report) in printed

        # file-based round trip reproduces the in-process computation exactly
        ingest = ingest_csv(survey_csv, DataSchema.from_json_dict(json.loads(schema_file.read_text())))
        _, evaluation = split_train_test(ingest.sample, 0.25, derive_stream(7, "split"))
        model = load_model(model_json)
        records = {r.record_id: r for r in ingest.records}
        eval_records = [records[rid] for rid in evaluation.ids]
        scores = model.predict_proba(eval_records)
        eset = EvaluationSet(
            ids=evaluation.ids,
            weights=evaluation.weights,
            outcomes=np.array([r.outcome for r in eval_records]),
            scores=scores,
        )
        expected = evaluation_summary(eset, (0.5,), 101, "weighted")
        got = report["weighted"]["thresholds"][0]
        assert got["sensitivity"] == expected.at_thresholds[0].sensitivity.value
        assert got["specificity"] == expected.at_thresholds[0].specificity.value
        assert report["weighted"]["auroc"] == expected.auroc.value

    def test_split_writes_compound_weight_column(self, tmp_path, survey_csv, schema_file):
        eval_csv = tmp_path / "eval.csv"
        _run(["split", "--input", survey_csv, "--schema", schema_file, "--seed", 3,
              "--train-out", tmp_path / "train.csv", "--eval-out", eval_csv])
        with eval_csv.open() as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert "weight_eval" in rows[0]
        # compound weight = design weight * (n / n_e) exactly, full precision
        n, n_e = 120, 24
        for row in rows:
            assert float(row["weight_eval"]) == float(row["wt"]) * (n / n_e)

    def test_forest_requires_seed(self, tmp_path, survey_csv, schema_file, capsys):
        code = _run(
            ["train", "--input", survey_csv, "--schema", schema_file,
             "--model", "forest", "--out", tmp_path / "m.json"]
        )
        assert code == 3
        assert "seed" in capsys.readouterr().err

    def test_balanced_forest_trains(self, tmp_path, survey_csv, schema_file):
        out = tmp_path / "bf.json"
        assert _run(
            ["train", "--input", survey_csv, "--schema", schema_file, "--model",
             "balanced-forest", "--out", out, "--seed", 5, "--trees", 5]
        ) == 0
        model = load_model(out)
        assert len(model.trees) == 5

    def test_model_round_trip_preserves_predictions(self, tmp_path, survey_csv, schema_file):
        model_json = tmp_path / "model.json"
        _run(["train", "--input", survey_csv, "--schema", schema_file,
              "--model", "tree", "--out", model_json])
        ingest = ingest_csv(
            survey_csv, DataSchema.from_json_dict(json.loads(schema_file.read_text()))
        )
        from svymetrics.classifiers import TreeConfig, fit_tree

        direct = fit_tree(list(ingest.records), TreeConfig())
        loaded = load_model(model_json)
        probe = list(ingest.records)[:30]
        assert np.array_equal(direct.predict_proba(probe), loaded.predict_proba(probe))


class TestEvaluateBehaviour:
    def test_constant_weights_make_columns_agree(self, tmp_path, capsys):
        data = tmp_path / "eval.csv"
        with data.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "y", "weight_eval"])
            for i in range(40):
                writer.writerow([f"r{i}", i % 2, "3.0"])
        preds = tmp_path / "p.csv"
        with preds.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "score"])
            rng = np.random.default_rng(0)
            for i in range(40):
                writer.writerow([f"r{i}", repr(float(rng.random()))])
        report_json = tmp_path / "rep.json"
        assert _run(
            ["evaluate", "--input", data, "--id-col", "id", "--outcome-col", "y",
             "--predictions", preds, "--json", report_json]
        ) == 0
        report = json.loads(report_json.read_text())
        for uw, w in zip(
            report["unweighted"]["thresholds"], report["weighted"]["thresholds"]
        ):
            assert uw["sensitivity"] == pytest.approx(w["sensitivity"], abs=1e-12)
            assert uw["specificity"] == pytest.approx(w["specificity"], abs=1e-12)

    def test_missing_predictions_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "eval.csv"
        data.write_text("id,y,weight_eval\na,1,2.0\nb,0,2.0\n")
        preds = tmp_path / "p.csv"
        preds.write_text("id,score\na,0.5\n")
        code = _run(
            ["evaluate", "--input", data, "--id-col", "id", "--outcome-col", "y",
             "--predictions", preds]
        )
        assert code == 3
        assert "lack predictions" in capsys.readouterr().err

    def test_single_class_data_is_numerical_error(self, tmp_path, capsys):
        data = tmp_path / "eval.csv"
        data.write_text("id,y,weight_eval\na,1,2.0\nb,1,2.0\n")
        preds = tmp_path / "p.csv"
        preds.write_text("id,score\na,0.5\nb,0.25\n")
        code = _run(
            ["evaluate", "--input", data, "--id-col", "id", "--outcome-col", "y",
             "--predictions", preds]
        )
        assert code == 4

    def test_usage_error_exit_code_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate"])  # missing required flags
        assert exc.value.code == 2


class TestRocCommand:
    def test_roc_csv_export(self, tmp_path):
        data = tmp_path / "eval.csv"
        data.write_text(
            "id,y,weight_eval\na,1,2.0\nb,0,3.0\nc,1,1.0\nd,0,5.0\n"
        )
        preds = tmp_path / "p.csv"
        preds.write_text("id,score\na,0.9\nb,0.2\nc,0.6\nd,0.4\n")
        out = tmp_path / "roc.csv"
        assert _run(
            ["roc", "--input", data, "--id-col", "id", "--outcome-col", "y",
             "--predictions", preds, "--grid", "exact", "--out", out]
        ) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"threshold", "sensitivity", "specificity", "fpr"}
        for row in rows:
            assert float(row["fpr"]) == pytest.approx(1.0 - float(row["specificity"]))


class TestDiagnoseWeights:
    def test_constant_weights_have_zero_cv(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,y,wt\na,1,5\nb,0,5\nc,1,5\n")
        out = tmp_path / "diag.json"
        assert _run(
            ["diagnose-weights", "--input", data, "--id-col", "id",
             "--outcome-col", "y", "--weight-col", "wt", "--json", out]
        ) == 0
        report = json.loads(out.read_text())
        assert report["cv"] == pytest.approx(0.0, abs=1e-12)
        assert "cv: 0.0000" in capsys.readouterr().out


class TestSimulateCommand:
    def _spec_file(self, tmp_path, seed=17):
        exp = ExperimentSpec(
            seed=seed,
            replicates=3,
            design_allocations={"18-25": 60, "26-34": 40, "35-49": 50, "50-64": 40, "65+": 40},
            classifiers=(ClassifierSpec(kind="logistic"),),
            population=default_experiment_population_spec(size=3000),
        )
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(experiment_to_json_dict(exp)))
        return path

    def test_simulate_writes_byte_identical_json(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert _run(["simulate", spec, "--json", out1]) == 0
        assert _run(["simulate", spec, "--json", out2, "--workers", 8]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_replicates_csv_dump(self, tmp_path):
        spec = self._spec_file(tmp_path)
        out = tmp_path / "reps.csv"
        assert _run(["simulate", spec, "--replicates-csv", out, "--json", tmp_path / "s.json"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["weighting"] for r in rows} == {"population", "weighted", "unweighted"}
        assert {r["metric"] for r in rows} == {"sensitivity@0.5", "specificity@0.5", "auroc"}

    def test_missing_spec_file_is_data_error(self, tmp_path, capsys):
        assert _run(["simulate", tmp_path / "nope.json"]) == 3

    def test_readme_simulate_example_runs(self, tmp_path, capsys):
        """The spec in README's simulation section, with only the replicate
        count lowered for run time, exits 0."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        payload = json.loads(next(b for b in blocks if '"spec_version"' in b))
        payload["replicates"] = 2
        spec = tmp_path / "experiment.json"
        spec.write_text(json.dumps(payload))
        assert _run(["simulate", spec, "--json", tmp_path / "summary.json"]) == 0

    @pytest.mark.parametrize("defect", ["no design", "unknown preset"])
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, defect):
        payload = json.loads(self._spec_file(tmp_path).read_text())
        if defect == "no design":
            del payload["design"]
        else:
            payload["population"] = {"preset": "census", "size": 3000}
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(payload))
        assert _run(["simulate", spec]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
