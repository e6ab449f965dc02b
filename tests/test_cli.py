import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_corrupted
from svymetrics.cli import main, render_evaluate_text
from svymetrics.classifiers import (
    ForestConfig,
    fit_forest,
    fit_logistic,
    fit_tree,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
)
from svymetrics.errors import DataValidationError, SchemaError
from svymetrics.evaluation import evaluation_summary
from svymetrics.io import DataSchema, from_json, ingest_csv
from svymetrics.rng import derive_stream
from svymetrics.sampling import split_train_test
from svymetrics.simulation import (
    BernoulliCovariate,
    CategoricalCovariate,
    ClassifierSpec,
    default_experiment_population_spec,
    experiment_to_json_dict,
    ExperimentSpec,
    fit_classifier,
    OutcomeModel,
    PopulationSpec,
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
        ingest = ingest_csv(survey_csv, from_json(DataSchema, json.loads(schema_file.read_text())))
        _, evaluation = split_train_test(ingest.sample, 0.25, derive_stream(7, "split"))
        model = load_model(model_json)
        rows = [ingest.data.index_by_id[rid] for rid in evaluation.ids]
        eset = EvaluationSet(
            weights=evaluation.weights,
            outcomes=ingest.data.outcomes[rows],
            scores=model.predict_proba([col[rows] for col in ingest.data.features]),
        )
        expected = evaluation_summary(eset, (0.5,), 101, "weighted")
        got = report["weighted"]["thresholds"][0]
        assert got["sensitivity"] == expected.metrics["sensitivity@0.5"][0]
        assert got["specificity"] == expected.metrics["specificity@0.5"][0]
        assert report["weighted"]["auroc"] == expected.metrics["auroc"][0]

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

    @pytest.mark.parametrize("model", ["logistic", "tree", "forest", "balanced-forest"])
    def test_train_writes_the_harness_fit(self, tmp_path, survey_csv, schema_file, model):
        """``train`` writes the model the harness's ``fit_classifier`` fits on
        every loaded row, with the streams of the command's seed."""
        out = tmp_path / "model.json"
        assert _run(["train", "--input", survey_csv, "--schema", schema_file, "--model", model,
                     "--seed", 5, "--trees", 4, "--max-depth", 3, "--out", out]) == 0
        schema = from_json(DataSchema, json.loads(schema_file.read_text()))
        data = ingest_csv(survey_csv, schema).data
        spec = ClassifierSpec(kind=model.replace("-", "_"), trees=4, max_depth=3)
        fitted = fit_classifier(spec, data, np.arange(data.size), lambda s: derive_stream(5, s))
        expected = json.dumps(model_to_json_dict(fitted), indent=2, sort_keys=True) + "\n"
        assert out.read_text() == expected

    def test_model_round_trip_preserves_predictions(self, tmp_path, survey_csv, schema_file):
        model_json = tmp_path / "model.json"
        _run(["train", "--input", survey_csv, "--schema", schema_file,
              "--model", "tree", "--out", model_json])
        ingest = ingest_csv(
            survey_csv, from_json(DataSchema, json.loads(schema_file.read_text()))
        )
        from svymetrics.classifiers import TreeConfig, fit_tree

        direct = fit_tree(ingest.data.features, ingest.data.outcomes, TreeConfig())
        loaded = load_model(model_json)
        probe = [col[:30] for col in ingest.data.features]
        assert np.array_equal(direct.predict_proba(probe), loaded.predict_proba(probe))


class TestSplitWritesRowsAsLoaded:
    def _split(self, tmp_path, text, *flags):
        survey = tmp_path / "survey.csv"
        survey.write_text(text, encoding="utf-8")
        code = _run(["split", "--input", survey, "--id-col", "id", "--outcome-col", "y",
                     *flags, "--seed", 1, "--eval-fraction", 0.4,
                     "--train-out", tmp_path / "train.csv", "--eval-out", tmp_path / "eval.csv"])
        return code, [
            (tmp_path / name).read_text(encoding="utf-8").splitlines()
            for name in ("train.csv", "eval.csv")
        ] if code == 0 else None

    def test_dropped_row_sharing_an_id_is_not_written(self, tmp_path):
        """The first row of id a is dropped (missing outcome); the loaded
        second row is the one written."""
        code, (train, held_out) = self._split(
            tmp_path, "id,y,x\na,,9.0\na,1,1.0\nb,0,2.0\nc,1,3.0\nd,0,4.0\n", "--feature", "x"
        )
        assert code == 0
        assert train == ["id,y,x,weight", "b,0,2.0,1.0", "d,0,4.0,1.0"]
        assert held_out == ["id,y,x,weight,weight_eval", "a,1,1.0,1.0,2.0", "c,1,3.0,1.0,2.0"]

    def test_repeated_schema_column_is_a_one_line_schema_error(self, tmp_path, capsys):
        code, _ = self._split(tmp_path, "id,y,x,x\na,1,1.0,7\nb,0,2.0,8\n", "--feature", "x")
        err = _one_line_data_error(capsys, code)
        assert "repeats schema columns: ['x']" in err

    def test_repeated_column_outside_the_schema_is_written_as_read(self, tmp_path):
        code, (train, held_out) = self._split(
            tmp_path, "id,y,note,note\na,1,p,q\nb,0,r,s\nc,1,t,u\n"
        )
        assert code == 0
        assert train == ["id,y,note,note,weight", "a,1,p,q,1.0", "b,0,r,s,1.0"]
        assert held_out == ["id,y,note,note,weight,weight_eval", "c,1,t,u,1.0,3.0"]


    def test_weight_column_that_is_not_the_schema_weight_is_a_schema_error(
        self, tmp_path, capsys
    ):
        """An unrelated ``weight`` column would be written where the design
        weight goes; split refuses the file and writes nothing."""
        code, _ = self._split(
            tmp_path, "id,y,wt,weight\na,1,2.0,junk\nb,0,3.0,\nc,1,4.0,7\n",
            "--weight-col", "wt",
        )
        err = _one_line_data_error(capsys, code)
        assert "'weight' column that is not the schema's weight column 'wt'" in err
        assert not (tmp_path / "train.csv").exists()
        assert not (tmp_path / "eval.csv").exists()


class TestSplitRefusesCollidingOutputs:
    """``split`` would write over its input, or write both parts into one
    file that keeps only the second; it refuses before writing anything."""

    def test_train_and_eval_outputs_naming_one_file(self, tmp_path, survey_csv, schema_file,
                                                     capsys):
        same = tmp_path / "same.csv"
        code = _run(["split", "--input", survey_csv, "--schema", schema_file, "--seed", 1,
                     "--train-out", same, "--eval-out", tmp_path / "sub" / ".." / "same.csv"])
        err = _one_line_data_error(capsys, code)
        assert err == f"error: --train-out and --eval-out name the same file {same}\n"
        assert not same.exists()

    @pytest.mark.parametrize("flag", ["--train-out", "--eval-out"])
    def test_output_naming_the_input(self, tmp_path, survey_csv, schema_file, capsys, flag):
        link = tmp_path / "link.csv"
        link.symlink_to(survey_csv)
        before = survey_csv.read_bytes()
        outs = {"--train-out": tmp_path / "train.csv", "--eval-out": tmp_path / "eval.csv"}
        outs[flag] = link
        code = _run(["split", "--input", survey_csv, "--schema", schema_file, "--seed", 1,
                     *(arg for pair in outs.items() for arg in pair)])
        err = _one_line_data_error(capsys, code)
        assert err == f"error: {flag} and --input name the same file {link}\n"
        assert survey_csv.read_bytes() == before
        assert not any(out.exists() for out in outs.values() if out != link)


class TestFlagsCheckedBeforeTheInputIsRead:
    """A bad ``split`` or ``train`` flag is named even when the input file
    is missing, so a large input is not read only to be refused."""

    @pytest.mark.parametrize("command, flags, message", [
        ("split", ["--seed", 1, "--eval-fraction", 1.5],
         "eval fraction must be in (0, 1), got 1.5"),
        ("split", ["--seed", 1, "--eval-fraction", 0],
         "eval fraction must be in (0, 1), got 0.0"),
        ("train", ["--model", "forest"], "--seed is required for stochastic model 'forest'"),
        ("train", ["--model", "balanced-forest"],
         "--seed is required for stochastic model 'balanced-forest'"),
        ("train", ["--model", "logistic", "--max-iterations", 0],
         "max_iterations must be >= 1, got 0"),
        ("train", ["--model", "forest", "--seed", 1, "--trees", 0], "trees must be >= 1, got 0"),
        ("train", ["--model", "tree", "--min-node-size", 0], "min_node_size must be >= 1, got 0"),
    ])
    def test_bad_flag_with_a_missing_input(self, tmp_path, capsys, command, flags, message):
        outs = (["--train-out", tmp_path / "train.csv", "--eval-out", tmp_path / "eval.csv"]
                if command == "split" else ["--out", tmp_path / "model.json"])
        code = _run([command, "--input", tmp_path / "nope.csv", "--id-col", "id",
                     "--outcome-col", "y", "--feature", "x1", *flags, *outs])
        assert _one_line_data_error(capsys, code) == f"error: {message}\n"
        assert not any(path.exists() for path in outs[1::2])


class TestPredictUnseenCategory:
    @pytest.mark.parametrize("model", ["logistic", "tree", "forest"])
    def test_unseen_category_warns_in_one_line(self, tmp_path, capsys, model):
        """An eval row whose region was never seen in training scores as
        all-zeros indicators; stderr carries one plain warning line."""
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({
            "id": "id", "outcome": "y", "weight": "wt", "stratum": None,
            "features": [{"name": "region", "kind": "categorical"},
                         {"name": "x", "kind": "numeric"}],
        }))
        train = tmp_path / "train.csv"
        train.write_text(
            "id,y,wt,region,x\n"
            + "".join(f"t{i},{i % 2},1.0,{'ab'[i % 2]},{i / 10}\n" for i in range(6))
        )
        data = tmp_path / "eval.csv"
        data.write_text("id,y,wt,region,x\ne1,1,1.0,zz,0.5\ne2,0,1.0,a,0.1\n")
        model_json = tmp_path / "model.json"
        assert _run(["train", "--input", train, "--schema", schema, "--model", model,
                     "--seed", 1, "--trees", 3, "--out", model_json]) == 0
        capsys.readouterr()
        code = _run(["predict", "--input", data, "--schema", schema, "--model", model_json,
                     "--out", tmp_path / "pred.csv"])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: 1 record(s) carry categories unseen in training; "
            "encoded as all zeros\n"
        )


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

    @pytest.mark.parametrize("command", ["evaluate", "roc"])
    @pytest.mark.parametrize("points", [2**61, 10**23])  # refused before any allocation
    def test_grid_numpy_cannot_allocate_is_one_line_data_error(
        self, tmp_path, capsys, command, points
    ):
        data = tmp_path / "eval.csv"
        data.write_text("id,y,weight_eval\na,1,2.0\nb,0,3.0\n")
        preds = tmp_path / "p.csv"
        preds.write_text("id,score\na,0.9\nb,0.2\n")
        out = tmp_path / "roc.csv"
        code = _run([command, "--input", data, "--id-col", "id", "--outcome-col", "y",
                     "--predictions", preds, "--grid", points]
                    + (["--out", out] if command == "roc" else []))
        assert code == 3
        assert capsys.readouterr().err == f"error: a grid of {points} points cannot be allocated\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "roc"])
    @pytest.mark.parametrize("grid", ["abc", "2.7", "true", "1"])
    def test_bad_grid_is_one_line_data_error_naming_the_flag(
        self, tmp_path, capsys, command, grid
    ):
        data = tmp_path / "eval.csv"
        data.write_text("id,y,weight_eval\na,1,2.0\nb,0,3.0\n")
        preds = tmp_path / "p.csv"
        preds.write_text("id,score\na,0.9\nb,0.2\n")
        out = tmp_path / "out"
        code = _run([command, "--input", data, "--id-col", "id", "--outcome-col", "y",
                     "--predictions", preds, "--grid", grid]
                    + (["--out", out] if command == "roc" else ["--json", out]))
        assert "--grid" in _one_line_data_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("evaluate", "--grid", "abc"), ("evaluate", "--grid", "1"),
        ("evaluate", "--thresholds", "abc"), ("evaluate", "--thresholds", "0.5,2"),
        ("roc", "--grid", "abc"), ("roc", "--grid", "1"),
    ])
    def test_bad_flag_is_reported_before_the_files_are_read(
        self, tmp_path, capsys, command, flag, value
    ):
        """A bad flag is named even when the predictions file is missing."""
        data = tmp_path / "eval.csv"
        data.write_text("id,y,weight_eval\na,1,2.0\nb,0,3.0\n")
        out = tmp_path / "out"
        code = _run([command, "--input", data, "--id-col", "id", "--outcome-col", "y",
                     "--predictions", tmp_path / "nope.csv", flag, value]
                    + (["--out", out] if command == "roc" else ["--json", out]))
        err = _one_line_data_error(capsys, code)
        assert flag in err and "nope.csv" not in err
        assert not out.exists()


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

    def test_stderr_is_the_same_at_every_worker_count(self, tmp_path, capsys):
        """Levels w and z occur only in the small stratum b, so some
        replicates train without one or both; the unseen-category warnings
        (three different counts here) print in replicate order."""
        population = PopulationSpec(
            size=2000,
            strata=("a", "b"),
            proportions=(0.9, 0.1),
            covariates=(
                BernoulliCovariate(name="x", rates={"a": 0.4, "b": 0.6}),
                CategoricalCovariate(
                    name="c",
                    levels=("p", "q", "w", "z"),
                    probs={"a": (0.5, 0.5, 0.0, 0.0), "b": (0.44, 0.44, 0.06, 0.06)},
                ),
            ),
            outcome=OutcomeModel(intercept=-1.0, coefficients={"x": 2.0}),
        )
        exp = ExperimentSpec(
            seed=4,
            replicates=8,
            design_allocations={"a": 100, "b": 8},
            classifiers=(
                ClassifierSpec(kind="logistic"),
                ClassifierSpec(kind="balanced_forest", trees=5),
            ),
            population=population,
        )
        spec = tmp_path / "rare.json"
        spec.write_text(json.dumps(experiment_to_json_dict(exp)))
        streams = []
        for workers in (1, 3):
            assert _run(["simulate", spec, "--workers", workers]) == 0
            streams.append(capsys.readouterr())
        assert streams[0] == streams[1]
        warned = streams[0].err.splitlines()
        assert len(set(warned)) == 3
        assert all(line.endswith("unseen in training; encoded as all zeros") for line in warned)

    def test_replicates_csv_dump(self, tmp_path):
        spec = self._spec_file(tmp_path)
        out = tmp_path / "reps.csv"
        assert _run(["simulate", spec, "--replicates-csv", out, "--json", tmp_path / "s.json"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["weighting"] for r in rows} == {"population", "weighted", "unweighted"}
        assert {r["metric"] for r in rows} == {"sensitivity@0.5", "specificity@0.5", "auroc"}

    def test_thresholds_that_print_alike_keep_their_own_results(self, tmp_path, capsys):
        """0.3 and 0.3000001 both print as 0.3 under ``:g``; each keeps its
        own key, in the summary and in the replicates CSV."""
        spec = self._spec_file(tmp_path)
        payload = json.loads(spec.read_text())
        payload["thresholds"] = [0.3, 0.3000001]
        spec.write_text(json.dumps(payload))
        summary, reps = tmp_path / "s.json", tmp_path / "reps.csv"
        assert _run(["simulate", spec, "--json", summary, "--replicates-csv", reps]) == 0
        keys = {f"{kind}@{t}" for kind in ("sensitivity", "specificity")
                for t in ("0.3", "0.3000001")} | {"auroc"}
        tables = json.loads(summary.read_text())["summary"]["classifiers"]["logistic"]
        assert all(set(table) == keys for table in tables.values())
        with reps.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} == keys
        assert len(rows) == 3 * 3 * len(keys)  # replicates x weightings x metrics
        for weighting, table in tables.items():
            for key, agg in table.items():
                values = [float(r["value"]) for r in rows
                          if r["weighting"] == weighting and r["metric"] == key]
                assert agg["mean"] == pytest.approx(np.mean(values), rel=1e-12)

    def test_evaluate_text_labels_thresholds_that_print_alike_apart(self):
        block = {"thresholds": [{"threshold": t, "sensitivity": 0.5, "sensitivity_se": None,
                                 "specificity": 0.5, "specificity_se": None}
                                for t in (0.3, 0.3000001)], "auroc": 0.5}
        report = {"load": {"rows_loaded": 1, "dropped": {}}, "weighted": block,
                  "unweighted": block}
        labels = [line.split()[0] for line in render_evaluate_text(report).splitlines()[2:6]]
        assert labels == ["Sensitivity@0.3", "Specificity@0.3",
                          "Sensitivity@0.3000001", "Specificity@0.3000001"]

    @pytest.mark.parametrize("points", [2**61, 10**23])  # refused before any allocation
    def test_auroc_grid_numpy_cannot_allocate_is_one_line_data_error(
        self, tmp_path, capsys, points
    ):
        spec = json.loads(self._spec_file(tmp_path).read_text())
        spec["auroc_grid"] = points
        path = tmp_path / "huge_grid.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "summary.json"
        assert _run(["simulate", path, "--json", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: a grid of {points} points cannot be allocated\n"
        assert captured.out == ""
        assert not out.exists()

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

    def test_readme_inline_population_runs(self, tmp_path, capsys):
        """README's inline population, in its simulation spec with two
        replicates and allocations for its strata, exits 0, and its
        shared integer range is echoed as floats."""
        blocks = _readme_blocks("json")
        payload = json.loads(next(b for b in blocks if '"spec_version"' in b))
        payload["population"] = json.loads(next(b for b in blocks if '"covariates"' in b))
        payload.update(replicates=2, design={"allocations": {"a": 120, "b": 80}})
        spec = tmp_path / "inline.json"
        spec.write_text(json.dumps(payload))
        assert _run(["simulate", spec, "--json", tmp_path / "summary.json"]) == 0
        echoed = json.loads((tmp_path / "summary.json").read_text())["experiment"]
        assert echoed["population"]["covariates"][0]["ranges"] == {"a": [18.0, 80.0],
                                                                  "b": [18.0, 80.0]}

    @pytest.mark.parametrize(
        "defect",
        [
            "no design",
            "unknown preset",
            "negative seed",
            "m_try below one",
            "population_file not a string",
            "infinite replicates",
            "max_depth below zero",
            "min_node_size below one",
            "NaN proportion",
            "negative probability",
            "NaN probability",
            "infinite range",
            "NaN range",
            "reversed range",
            "overflowing range",
            "infinite coefficient",
            "NaN intercept",
            # classifier settings that used to pass the read and fail every replicate
            "zero trees",
            "zero max_iterations",
            "negative tolerance",
            "NaN tolerance",
            "out-of-range constant_score",
            "NaN constant_score",
            "duplicate strata",
        ],
    )
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, defect):
        payload = json.loads(self._spec_file(tmp_path).read_text())
        if defect == "no design":
            del payload["design"]
        elif defect == "unknown preset":
            payload["population"] = {"preset": "census", "size": 3000}
        elif defect == "negative seed":
            payload["seed"] = -1
        elif defect == "m_try below one":
            payload["classifiers"][0].update(kind="forest", m_try=0)
        elif defect == "population_file not a string":
            del payload["population"]
            payload.update(population_file=5, population_schema={"id": "id", "outcome": "y"})
        elif defect == "infinite replicates":
            payload["replicates"] = math.inf  # written as the JSON literal Infinity
        elif defect == "max_depth below zero":
            payload["classifiers"][0].update(kind="tree", max_depth=-1)
        elif defect == "min_node_size below one":  # checked for every kind, as m_try is
            payload["classifiers"][0].update(min_node_size=0)
        elif defect == "NaN proportion":
            payload["population"]["proportions"][0] = math.nan  # the JSON literal NaN
        elif defect.endswith("probability"):
            probs = [-0.5, 1.5, 0.0] if defect.startswith("negative") else [math.nan, 1.0, 0.0]
            payload["population"]["covariates"].append(
                {"kind": "categorical", "name": "region", "levels": ["n", "s", "e"],
                 "probs": probs}
            )
        elif defect.endswith("range"):
            bounds = {"infinite": [-math.inf, 1], "NaN": [0, math.nan], "reversed": [80, 18],
                      "overflowing": [-1e308, 1e308]}  # finite bounds, infinite width
            payload["population"]["covariates"].append(
                {"kind": "uniform", "name": "age", "range": bounds[defect.split()[0]]}
            )
        elif defect == "infinite coefficient":
            payload["population"]["outcome"]["coefficients"]["risk_major"] = math.inf
        elif defect == "zero trees":
            payload["classifiers"][0].update(kind="forest", trees=0)
        elif defect == "zero max_iterations":
            payload["classifiers"][0].update(max_iterations=0)
        elif defect.endswith("tolerance"):
            tolerance = -1 if defect.startswith("negative") else math.nan
            payload["classifiers"][0].update(tolerance=tolerance)
        elif defect.endswith("constant_score"):
            score = math.nan if defect.startswith("NaN") else 1.5
            payload["classifiers"][0].update(kind="constant", constant_score=score)
        elif defect == "duplicate strata":
            strata = payload["population"]["strata"]
            strata[1] = strata[0]
        else:
            payload["population"]["outcome"]["intercept"] = math.nan
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(payload))
        assert _run(["simulate", spec]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        named = {"probability": "'region'", "range": "'age'", "coefficient": "'risk_major'",
                 "intercept": "intercept", "trees": "trees", "max_iterations": "max_iterations",
                 "tolerance": "tolerance", "constant_score": "constant_score",
                 "strata": "strata"}.get(defect.split()[-1])
        assert named is None or named in err


    def _census_spec(self, tmp_path, population_schema, population_file="census.csv"):
        census = tmp_path / "census.csv"
        census.write_text("id,y,grp,x1\n" + "".join(
            f"c{i},{i % 2},g{i % 2},{i % 7}\n" for i in range(200)))
        payload = json.loads(self._spec_file(tmp_path).read_text())
        del payload["population"]
        payload.update(design={"allocations": {"g0": 30, "g1": 30}},
                       population_file=str(tmp_path / population_file),
                       population_schema=population_schema)
        spec = tmp_path / "census_spec.json"
        spec.write_text(json.dumps(payload))
        return spec

    @pytest.mark.parametrize(
        "population_schema, message",
        [
            ({"outcome": "y", "stratum": "grp"}, "missing key 'id'"),
            ({"id": "id", "outcome": "y", "wieght": "grp"}, "unknown key 'wieght'"),
            ({"id": "id", "outcome": "y", "features": [{"name": "x1"}]},
             "features: missing key 'kind'"),
        ],
    )
    def test_malformed_population_schema_is_named(
        self, tmp_path, capsys, population_schema, message
    ):
        code = _run(["simulate", self._census_spec(tmp_path, population_schema)])
        assert _one_line_data_error(capsys, code) == f"error: population_schema: {message}\n"

    @pytest.mark.parametrize("population_file", ["census.csv", "absent.csv"])
    def test_weighted_population_schema_is_refused_before_the_file_is_read(
        self, tmp_path, capsys, population_file
    ):
        """A population file is a census; the schema says so before any
        row is read, so a missing file gives the same error."""
        population_schema = {"id": "id", "outcome": "y", "weight": "x1", "stratum": "grp"}
        spec = self._census_spec(tmp_path, population_schema, population_file)
        assert _one_line_data_error(capsys, _run(["simulate", spec])) == (
            "error: population_file must be declared a population "
            "(schema without weight column)\n"
        )

    # Where each integer field sits in a spec with a 3-tree forest and a
    # preset population.
    _INTEGER_FIELDS = {
        "seed": ("seed",),
        "replicates": ("replicates",),
        "allocations": ("design", "allocations", "18-25"),
        "trees": ("classifiers", 0, "trees"),
        "m_try": ("classifiers", 0, "m_try"),
        "auroc_grid": ("auroc_grid",),
        "size": ("population", "size"),
    }

    def _integer_field_spec(self, tmp_path, numbers):
        """A spec file with each integer field ``key`` of ``numbers`` set."""
        payload = json.loads(self._spec_file(tmp_path).read_text())
        payload["classifiers"] = [{"kind": "forest", "trees": 3, "m_try": 2}]
        payload["population"] = {"preset": "experiment", "size": 3000}
        for key, value in numbers.items():
            *parents, last = self._INTEGER_FIELDS[key]
            parent = payload
            for step in parents:
                parent = parent[step]
            parent[last] = value
        spec = tmp_path / "numbers.json"
        spec.write_text(json.dumps(payload))
        return spec

    @pytest.mark.parametrize("key, value", [
        ("seed", 7.9), ("replicates", 2.5), ("allocations", 40.7), ("trees", 3.9),
        ("m_try", 2.5), ("auroc_grid", 11.5), ("size", 3000.9), ("size", True),
    ])
    def test_fractional_integer_field_is_one_line_data_error(self, tmp_path, capsys, key, value):
        """``int()`` would truncate the number, and read ``true`` as 1."""
        spec = self._integer_field_spec(tmp_path, {key: value})
        out = tmp_path / "summary.json"
        err = _one_line_data_error(capsys, _run(["simulate", spec, "--json", out]))
        assert f"{key}: expected" in err and ("bool" if value is True else repr(value)) in err
        assert not out.exists()

    def test_integral_numbers_read_as_integers(self, tmp_path, capsys):
        """Integer fields given as integral floats, such as 2.0, run the
        spec of the integers byte for byte, and are echoed as integers."""
        numbers = {"seed": 7, "replicates": 2, "allocations": 40, "trees": 3, "m_try": 2,
                   "auroc_grid": 11, "size": 3000}
        outputs = []
        for number in (float, int):
            spec = self._integer_field_spec(tmp_path, {k: number(v) for k, v in numbers.items()})
            out = tmp_path / f"{number.__name__}.json"
            assert _run(["simulate", spec, "--json", out]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        echoed = json.loads(outputs[0][0])["experiment"]
        assert type(echoed["classifiers"][0]["m_try"]) is int

    @pytest.mark.parametrize("replicates", [1, 0])
    def test_fewer_than_two_replicates_are_refused_at_spec_read(
        self, tmp_path, capsys, replicates
    ):
        """The aggregate needs two replicates, so a spec with fewer is
        refused before any replicate runs."""
        payload = json.loads(self._spec_file(tmp_path).read_text())
        payload["replicates"] = replicates
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps(payload))
        out, reps = tmp_path / "summary.json", tmp_path / "reps.csv"
        code = _run(["simulate", spec, "--json", out, "--replicates-csv", reps])
        assert _one_line_data_error(capsys, code) == (
            f"error: replicates must be >= 2, got {replicates}\n"
        )
        assert not out.exists() and not reps.exists()

    @pytest.mark.parametrize("given, ran", [(2.0, 2), ("101", 101)])
    def test_auroc_grid_reads_like_an_integer_field(self, tmp_path, capsys, given, ran):
        """``auroc_grid`` goes through ``int()`` once, at spec read: the run,
        its echo in ``--json`` and its metadata label are those of the
        integer grid, byte for byte."""
        outputs = []
        for i, grid in enumerate((given, ran)):
            payload = json.loads(self._spec_file(tmp_path).read_text())
            payload["auroc_grid"] = grid
            spec = tmp_path / f"grid{i}.json"
            spec.write_text(json.dumps(payload))
            out = tmp_path / f"summary{i}.json"
            assert _run(["simulate", spec, "--json", out]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        summary = json.loads(outputs[0][0])
        assert summary["experiment"]["auroc_grid"] == ran
        assert summary["summary"]["metadata"]["auroc_grid"] == f"uniform-{ran}"

    @pytest.mark.parametrize("grid", ["abc", "2.7", math.inf, True, 1])
    def test_bad_auroc_grid_is_one_line_data_error_naming_it(self, tmp_path, capsys, grid):
        payload = json.loads(self._spec_file(tmp_path).read_text())
        payload["auroc_grid"] = grid
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "summary.json"
        err = _one_line_data_error(capsys, _run(["simulate", spec, "--json", out]))
        assert "auroc_grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("include_sample_in_truth", "false"), ("seed", True), ("replicates", True),
        ("seed", "7"), ("seed", "1_0"), ("seed", " 7 "), ("replicates", "2"),
        ("eval_fraction", "0.5"),
    ])
    def test_boolean_and_number_fields_do_not_convert(self, tmp_path, capsys, key, value):
        """``"false"`` would read as true, ``true`` as 1, and the strings
        ``"7"``, ``"1_0"`` and ``" 7 "`` as 7, 10 and 7."""
        payload = json.loads(self._spec_file(tmp_path).read_text())
        payload[key] = value
        spec = tmp_path / "types.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "summary.json"
        err = _one_line_data_error(capsys, _run(["simulate", spec, "--json", out]))
        kind = "true or false" if key == "include_sample_in_truth" else "a number"
        assert err == (f"error: malformed experiment spec: {key}: expected {kind}, "
                       f"got {type(value).__name__}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "allocations, message",
        [({}, "design must allocate at least one stratum"),
         ({"a": 0}, "allocation for stratum 'a' must be positive")],
    )
    def test_bad_allocations_are_refused_at_spec_read(
        self, tmp_path, capsys, allocations, message
    ):
        """The design is checked as the spec is read, before the population
        file is opened, so a missing file does not hide the error."""
        spec = self._census_spec(tmp_path, {"id": "id", "outcome": "y", "stratum": "grp"},
                                 "absent.csv")
        payload = json.loads(spec.read_text())
        payload["design"] = {"allocations": allocations}
        spec.write_text(json.dumps(payload))
        assert _one_line_data_error(capsys, _run(["simulate", spec])) == f"error: {message}\n"


def _one_line_data_error(capsys, code):
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    return err


_PROBE = [np.array([0.3, -1.2]), np.array(["a", "c"], dtype=object)]


def _model_documents():
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    region = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, size=60)]
    y = (x + rng.normal(size=60) > 0).astype(int)
    columns = [x, region]
    ids = [f"r{i}" for i in range(60)]
    return [
        model_to_json_dict(fit_logistic(columns, y)),
        model_to_json_dict(fit_tree(columns, y)),
        model_to_json_dict(fit_forest(columns, y, ids, ForestConfig(trees=3), rng=1)),
    ]


_MODEL_DOCUMENTS = _model_documents()


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "payload",
        [[], {"id": "id", "outcome": "y", "features": [1]},
         {"id": "id", "outcome": "y", "features": "x"},
         {"outcome": "y"},
         {"id": None, "outcome": "y"},
         {"id": "id", "outcome": "y", "features": None},
         {"id": "id", "outcome": "y", "features": [{"name": "x1", "kind": "ordinal"}]},
         {"id": "id", "outcome": "y", "weight": "y"},
         {"id": "id", "outcome": "y", "wieght": "wt"}],
    )
    def test_malformed_schema_file_is_data_error(self, tmp_path, survey_csv, capsys, payload):
        """The one line names the schema file, and no split file is written;
        a misspelled ``weight`` would otherwise split as unweighted."""
        schema = tmp_path / "bad_schema.json"
        schema.write_text(json.dumps(payload))
        code = _run(["split", "--input", survey_csv, "--schema", schema, "--seed", 1,
                     "--train-out", tmp_path / "t.csv", "--eval-out", tmp_path / "e.csv"])
        err = _one_line_data_error(capsys, code)
        assert err.startswith(f"error: schema file {schema}: ")
        assert "wieght" not in payload or err.endswith("unknown key 'wieght'\n")
        assert not (tmp_path / "t.csv").exists() and not (tmp_path / "e.csv").exists()

    def test_diagnose_weights_names_the_schema_file(self, tmp_path, survey_csv, capsys):
        schema = tmp_path / "no_id.json"
        schema.write_text(json.dumps({"outcome": "y", "weight": "wt"}))
        code = _run(["diagnose-weights", "--input", survey_csv, "--schema", schema])
        err = _one_line_data_error(capsys, code)
        assert err == f"error: schema file {schema}: missing key 'id'\n"

    @pytest.mark.parametrize("kind", ["experiment", "schema", "model"])
    def test_invalid_json_file_is_data_error_naming_the_file(
        self, tmp_path, survey_csv, schema_file, capsys, kind
    ):
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text("{not json", encoding="utf-8")
        argv = {
            "experiment": ["simulate", bad],
            "schema": ["diagnose-weights", "--input", survey_csv, "--schema", bad],
            "model": ["predict", "--input", survey_csv, "--schema", schema_file,
                      "--model", bad, "--out", tmp_path / "p.csv"],
        }[kind]
        err = _one_line_data_error(capsys, _run(argv))
        assert f"{kind} file {bad} is not valid JSON" in err

    @pytest.mark.parametrize("command", ["split", "train logistic", "train forest"])
    def test_negative_seed_is_one_line_usage_error(
        self, tmp_path, survey_csv, schema_file, capsys, command
    ):
        name, _, model = command.partition(" ")
        argv = [name, "--input", survey_csv, "--schema", schema_file, "--seed", -1]
        if model:
            argv += ["--model", model, "--out", tmp_path / "model.json"]
        with pytest.raises(SystemExit) as exc:
            _run(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--seed" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("m_try", [0, -3])
    def test_m_try_below_one_is_data_error(self, tmp_path, survey_csv, schema_file, capsys, m_try):
        model_json = tmp_path / "model.json"
        code = _run(["train", "--input", survey_csv, "--schema", schema_file, "--model", "forest",
                     "--seed", 1, "--m-try", m_try, "--out", model_json])
        assert "m_try" in _one_line_data_error(capsys, code)
        assert not model_json.exists()

    @pytest.mark.parametrize(
        "model, flag, value",
        [
            ("tree", "--max-depth", -1),
            ("tree", "--min-node-size", -2),
            ("tree", "--min-node-size", 0),
            ("forest", "--max-depth", -1),
            ("forest", "--min-node-size", 0),
            # checked for every kind, as in simulate, though logistic uses none
            ("logistic", "--max-depth", -1),
            ("logistic", "--m-try", 0),
            ("logistic", "--min-node-size", 0),
            ("forest", "--trees", 0),
            ("logistic", "--max-iterations", 0),
            ("logistic", "--tolerance", -1),
            ("logistic", "--tolerance", "nan"),
        ],
    )
    def test_tree_limits_out_of_range_are_data_errors(
        self, tmp_path, survey_csv, schema_file, capsys, model, flag, value
    ):
        model_json = tmp_path / "model.json"
        code = _run(["train", "--input", survey_csv, "--schema", schema_file, "--model", model,
                     "--seed", 1, flag, value, "--out", model_json])
        assert flag[2:].replace("-", "_") in _one_line_data_error(capsys, code)
        assert not model_json.exists()

    @pytest.mark.parametrize("model", ["tree", "forest"])
    @pytest.mark.parametrize("key, value", [("max_depth", -1), ("min_node_size", 0)])
    def test_model_config_out_of_range_is_data_error(
        self, tmp_path, survey_csv, schema_file, capsys, model, key, value
    ):
        model_json = tmp_path / "model.json"
        assert _run(["train", "--input", survey_csv, "--schema", schema_file,
                     "--model", model, "--seed", 1, "--trees", 3, "--out", model_json]) == 0
        payload = json.loads(model_json.read_text())
        payload["config"][key] = value
        with pytest.raises(DataValidationError, match=key):
            model_from_json_dict(payload)
        model_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = _run(["predict", "--input", survey_csv, "--schema", schema_file,
                     "--model", model_json, "--out", tmp_path / "p.csv"])
        assert key in _one_line_data_error(capsys, code)

    @pytest.mark.parametrize("defect", ["no encoder", "list", "bad coefficients"])
    def test_malformed_model_file_is_data_error(
        self, tmp_path, survey_csv, schema_file, capsys, defect
    ):
        model_json = tmp_path / "model.json"
        assert _run(["train", "--input", survey_csv, "--schema", schema_file,
                     "--model", "logistic", "--out", model_json]) == 0
        payload = json.loads(model_json.read_text())
        if defect == "no encoder":
            del payload["encoder"]
        elif defect == "list":
            payload = [payload]
        else:
            payload["coefficients"] = "ab"
        model_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = _run(["predict", "--input", survey_csv, "--schema", schema_file,
                     "--model", model_json, "--out", tmp_path / "p.csv"])
        _one_line_data_error(capsys, code)

    def test_non_utf8_input_is_data_error_naming_the_file(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"id,y,wt\n\xff\xfe,1,2\n")
        code = _run(["diagnose-weights", "--input", data, "--id-col", "id",
                     "--outcome-col", "y", "--weight-col", "wt"])
        assert "latin1.csv" in _one_line_data_error(capsys, code)

    def test_field_over_the_csv_size_limit_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("id,y,wt\na,1," + "9" * 200_000 + "\n", encoding="utf-8")
        code = _run(["diagnose-weights", "--input", data, "--id-col", "id",
                     "--outcome-col", "y", "--weight-col", "wt"])
        assert "field larger than field limit" in _one_line_data_error(capsys, code)

    @pytest.mark.parametrize("defect", ["child", "feature", "route steps"])
    def test_tree_that_would_index_outside_its_arrays_is_schema_error(self, defect):
        payload = json.loads(json.dumps(_MODEL_DOCUMENTS[1]))
        if defect == "child":
            payload["tree"]["left"][0] = len(payload["tree"]["left"])
        elif defect == "feature":
            payload["tree"]["feature"][0] = 99
        else:  # a leaf routed once over zero encoded columns
            payload["encoder"]["features"] = []
            payload["tree"] = {"feature": [0], "threshold": ["inf"], "left": [0],
                               "right": [0], "value": [0.5], "route_steps": 1}
        with pytest.raises(SchemaError, match="tree"):
            model_from_json_dict(payload)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_models_raise_only_data_errors(self, data):
        """A corrupted model document either fails to parse with a data
        error or parses into a model that scores columns (or rejects them
        with a data error)."""
        payload = json.loads(json.dumps(data.draw(st.sampled_from(_MODEL_DOCUMENTS))))
        parse_corrupted(
            data, payload, lambda p: model_from_json_dict(p).predict_proba(_PROBE)
        )


def _readme_blocks(language):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", readme, flags=re.S)


class TestReadmeExamples:
    def test_schema_and_shell_walkthrough_run(self, tmp_path, monkeypatch, capsys):
        """README's schema file and every command of its shell walkthrough,
        run in order on a generated survey.csv with the schema's columns."""
        schema_text = next(b for b in _readme_blocks("json") if '"features"' in b)
        schema = json.loads(schema_text)
        rng = np.random.default_rng(12)
        header = [schema["id"], schema["outcome"], schema["weight"], schema["stratum"]]
        header += [f["name"] for f in schema["features"]]
        rows = []
        for i in range(400):
            values = []
            signal = 0.0
            for feature in schema["features"]:
                if feature["kind"] == "numeric":
                    value = float(rng.normal())
                    signal += value
                    values.append(repr(value))
                else:
                    value = ["north", "south", "east"][int(rng.integers(3))]
                    signal += 0.8 if value == "north" else 0.0
                    values.append(value)
            y = int(rng.random() < 1 / (1 + np.exp(-signal)))
            rows.append([f"p{i}", y, repr(float(rng.uniform(1, 40))),
                         "young" if i % 3 else "old", *values])
        with (tmp_path / "survey.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        (tmp_path / "schema.json").write_text(schema_text)
        monkeypatch.chdir(tmp_path)

        shell = next(b for b in _readme_blocks("bash") if "svymetrics split" in b)
        commands = [
            shlex.split(line)
            for line in shell.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert [c[1] for c in commands] == [
            "split", "train", "predict", "evaluate", "roc", "diagnose-weights"
        ]
        for command in commands:
            assert command[0] == "svymetrics"
            assert main(command[1:]) == 0, (command, capsys.readouterr().err)
        assert (tmp_path / "roc.csv").exists() and (tmp_path / "report.json").exists()

    def test_python_quickstart_runs(self):
        """README's library quickstart, with only the replicate count lowered."""
        code = next(b for b in _readme_blocks("python") if "run_experiment" in b)
        assert "replicates=200" in code
        exec(compile(code.replace("replicates=200", "replicates=2"), "README.md", "exec"), {})
