"""Command-line interface.

Commands: simulate, split, train, predict, evaluate, roc, diagnose-weights.
Exit codes: 0 success, 2 usage errors, 3 data errors, 4 numerical failures.
Every stochastic command takes an explicit seed (simulate reads it from the
experiment file); there is no hidden entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classifiers import (
    ForestConfig,
    LogisticConfig,
    TreeConfig,
    fit_forest,
    fit_logistic,
    fit_tree,
    load_model,
    save_model,
    upsample_minority,
)
from .errors import DataValidationError, NumericalError, SchemaError
from .estimation import weight_diagnostics
from .evaluation import evaluation_summary, resolve_grid
from .io import (
    DataSchema,
    FeatureColumn,
    ingest_csv,
    load_schema,
    read_predictions,
    write_predictions,
    write_rows_csv,
    write_split_files,
)
from .rng import derive_stream
from .roc import roc_sweep
from .sampling import split_train_test
from .simulation import (
    SPEC_VERSION,
    ClassifierFailure,
    experiment_from_json_dict,
    experiment_to_json_dict,
    metric_values,
    render_summary_json,
    run_experiment,
)
from .types import EvaluationSet

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _schema_from_args(args, *, require_weight: bool = False) -> DataSchema:
    if args.schema:
        schema = load_schema(args.schema)
    else:
        if not args.id_col or not args.outcome_col:
            raise SchemaError("give --schema FILE or both --id-col and --outcome-col")
        features = []
        for item in args.feature or []:
            name, _, kind = item.partition(":")
            if not kind:
                kind = "numeric"
            features.append(FeatureColumn(name=name, kind=kind))
        schema = DataSchema(
            id_column=args.id_col,
            outcome_column=args.outcome_col,
            weight_column=args.weight_col,
            stratum_column=args.stratum_col,
            features=tuple(features),
        )
    if require_weight and schema.weight_column is None:
        raise SchemaError("this command requires a weight column in the schema")
    return schema


def _add_schema_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", help="schema JSON file")
    parser.add_argument("--id-col", help="id column name")
    parser.add_argument("--outcome-col", help="outcome column name")
    parser.add_argument("--weight-col", help="weight column name")
    parser.add_argument("--stratum-col", help="stratum column name")
    parser.add_argument(
        "--feature",
        action="append",
        metavar="NAME[:KIND]",
        help="feature column (kind: numeric or categorical); repeatable",
    )


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DataValidationError(f"bad threshold list {text!r}") from exc
    if any(not (0.0 <= t <= 1.0) for t in values):
        raise DataValidationError("thresholds must lie in [0, 1]")
    return values


def _parse_grid(text: str):
    if text == "exact":
        return "exact"
    try:
        return int(text)
    except ValueError as exc:
        raise DataValidationError(f"grid must be an integer or 'exact', got {text!r}") from exc


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    try:
        payload = json.loads(Path(args.experiment).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataValidationError(f"experiment file not found: {args.experiment}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"experiment file is not valid JSON: {exc}") from exc
    experiment = experiment_from_json_dict(payload)
    result = run_experiment(experiment, workers=args.workers)
    summary_json = result.summary.to_json_dict()
    print(render_summary_json(summary_json))
    if args.json:
        _write_json(
            args.json,
            {
                "spec_version": SPEC_VERSION,
                "kind": "simulation-summary",
                "experiment": experiment_to_json_dict(experiment),
                "summary": summary_json,
            },
        )
    if args.replicates_csv:
        rows = []
        for rep in result.reports:
            for outcome in rep.outcomes:
                if isinstance(outcome, ClassifierFailure):
                    rows.append([rep.index, outcome.name, "failure", outcome.error, "", ""])
                    continue
                for weighting in ("population", "weighted", "unweighted"):
                    for key, (value, se) in metric_values(getattr(outcome, weighting)).items():
                        rows.append([rep.index, outcome.name, weighting, key, repr(value),
                                     "" if se is None else repr(se)])
        write_rows_csv(
            args.replicates_csv,
            ["replicate", "classifier", "weighting", "metric", "value", "standard_error"],
            rows,
        )
    return EXIT_OK


def _cmd_split(args) -> int:
    schema = _schema_from_args(args)
    result = ingest_csv(args.input, schema)
    training, evaluation = split_train_test(
        result.sample, args.eval_fraction, derive_stream(args.seed, "split")
    )
    design_weight = {rid: w for rid, w in zip(result.sample.ids, result.sample.weights)}
    write_split_files(
        args.input,
        schema,
        train_ids=training.ids,
        train_weights=[design_weight[r] for r in training.ids],
        eval_ids=evaluation.ids,
        eval_design_weights=[design_weight[r] for r in evaluation.ids],
        eval_compound_weights=list(evaluation.weights),
        train_out=args.train_out,
        eval_out=args.eval_out,
    )
    print(
        f"split {result.sample.size} rows -> {training.size} train ({args.train_out}), "
        f"{evaluation.size} eval ({args.eval_out})"
    )
    if result.report.rows_dropped:
        print(f"dropped {result.report.rows_dropped} rows: {result.report.dropped}")
    return EXIT_OK


def _cmd_train(args) -> int:
    schema = _schema_from_args(args)
    if not schema.features:
        raise SchemaError("training requires feature columns in the schema")
    result = ingest_csv(args.input, schema)
    records = list(result.records)
    kind = args.model
    if kind in ("forest", "balanced-forest") and args.seed is None:
        raise SchemaError(f"--seed is required for stochastic model {kind!r}")
    if kind == "balanced-forest":
        records = upsample_minority(records, derive_stream(args.seed, "upsample"))
    if kind == "logistic":
        model = fit_logistic(
            records,
            LogisticConfig(max_iterations=args.max_iterations, tolerance=args.tolerance),
        )
        print(f"logistic: converged in {model.iterations} iterations")
    elif kind == "tree":
        model = fit_tree(
            records, TreeConfig(max_depth=args.max_depth, min_node_size=args.min_node_size)
        )
        print(f"tree: {model.tree.node_count} nodes")
    else:
        model = fit_forest(
            records,
            ForestConfig(
                trees=args.trees,
                m_try=args.m_try,
                min_node_size=args.min_node_size,
                max_depth=args.max_depth,
            ),
            rng=derive_stream(args.seed, "train"),
        )
        print(f"forest: {len(model.trees)} trees")
    save_model(model, args.out)
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    schema = _schema_from_args(args)
    if not schema.features:
        raise SchemaError("prediction requires feature columns in the schema")
    result = ingest_csv(args.input, schema)
    model = load_model(args.model)
    scores = model.predict_proba(list(result.records))
    write_predictions(args.out, [r.record_id for r in result.records], scores)
    print(f"wrote {len(scores)} predictions to {args.out}")
    return EXIT_OK


def _load_scored_evaluation(args) -> tuple[EvaluationSet, dict]:
    schema = _schema_from_args(args)
    weight_col = args.weight_col or "weight_eval"
    eval_schema = DataSchema(
        id_column=schema.id_column,
        outcome_column=schema.outcome_column,
        weight_column=weight_col,
        stratum_column=None,
        features=(),
    )
    result = ingest_csv(args.input, eval_schema)
    predictions = read_predictions(args.predictions)
    missing = [r.record_id for r in result.records if r.record_id not in predictions]
    if missing:
        raise DataValidationError(
            f"{len(missing)} evaluation record(s) lack predictions, e.g. {missing[:3]}"
        )
    scores = np.array([predictions[r.record_id] for r in result.records])
    evaluation = EvaluationSet(
        ids=result.sample.ids,
        weights=result.sample.weights,
        outcomes=np.array([r.outcome for r in result.records]),
        scores=scores,
    )
    return evaluation, result.report.to_json_dict()


def _format_metric(value: float, se) -> str:
    if se is None:
        return f"{value:.4f}"
    return f"{value:.4f} (SE {se:.4f})"


def render_evaluate_text(report: dict) -> str:
    load = report["load"]
    lines = [f"rows loaded: {load['rows_loaded']} (dropped {sum(load['dropped'].values())})"]
    lines.append(f"{'Metric':<20} {'Unweighted':<26} {'Weighted':<26}".rstrip())
    unweighted = report["unweighted"]
    weighted = report["weighted"]
    for uw_tm, w_tm in zip(unweighted["thresholds"], weighted["thresholds"]):
        t = uw_tm["threshold"]
        lines.append(
            f"{f'Sensitivity@{t:g}':<20} "
            f"{_format_metric(uw_tm['sensitivity'], uw_tm['sensitivity_se']):<26} "
            f"{_format_metric(w_tm['sensitivity'], w_tm['sensitivity_se']):<26}".rstrip()
        )
        lines.append(
            f"{f'Specificity@{t:g}':<20} "
            f"{_format_metric(uw_tm['specificity'], uw_tm['specificity_se']):<26} "
            f"{_format_metric(w_tm['specificity'], w_tm['specificity_se']):<26}".rstrip()
        )
    lines.append(
        f"{'AUROC':<20} {_format_metric(unweighted['auroc'], None):<26} "
        f"{_format_metric(weighted['auroc'], None):<26}".rstrip()
    )
    return "\n".join(lines)


def _cmd_evaluate(args) -> int:
    evaluation, load_report = _load_scored_evaluation(args)
    thresholds = _parse_thresholds(args.thresholds)
    grid = _parse_grid(args.grid)
    weighted = evaluation_summary(evaluation, thresholds, grid, "weighted")
    unweighted = evaluation_summary(evaluation, thresholds, grid, "unweighted")
    report = {
        "spec_version": SPEC_VERSION,
        "kind": "evaluation-report",
        "load": load_report,
        "weighted": weighted.to_json_dict(),
        "unweighted": unweighted.to_json_dict(),
    }
    print(render_evaluate_text(report))
    if args.json:
        _write_json(args.json, report)
    return EXIT_OK


def _cmd_roc(args) -> int:
    evaluation, _ = _load_scored_evaluation(args)
    grid = resolve_grid(_parse_grid(args.grid), evaluation.require_scores())
    curve = roc_sweep(evaluation, grid, args.weighting)
    columns = (curve.thresholds, curve.sensitivity, curve.specificity, curve.fpr)
    rows = [[repr(v) for v in row] for row in zip(*(c.tolist() for c in columns))]
    write_rows_csv(args.out, ["threshold", "sensitivity", "specificity", "fpr"], rows)
    print(f"wrote {len(rows)} ROC points to {args.out}")
    return EXIT_OK


def _cmd_diagnose_weights(args) -> int:
    schema = _schema_from_args(args, require_weight=True)
    result = ingest_csv(args.input, schema)
    diag = weight_diagnostics(result.sample.weights)
    report = {
        "spec_version": SPEC_VERSION,
        "kind": "weight-diagnostics",
        "count": result.sample.size,
        **diag.to_json_dict(),
    }
    print(f"weights: {report['count']}")
    for key in ("cv", "mean", "min", "max"):
        print(f"{key}: {report[key]:.4f}")
    print("deciles: " + " ".join(f"{d:.4f}" for d in report["deciles"]))
    if args.json:
        _write_json(args.json, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svymetrics",
        description="Design-based evaluation of binary classifiers on survey data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a replicated experiment from a JSON spec")
    p.add_argument("experiment", help="experiment spec JSON file (carries the seed)")
    p.add_argument("--json", help="write the summary JSON mirror to this path")
    p.add_argument("--replicates-csv", help="dump per-replicate metrics as CSV")
    p.add_argument("--workers", type=int, default=1, help="thread count (default 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("split", help="SRS train/test split with compound weights")
    p.add_argument("--input", required=True)
    _add_schema_flags(p)
    p.add_argument("--eval-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-out", default="train.csv")
    p.add_argument("--eval-out", default="eval.csv")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit a classifier on a training CSV")
    p.add_argument("--input", required=True)
    _add_schema_flags(p)
    p.add_argument(
        "--model",
        required=True,
        choices=["logistic", "tree", "forest", "balanced-forest"],
    )
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--seed", type=int, help="required for forest variants")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--m-try", type=int, default=None)
    p.add_argument("--min-node-size", type=int, default=1)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a CSV with a saved model")
    p.add_argument("--input", required=True)
    _add_schema_flags(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out", required=True, help="predictions CSV output path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="weighted and unweighted metrics on a test split")
    p.add_argument("--input", required=True, help="evaluation CSV (from split)")
    _add_schema_flags(p)
    p.add_argument("--predictions", required=True, help="CSV with id,score columns")
    p.add_argument("--thresholds", default="0.5", help="comma-separated list")
    p.add_argument("--grid", default="101", help="AUROC grid: point count or 'exact'")
    p.add_argument("--json", help="write the JSON mirror to this path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("roc", help="export an ROC curve as CSV")
    p.add_argument("--input", required=True)
    _add_schema_flags(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--grid", default="101")
    p.add_argument("--weighting", choices=["weighted", "unweighted"], default="weighted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("diagnose-weights", help="weight-distribution diagnostics")
    p.add_argument("--input", required=True)
    _add_schema_flags(p)
    p.add_argument("--json", help="write the JSON mirror to this path")
    p.set_defaults(func=_cmd_diagnose_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
