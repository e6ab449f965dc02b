"""Command-line interface.

Commands: simulate, split, train, predict, evaluate, roc, diagnose-weights.
Exit codes: 0 success, 2 usage errors, 3 data errors, 4 numerical failures.
Every stochastic command takes an explicit seed (simulate reads it from the
experiment file); there is no hidden entropy.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classifiers import load_model, save_model
from .errors import DataValidationError, NumericalError, SchemaError
from .estimation import weight_diagnostics
from .evaluation import evaluation_summary, parse_grid, resolve_grid, threshold_label
from .io import (
    DataSchema,
    FeatureColumn,
    ingest_csv,
    load_schema,
    read_predictions,
    read_json,
    to_json,
    write_json,
    write_predictions,
    write_roc,
    write_rows_csv,
    write_split_files,
)
from .rng import derive_stream
from .roc import roc_sweep
from .sampling import check_eval_fraction, split_train_test
from .simulation import (
    SPEC_VERSION,
    ClassifierSpec,
    experiment_from_json_dict,
    experiment_to_json_dict,
    fit_classifier,
    render_summary_json,
    replicate_rows,
    run_experiment,
)
from .types import EvaluationSet

# No caller here; re-exported because perfbench's tracer swaps these names.
from .classifiers import fit_forest, fit_logistic, upsample_minority  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# The ClassifierSpec fields that ``train`` takes as flags, with their defaults.
_TUNING_FIELDS = ("trees", "m_try", "min_node_size", "max_depth", "max_iterations", "tolerance")


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


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DataValidationError(f"--thresholds: bad threshold list {text!r}") from exc
    if any(not (0.0 <= t <= 1.0) for t in values):
        raise DataValidationError("--thresholds must lie in [0, 1]")
    return values


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    experiment = experiment_from_json_dict(read_json(args.experiment, "experiment file"))
    result = run_experiment(experiment)
    summary_json = result.summary.to_json_dict()
    print(render_summary_json(summary_json))
    if args.json:
        write_json(
            args.json,
            {
                "spec_version": SPEC_VERSION,
                "kind": "simulation-summary",
                "experiment": experiment_to_json_dict(experiment),
                "summary": summary_json,
            },
        )
    if args.replicates_csv:
        write_rows_csv(
            args.replicates_csv,
            ["replicate", "classifier", "weighting", "metric", "value", "standard_error"],
            replicate_rows(result.reports),
        )
    return EXIT_OK


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one file: ``os.path.samefile`` when
    both exist, their resolved paths otherwise."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return Path(a).resolve() == Path(b).resolve()


def _cmd_split(args) -> int:
    schema = _schema_from_args(args)
    for flags, a, b in (("--train-out and --input", args.train_out, args.input),
                        ("--eval-out and --input", args.eval_out, args.input),
                        ("--train-out and --eval-out", args.train_out, args.eval_out)):
        if _same_file(a, b):
            raise DataValidationError(f"{flags} name the same file {a}")
    check_eval_fraction(args.eval_fraction)
    result = ingest_csv(args.input, schema)
    training, evaluation = split_train_test(
        result.sample, args.eval_fraction, derive_stream(args.seed, "split")
    )
    weights = result.sample.weights
    write_split_files(
        args.input,
        result.table,
        train_rows=result.file_rows[training.rows],
        train_weights=weights[training.rows],
        eval_rows=result.file_rows[evaluation.rows],
        eval_design_weights=weights[evaluation.rows],
        eval_compound_weights=evaluation.weights,
        train_out=args.train_out,
        eval_out=args.eval_out,
        weight_column=schema.weight_column,
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
    kind = args.model
    if kind in ("forest", "balanced-forest") and args.seed is None:
        raise SchemaError(f"--seed is required for stochastic model {kind!r}")
    spec = ClassifierSpec(
        kind=kind.replace("-", "_"), **{name: getattr(args, name) for name in _TUNING_FIELDS}
    )
    data = ingest_csv(args.input, schema).data
    model = fit_classifier(
        spec, data, np.arange(data.size), lambda stage: derive_stream(args.seed, stage)
    )
    if kind == "logistic":
        print(f"logistic: converged in {model.iterations} iterations")
    elif kind == "tree":
        print(f"tree: {model.tree.node_count} nodes")
    else:
        print(f"forest: {len(model.trees)} trees")
    save_model(model, args.out)
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    schema = _schema_from_args(args)
    if not schema.features:
        raise SchemaError("prediction requires feature columns in the schema")
    data = ingest_csv(args.input, schema).data
    model = load_model(args.model)
    scores = model.predict_proba(data.features)
    write_predictions(args.out, data.ids.tolist(), scores)
    print(f"wrote {len(scores)} predictions to {args.out}")
    return EXIT_OK


def _load_scored_evaluation(args) -> tuple[EvaluationSet, dict]:
    schema = _schema_from_args(args)
    weight_col = args.weight_col or "weight_eval"
    eval_schema = replace(schema, weight_column=weight_col, stratum_column=None, features=())
    result = ingest_csv(args.input, eval_schema)
    ids = result.data.ids.tolist()
    predictions = read_predictions(args.predictions)
    missing = [rid for rid in ids if rid not in predictions]
    if missing:
        raise DataValidationError(
            f"{len(missing)} evaluation record(s) lack predictions, e.g. {missing[:3]}"
        )
    evaluation = EvaluationSet(
        weights=result.sample.weights,
        outcomes=result.data.outcomes,
        scores=np.array([predictions[rid] for rid in ids]),
    )
    return evaluation, to_json(result.report)


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
        t = threshold_label(uw_tm["threshold"])
        lines.append(
            f"{f'Sensitivity@{t}':<20} "
            f"{_format_metric(uw_tm['sensitivity'], uw_tm['sensitivity_se']):<26} "
            f"{_format_metric(w_tm['sensitivity'], w_tm['sensitivity_se']):<26}".rstrip()
        )
        lines.append(
            f"{f'Specificity@{t}':<20} "
            f"{_format_metric(uw_tm['specificity'], uw_tm['specificity_se']):<26} "
            f"{_format_metric(w_tm['specificity'], w_tm['specificity_se']):<26}".rstrip()
        )
    lines.append(
        f"{'AUROC':<20} {_format_metric(unweighted['auroc'], None):<26} "
        f"{_format_metric(weighted['auroc'], None):<26}".rstrip()
    )
    return "\n".join(lines)


def _cmd_evaluate(args) -> int:
    thresholds = _parse_thresholds(args.thresholds)
    grid = parse_grid(args.grid, "--grid")
    evaluation, load_report = _load_scored_evaluation(args)
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
        write_json(args.json, report)
    return EXIT_OK


def _cmd_roc(args) -> int:
    grid = parse_grid(args.grid, "--grid")
    evaluation, _ = _load_scored_evaluation(args)
    grid = resolve_grid(grid, evaluation.scores)
    curve = roc_sweep(evaluation, grid, args.weighting)
    write_roc(args.out, curve)
    print(f"wrote {len(curve.thresholds)} ROC points to {args.out}")
    return EXIT_OK


def _cmd_diagnose_weights(args) -> int:
    schema = _schema_from_args(args, require_weight=True)
    result = ingest_csv(args.input, schema)
    diag = weight_diagnostics(result.sample.weights)
    report = {
        "spec_version": SPEC_VERSION,
        "kind": "weight-diagnostics",
        "count": result.sample.size,
        **to_json(diag),
    }
    print(f"weights: {report['count']}")
    for key in ("cv", "mean", "min", "max"):
        print(f"{key}: {report[key]:.4f}")
    print("deciles: " + " ".join(f"{d:.4f}" for d in report["deciles"]))
    if args.json:
        write_json(args.json, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line of stderr and exits 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svymetrics",
        description="Design-based evaluation of binary classifiers on survey data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a replicated experiment from a JSON spec")
    p.add_argument("experiment", help="experiment spec JSON file (carries the seed)")
    p.add_argument("--json", help="write the summary JSON mirror to this path")
    p.add_argument("--replicates-csv", help="dump per-replicate metrics as CSV")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted, no effect: replicates run in order on one thread",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("split", help="SRS train/test split with compound weights")
    p.add_argument("--input", required=True)
    _add_schema_flags(p)
    p.add_argument("--eval-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=_seed, required=True)
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
    p.add_argument("--seed", type=_seed, help="required for forest variants")
    for name in _TUNING_FIELDS:
        default = getattr(ClassifierSpec, name)
        p.add_argument("--" + name.replace("_", "-"), default=default,
                       type=float if isinstance(default, float) else int)
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


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one ``warning:`` line, without its source."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
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
