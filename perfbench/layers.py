"""Per-layer metrics of a traced run, derived from its spans.

Times (``.s``) are busy seconds summed across threads; ``.self_s`` is busy
time minus merged child coverage. Times and counts are per unit of work:
per replicate for the ``sim-*`` workloads, per chain for ``cli-exact``.
A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import covered, self_times

# Spans that only sequence other layers; time inside them but outside every
# other span is the untraced remainder.
ORCHESTRATION = ("bench.", "cli.", "simulation.run_experiment",
                 "simulation.run_replicate", "evaluation.evaluation_summary")

BUSY = (
    "simulation.aggregate",
    "sampling.stratified_sample", "sampling.split_train_test",
    "classifiers.extract_columns",
    "classifiers.fit_logistic", "classifiers.upsample_minority", "classifiers.fit_forest",
    "classifiers.predict_proba_columns.logistic", "classifiers.predict_proba_columns.forest",
    "classifiers.predict_proba", "classifiers.save_model", "classifiers.load_model",
    "estimation.population_truth", "estimation.tally_confusion",
    "estimation.ratio_standard_error",
    "roc.roc_sweep.truth", "roc.roc_sweep.eval", "roc.roc_sweep.exact",
    "roc.score_adapted_grid", "roc.auroc",
    "io.ingest_csv", "io.write_split_files", "io.read_predictions", "io.write_predictions",
    "cli.split", "cli.train", "cli.predict", "cli.evaluate", "cli.roc",
)
SELF = ("simulation.run_experiment", "simulation.run_replicate",
        "evaluation.evaluation_summary")
# (metric, span name prefix, attribute summed per unit)
COUNTS = (
    ("classifiers.fit_logistic.iterations", "classifiers.fit_logistic", "iterations"),
    ("classifiers.fit_forest.nodes", "classifiers.fit_forest", "nodes"),
    ("classifiers.predict_proba_columns.rows", "classifiers.predict_proba_columns.", "rows"),
    ("classifiers.FlatTree.predict.calls", "classifiers.FlatTree.predict", None),
    ("classifiers.FlatTree.predict.row_steps", "classifiers.FlatTree.predict", "row_steps"),
    ("estimation.tally_confusion.calls", "estimation.tally_confusion", None),
    ("estimation.tally_confusion.rows", "estimation.tally_confusion", "rows"),
    ("roc.roc_sweep.grid_points", "roc.roc_sweep.", "points"),
    ("io.ingest_csv.rows", "io.ingest_csv", "rows"),
    ("io.ingest_csv.rows_dropped", "io.ingest_csv", "rows_dropped"),
)
# (metric, span name prefix, numerator attribute, denominator attribute or None = calls)
RATIOS = (
    ("classifiers.upsample_minority.ratio", "classifiers.upsample_minority",
     "rows_out", "rows_in"),
    ("classifiers.predict_proba_columns.distinct_ratio", "classifiers.predict_proba_columns.",
     "distinct", "rows"),
    ("roc.roc_sweep.exact.n", "roc.roc_sweep.exact", "distinct", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_distinct(spans) -> None:
    """Set attr ``distinct`` from the feature columns or scores a span kept.

    Done at report time so the counting adds to no span. Inputs shared by
    several spans (one population, many classifiers) are counted once.
    """
    cache: dict[int, int] = {}
    for s in spans:
        source = s.attrs.get("columns")
        if source is None:
            source = s.attrs.get("scores")
            source = None if source is None else [source]
        if source is not None:
            if id(source[0]) not in cache:
                cache[id(source[0])] = len(set(zip(*(c.tolist() for c in source))))
            s.attrs["distinct"] = cache[id(source[0])]


def uncovered(root, spans) -> float:
    """Wall time of ``root`` during which no work-layer span was open."""
    work = [(s.start, s.end) for s in spans
            if s is not root and not s.name.startswith(ORCHESTRATION)]
    return root.duration - covered(work, root.start, root.end)


def layer_metrics(spans, *, units: int, setup_op: str, traced_walls, untraced_walls,
                  cpu_per_wall: float) -> dict[str, float]:
    """Every per-layer metric, from the spans of ``units`` traced units of work.

    ``units`` is the count of replicates (or chains) the traced units ran;
    ``traced_walls`` and ``untraced_walls`` are unit wall times, whose
    medians give the tracing overhead.
    """
    setup = [s for s in spans if s.op == setup_op]
    work = [s for s in spans if s.op is not None and s.op != setup_op]
    selfs = self_times(work)
    count_distinct(work)
    by_name = defaultdict(list)
    for s in work:
        by_name[s.name].append(s)

    def matching(prefix):
        return [s for name, group in by_name.items() if name.startswith(prefix)
                for s in group]

    out = {}
    resolve = [s.duration for s in setup if s.name == "simulation.resolve_population"]
    out["simulation.resolve_population.s"] = statistics.fmean(resolve) if resolve else 0.0
    for name in BUSY:
        out[f"{name}.s"] = _ratio(sum(s.duration for s in by_name[name]), units)
    for name in SELF:
        out[f"{name}.self_s"] = _ratio(sum(selfs[s.span_id] for s in by_name[name]), units)
    out["simulation.run_experiment.cpu_per_wall"] = (
        cpu_per_wall if by_name["simulation.run_experiment"] else 0.0)
    for metric, prefix, attr in COUNTS:
        group = matching(prefix)
        total = len(group) if attr is None else sum(s.attrs.get(attr, 0) for s in group)
        out[metric] = _ratio(total, units)
    for metric, prefix, num, den in RATIOS:
        group = matching(prefix)
        denominator = len(group) if den is None else sum(s.attrs.get(den, 0) for s in group)
        out[metric] = _ratio(sum(s.attrs.get(num, 0) for s in group), denominator)
    roots = [s for s in work if s.name == "bench.unit"]
    by_op = defaultdict(list)
    for s in work:
        by_op[s.op].append(s)
    out["trace.uncovered_frac"] = _ratio(
        sum(uncovered(r, by_op[r.op]) for r in roots), sum(r.duration for r in roots))
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        if traced_walls and untraced_walls else 0.0)
    out["trace.units"] = float(len(traced_walls))
    return {k: float(v) for k, v in out.items()}
