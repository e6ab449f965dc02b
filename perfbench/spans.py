"""In-memory span recorder and the wrappers that feed it.

A span is (id, name, start, end, parent id, operation id, thread id, attrs).
Attrs hold counts, plus references to inputs whose distinct values are
counted only when the run reports, so that counting adds no time to any span.
Spans are recorded from the benchmark's own files only: ``traced()`` swaps
the public names that ``svymetrics.simulation``, ``evaluation``, ``roc`` and
``cli`` look up at call time for wrappers, and restores them on exit.
Nothing under ``src/`` is changed.

Self time of a span is its duration minus the part of its interval covered
by its children, where the children's intervals are merged first, so two
children running at once on different threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Map span id -> duration minus the merged coverage of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    """Collects spans; one per benchmark process, passed to whoever records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op: str | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attrs dict so callers can add counts.

        On a thread with no open span (a pool worker) the parent is the
        innermost open span of the thread that opened the current operation,
        the one waiting on the pool.
        """
        stack = self._stack()
        outer = stack or self._op_stack
        parent = outer[-1] if outer else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = self.clock()
        try:
            yield attrs
        except BaseException:
            attrs["error"] = True
            raise
        finally:
            end = self.clock()
            stack.pop()
            record = Span(span_id, name, start, end, parent, self.op,
                          threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def operation(self, op: str, name: str, **attrs):
        """Open the root span of one unit of work; its spans share ``op``."""
        self.op = op
        self._op_stack = self._stack()
        try:
            with self.span(name, **attrs) as root_attrs:
                yield root_attrs
        finally:
            self._op_stack = []
            self.op = None


# ---------------------------------------------------------------------------
# Wrappers around the library's public names
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """Wrap ``fn`` in a span; ``before(args, kwargs)`` and
    ``after(args, kwargs, result)`` return extra attrs for the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = before(args, kwargs) if before else {}
        with tracer.span(extra.pop("_name", name), **extra) as attrs:
            result = fn(*args, **kwargs)
            if after:
                attrs.update(after(args, kwargs, result))
            return result

    return wrapper


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _patch_table(exact_grids: threading.local):
    """(owner, attribute, span name, before, after) for every traced name."""
    from svymetrics import cli, evaluation, roc, simulation
    from svymetrics.classifiers.forest import ForestModel
    from svymetrics.classifiers.logistic import LogisticModel
    from svymetrics.classifiers.tree import FlatTree

    def sweep_kind(site):
        def before(args, kwargs):
            grid = _arg(args, kwargs, 1, "grid")
            if grid is getattr(exact_grids, "last", None):
                ev = _arg(args, kwargs, 0, "evaluation")
                return {"_name": "roc.roc_sweep.exact", "points": len(grid),
                        "scores": ev.scores}
            return {"_name": f"roc.roc_sweep.{site}", "points": len(grid)}
        return before

    def remember_exact_grid(args, kwargs, grid):
        exact_grids.last = grid
        return {}

    def rows_of_evaluation(args, kwargs):
        return {"rows": _arg(args, kwargs, 0, "evaluation").size}

    def upsample_ratio(args, kwargs, out):
        return {"rows_in": len(_arg(args, kwargs, 0, "records")), "rows_out": len(out)}

    def columns_scored(args, kwargs):
        cols = _arg(args, kwargs, 1, "columns")
        return {"rows": int(cols[0].shape[0]) if cols else 0, "columns": cols}

    def route_steps(args, kwargs):
        tree, x = args[0], _arg(args, kwargs, 1, "x")
        return {"row_steps": int(x.shape[0]) * tree.route_steps}

    def ingest_rows(args, kwargs, result):
        return {"rows": result.report.rows_read, "rows_dropped": result.report.rows_dropped}

    fit_logistic = ("classifiers.fit_logistic", None,
                    lambda a, k, m: {"iterations": m.iterations})
    fit_forest = ("classifiers.fit_forest", None,
                  lambda a, k, m: {"nodes": sum(t.node_count for t in m.trees)})
    upsample = ("classifiers.upsample_minority", None, upsample_ratio)
    table = []
    for module, site in ((simulation, "truth"), (evaluation, "eval"), (cli, "eval")):
        table.append((module, "roc_sweep", "roc.roc_sweep", sweep_kind(site), None))
    for module in (simulation, cli):
        table += [
            (module, "split_train_test", "sampling.split_train_test", None, None),
            (module, "fit_logistic", *fit_logistic),
            (module, "fit_forest", *fit_forest),
            (module, "upsample_minority", *upsample),
        ]
    for module in (simulation, evaluation):
        table.append((module, "auroc", "roc.auroc", None, None))
    for module in (roc, evaluation):
        table.append((module, "tally_confusion", "estimation.tally_confusion",
                      rows_of_evaluation, None))
    table += [
        (simulation, "resolve_population", "simulation.resolve_population", None, None),
        (simulation, "run_experiment", "simulation.run_experiment", None, None),
        (simulation, "run_replicate", "simulation.run_replicate", None, None),
        (simulation, "aggregate", "simulation.aggregate", None, None),
        (simulation, "stratified_sample", "sampling.stratified_sample", None, None),
        (simulation, "extract_columns", "classifiers.extract_columns", None, None),
        (simulation, "population_truth", "estimation.population_truth", None, None),
        (simulation, "evaluation_summary", "evaluation.evaluation_summary", None, None),
        (cli, "evaluation_summary", "evaluation.evaluation_summary", None, None),
        (evaluation, "ratio_standard_error", "estimation.ratio_standard_error", None, None),
        (evaluation, "score_adapted_grid", "roc.score_adapted_grid", None,
         remember_exact_grid),
        (cli, "ingest_csv", "io.ingest_csv", None, ingest_rows),
        (cli, "write_split_files", "io.write_split_files", None, None),
        (cli, "read_predictions", "io.read_predictions", None, None),
        (cli, "write_predictions", "io.write_predictions", None, None),
        (cli, "save_model", "classifiers.save_model", None, None),
        (cli, "load_model", "classifiers.load_model", None, None),
        (LogisticModel, "predict_proba_columns",
         "classifiers.predict_proba_columns.logistic", columns_scored, None),
        (ForestModel, "predict_proba_columns",
         "classifiers.predict_proba_columns.forest", columns_scored, None),
        (LogisticModel, "predict_proba", "classifiers.predict_proba", None, None),
        (ForestModel, "predict_proba", "classifiers.predict_proba", None, None),
        (FlatTree, "predict", "classifiers.FlatTree.predict", route_steps, None),
    ]
    return table


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the library's public names through span-recording wrappers."""
    exact_grids = threading.local()
    saved = []
    try:
        for owner, attr, name, before, after in _patch_table(exact_grids):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
