"""The benchmark's workloads: inputs, one timed unit of work, output checks.

A unit is one ``run_experiment`` call for the ``sim-*`` workloads and one
split -> train -> predict -> evaluate -> roc chain through
``svymetrics.cli.main`` for ``cli-exact``. Every unit of a run does the same
work, so counts per unit repeat exactly whatever the number of units.
Only public library functions are called. A unit enters the library through
``simulation.run_experiment`` or ``cli.main`` looked up on the module, so the
wrappers a traced unit installs see every call below it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from svymetrics import cli, simulation
from svymetrics.io import write_rows_csv
from svymetrics.rng import derive_stream
from svymetrics.sampling import StratifiedDesign, stratified_sample
from svymetrics.simulation import (
    ClassifierFailure,
    ClassifierSpec,
    default_experiment,
    default_experiment_population_spec,
    default_population_spec,
)

import checks


@dataclass
class Outcome:
    """What one unit attempted, what failed, and why."""

    replicates: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    """A replicated experiment; each unit runs ``replicates`` replicates."""

    name: str
    population: str  # "experiment" (8 feature patterns) or "paper" (uniform age)
    size: int
    allocations: dict
    workers: int
    trees: int = 100
    replicates: int = 2

    def experiment(self, seed: int):
        spec = default_experiment(
            seed,
            replicates=self.replicates,
            classifiers=(
                ClassifierSpec(kind="logistic"),
                ClassifierSpec(kind="balanced_forest", trees=self.trees),
            ),
        )
        make = (default_experiment_population_spec if self.population == "experiment"
                else default_population_spec)
        return replace(spec, population=make(size=self.size),
                       design_allocations=dict(self.allocations))

    def build(self, seed: int, scratch: Path):
        """The set-up users of the harness pay: generating the population."""
        spec = self.experiment(seed)
        return spec, simulation.resolve_population(spec)

    def describe(self, inputs) -> dict:
        _, population = inputs
        patterns = len({rec.features for rec in population.records})
        return {
            "N": population.size,
            "n": sum(self.allocations.values()),
            "distinct_patterns": patterns,
            "distinct_pattern_ratio": patterns / population.size,
            "workers": self.workers,
            "replicates_per_unit": self.replicates,
            "trees": self.trees,
        }

    def work(self, inputs, tracer=None):
        spec, population = inputs
        return simulation.run_experiment(spec, workers=self.workers, population=population)

    def check(self, inputs, result) -> Outcome:
        spec, _ = inputs
        failures = sum(isinstance(o, ClassifierFailure)
                       for rep in result.reports for o in rep.outcomes)
        problems = checks.check_replicates(result, self.replicates)
        return Outcome(self.replicates, attempted=self.replicates * len(spec.classifiers),
                       failed=failures + len(problems), problems=problems)


# ---------------------------------------------------------------------------
# CLI chain on the exact grid
# ---------------------------------------------------------------------------

SCHEMA = {
    "id": "id",
    "outcome": "y",
    "weight": "wt",
    "stratum": "agecat",
    "features": [
        {"name": "age", "kind": "numeric"},
        {"name": "sex", "kind": "numeric"},
        {"name": "smoker", "kind": "numeric"},
    ],
}
CHAIN = ("split", "train", "predict", "evaluate", "roc")


@dataclass(frozen=True)
class CliWorkload:
    """A weighted survey CSV drawn from the paper population, run through
    the CLI with the exact threshold grid."""

    name: str
    population_size: int
    allocations: dict
    eval_fraction: float = 0.2

    def _write_survey(self, seed: int, path: Path) -> None:
        population = simulation.generate_population(
            default_population_spec(size=self.population_size),
            derive_stream(seed, "population"))
        sample = stratified_sample(population, StratifiedDesign(self.allocations),
                                   derive_stream(seed, "sample"))
        index = population.index_by_id
        rows = []
        for rid, weight in zip(sample.ids, sample.weights.tolist()):
            rec = population.records[index[rid]]
            rows.append([rid, rec.outcome, repr(weight), rec.stratum,
                         *(repr(float(v)) for v in rec.features)])
        write_rows_csv(path, ["id", "y", "wt", "agecat", "age", "sex", "smoker"], rows)

    def build(self, seed: int, scratch: Path):
        """Write the schema and the survey CSV the chain starts from."""
        scratch.mkdir(parents=True, exist_ok=True)
        (scratch / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
        self._write_survey(seed, scratch / "survey.csv")
        return seed, scratch

    def describe(self, inputs) -> dict:
        return {
            "survey_rows": sum(self.allocations.values()),
            "N": self.population_size,
            "eval_fraction": self.eval_fraction,
            "workers": 1,
        }

    def argv(self, seed: int, d: Path) -> dict[str, list[str]]:
        schema = ["--schema", str(d / "schema.json")]
        scored = ["--input", str(d / "eval.csv"), *schema,
                  "--predictions", str(d / "pred.csv"), "--grid", "exact"]
        return {
            "split": ["split", "--input", str(d / "survey.csv"), *schema,
                      "--eval-fraction", repr(self.eval_fraction),
                      "--seed", str(seed), "--train-out", str(d / "train.csv"),
                      "--eval-out", str(d / "eval.csv")],
            "train": ["train", "--input", str(d / "train.csv"), *schema,
                      "--model", "logistic", "--out", str(d / "model.json")],
            "predict": ["predict", "--input", str(d / "eval.csv"), *schema,
                        "--model", str(d / "model.json"), "--out", str(d / "pred.csv")],
            "evaluate": ["evaluate", *scored, "--json", str(d / "report.json")],
            "roc": ["roc", *scored, "--out", str(d / "roc.csv")],
        }

    def work(self, inputs, tracer=None) -> dict[str, int]:
        seed, d = inputs
        commands = self.argv(seed, d)
        codes = {}
        for name in CHAIN:
            span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(io.StringIO()):
                try:
                    codes[name] = cli.main(commands[name])
                except SystemExit as exc:  # argparse rejects a command line
                    codes[name] = exc.code
        return codes

    def check(self, inputs, codes) -> Outcome:
        _, d = inputs
        problems = [f"{name} exited {code}" for name, code in codes.items() if code != 0]
        notes = {}
        if not problems:
            y, s, w = checks.read_scored_eval(d / "eval.csv", d / "pred.csv", "y", "weight_eval")
            report = json.loads((d / "report.json").read_text(encoding="utf-8"))
            distinct = len(set(s.tolist()))
            problems = (checks.check_exact_auroc(report, y, s, w)
                        + checks.check_roc_csv(d / "roc.csv", distinct))
            notes = {"eval_rows": len(s), "distinct_eval_scores": distinct}
        return Outcome(1, attempted=len(CHAIN), failed=len(problems),
                       problems=problems, notes=notes)


# Sizes are fixed here; a size that becomes slow stays and is reported as slow.
WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim-default",
            population="experiment",
            size=117_000,
            allocations=dict(simulation.DEFAULT_DESIGN_ALLOCATIONS),
            workers=1,
        ),
        SimWorkload(
            name="sim-continuous",
            population="paper",
            size=117_000,
            allocations={"19-25": 2000, "25-34": 1500, "34-54": 2000,
                         "54-65": 2000, "65-100": 2500},
            workers=2,
        ),
        CliWorkload(
            name="cli-exact",
            population_size=117_000,
            allocations={"19-25": 8000, "25-34": 8000, "34-54": 9000,
                         "54-65": 8500, "65-100": 8500},
        ),
    )
}
