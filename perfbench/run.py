"""svymetrics benchmark: Monte Carlo replicate throughput and exact-grid CLI latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-default --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own child process, and
prints each one's metrics. Workloads, metric names, units and bounds are
read from ``BENCHMARK.json``. The library is imported from ``src/`` of the
same checkout; without it the benchmark exits 2 and prints no result.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no wrapper installed. Times are medians over units (or set-ups), each scaled
to a reference machine speed by a fixed kernel timed right before and after
it; see ``REFERENCE_S``. With ``--trace 1`` units alternate between traced
and untraced; the per-layer metrics come from the traced units' spans and
the tracing overhead from comparing the two kinds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the machine block, workload properties and every sample, is written to
``.perfbench/results/`` and the spans of a traced run to
``.perfbench/traces/``, both under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench"


def load_descriptor() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_library() -> None:
    """Put this checkout's ``src`` first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "svymetrics" / "__init__.py").is_file():
        print(f"perfbench: no svymetrics sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import svymetrics

    if Path(svymetrics.__file__).resolve().parent != (src / "svymetrics").resolve():
        print(f"perfbench: imported svymetrics from {svymetrics.__file__}, "
              f"not from {src}", file=sys.stderr)
        raise SystemExit(2)


def machine_block(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its children (ru_maxrss is KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def high_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = 100.0 * (n - 10) / n
    return p, sorted(samples)[n - 11]


# Machine-speed reference. Each timed region is bracketed by runs of this
# kernel, and every time metric is scaled by REFERENCE_S / (the bracket's
# mean), i.e. reported at the speed where the kernel takes REFERENCE_S. The
# CPU speed of a shared virtual machine can drift by tens of percent over
# minutes; raw wall times are kept beside the scaled ones in the result file.
REFERENCE_S = 0.2
SETUPS = 5


def reference_kernel() -> float:
    """Seconds for a fixed mix of NumPy masking and interpreter work."""
    import numpy

    x = numpy.random.default_rng(0).random(117_000)
    t0 = time.perf_counter()
    for _ in range(150):
        (x >= 0.5).sum()
        x[x >= 0.3].sum()
    total = 0
    for i in range(150_000):
        total += i * i
    table = {}
    for i in range(30_000):
        table[str(i)] = i
    return time.perf_counter() - t0


class Bracketed:
    """Times regions of work, each followed by a reference-kernel reading."""

    def __init__(self):
        self.last_ref = reference_kernel()

    def __call__(self, fn):
        """Run ``fn()``; return (result, sample) with raw and scaled times."""
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        ref_after = reference_kernel()
        ref = (self.last_ref + ref_after) / 2
        self.last_ref = ref_after
        return result, {"wall": wall, "cpu": cpu, "ref": ref, "scaled": wall * REFERENCE_S / ref}


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path):
    """Set up, then run units of work for ``seconds``; return the raw record.

    ``scratch`` is a directory the workload may create; it is removed at the end.
    """
    from spans import Tracer, traced

    tracer = Tracer() if trace else None
    timer = Bracketed()
    setups = []
    units = []
    try:
        with traced(tracer) if trace else contextlib.nullcontext():
            with tracer.operation("setup", "bench.setup") if trace else contextlib.nullcontext():
                for _ in range(SETUPS):
                    inputs, sample = timer(lambda: workload.build(seed, scratch))
                    setups.append(sample)
        properties = workload.describe(inputs)
        deadline = time.perf_counter() + seconds
        while True:
            traced_unit = trace and len(units) % 2 == 0
            op = f"unit-{len(units)}"

            def unit():
                with tracer.operation(op, "bench.unit"):
                    return workload.work(inputs, tracer)

            t0 = time.perf_counter()
            with traced(tracer) if traced_unit else contextlib.nullcontext():
                output, sample = timer(unit if traced_unit else lambda: workload.work(inputs))
            outcome = workload.check(inputs, output)
            properties.update(outcome.notes)
            units.append({"traced": traced_unit, **sample,
                          "replicates": outcome.replicates, "attempted": outcome.attempted,
                          "failed": outcome.failed, "problems": outcome.problems,
                          "elapsed": time.perf_counter() - t0})
            typical = statistics.median(u["elapsed"] for u in units)
            enough = not trace or len(units) >= 2
            if enough and time.perf_counter() + typical > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return tracer, setups, properties, units


def end_to_end(units, setups) -> dict[str, float]:
    """Medians of the untraced units and of the set-ups, at reference speed."""
    plain = [u for u in units if not u["traced"]]
    return {
        "replicates_per_s": statistics.median(u["replicates"] / u["scaled"] for u in plain),
        "chain_s": statistics.median(u["scaled"] for u in plain),
        "setup_s": statistics.median(s["scaled"] for s in setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, units) -> dict[str, float]:
    from layers import layer_metrics

    traced_units = [u for u in units if u["traced"]]
    return layer_metrics(
        tracer.spans,
        units=sum(u["replicates"] for u in traced_units),
        setup_op="setup",
        traced_walls=[u["scaled"] for u in traced_units],
        untraced_walls=[u["scaled"] for u in units if not u["traced"]],
        cpu_per_wall=sum(u["cpu"] for u in traced_units)
        / sum(u["wall"] for u in traced_units),
    )


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def run_one(descriptor: dict, name: str, seed: int, seconds: int, trace: bool) -> int:
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer, setups, properties, units = measure(
        workload, seed, seconds, trace, OUT / "work" / f"{name}-{os.getpid()}")
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    problems = [p for u in units for p in u["problems"]]
    plain = [u for u in units if not u["traced"]]
    e2e = end_to_end(units, setups)
    specs = descriptor["end_to_end"]
    values = e2e
    if trace:
        specs = descriptor["per_layer"]
        values = per_layer(tracer, units)
        write_json(OUT / "traces" / f"{name}-seed{seed}.json",
                   [[s.span_id, s.name, s.start, s.end, s.parent, s.op, s.thread,
                     {k: v for k, v in s.attrs.items() if isinstance(v, (int, float))}]
                    for s in tracer.spans])
    missing = {m["name"] for m in specs} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    units_of = {m["name"]: m["unit"] for m in descriptor["end_to_end"]}
    machine = machine_block(seed)
    print(f"svymetrics perfbench: workload={name} seed={seed} seconds={seconds} "
          f"trace={int(trace)} units={len(units)}")
    print(f"  machine: {json.dumps(machine)}")
    print(f"  properties: {json.dumps(properties)}")
    for key, value in e2e.items():
        print(f"  {key:<18} {value:12.6g} {units_of[key]}")
    print(f"  {'failed_fraction':<18} {failed / attempted:12.6g} ratio "
          f"({failed} of {attempted} attempted)")
    tail = high_percentile([u["scaled"] for u in plain])
    print(f"  chain_s over {len(plain)} untraced units: "
          + (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "too few units for a tail percentile")
          + f"; raw wall median {statistics.median(u['wall'] for u in plain):.6g} s, "
          f"reference kernel median {statistics.median(u['ref'] for u in units):.6g} s "
          f"(nominal {REFERENCE_S} s)")
    if trace:
        for key, entry in metrics.items():
            print(f"  {key:<52} {entry['value']:14.6g} {entry['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    write_json(OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json", {
        "workload": name, "machine": machine, "properties": properties,
        "seconds": seconds, "trace": int(trace), "reference_s": REFERENCE_S,
        "setups": setups, "units": units,
        "end_to_end": e2e, "metrics": metrics,
        "chain_s_tail": tail, "failed_fraction": failed / attempted,
    })
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(descriptor: dict, seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own child process, so peak RSS is its own."""
    status = 0
    for workload in descriptor["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0] if proc.stdout else "")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = proc.returncode
    return status


def main(argv=None) -> int:
    descriptor = load_descriptor()
    names = [w["name"] for w in descriptor["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=descriptor["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(descriptor, args.seed, args.seconds, bool(args.trace))
    return run_one(descriptor, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
