"""The CI workflow's step bodies, run here as CI runs them.

Each ``run:`` body of ``.github/workflows/tests.yml`` runs under
``bash --noprofile --norc -eo pipefail`` from the checkout root, with
``RUNNER_TEMP`` a fresh directory and, first on ``PATH``, a ``svymetrics``
command that calls ``cli.entry_point`` from ``src/`` and a ``python3`` that
is this interpreter.  Install and Tier-1 are not run: this suite is Tier-1.
The 1M-row ``split`` memory step takes about 20 s, so it runs only when
this file is run as a script, which runs every step:

    python3 tests/test_workflow.py
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NOT_RUN = {"Install", "Tier-1 tests"}
SCRIPT_ONLY = {"Installed svymetrics split, bounded memory on a 1,000,000-row survey"}


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def workflow_steps(text: str) -> list[tuple[str | None, str]]:
    """The (name, run body) of each step of a workflow that has a ``run:``,
    in file order.  A body is given inline or as a ``|`` literal block: the
    lines after it that are blank or indented past ``run:``, less the first
    line's indent, each ending in a newline, trailing blank lines dropped."""
    lines = text.splitlines()
    steps, name, i = [], None, 0
    while i < len(lines):
        line, i = lines[i], i + 1
        key = line.strip()
        if key.startswith("- "):
            key = key[2:]
            name = key[len("name:"):].strip() if key.startswith("name:") else None
        if not key.startswith("run:"):
            continue
        value = key[len("run:"):].strip()
        if value != "|":
            steps.append((name, value))
            continue
        start = i
        while i < len(lines) and (not lines[i].strip() or _indent(lines[i]) > _indent(line)):
            i += 1
        block = lines[start:i]
        while not block[-1].strip():
            block.pop()
        cut = _indent(block[0])
        steps.append((name, "".join(row[cut:] + "\n" for row in block)))
    return steps


STEPS = [step for step in workflow_steps(WORKFLOW.read_text()) if step[0] not in NOT_RUN]
TIER1_STEPS = [(name, body) for name, body in STEPS if name not in SCRIPT_ONLY]


def test_reader_reads_what_yaml_reads():
    yaml = pytest.importorskip("yaml")
    (job,) = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    expected = [(step.get("name"), step["run"]) for step in job["steps"] if "run" in step]
    assert workflow_steps(WORKFLOW.read_text()) == expected


def test_every_step_is_named_and_the_script_only_ones_exist():
    names = [name for name, _ in STEPS]
    assert names and all(names) and SCRIPT_ONLY <= set(names)


def test_no_step_joins_a_test_to_another_command_with_and():
    """Under ``bash -e`` a failing command before the last ``&&`` of a list
    does not stop the step, so a ``test`` joined by ``&&`` can fail
    unseen.  Each check stands on its own line."""
    joined = [
        (name, line.strip())
        for name, body in workflow_steps(WORKFLOW.read_text())
        for line in body.splitlines()
        if "&&" in line
        and any(part.split()[:1] in (["test"], ["["]) for part in line.split("&&"))
    ]
    assert joined == []


def _tools(bin_dir: Path) -> None:
    """A ``svymetrics`` command and a ``python3`` in ``bin_dir``."""
    bin_dir.mkdir()
    (bin_dir / "python3").symlink_to(sys.executable)
    shim = bin_dir / "svymetrics"
    shim.write_text(
        "#!/bin/sh\n"
        f'exec "{sys.executable}" -c "import sys; sys.argv[0] = \'svymetrics\'; '
        'from svymetrics.cli import entry_point; entry_point()" "$@"\n'
    )
    shim.chmod(0o755)


def run_step(body: str, tmp_path: Path) -> subprocess.CompletedProcess:
    """Run one step body as CI does, its scratch files under ``tmp_path``."""
    _tools(tmp_path / "bin")
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    env = dict(
        os.environ,
        PATH=f"{tmp_path / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=str(ROOT / "src"),
        RUNNER_TEMP=str(runner_temp),
    )
    return subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", body],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


def _report(done: subprocess.CompletedProcess) -> str:
    return f"exit {done.returncode}\n{done.stdout[-4000:]}\n{done.stderr[-4000:]}"


@pytest.mark.parametrize(
    "body", [body for _, body in TIER1_STEPS], ids=[name for name, _ in TIER1_STEPS]
)
def test_step_passes(tmp_path, body):
    done = run_step(body, tmp_path)
    assert done.returncode == 0, _report(done)


if __name__ == "__main__":
    failed = 0
    for name, body in STEPS:
        with tempfile.TemporaryDirectory() as tmp:
            start = time.monotonic()
            done = run_step(body, Path(tmp))
        status = "FAILED" if done.returncode else "ok"
        print(f"{status} {time.monotonic() - start:5.1f} s  {name}")
        if done.returncode:
            failed += 1
            print(_report(done))
    sys.exit(1 if failed else 0)
