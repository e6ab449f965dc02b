"""Golden sha256 digests of the files the CLI writes.

``simulate`` runs a small spec on the ``experiment`` preset (logistic and a
5-tree balanced forest, a repeated threshold) at grids 101 and ``exact``;
``evaluate`` and ``roc`` run on a 1,500-row weighted survey whose scores
tie.  Every output byte must keep these digests, so a refactor that moves a
metric between containers, or reorders a sum, shows here.  Like the tree
digests in ``test_trees.py``, they hold for numpy 2.4: the survey and the
population come from numpy's seeded generators, and the SEs from its dot
products.
"""

import hashlib
import json

import numpy as np
import pytest

from svymetrics.cli import main

SPEC = {
    "spec_version": "1", "seed": 7, "replicates": 2,
    "design": {"allocations": {"18-25": 98, "26-34": 64, "35-49": 83, "50-64": 75, "65+": 107}},
    "classifiers": [{"kind": "logistic"}, {"kind": "balanced_forest", "trees": 5}],
    "thresholds": [0.3, 0.5, 0.71, 0.5],
    "population": {"preset": "experiment", "size": 5000},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("grid, digests", [
    (101, {
        "json": "42e857e344ad30e798dbda6bf1de634dd8417ac664f279e9c42e404e2707184d",
        "csv": "0dc8e43e4a4b8c368cab6f2b63f8f147abfb2acacb49ab2fd2b61b58c4923459",
        "stdout": "8c7b53cc1265cd30eb389fb8ded080e43ae8e6dd59ba6af4551779298502f725",
    }),
    ("exact", {
        "json": "b3f38c7744030d95f44b3b7be8408995c5951d239a0422605b45da2fba4e61b7",
        "csv": "ebc2bd4669a289f49f212f8c1d3791935f3aeae697c2352c9581754306c25bc0",
        "stdout": "6799eeb39617a66d64096667dbc9c82cc14bc36fe2cd2629aa1f8b8c501ba43a",
    }),
])
def test_simulate_outputs(tmp_path, capsys, grid, digests):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "auroc_grid": grid}))
    summary, reps = tmp_path / "summary.json", tmp_path / "reps.csv"
    assert main(["simulate", str(spec), "--json", str(summary),
                 "--replicates-csv", str(reps)]) == 0
    got = {
        "json": _sha(summary.read_bytes()),
        "csv": _sha(reps.read_bytes()),
        "stdout": _sha(capsys.readouterr().out.encode()),
    }
    assert got == digests


@pytest.fixture
def scored_survey(tmp_path):
    """An evaluation file and its predictions: 1,500 weighted rows whose
    scores, rounded to 0.01, tie."""
    rng = np.random.default_rng(29)
    scores = np.round(rng.random(1500), 2)
    outcomes = (rng.random(1500) < scores).astype(int)
    weights = rng.uniform(1.0, 20.0, 1500)
    rows = [f"r{i},{y},{w!r}\n" for i, (y, w) in enumerate(zip(outcomes, weights.tolist()))]
    (tmp_path / "eval.csv").write_text("id,y,weight_eval\n" + "".join(rows))
    preds = [f"r{i},{s!r}\n" for i, s in enumerate(scores.tolist())]
    (tmp_path / "preds.csv").write_text("id,score\n" + "".join(preds))
    return tmp_path


@pytest.mark.parametrize("grid, digests", [
    ("101", {
        "json": "ebc56967705ef4044e4cfecf054fff2c0af023c92b81bc501c1873689abf9155",
        "stdout": "e26eea03406bb48eef647a8937bd8042c95c69e12daa2272a32e0902bbbd2b5c",
        "roc_weighted": "835b72ac24a4272d60634184dfda2d525148a83ea612ffb1f3802d3e060aa9c1",
        "roc_unweighted": "0b560b3f3fe9a6daf0c5dc06dd42110886e8c58552e426f3cbb3672d33cfa8c4",
    }),
    ("exact", {
        "json": "90550a4b4752a698409906f934f13dc8460455572c7b06319c33287ada4de4cd",
        "stdout": "5249c6f4db5e26f3b0c5d105ed4a90fc9a28a55892c8ccfaa84ec2c6d01c8cc7",
        "roc_weighted": "ff39531a7ca84700346a21b1bab4a28d491dfab23da3289aa5591118b6493e18",
        "roc_unweighted": "f87e5ee7e71315149e6e2c4feeae6ea515a44a3f7ad3962538e7d1e7dafbf3d6",
    }),
])
def test_evaluate_and_roc_outputs(scored_survey, capsys, grid, digests):
    d = scored_survey
    common = ["--input", str(d / "eval.csv"), "--id-col", "id", "--outcome-col", "y",
              "--predictions", str(d / "preds.csv"), "--grid", grid]
    assert main(["evaluate", *common, "--thresholds", "0.3,0.5,0.71,0.5",
                 "--json", str(d / "report.json")]) == 0
    got = {
        "json": _sha((d / "report.json").read_bytes()),
        "stdout": _sha(capsys.readouterr().out.encode()),
    }
    for weighting in ("weighted", "unweighted"):
        out = d / f"roc_{weighting}.csv"
        assert main(["roc", *common, "--weighting", weighting, "--out", str(out)]) == 0
        got[f"roc_{weighting}"] = _sha(out.read_bytes())
    assert got == digests
