"""Output checks: invariants any correct implementation satisfies.

They are not golden digests, so a legitimate reordering of sums still
passes. Each check returns a list of problems; an empty list means it held.
The AUROC oracle is written from the definition and shares no code with
the library.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

AUROC_TOLERANCE = 1e-9


def mann_whitney_auc(y, scores, weights) -> float:
    """Weighted Mann-Whitney statistic with half credit for ties.

    sum over (positive p, negative q) of w_p w_q (1[s_p > s_q] + 1/2 1[s_p == s_q]),
    divided by (sum of positive weights) * (sum of negative weights).
    Computed in O(n log n) over the distinct scores.
    """
    y = np.asarray(y)
    s = np.asarray(scores, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    levels, inverse = np.unique(s, return_inverse=True)
    pos = np.bincount(inverse, weights=w * (y == 1), minlength=levels.size)
    neg = np.bincount(inverse, weights=w * (y == 0), minlength=levels.size)
    neg_below = np.cumsum(neg) - neg
    numerator = float(np.sum(pos * (neg_below + 0.5 * neg)))
    return numerator / (float(pos.sum()) * float(neg.sum()))


def check_replicates(result, replicates: int) -> list[str]:
    """R reports, and every estimate finite and inside [0, 1]."""
    problems = []
    if len(result.reports) != replicates:
        problems.append(f"expected {replicates} reports, got {len(result.reports)}")
    for rep in result.reports:
        for outcome in rep.outcomes:
            payload = outcome.to_json_dict()
            for weighting in ("population", "weighted", "unweighted"):
                block = payload.get(weighting)
                if block is None:
                    continue  # a classifier failure, counted separately
                values = [block["auroc"]]
                for tm in block["thresholds"]:
                    values += [tm["sensitivity"], tm["specificity"]]
                bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
                if bad:
                    problems.append(
                        f"replicate {rep.index} {outcome.name} {weighting}: "
                        f"estimates outside [0, 1]: {bad}"
                    )
    return problems


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_scored_eval(eval_csv: Path, predictions_csv: Path, outcome: str, weight: str):
    """(outcomes, scores, weights) of the evaluation file, straight from the CSVs."""
    scores = {row["id"]: float(row["score"]) for row in _read_csv(predictions_csv)}
    rows = _read_csv(eval_csv)
    y = np.array([int(float(r[outcome])) for r in rows])
    w = np.array([float(r[weight]) for r in rows])
    s = np.array([scores[r["id"]] for r in rows])
    return y, s, w


def check_exact_auroc(report: dict, y, s, w) -> list[str]:
    """Exact-grid AUROC in the evaluate JSON equals the Mann-Whitney oracle."""
    problems = []
    for weighting, weights in (("weighted", w), ("unweighted", np.ones_like(w))):
        expected = mann_whitney_auc(y, s, weights)
        got = report[weighting]["auroc"]
        if not abs(got - expected) <= AUROC_TOLERANCE:
            problems.append(f"{weighting} exact AUROC {got!r} != Mann-Whitney {expected!r}")
    return problems


def check_roc_csv(roc_csv: Path, distinct_scores: int) -> list[str]:
    """One row per distinct score plus one, thresholds strictly ascending."""
    rows = _read_csv(roc_csv)
    problems = []
    if len(rows) != distinct_scores + 1:
        problems.append(f"roc CSV has {len(rows)} rows, expected {distinct_scores + 1}")
    thresholds = [float(r["threshold"]) for r in rows]
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        problems.append("roc CSV thresholds are not strictly ascending")
    return problems
