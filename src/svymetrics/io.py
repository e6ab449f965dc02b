"""CSV ingestion and emission.

Rows with missing or unparseable required fields are dropped and counted
in a load report rather than aborting the load.  Weights written back out
use full precision (repr round trip), so split files reproduce in-memory
results exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataValidationError, SchemaError
from .types import FeatureValue, FinitePopulation, SurveySample


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str  # "numeric" | "categorical"

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise SchemaError(f"feature kind must be numeric or categorical, got {self.kind!r}")


@dataclass(frozen=True)
class DataSchema:
    """Column mapping for survey CSV files.

    ``weight_column`` of None declares the file a full population (every
    record gets unit weight).
    """

    id_column: str
    outcome_column: str
    weight_column: str | None = None
    stratum_column: str | None = None
    features: tuple[FeatureColumn, ...] = ()

    def __post_init__(self):
        names = self.required_columns
        if not all(isinstance(name, str) for name in names):
            raise SchemaError("schema column names must be strings")
        if len(set(names)) != len(names):
            raise SchemaError("schema column names must be unique")

    @property
    def required_columns(self) -> list[str]:
        cols = [self.id_column, self.outcome_column]
        if self.weight_column is not None:
            cols.append(self.weight_column)
        if self.stratum_column is not None:
            cols.append(self.stratum_column)
        cols.extend(f.name for f in self.features)
        return cols

    def to_json_dict(self) -> dict:
        return {
            "id": self.id_column,
            "outcome": self.outcome_column,
            "weight": self.weight_column,
            "stratum": self.stratum_column,
            "features": [{"name": f.name, "kind": f.kind} for f in self.features],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DataSchema":
        """Parse a schema document; a malformed one raises SchemaError only."""
        if not isinstance(payload, dict):
            raise SchemaError("schema must be a JSON object")
        try:
            return cls(
                id_column=payload["id"],
                outcome_column=payload["outcome"],
                weight_column=payload.get("weight"),
                stratum_column=payload.get("stratum"),
                features=tuple(
                    FeatureColumn(name=f["name"], kind=f["kind"])
                    for f in payload.get("features", [])
                ),
            )
        except KeyError as exc:
            raise SchemaError(f"schema is missing required key {exc}") from exc
        except TypeError as exc:
            raise SchemaError(f"malformed schema: {exc}") from exc


def read_text(path: str | Path) -> str:
    """A whole UTF-8 text file; undecodable bytes raise DataValidationError."""
    return "".join(_lines(path))


def _lines(path: str | Path) -> Iterator[str]:
    """Lines of a UTF-8 text file, newlines kept as written."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def load_schema(path: str | Path) -> DataSchema:
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
    return DataSchema.from_json_dict(payload)


@dataclass(frozen=True)
class LoadReport:
    rows_read: int
    rows_loaded: int
    dropped: dict = field(default_factory=dict)  # reason -> count

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())

    def to_json_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_loaded": self.rows_loaded,
            "dropped": dict(self.dropped),
        }


@dataclass(frozen=True)
class IngestResult:
    """Loaded rows as columns, their weights, and the load report.

    ``data`` holds every loaded row (the stratum is "" without a stratum
    column) and ``sample`` the same ids with their weights.  A file whose
    schema declares no weight column is a census: unit weights, and
    ``population`` is ``data``; otherwise ``population`` is None.
    """

    data: FinitePopulation
    sample: SurveySample
    population: FinitePopulation | None
    report: LoadReport


def _parse_outcome(raw: str) -> int | None:
    text = raw.strip()
    if text in ("0", "1"):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        return None
    if value in (0.0, 1.0):
        return int(value)
    return None


def ingest_csv(path: str | Path, schema: DataSchema) -> IngestResult:
    """Load a survey CSV into columns plus a weighted sample.

    Rows missing any required field, with a non-binary outcome, an
    unparseable feature, or a non-positive weight are dropped and counted
    by reason.
    """
    ids: list[str] = []
    outcomes: list[int] = []
    weights: list[float] = []
    strata: list[str] = []
    features: list[list[FeatureValue]] = [[] for _ in schema.features]
    dropped: dict[str, int] = {}
    rows_read = 0

    def drop(reason: str) -> None:
        dropped[reason] = dropped.get(reason, 0) + 1

    reader = csv.DictReader(_lines(path))
    if reader.fieldnames is None:
        raise DataValidationError(f"{path} has no header row")
    missing = [c for c in schema.required_columns if c not in reader.fieldnames]
    if missing:
        raise SchemaError(f"{path} lacks schema columns: {missing}")
    seen_ids: set[str] = set()
    for row in reader:
        rows_read += 1
        rid = (row.get(schema.id_column) or "").strip()
        if not rid:
            drop("missing id")
            continue
        if rid in seen_ids:
            drop("duplicate id")
            continue
        outcome_raw = row.get(schema.outcome_column)
        if outcome_raw is None or not outcome_raw.strip():
            drop("missing outcome")
            continue
        outcome = _parse_outcome(outcome_raw)
        if outcome is None:
            drop("non-binary outcome")
            continue
        if schema.weight_column is not None:
            weight_raw = row.get(schema.weight_column)
            if weight_raw is None or not weight_raw.strip():
                drop("missing weight")
                continue
            try:
                weight = float(weight_raw)
            except ValueError:
                drop("unparseable weight")
                continue
            if not np.isfinite(weight) or weight <= 0:
                drop("non-positive weight")
                continue
        else:
            weight = 1.0
        stratum = ""
        if schema.stratum_column is not None:
            stratum_raw = row.get(schema.stratum_column)
            if stratum_raw is None or not stratum_raw.strip():
                drop("missing stratum")
                continue
            stratum = stratum_raw.strip()
        values: list[FeatureValue] = []
        for col in schema.features:
            raw = row.get(col.name)
            if raw is None or not raw.strip():
                drop(f"missing feature {col.name}")
                break
            if col.kind == "numeric":
                try:
                    value: FeatureValue = float(raw)
                except ValueError:
                    drop(f"unparseable feature {col.name}")
                    break
                if not np.isfinite(value):
                    drop(f"non-finite feature {col.name}")
                    break
            else:
                value = raw.strip()
            values.append(value)
        else:
            seen_ids.add(rid)
            ids.append(rid)
            outcomes.append(outcome)
            weights.append(weight)
            strata.append(stratum)
            for column, value in zip(features, values):
                column.append(value)

    if not ids:
        raise DataValidationError(f"{path}: no usable rows ({rows_read} read)")
    data = FinitePopulation(
        ids=tuple(ids),
        outcomes=np.asarray(outcomes, dtype=np.int8),
        strata=np.asarray(strata, dtype=str),
        features=tuple(
            np.asarray(values, dtype=np.float64 if col.kind == "numeric" else object)
            for col, values in zip(schema.features, features)
        ),
    )
    return IngestResult(
        data=data,
        sample=SurveySample(ids=data.ids, weights=np.asarray(weights, dtype=np.float64)),
        population=data if schema.weight_column is None else None,
        report=LoadReport(rows_read=rows_read, rows_loaded=len(ids), dropped=dropped),
    )


def write_rows_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def format_number(value: float) -> str:
    """Full-precision float text (repr round trip)."""
    return repr(float(value))


def write_split_files(
    input_path: str | Path,
    schema: DataSchema,
    train_ids: Sequence[str],
    train_weights: Sequence[float],
    eval_ids: Sequence[str],
    eval_design_weights: Sequence[float],
    eval_compound_weights: Sequence[float],
    train_out: str | Path,
    eval_out: str | Path,
) -> None:
    """Write train/eval CSVs preserving original columns.

    Both files carry a canonical ``weight`` column holding the design
    weight (appended unless the file already has one); the evaluation file
    additionally carries the compound weight in ``weight_eval``, so
    downstream evaluation needs no knowledge of the split fraction.
    Weights are serialized at full precision.
    """
    reader = csv.DictReader(_lines(input_path))
    original_columns = list(reader.fieldnames or [])
    rows_by_id = {}
    for row in reader:
        rid = (row.get(schema.id_column) or "").strip()
        if rid:
            rows_by_id.setdefault(rid, row)
    if "weight_eval" in original_columns:
        raise SchemaError("input file already has a 'weight_eval' column")
    append_weight = "weight" not in original_columns

    def base_row(rid: str, design_weight: float) -> list:
        row = rows_by_id[rid]
        out = [row.get(c, "") for c in original_columns]
        if append_weight:
            out.append(format_number(design_weight))
        return out

    header = original_columns + (["weight"] if append_weight else [])
    write_rows_csv(
        train_out, header, [base_row(r, w) for r, w in zip(train_ids, train_weights)]
    )
    write_rows_csv(
        eval_out,
        header + ["weight_eval"],
        [
            base_row(r, w) + [format_number(we)]
            for r, w, we in zip(eval_ids, eval_design_weights, eval_compound_weights)
        ],
    )


def read_predictions(path: str | Path) -> dict[str, float]:
    """Read an ``id,score`` CSV into a mapping; scores must lie in [0, 1]."""
    scores: dict[str, float] = {}
    reader = csv.DictReader(_lines(path))
    if reader.fieldnames is None or not {"id", "score"} <= set(reader.fieldnames):
        raise SchemaError(f"{path} must have 'id' and 'score' columns")
    for row in reader:
        rid = (row.get("id") or "").strip()
        raw = (row.get("score") or "").strip()
        if not rid or not raw:
            raise DataValidationError(f"{path}: prediction row missing id or score")
        try:
            score = float(raw)
        except ValueError as exc:
            raise DataValidationError(f"{path}: unparseable score {raw!r}") from exc
        if not (0.0 <= score <= 1.0):
            raise DataValidationError(f"{path}: score {score} outside [0, 1]")
        if rid in scores:
            raise DataValidationError(f"{path}: duplicate prediction for id {rid!r}")
        scores[rid] = score
    if not scores:
        raise DataValidationError(f"{path}: no predictions")
    return scores


def write_predictions(path: str | Path, ids: Sequence[str], scores: Sequence[float]) -> None:
    write_rows_csv(
        path, ["id", "score"], [[rid, format_number(s)] for rid, s in zip(ids, scores)]
    )
