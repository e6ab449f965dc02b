"""CSV ingestion and emission.

A CSV is read once, as one string column per header field, and each check
runs over whole columns.  Rows with missing or unparseable required fields
are dropped and counted in a load report rather than aborting the load.
Weights written back out use full precision (repr round trip), so split
files reproduce in-memory results exactly.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass, field
from itertools import islice, repeat, zip_longest
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataValidationError, SchemaError
from .types import FinitePopulation, SurveySample, code_labels


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


@dataclass(frozen=True)
class CsvTable:
    """A CSV file as read: its header, one string column per header field,
    and the number of data rows."""

    header: tuple[str, ...]
    columns: tuple[tuple[str, ...], ...]
    size: int

    @property
    def named(self) -> dict[str, tuple[str, ...]]:
        """Each header name's last column, as ``csv.DictReader`` reads it."""
        return dict(zip(self.header, self.columns))


def _read_columns(path: str | Path, check_header) -> CsvTable:
    """Read a CSV once, as string columns.

    The first row is the header, even when it is blank, and
    ``check_header`` sees it (None for an empty file) before any data row
    is read.  Blank data rows are skipped.  A short row reads "" in the
    fields it lacks, and fields past the header are ignored.
    """
    reader = csv.reader(_lines(path))
    try:
        header = next(reader, None)
        check_header(header)
        rows = list(filter(None, reader))
    except csv.Error as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
    width = len(header)
    columns = list(islice(zip_longest(*rows, fillvalue=""), width))
    columns += [("",) * len(rows)] * (width - len(columns))
    return CsvTable(header=tuple(header), columns=tuple(columns), size=len(rows))


def read_json(path: str | Path, what: str):
    """A UTF-8 JSON file's value.

    Malformed JSON raises SchemaError naming ``what`` and the path; a
    missing file or undecodable bytes raise DataValidationError.
    """
    try:
        return json.loads("".join(_lines(path)))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_schema(path: str | Path) -> DataSchema:
    return DataSchema.from_json_dict(read_json(path, "schema file"))


@dataclass(frozen=True)
class LoadReport:
    rows_read: int
    rows_loaded: int
    dropped: dict = field(default_factory=dict)  # reason -> count

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())


@dataclass(frozen=True)
class IngestResult:
    """Loaded rows as columns, their weights, and the load report.

    ``data`` holds every loaded row, its strata coded in order of first
    appearance (one stratum, "", without a stratum column), and ``sample``
    the same ids with their weights and their rows of ``data``.  A file
    whose schema declares no weight column is a census: unit weights, and
    ``population`` is ``data``; otherwise ``population`` is None.
    ``table`` is the file as read, and ``file_rows`` the row of ``table``
    each loaded record came from.
    """

    data: FinitePopulation
    sample: SurveySample
    population: FinitePopulation | None
    report: LoadReport
    table: CsvTable
    file_rows: np.ndarray


def _blank(texts: Sequence[str]) -> np.ndarray:
    """True where a stripped cell is empty."""
    return np.fromiter(map(operator.not_, texts), dtype=bool, count=len(texts))


def _parse_floats(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``float()`` of every cell: the values (NaN where a cell fails), and
    which cells are blank and which do not parse."""
    n = len(texts)
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64, count=n)
        return values, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    except ValueError:
        pass
    values = np.full(n, np.nan)
    blank = np.zeros(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    for i, text in enumerate(texts):
        if not text.strip():
            blank[i] = True
            continue
        try:
            values[i] = float(text)
        except ValueError:
            bad[i] = True
    return values, blank, bad


def _first_rows(keys: Sequence[str], rows: Sequence[int]) -> np.ndarray:
    """For each key, the first of the ascending ``rows`` holding it, or
    ``len(keys)`` when none does."""
    first = dict(zip([keys[i] for i in reversed(rows)], reversed(rows)))
    return np.fromiter(map(first.get, keys, repeat(len(keys))), dtype=np.intp, count=len(keys))


def ingest_csv(path: str | Path, schema: DataSchema) -> IngestResult:
    """Load a survey CSV into columns plus a weighted sample.

    Rows missing any required field, with a non-binary outcome, an
    unparseable feature, or a non-positive weight are dropped and counted
    by reason.  A row's reason is its first failing check, in the order
    id, duplicate id, outcome, weight, stratum, then each feature; a row
    is a duplicate when an earlier row with its id was loaded.  Reasons
    are counted in order of first occurrence.
    """

    def check_header(header):
        if header is None:
            raise DataValidationError(f"{path} has no header row")
        missing = [c for c in schema.required_columns if c not in header]
        if missing:
            raise SchemaError(f"{path} lacks schema columns: {missing}")
        repeated = [c for c in schema.required_columns if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"{path} repeats schema columns: {repeated}")

    table = _read_columns(path, check_header)
    cols = table.named
    n = table.size
    ids = list(map(str.strip, cols[schema.id_column]))
    checks = [("missing id", _blank(ids))]  # (reason, failing rows), in check order
    outcome_text = list(map(str.strip, cols[schema.outcome_column]))
    y, blank, _ = _parse_floats(outcome_text)
    checks += [("missing outcome", blank), ("non-binary outcome", (y != 0) & (y != 1))]
    if schema.weight_column is not None:
        weights, blank, bad = _parse_floats(cols[schema.weight_column])
        checks += [
            ("missing weight", blank),
            ("unparseable weight", bad),
            ("non-positive weight", ~(np.isfinite(weights) & (weights > 0))),
        ]
    else:
        weights = np.ones(n)
    strata = [""] * n
    if schema.stratum_column is not None:
        strata = list(map(str.strip, cols[schema.stratum_column]))
        checks.append(("missing stratum", _blank(strata)))
    values = []
    for col in schema.features:
        if col.kind == "numeric":
            value, blank, bad = _parse_floats(cols[col.name])
            checks += [
                (f"missing feature {col.name}", blank),
                (f"unparseable feature {col.name}", bad),
                (f"non-finite feature {col.name}", ~np.isfinite(value)),
            ]
        else:
            value = list(map(str.strip, cols[col.name]))
            checks.append((f"missing feature {col.name}", _blank(value)))
        values.append(value)

    # Each id's first row passing every other check is loaded; any later
    # row with that id is a duplicate, whatever else is wrong with it.
    valid = np.flatnonzero(~np.logical_or.reduce([failing for _, failing in checks]))
    checks.insert(1, ("duplicate id", np.arange(n) > _first_rows(ids, valid.tolist())))

    code = np.full(n, len(checks))  # index of each row's first failing check
    for k in reversed(range(len(checks))):
        code[checks[k][1]] = k
    kinds, first_at, counts = np.unique(
        code[code < len(checks)], return_index=True, return_counts=True
    )
    dropped = {checks[kinds[k]][0]: int(counts[k]) for k in np.argsort(first_at)}

    rows = np.flatnonzero(code == len(checks))
    if not rows.size:
        raise DataValidationError(f"{path}: no usable rows ({n} read)")
    take = rows.tolist()
    codes, labels = code_labels(map(strata.__getitem__, take), rows.size)
    data = FinitePopulation(
        ids=np.asarray(ids, dtype=object)[rows],
        outcomes=y[rows].astype(np.int8),
        strata=codes,
        stratum_labels=labels,
        features=tuple(
            value[rows] if col.kind == "numeric"
            else np.asarray([value[i] for i in take], dtype=object)
            for col, value in zip(schema.features, values)
        ),
    )
    return IngestResult(
        data=data,
        sample=SurveySample(ids=data.ids, weights=weights[rows], rows=np.arange(rows.size)),
        population=data if schema.weight_column is None else None,
        report=LoadReport(rows_read=n, rows_loaded=rows.size, dropped=dropped),
        table=table,
        file_rows=rows,
    )


def write_rows_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV; a Python float is written as its repr, at full precision."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_split_files(
    table: CsvTable,
    train_rows: Sequence[int],
    train_weights: Sequence[float],
    eval_rows: Sequence[int],
    eval_design_weights: Sequence[float],
    eval_compound_weights: Sequence[float],
    train_out: str | Path,
    eval_out: str | Path,
    weight_column: str | None,
) -> None:
    """Write train/eval CSVs holding rows of ``table`` as they were read.

    Both files carry a canonical ``weight`` column holding the design
    weight (appended unless ``weight_column``, the schema's weight column,
    is named ``weight``); the evaluation file additionally carries the
    compound weight in ``weight_eval``, so downstream evaluation needs no
    knowledge of the split fraction.  An input column of either name that
    would be written over is a SchemaError.  Weights are serialized at
    full precision.
    """
    if "weight_eval" in table.header:
        raise SchemaError("input file already has a 'weight_eval' column")
    append_weight = weight_column != "weight"
    if append_weight and "weight" in table.header:
        raise SchemaError(
            "input file has a 'weight' column that is not the schema's weight column "
            f"{weight_column!r}"
        )

    def rows_of(file_rows, *weight_columns):
        fields = [list(map(col.__getitem__, file_rows)) for col in table.columns]
        fields += [np.asarray(w, dtype=np.float64).tolist() for w in weight_columns]
        return zip(*fields)

    header = list(table.header) + (["weight"] if append_weight else [])
    design = (train_weights,) if append_weight else ()
    write_rows_csv(train_out, header, rows_of(train_rows, *design))
    design = (eval_design_weights,) if append_weight else ()
    write_rows_csv(
        eval_out, header + ["weight_eval"], rows_of(eval_rows, *design, eval_compound_weights)
    )


def read_predictions(path: str | Path) -> dict[str, float]:
    """Read an ``id,score`` CSV into a mapping; scores must lie in [0, 1].

    The first bad row in file order raises, with its first failing check.
    """

    def check_header(header):
        if header is None or not {"id", "score"} <= set(header):
            raise SchemaError(f"{path} must have 'id' and 'score' columns")

    table = _read_columns(path, check_header)
    named = table.named
    ids = list(map(str.strip, named["id"]))
    texts = list(map(str.strip, named["score"]))
    scores, blank, bad = _parse_floats(texts)
    blank |= _blank(ids)
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    duplicate = np.arange(table.size) > _first_rows(ids, range(table.size))
    failing = np.flatnonzero(blank | bad | outside | duplicate)
    if failing.size:
        i = int(failing[0])
        if blank[i]:
            raise DataValidationError(f"{path}: prediction row missing id or score")
        if bad[i]:
            raise DataValidationError(f"{path}: unparseable score {texts[i]!r}")
        if outside[i]:
            raise DataValidationError(f"{path}: score {float(scores[i])} outside [0, 1]")
        raise DataValidationError(f"{path}: duplicate prediction for id {ids[i]!r}")
    if not ids:
        raise DataValidationError(f"{path}: no predictions")
    return dict(zip(ids, scores.tolist()))


def write_predictions(path: str | Path, ids: Sequence[str], scores: Sequence[float]) -> None:
    write_rows_csv(path, ["id", "score"], zip(ids, np.asarray(scores, dtype=np.float64).tolist()))
