"""CSV ingestion and emission, and the JSON codec of settings and reports.

A CSV is read once, as one string column per header field, and each check
runs over whole columns.  Rows with missing or unparseable required fields
are dropped and counted in a load report rather than aborting the load.
Weights written back out use full precision (repr round trip), so split
files reproduce in-memory results exactly.
"""

from __future__ import annotations

import collections.abc
import csv
import io
import json
import operator
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from itertools import islice, repeat, zip_longest
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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

    id_column: str = field(metadata={"json": "id"})
    outcome_column: str = field(metadata={"json": "outcome"})
    weight_column: str | None = field(default=None, metadata={"json": "weight"})
    stratum_column: str | None = field(default=None, metadata={"json": "stratum"})
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


def _read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, newlines kept as written; a leading
    byte-order mark is dropped."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _plain_lines(text: str) -> list[str] | None:
    """The header line and the non-blank data lines of ``text``, without
    their endings, when ``csv.reader`` reads each one as its split on ","
    into as many fields as the header has; otherwise None.

    A line reads as its split when the text has no quote character and no
    NUL (which ``csv`` rejects before Python 3.11), every "\\r" ends a
    "\\r\\n", and no line is longer than ``csv.field_size_limit()``.  Lines
    end at "\\n" alone, as in file iteration: ``str.splitlines`` would also
    end them at "\\v", "\\f", "\\x1c" to "\\x1e", "\\x85", "\\u2028" and
    "\\u2029".  A text with no header, a blank one or no data line is
    None too.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if not text or text[0] == "\n":
        return None
    lines = list(filter(None, text.split("\n")))
    if len(lines) < 2 or len(set(map(str.count, lines, repeat(",")))) > 1:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


@dataclass(frozen=True)
class CsvTable:
    """A CSV file as read: its header, one string column per header field,
    and the number of data rows.

    ``lines`` holds each data row as written, without its line ending,
    when the file was split on "," directly; otherwise it is None.
    """

    header: tuple[str, ...]
    columns: tuple[Sequence[str], ...]
    size: int
    lines: tuple[str, ...] | None = None

    @property
    def named(self) -> dict[str, Sequence[str]]:
        """Each header name's last column, as ``csv.DictReader`` reads it."""
        return dict(zip(self.header, self.columns))


def _read_columns(path: str | Path, check_header) -> CsvTable:
    """Read a CSV once, as string columns.

    The first row is the header, even when it is blank, and
    ``check_header`` sees it (None for an empty file) before any data row
    is read.  Blank data rows are skipped.  A short row reads "" in the
    fields it lacks, and fields past the header are ignored.  A file
    without quoting whose data rows all have the header's width is split
    on "," directly; any other goes through ``csv.reader``.
    """
    text = _read_text(path)
    lines = _plain_lines(text)
    if lines is not None:
        header = lines.pop(0).split(",")
        check_header(header)
        width = len(header)
        flat = ",".join(lines).split(",")
        columns = tuple(flat[j::width] for j in range(width))
        return CsvTable(tuple(header), columns, len(lines), tuple(lines))
    reader = csv.reader(io.StringIO(text, newline=""))
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
    """A UTF-8 JSON file's value (a leading byte-order mark is dropped).

    Malformed JSON raises SchemaError naming ``what`` and the path; a
    missing file or undecodable bytes raise DataValidationError.
    """
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def to_json(value):
    """A settings or report value as JSON.

    A dataclass becomes an object of its fields, each under its metadata
    ``json`` key or its name, plus a class-level ``kind`` that is not a
    field; a tuple or list becomes a list, and a mapping a dict.
    """
    if is_dataclass(value):
        out = {f.metadata.get("json", f.name): to_json(getattr(value, f.name))
               for f in fields(value)}
        if "kind" not in out and hasattr(value, "kind"):
            out["kind"] = value.kind
        return out
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {k: to_json(v) for k, v in value.items()}
    return value


def expect(value, kind, what: str):
    """``value``, when it is a ``kind``; otherwise a SchemaError naming ``what``."""
    if not isinstance(value, kind):
        raise SchemaError(f"expected {what}, got {type(value).__name__}")
    return value


def from_json(hint, value):
    """Read a JSON value as the field type ``hint``.

    Numbers go through ``int()``, ``float()`` or ``bool()``, and a ``str``
    must be one already.  A dataclass with a ``from_json_dict`` classmethod
    reads itself, any other is read field by field, and a union of
    dataclasses takes the member whose class-level ``kind`` the object
    names.  Any other union of several types, and a bare ``dict``, pass as
    given.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        read = getattr(hint, "from_json_dict", None)
        return read(value) if read else read_fields(hint, value)
    if origin in (typing.Union, types.UnionType):
        options = [a for a in args if a is not type(None)]
        if value is None and len(options) < len(args):
            return None
        if len(options) == 1:
            return from_json(options[0], value)
        if not all(map(is_dataclass, options)):
            return value
        kinds = {c.kind: c for c in options}
        kind = expect(value, dict, "a JSON object").get("kind")
        if kind not in kinds:
            raise SchemaError(f"unknown kind {kind!r}; expected one of {', '.join(kinds)}")
        return from_json(kinds[kind], value)
    if origin is tuple:
        items = expect(value, (list, tuple), "a list")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(items)
        if len(args) != len(items):
            raise SchemaError(f"expected a list of {len(args)} values, got {len(items)}")
        return tuple(map(from_json, args, items))
    if origin is collections.abc.Mapping:
        items = expect(value, dict, "a JSON object").items()
        return {from_json(args[0], k): from_json(args[1], v) for k, v in items}
    if hint is str:
        return expect(value, str, "a string")
    return hint(value) if hint in (int, float, bool) else value


def check_keys(payload: dict, known, where: str = "") -> None:
    """SchemaError, after ``where``, naming the first key of ``payload`` not in ``known``."""
    for key in payload:
        if key not in known:
            raise SchemaError(f"{where}unknown key {key!r}")


def read_fields(cls, payload):
    """The dataclass ``cls`` from a JSON object, field by field under the
    keys :func:`to_json` writes; a missing key takes the field's default,
    and is a SchemaError without one, as is a key no field or ``kind`` reads."""
    expect(payload, dict, f"a JSON object for {cls.__name__}")
    keys = {f.metadata.get("json", f.name): f for f in fields(cls)}
    check_keys(payload, [*keys, "kind"] if hasattr(cls, "kind") else keys)
    hints = typing.get_type_hints(cls)
    values = {}
    for key, f in keys.items():
        if key in payload:
            try:
                values[f.name] = from_json(hints[f.name], payload[key])
            except (SchemaError, TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"{key}: {exc}") from exc
        elif f.default is MISSING:
            raise SchemaError(f"missing key {key!r}")
    return cls(**values)


def load_schema(path: str | Path) -> DataSchema:
    payload = read_json(path, "schema file")
    try:
        return from_json(DataSchema, payload)
    except SchemaError as exc:
        raise SchemaError(f"schema file {path}: {exc}") from exc


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
    the same ids with their weights (1 without a weight column) and their
    rows of ``data``.  ``table`` is the file as read, and ``file_rows`` the
    row of ``table`` each loaded record came from.
    """

    data: FinitePopulation
    sample: SurveySample
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

    def write(path, header, file_rows, *weight_columns):
        weights = [np.asarray(w, dtype=np.float64).tolist() for w in weight_columns]
        if table.lines is None:
            fields = [list(map(col.__getitem__, file_rows)) for col in table.columns]
            write_rows_csv(path, header, zip(*fields, *weights))
            return
        # No field of a plain line needs quoting, so the line as read is
        # what ``csv.writer`` would write for its fields.
        line_format = "{}" + ",{!r}" * len(weights) + "\r\n"
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(header)
            fh.writelines(
                map(line_format.format, map(table.lines.__getitem__, file_rows), *weights)
            )

    header = list(table.header) + (["weight"] if append_weight else [])
    design = (train_weights,) if append_weight else ()
    write(train_out, header, train_rows, *design)
    design = (eval_design_weights,) if append_weight else ()
    write(eval_out, header + ["weight_eval"], eval_rows, *design, eval_compound_weights)


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
