"""CSV ingestion and emission, and the JSON codec of settings and reports.

A CSV is read once, as one string column per header field, and each check
runs over whole columns.  Rows with missing or unparseable required fields
are dropped and counted in a load report rather than aborting the load.
Weights written back out use full precision (repr round trip), so split
files reproduce in-memory results exactly.
"""

from __future__ import annotations

import codecs
import collections.abc
import contextlib
import csv
import json
import operator
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, SchemaError
from .types import FEW_LEVELS, PROBE, FinitePopulation, SurveySample, repeated_ids


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


@contextlib.contextmanager
def _utf8_file(path: str | Path):
    """``path`` as a Path, for reading as UTF-8 text: a missing file, or a
    bad byte decoded within, is a DataValidationError naming it."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"file not found: {path}")
    try:
        yield path
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is not UTF-8 text: {exc.reason}") from exc


@contextlib.contextmanager
def _opened(path: str | Path):
    """A UTF-8 text file opened for reading, newlines kept as written and a
    leading byte-order mark dropped, as ``_utf8_file`` checks it."""
    with _utf8_file(path) as path, path.open(newline="", encoding="utf-8-sig") as fh:
        yield fh


def _text_pieces(path: str | Path, size: int = -1):
    """A UTF-8 text file's contents, decoded ``size`` bytes at a time (-1:
    all at once) by one decoder, so a character may span two reads; a
    leading byte-order mark is dropped, as ``_utf8_file`` checks it."""
    decoder = codecs.getincrementaldecoder("utf-8-sig")()
    with _utf8_file(path) as path, path.open("rb") as fh:
        for data in iter(lambda: fh.read(size), b""):
            yield decoder.decode(data)
        yield decoder.decode(b"", final=True)


# Data rows parsed at a time, and rows formatted and written at a time; a
# quote-free file is also read this many bytes at a time.
CHUNK_LINES = 65_536


class _NotPlain(Exception):
    """A text that ``csv.reader`` might not read as each line's split on ","."""


def _split_lines(text: str) -> list[str]:
    """``text``'s lines without their "\\n" or "\\r\\n" endings; _NotPlain
    at a "\\r" that does not end a "\\r\\n"."""
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        raise _NotPlain
    return text.split("\n")


def _line_lists(pieces, limit: int):
    """The lines of the text that ``pieces`` make up, a list per piece that
    ends a line; _NotPlain at a line longer than ``limit``, or as
    ``_split_lines``.  Only a piece longer than ``limit`` can hold such a
    line, so only such a piece's lines are measured."""
    rest = ""
    for piece in pieces:
        piece = rest + piece
        cut = piece.rfind("\n") + 1
        rest = piece[cut:]
        if len(rest) > limit:
            raise _NotPlain
        if cut:
            lines = _split_lines(piece[:cut])
            if cut > limit and max(map(len, lines)) > limit:
                raise _NotPlain
            yield lines
    yield _split_lines(rest)


def _chunks(rows):
    """``rows`` in lists of ``CHUNK_LINES``, blank rows left out."""
    rows = filter(None, rows)
    return iter(lambda: list(islice(rows, CHUNK_LINES)), [])


class _Lines:
    """Each line split on "," directly; a row's text is its line as written.

    ``read`` yields the header's fields, then chunks of data lines, or
    _NotPlain unless ``csv.reader`` would read each line so, into as many
    fields as the header has: every "\\r" ends a "\\r\\n", the header is
    not blank, a data line follows it, and no line is longer than
    ``csv.field_size_limit()``.  The caller checks for quotes and NUL
    (which ``csv`` rejects before Python 3.11).  Lines end at "\\n" alone,
    as in file iteration, not at the other ends ``str.splitlines`` knows.
    """

    @staticmethod
    def read(path):
        limit = csv.field_size_limit()
        lines = chain.from_iterable(_line_lists(_text_pieces(path, CHUNK_LINES), limit))
        header = next(lines)
        if not header:
            raise _NotPlain
        yield header.split(",")
        commas = {header.count(",")}
        chunk = None
        for chunk in _chunks(lines):
            if set(map(str.count, chunk, repeat(","))) != commas:
                raise _NotPlain
            yield chunk
        if chunk is None:  # no data line
            raise _NotPlain

    @staticmethod
    def fields(chunk: list[str], width: int):
        flat = ",".join(chunk).split(",")
        return lambda j: flat[j::width]

    @staticmethod
    def write(fh, rows: list[str], texts: list[list[str]]) -> None:
        # The trailing "" ends the last line too, and writes nothing for no rows.
        fh.write("\r\n".join(chain(map(",".join, zip(rows, *texts)), [""])))


class _Records:
    """Rows through ``csv.reader``, padded with "" or cut to the header's
    width; a row's text is what ``csv.writer`` writes of it.  ``read``
    yields the header (None for an empty file), then chunks of data rows.
    """

    @staticmethod
    def read(path):
        with _opened(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            yield header
            width, pad = len(header), [""] * len(header)
            for chunk in _chunks(reader):
                yield [row if len(row) == width else (row + pad)[:width] for row in chunk]

    @staticmethod
    def fields(chunk: list[list[str]], width: int):
        return list(zip(*chunk)).__getitem__

    @staticmethod
    def write(fh, rows: list[list[str]], texts: list[list[str]]) -> None:
        csv.writer(fh).writerows([*row, *ws] for row, *ws in zip(rows, *texts))


@dataclass(frozen=True)
class CsvTable:
    """A CSV file as read: its header, its number of data rows, and the
    splitter (``_Lines`` or ``_Records``) that read them."""

    header: tuple[str, ...]
    size: int
    splitter: type


class _Columns:
    """The columns ``kinds`` names, parsed a chunk of data rows at a time
    and collected per chunk into whole-file columns.

    A "float" column reads as ``_parse_floats`` reads it; a "text" column
    as its stripped cells; a "code" column as int32 codes of its stripped
    cells into a dict of the distinct cells, in order of first appearance.
    A name the header repeats reads its last column, as ``csv.DictReader``
    does.
    """

    def __init__(self, header: Sequence[str], kinds: Mapping[str, str]):
        where = {name: j for j, name in enumerate(header)}
        self.fields = [(name, where[name], kind) for name, kind in kinds.items()]
        self.size = 0
        self.parsed = {}  # part lists start with an empty part: no data rows join to empty columns
        for name, _, kind in self.fields:
            if kind == "float":
                self.parsed[name] = tuple([np.empty(0, t)] for t in (np.float64, bool, bool))
            elif kind == "code":
                self.parsed[name] = ([np.empty(0, np.int32)], {})
            else:
                self.parsed[name] = []

    def add(self, count: int, column) -> None:
        """Parse the next ``count`` rows, whose cells of field j are ``column(j)``."""
        for name, j, kind in self.fields:
            out, cells = self.parsed[name], column(j)
            if kind == "float":
                for parts, part in zip(out, _parse_floats(cells)):
                    parts.append(part)
            elif kind == "code":
                parts, index = out
                codes = {cell: index.setdefault(cell.strip(), len(index))
                         for cell in dict.fromkeys(cells)}
                parts.append(np.fromiter(map(codes.__getitem__, cells), np.int32, count))
            else:
                out.extend(map(str.strip, cells))
        self.size += count

    def result(self) -> dict:
        """Each name's parsed column, its chunks joined one column at a time."""
        out = {}
        for name, _, kind in self.fields:
            parsed = self.parsed.pop(name)
            if kind == "float":
                parsed = tuple(map(np.concatenate, parsed))
            elif kind == "code":
                parsed = (np.concatenate(parsed[0]), parsed[1])
            out[name] = parsed
        return out


def _read_columns(path: str | Path, check_header,
                  kinds: Mapping[str, str]) -> tuple[CsvTable, dict]:
    """Read a CSV: its table and its ``kinds`` columns (see ``_Columns``).

    A first pass decodes the whole file and looks for quotes and NUL, so a
    bad byte is reported before ``check_header`` sees the header row (None
    for an empty file), even when it is blank.
    A second pass parses the data rows ``CHUNK_LINES`` at a time, split on
    "," directly by ``_Lines`` when ``csv.reader`` would read them so, and
    by ``_Records`` otherwise.  Blank data rows are skipped.  A short row
    reads "" in the fields it lacks, and fields past the header are ignored.
    """
    plain = True
    for piece in _text_pieces(path, CHUNK_LINES):
        plain = plain and '"' not in piece and "\0" not in piece
    for splitter in (_Lines, _Records) if plain else (_Records,):
        rows = splitter.read(path)
        try:
            header = next(rows)
            check_header(header)
            columns = _Columns(header, kinds)
            for chunk in rows:
                columns.add(len(chunk), splitter.fields(chunk, len(header)))
        except _NotPlain:
            continue
        except csv.Error as exc:
            raise DataValidationError(f"{path}: {exc}") from exc
        return CsvTable(tuple(header), columns.size, splitter), columns.result()


def read_json(path: str | Path, what: str):
    """A UTF-8 JSON file's value (a leading byte-order mark is dropped).

    Malformed JSON raises SchemaError naming ``what`` and the path; a
    missing file or undecodable bytes raise DataValidationError.
    """
    try:
        return json.loads("".join(_text_pieces(path)))
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

    Numbers go through ``int()`` or ``float()``, but a JSON boolean or
    string is no number and a fractional number no ``int``; a ``bool`` must
    be a JSON boolean and a ``str`` a string.  A dataclass with a
    ``from_json_dict`` classmethod reads itself, any other is read field by
    field, and a union of dataclasses takes the member whose class-level
    ``kind`` the object names.  Any other union of several types, and a bare ``dict``, pass as
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
    if hint is bool:
        return expect(value, bool, "true or false")
    if hint in (int, float):
        if isinstance(value, (bool, str)):
            raise SchemaError(f"expected a number, got {type(value).__name__}")
        number = hint(value)
        if hint is int and isinstance(value, float) and number != value:
            raise SchemaError(f"expected an integer, got {value!r}")
        return number
    return value


def check_keys(payload: dict, known, where: str = "") -> None:
    """SchemaError, after ``where``, naming the first key of ``payload`` not in ``known``."""
    for key in payload:
        if key not in known:
            raise SchemaError(f"{where}unknown key {key!r}")


# Field types per dataclass, resolved once: ``get_type_hints`` evaluates
# every annotation anew on each call.
_type_hints = cache(typing.get_type_hints)


def read_fields(cls, payload):
    """The dataclass ``cls`` from a JSON object, field by field under the
    keys :func:`to_json` writes; a missing key takes the field's default,
    and is a SchemaError without one, as is a key no field or ``kind`` reads."""
    expect(payload, dict, f"a JSON object for {cls.__name__}")
    keys = {f.metadata.get("json", f.name): f for f in fields(cls)}
    check_keys(payload, [*keys, "kind"] if hasattr(cls, "kind") else keys)
    hints = _type_hints(cls)
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
    row of ``table`` each loaded record came from, ascending.
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
    which cells are blank and which do not parse.  A few-valued column
    (see ``types.FEW_LEVELS``) calls ``float()`` once per distinct text."""
    n = len(texts)
    try:
        if len(set(texts[:PROBE])) <= FEW_LEVELS:
            parsed = {text: float(text) for text in set(texts)}
            values = np.fromiter(map(parsed.__getitem__, texts), dtype=np.float64, count=n)
        else:
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


def _first_appearance(codes: np.ndarray, index: Mapping[str, int]):
    """``codes`` into the labels of ``index`` recoded into the labels they
    use, in order of first appearance."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    recode = np.zeros(len(index), dtype=np.int32)
    recode[order] = np.arange(order.size)
    labels = list(index)
    return recode[codes], tuple(labels[k] for k in order.tolist())


def ingest_csv(path: str | Path, schema: DataSchema) -> IngestResult:
    """Load a survey CSV into columns plus a weighted sample.

    Rows missing any required field, with a non-binary outcome, an
    unparseable feature, or a non-positive weight are dropped and counted
    by reason.  A row's reason is its first failing check, in the order
    id, duplicate id, outcome, weight, stratum, then each feature; a row
    is a duplicate when an earlier row with its id was loaded.  Reasons
    are counted in order of first occurrence.
    """
    table, report, rows, loaded, weights = _load_rows(path, schema)
    data = FinitePopulation(**loaded)
    return IngestResult(
        data=data,
        sample=SurveySample(ids=data.ids, weights=weights, rows=np.arange(rows.size)),
        report=report,
        table=table,
        file_rows=rows,
    )


def _load_rows(path, schema: DataSchema):
    """``ingest_csv``'s read and row checks: the table, the load report, the
    loaded rows, their ``FinitePopulation`` fields and their weights.  The
    whole-file columns die with this call, before the population is built."""

    def check_header(header):
        if header is None:
            raise DataValidationError(f"{path} has no header row")
        missing = [c for c in schema.required_columns if c not in header]
        if missing:
            raise SchemaError(f"{path} lacks schema columns: {missing}")
        repeated = [c for c in schema.required_columns if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"{path} repeats schema columns: {repeated}")

    wanted = {schema.id_column: "text", schema.outcome_column: "float"}
    if schema.weight_column is not None:
        wanted[schema.weight_column] = "float"
    if schema.stratum_column is not None:
        wanted[schema.stratum_column] = "code"
    for col in schema.features:
        wanted[col.name] = "float" if col.kind == "numeric" else "text"
    table, cols = _read_columns(path, check_header, wanted)
    n = table.size
    ids = cols[schema.id_column]
    checks = [("missing id", _blank(ids))]  # (reason, failing rows), in check order
    y, blank, _ = cols[schema.outcome_column]
    checks += [("missing outcome", blank), ("non-binary outcome", (y != 0) & (y != 1))]
    if schema.weight_column is not None:
        weights, blank, bad = cols[schema.weight_column]
        checks += [
            ("missing weight", blank),
            ("unparseable weight", bad),
            ("non-positive weight", ~(np.isfinite(weights) & (weights > 0))),
        ]
    else:
        weights = np.ones(n)
    if schema.stratum_column is not None:
        strata, index = cols[schema.stratum_column]
        checks.append(("missing stratum", strata == index.get("", -1)))
    for col in schema.features:
        if col.kind == "numeric":
            value, blank, bad = cols[col.name]
            checks += [
                (f"missing feature {col.name}", blank),
                (f"unparseable feature {col.name}", bad),
                (f"non-finite feature {col.name}", ~np.isfinite(value)),
            ]
        else:
            checks.append((f"missing feature {col.name}", _blank(cols[col.name])))

    # Each id's first row passing every other check is loaded; any later
    # row with that id is a duplicate, whatever else is wrong with it.
    valid = np.flatnonzero(~np.logical_or.reduce([failing for _, failing in checks]))
    checks.insert(1, ("duplicate id", repeated_ids(ids, valid)))

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
    if schema.stratum_column is not None:
        codes, labels = _first_appearance(strata[rows], index)
    else:
        codes, labels = np.zeros(rows.size, dtype=np.int32), ("",)
    loaded = dict(
        ids=np.asarray(ids, dtype=object)[rows],
        outcomes=y[rows].astype(np.int8),
        strata=codes,
        stratum_labels=labels,
        features=tuple(
            cols[col.name][0][rows] if col.kind == "numeric"
            else np.asarray(cols[col.name], dtype=object)[rows]
            for col in schema.features
        ),
    )
    report = LoadReport(rows_read=n, rows_loaded=rows.size, dropped=dropped)
    return table, report, rows, loaded, weights[rows]


def write_rows_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV; a Python float is written as its repr, at full precision."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each float: once per distinct bit pattern (so -0.0 and
    0.0 keep their own text) when at most half the values are distinct,
    otherwise once per value."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if 2 * bits.size > values.size:
        return list(map(repr, values.tolist()))
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def _write_float_rows(
    path: str | Path,
    header: Sequence[str],
    floats: Sequence[Sequence[float]],
    lead: list[str] | None = None,
) -> None:
    """Write ``header``, then per row ``lead``'s entry (when given) and each
    float column's ``repr``, with the bytes ``csv.writer`` writes.

    ``lead`` holds each row's leading fields as CSV text already.  Lines
    are joined and written ``CHUNK_LINES`` rows at a time.
    """
    floats = [np.ascontiguousarray(c, dtype=np.float64) for c in floats]
    n = len(lead) if lead is not None else len(floats[0])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n, CHUNK_LINES):
            rows = slice(start, start + CHUNK_LINES)
            columns = [_float_texts(c[rows]) for c in floats]
            if lead is not None:
                columns.insert(0, lead[rows])
            _Lines.write(fh, columns[0], columns[1:])


def write_split_files(
    path: str | Path,
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
    """Write train/eval CSVs holding the data rows ``train_rows`` and
    ``eval_rows`` (ascending rows of ``table``) of the CSV at ``path`` as
    they were read, in file order, reading the file once more with the
    splitter that read ``table``.

    Both files carry a canonical ``weight`` column holding the design
    weight (appended unless ``weight_column``, the schema's weight column,
    is named ``weight``); the evaluation file additionally carries the
    compound weight in ``weight_eval``, so downstream evaluation needs no
    knowledge of the split fraction.  An input column of either name that
    would be written over is a SchemaError.  Weights are serialized at
    full precision.  A file whose header or number of data rows is no
    longer ``table``'s is a DataValidationError naming it, and neither
    output is left behind.
    """
    if "weight_eval" in table.header:
        raise SchemaError("input file already has a 'weight_eval' column")
    append_weight = weight_column != "weight"
    if append_weight and "weight" in table.header:
        raise SchemaError(
            "input file has a 'weight' column that is not the schema's weight column "
            f"{weight_column!r}"
        )
    header = list(table.header) + (["weight"] if append_weight else [])
    design = (train_weights,) if append_weight else ()
    eval_design = (eval_design_weights,) if append_weight else ()
    files = [(train_out, header, design),
             (eval_out, header + ["weight_eval"], (*eval_design, eval_compound_weights))]
    dest = np.zeros(table.size, dtype=np.int8)  # per data row: 1 train, 2 eval, 0 neither
    dest[np.asarray(train_rows, dtype=np.intp)] = 1
    dest[np.asarray(eval_rows, dtype=np.intp)] = 2
    with contextlib.ExitStack() as stack:
        outs = []
        for out, head, weights in files:
            fh = stack.enter_context(Path(out).open("w", newline="", encoding="utf-8"))
            csv.writer(fh).writerow(head)
            outs.append((fh, [np.ascontiguousarray(w, dtype=np.float64) for w in weights]))
        size = _copy_rows(path, table, dest, outs)
    if size != table.size:
        for out, _, _ in files:
            Path(out).unlink()
        raise DataValidationError(f"{path} changed while split was reading it")


def _copy_rows(path, table: CsvTable, dest: np.ndarray, outs) -> int | None:
    """Write data row i of the CSV at ``path`` to ``outs[dest[i] - 1]``
    (none at 0) with that output's next weights: the rows read, or None
    when the header is not ``table``'s or its splitter fails."""
    rows = table.splitter.read(path)
    try:
        if next(rows) != list(table.header):
            return None
        start, taken = 0, [0] * len(outs)
        for chunk in rows:
            part = dest[start:start + len(chunk)]
            for k, (fh, weights) in enumerate(outs):
                picks = np.flatnonzero(part == k + 1).tolist()
                done = slice(taken[k], taken[k] + len(picks))
                texts = [_float_texts(w[done]) for w in weights]
                table.splitter.write(fh, list(map(chunk.__getitem__, picks)), texts)
                taken[k] = done.stop
            start += len(chunk)
        return start
    except (_NotPlain, csv.Error, DataValidationError):  # the last: gone, or not UTF-8
        return None


def read_predictions(path: str | Path) -> dict[str, float]:
    """Read an ``id,score`` CSV into a mapping; scores must lie in [0, 1].

    The first bad row in file order raises, with its first failing check.
    """

    def check_header(header):
        if header is None or not {"id", "score"} <= set(header):
            raise SchemaError(f"{path} must have 'id' and 'score' columns")

    table, cols = _read_columns(path, check_header, {"id": "text", "score": "text"})
    ids, texts = cols["id"], cols["score"]
    scores, blank, bad = _parse_floats(texts)
    blank |= _blank(ids)
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    duplicate = repeated_ids(ids)
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
    """Write an ``id,score`` CSV, through ``csv.writer`` when an id needs quoting."""
    ids = list(ids)
    if any(c in "".join(ids) for c in ',"\r\n'):
        write_rows_csv(path, ["id", "score"], zip(ids, np.asarray(scores, np.float64).tolist()))
    else:
        _write_float_rows(path, ["id", "score"], [scores], ids)


def write_roc(path: str | Path, curve) -> None:
    """Write an ROC curve's thresholds, sensitivity, specificity and fpr."""
    columns = (curve.thresholds, curve.sensitivity, curve.specificity, curve.fpr)
    _write_float_rows(path, ["threshold", "sensitivity", "specificity", "fpr"], columns)
