"""Reports derived from one declaration per record: JSON schemas, CSV
columns, the pass verdict of every record and the JSON and CSV writers.

A record is declared as a :class:`Record` of :class:`Field` s.  Records
travel as column chunks: dicts that map the dotted path of every declared
field that is not a record ("index", "charts.I.unitarity",
"point.w.coeffs") to a sequence with one value per record.  A list-valued
field holds one list per record; a list of records holds one column dict
per record, the columns of its items, as the records themselves are held.
Null is None, or NaN in a float array, which has no None.  A nullable
nested record also has a column at its own path, true where the object is
present; where it is absent its fields are neither judged nor written.

:func:`judge` gives every record of a chunk its ``pass`` as array
comparisons, one per declared residual.  :func:`json_chunk` and
:func:`csv_chunk` write a chunk, column by column, as the next piece of a
report; the pieces together are the bytes that ``json.dumps(report,
indent=2, sort_keys=True)`` writes, or the CSV rows of the records.
"""

from __future__ import annotations

import dataclasses
import functools
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Optional

import numpy as np

from .config import Tolerances

__all__ = [
    "SCHEMA_VERSION",
    "NUM",
    "INT",
    "BOOL",
    "Record",
    "Field",
    "Report",
    "schema",
    "csv_columns",
    "transpose",
    "judge",
    "json_value",
    "json_chunk",
    "csv_chunk",
]

SCHEMA_VERSION = 2
NUM, INT, BOOL = "number", "integer", "boolean"


class Record:
    """A JSON object made of declared :class:`Field` s.  ``norm`` gives the
    size of every record's Hamiltonian, ||H||, from a column chunk of the
    records; the residuals declared ``rel`` are held to their tolerance
    times it."""

    def __init__(self, *fields: "Field", norm: Optional[Callable] = None):
        self.fields = fields
        self.norm = norm
        self.has_pass = any(f.name == "pass" for f in fields)
        self.json = sorted((f for f in fields if f.json), key=lambda f: f.name)
        self.rows = next((f for f in fields if f.rows), None)


@dataclasses.dataclass(frozen=True)
class Field:
    """One report field.

    ``kind`` is a JSON type name, a tuple of allowed values, ``[item]`` for
    an array of ``item``, or a :class:`Record`.  ``null`` lets the value be
    null (a check that does not apply).  A residual names the
    :class:`~hjc.config.Tolerances` field it must stay within (``tol``),
    times the enclosing record's ||H|| when ``rel`` is set: a residual of H
    itself, which a backward-stable product or eigensolver leaves at about
    eps ||H||.  ``ok`` is a structural verdict on the value.  ``csv`` is the
    CSV column, or the column prefix of a nested record: True uses the
    field name (``name_`` as a prefix), False leaves the field out.  With
    ``rows`` every item of the field becomes one CSV row after the record's
    own columns; the items of a record are keyed by field name in the
    column ``csv``.  ``json`` False keeps a CSV-only column out of the JSON
    record.
    """

    name: str
    kind: object
    null: bool = False
    tol: Optional[str] = None
    rel: bool = False
    ok: Optional[Callable] = None
    csv: object = True
    rows: bool = False
    json: bool = True


def schema(kind, null: bool = False) -> dict:
    """JSON schema of a declared kind; every field of a record is required."""
    if isinstance(kind, Record):
        props = {f.name: schema(f.kind, f.null) for f in kind.fields if f.json}
        out = {"type": "object", "required": list(props), "properties": props}
    elif isinstance(kind, list):
        out = {"type": "array", "items": schema(kind[0])}
    elif isinstance(kind, tuple):
        return {"enum": list(kind) + [None] * null}
    else:
        out = {"type": kind}
    if null:
        out["type"] = [out["type"], "null"]
    return out


@functools.cache
def _csv_leaves(rec: Record, prefix: str = "") -> tuple:
    """(column path, CSV column name, field, presence path) of every CSV
    column of a record's own row, nested records flattened; the presence
    path is that of the nearest nullable record around the field, if any.
    ``prefix`` is the path of the record."""
    out = []

    def walk(rec, path, name, present):
        for f in rec.fields:
            if f.csv is False or f.rows:
                continue
            col = name + (f.name if f.csv is True else f.csv)
            if isinstance(f.kind, Record):
                inner = col + "_" if f.csv is True else col
                walk(f.kind, f"{path}{f.name}.", inner, path + f.name if f.null else present)
            else:
                out.append((path + f.name, col, f, present))

    walk(rec, prefix, "", None)
    return tuple(out)


@functools.cache
def csv_columns(rec: Record) -> tuple:
    """The CSV columns of a record: its own, then those of the items of
    its ``rows`` field, if any."""
    names = tuple(leaf[1] for leaf in _csv_leaves(rec))
    expand = rec.rows
    if expand is None:
        return names
    if isinstance(expand.kind, Record):
        return names + (expand.csv,) + tuple(leaf[1] for leaf in _csv_leaves(expand.kind.fields[0].kind))
    return names + csv_columns(expand.kind[0])


# ---------------------------------------------------------------------------
# The judge


def _values(col) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else col


def transpose(items: list) -> dict:
    """Columns of a non-empty list of flat records given as dicts."""
    return {k: [item[k] for item in items] for k in items[0]}


def _within(f: Field, col, limit):
    """Whether each value of a residual column is null or at most its
    limit."""
    if isinstance(col, np.ndarray):
        good = col <= limit
        return good | np.isnan(col) if f.null else good
    limits = limit.tolist() if isinstance(limit, np.ndarray) else [limit] * len(col)
    return [v is None or v <= lim for v, lim in zip(col, limits)]


def judge(rec: Record, cols: dict, tol: Tolerances, norm=None, prefix: str = "") -> np.ndarray:
    """Whether each record of a column chunk passes: every non-null
    residual within its tolerance (times ||H|| where declared ``rel``),
    every verdict true and every present nested record passing.  Stores
    the verdict as the ``pass`` column of every record that declares one.
    ``norm`` and ``prefix`` are the ||H|| column and the path of a nested
    record."""
    if rec.norm is not None:
        norm = np.asarray(rec.norm(cols), dtype=float)
    checks = [np.ones(len(next(iter(cols.values()))), dtype=bool)]
    for f in rec.fields:
        path = prefix + f.name
        if isinstance(f.kind, Record):
            good = judge(f.kind, cols, tol, norm, path + ".")
            checks.append(good | ~np.asarray(cols[path], dtype=bool) if f.null else good)
        elif f.tol is not None:
            checks.append(_within(f, cols[path], getattr(tol, f.tol) * (norm if f.rel else 1.0)))
        elif f.ok is not None:
            checks.append([bool(f.ok(v)) for v in cols[path]])
    ok = np.logical_and.reduce(checks)
    if rec.has_pass:
        cols[prefix + "pass"] = ok
    return ok


# ---------------------------------------------------------------------------
# The writers


@dataclasses.dataclass
class Report:
    """The envelope of one report, with the records and failures it has
    written so far."""

    command: str
    seed: int
    params: dict
    records: int = 0
    failures: int = 0


# float.__repr__ of the values JSON spells differently; in a nullable
# float array NaN is null
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_NULLABLE = {**_JSON_FLOATS, "nan": "null"}


def _json_write(x, out: list, nl: str) -> None:
    """Append the JSON text of ``x`` to ``out`` as ``json.dumps(x, indent=2,
    sort_keys=True)`` writes it, ``nl`` being the newline and indent of the
    line ``x`` starts on.  Numpy scalars and arrays are written as their
    ``item()`` / ``tolist()``."""
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep)
            out.append(_encode_str(k))
            out.append(": ")
            _json_write(x[k], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _json_write(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, str):
        out.append(_encode_str(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        r = float.__repr__(x)
        out.append(_JSON_FLOATS.get(r, r))
    elif isinstance(x, np.ndarray):
        _json_write(x.tolist(), out, nl)
    elif isinstance(x, (np.floating, np.integer)) and isinstance(x.item(), (int, float)):
        _json_write(x.item(), out, nl)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# JSON text of a scalar, by its exact type
_JSON_SCALARS = {
    float: lambda v: _JSON_FLOATS.get(r := float.__repr__(v), r),
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    str: _encode_str,
    type(None): lambda v: "null",
}


def json_value(x, nl: str = "\n") -> str:
    """The JSON text of a value the declaration does not describe (the
    params, the items of a list), as ``json.dumps(x, indent=2,
    sort_keys=True)`` writes it on a line that starts with ``nl``."""
    scalar = _JSON_SCALARS.get(type(x))
    if scalar is not None:
        return scalar(x)
    out = []
    _json_write(x, out, nl)
    return "".join(out)


def _json_array(texts: list, nl: str) -> str:
    """A JSON array of the item texts, ``nl`` the newline and indent of
    the line it starts on."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _json_floats(null: bool):
    floats = _JSON_NULLABLE if null else _JSON_FLOATS
    return lambda values: [floats.get(r, r) for r in map(float.__repr__, values)]


# JSON text of the values of a numpy array, by dtype kind; an object array
# holds strings
_JSON_ARRAYS = {
    "f": _json_floats(False),
    "b": lambda values: ["true" if v else "false" for v in values],
    "i": lambda values: list(map(int.__repr__, values)),
    "O": lambda values: list(map(_encode_str, values)),
}


def _json_values(values) -> list:
    return [json_value(v) for v in values]


def _json_column(f: Field, col, nl: str) -> list:
    """JSON text of every value of a column, ``nl`` the newline and indent
    of the values' lines."""
    item = f.kind[0] if isinstance(f.kind, list) else None
    if isinstance(item, Record):
        return [_json_array(_json_objects(item, v, nl + "  "), nl) for v in col]
    if isinstance(col, np.ndarray):
        texts = _json_floats(True) if f.null and col.dtype.kind == "f" else _JSON_ARRAYS[col.dtype.kind]
    else:
        texts = _json_values
    if item is None:
        return texts(_values(col))
    return [_json_array(texts(v), nl) for v in _values(col)]


@functools.cache
def _json_template(rec: Record, nl: str) -> str:
    """The %-template of the JSON object of a record that starts on a line
    ``nl``, one ``%s`` per field."""
    keys = [_encode_str(f.name).replace("%", "%%") + ": %s" for f in rec.json]
    return "{" + nl + "  " + ("," + nl + "  ").join(keys) + nl + "}"


def _json_objects(rec: Record, cols: dict, nl: str, prefix: str = "") -> list:
    """JSON text of the record of every row of the columns, ``nl`` the
    newline and indent of the line each starts on; ``prefix`` is the path
    of a nested record."""
    inner = nl + "  "
    values = []
    for f in rec.json:
        path = prefix + f.name
        if isinstance(f.kind, Record):
            texts = _json_objects(f.kind, cols, inner, path + ".")
            if f.null:
                texts = [t if present else "null" for t, present in zip(texts, _values(cols[path]))]
        else:
            texts = _json_column(f, cols[path], inner)
        values.append(texts)
    template = _json_template(rec, nl)
    return [template % row for row in zip(*values)]


_RECORD_NL = "\n" + 4 * " "  # a record of the "records" array


def json_chunk(rec: Record, report: Report, cols: Optional[dict] = None) -> str:
    """The JSON text of the next chunk of the report's records, given as
    columns; the head of the report comes before the first chunk.  Without
    columns: the rest of the report, after the last chunk."""
    out = []
    if report.records == 0:
        out += ['{\n  "command": ', _encode_str(report.command), ',\n  "params": ', json_value(report.params, "\n  ")]
        out.append(',\n  "records": ')
    if cols is not None:
        records = _json_objects(rec, cols, _RECORD_NL)
        out.append(("[" if report.records == 0 else ",") + _RECORD_NL + ("," + _RECORD_NL).join(records))
        return "".join(out)
    summary = {"failures": report.failures, "passed": report.failures == 0, "records": report.records}
    out.append("[]" if report.records == 0 else "\n  ]")
    out.append(f',\n  "schema": {SCHEMA_VERSION},\n  "seed": {report.seed},\n  "summary": ')
    out.append(json_value(summary, "\n  ") + "\n}\n")
    return "".join(out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


# CSV cells of the values of a numpy array, by dtype kind
_CSV_ARRAYS = {
    "f": lambda values: list(map("{:.17g}".format, values)),
    "b": lambda values: ["true" if v else "false" for v in values],
    "i": lambda values: list(map(str, values)),
    "O": lambda values: list(map(str, values)),
}


def _csv_column(f: Field, col, present=None) -> list:
    """CSV cells of every value of a column; empty where it is null, or
    where the nullable record around it is absent (``present`` false)."""
    if isinstance(col, np.ndarray):
        cells = _CSV_ARRAYS[col.dtype.kind](col.tolist())
        if f.null and col.dtype.kind == "f":
            cells = [c if c != "nan" else "" for c in cells]
    else:
        cells = [_csv_cell(v) for v in col]
    if present is None:
        return cells
    return [c if p else "" for c, p in zip(cells, _values(present))]


def _csv_rows(rec: Record, cols: dict, prefix: str = "") -> list:
    """The CSV rows of the records of a column chunk; ``prefix`` is the
    path of a nested record."""
    cells = [_csv_column(f, cols[path], present and cols[present]) for path, _, f, present in _csv_leaves(rec, prefix)]
    rows = [",".join(row) for row in zip(*cells)]
    expand = rec.rows
    if expand is None:
        return rows
    if isinstance(expand.kind, Record):
        parts = [(f.name, _csv_rows(f.kind, cols, f"{prefix}{expand.name}.{f.name}.")) for f in expand.kind.fields]
        return [f"{row},{name},{sub[i]}" for i, row in enumerate(rows) for name, sub in parts]
    item = expand.kind[0]
    return [f"{row},{sub}" for row, items in zip(rows, cols[prefix + expand.name]) for sub in _csv_rows(item, items)]


def csv_chunk(rec: Record, report: Report, cols: Optional[dict] = None) -> str:
    """The CSV text of the next chunk of the report's records, given as
    columns; the header lines come before the first chunk.  Without
    columns: the (empty) rest of the report."""
    head = ""
    if report.records == 0:
        lines = [
            f"# schema: {SCHEMA_VERSION}",
            f"# command: {report.command}",
            f"# seed: {report.seed}",
            "# params: " + " ".join(f"{k}={v}" for k, v in sorted(report.params.items())),
            ",".join(csv_columns(rec)),
        ]
        head = "\n".join(lines) + "\n"
    if cols is None:
        return head
    return head + "".join(row + "\n" for row in _csv_rows(rec, cols))
