"""Reports derived from one declaration per record: JSON schemas, CSV
columns, the pass verdict of every record and the JSON and CSV writers.

A record is declared as a :class:`Record` of :class:`Field` s.  Records
travel as column chunks: dicts that map the dotted path of every declared
field that is not a record ("index", "charts.I.unitarity",
"point.w.coeffs") to a sequence with one value per record.  A list-valued
field holds one list per record; a list of records holds one column dict
per record, the columns of its items, as the records themselves are held.
Null is None in a list, or NaN in a nullable float array, which has no
None.  A nullable nested record also has a column at its own path, true
where the object is present; where it is absent its fields are neither
judged nor written.

:func:`judge` gives every record of a chunk its ``pass`` as array
comparisons, one per declared residual.  :func:`json_chunk` and
:func:`csv_chunk` write a chunk, column by column, as the next piece of a
report; the pieces together are the bytes that ``json.dumps(report,
indent=2, sort_keys=True)`` writes, or the CSV rows of the records.  The
declared kind of a field, not the type of a value, picks its text: one
JSON and one CSV rule per kind (``NUM``, ``INT``, ``BOOL``, ``STR``, an
enum as ``STR``), the same for an ndarray column, a list column and the
items of a list field.  The envelope's ``params`` (declared per command)
and :data:`SUMMARY` are written by the same path as the records; the CSV
``# params:`` line writes each param by the CSV rule of its kind.
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
    "STR",
    "SUMMARY",
    "Record",
    "Field",
    "Report",
    "schema",
    "csv_columns",
    "transpose",
    "judge",
    "json_chunk",
    "csv_chunk",
]

SCHEMA_VERSION = 2
NUM, INT, BOOL, STR = "number", "integer", "boolean", "string"


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


def _values(col, null: bool = False) -> list:
    """A column as a list; with ``null``, the NaN of a float array is
    None."""
    if not isinstance(col, np.ndarray):
        return col
    values = col.tolist()
    return [None if v != v else v for v in values] if null and col.dtype.kind == "f" else values


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


def judge(rec: Record, cols: dict, tol: Tolerances, norm=None, prefix: str = "", checks=None) -> Optional[np.ndarray]:
    """Whether each record of a column chunk passes: every non-null
    residual within its tolerance (times ||H|| where declared ``rel``),
    every verdict true and every present nested record passing.  Stores
    the verdict as the ``pass`` column of every record that declares one.
    ``norm`` and ``prefix`` are the ||H|| column and the path of a nested
    record.  A nested record that is never null and declares no ``pass``
    adds its checks to ``checks``, those of the record around it, and
    returns None: each verdict is one reduction over all its checks."""
    if rec.norm is not None:
        norm = np.asarray(rec.norm(cols), dtype=float)
    own = checks is None
    if own:
        checks = [np.ones(len(next(iter(cols.values()))), dtype=bool)]
    for f in rec.fields:
        path = prefix + f.name
        if isinstance(f.kind, Record):
            if f.null:
                checks.append(judge(f.kind, cols, tol, norm, path + ".") | ~np.asarray(cols[path], dtype=bool))
            elif f.kind.has_pass:
                checks.append(judge(f.kind, cols, tol, norm, path + "."))
            else:
                judge(f.kind, cols, tol, norm, path + ".", checks)
        elif f.tol is not None:
            checks.append(_within(f, cols[path], getattr(tol, f.tol) * (norm if f.rel else 1.0)))
        elif f.ok is not None:
            checks.append([bool(f.ok(v)) for v in cols[path]])
    if not own:
        return None
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


# The texts of a column's values by declared kind, an enum written as a
# string; a value is None where it is null.  JSON spells each value as
# ``json.dumps`` does (a number by its repr); CSV writes null as an empty
# cell, a number as %.17g and a boolean as true or false.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null"}
_JSON = {
    NUM: lambda values: [_JSON_WORDS.get(r, r) for r in map(repr, values)],
    BOOL: lambda values: list(map({True: "true", False: "false", None: "null"}.__getitem__, values)),
    STR: lambda values: ["null" if v is None else _encode_str(v) for v in values],
}
_JSON[INT] = _JSON[NUM]
_CSV = {
    NUM: lambda values: ["" if v is None else format(v, ".17g") for v in values],
    INT: lambda values: ["" if v is None else str(v) for v in values],
    BOOL: lambda values: list(map({True: "true", False: "false", None: ""}.__getitem__, values)),
}
_CSV[STR] = _CSV[INT]


def _texts(table: dict, kind, values: list) -> list:
    return table[STR if isinstance(kind, tuple) else kind](values)


def _json_array(texts: list, nl: str) -> str:
    """A JSON array of the item texts, ``nl`` the newline and indent of
    the line it starts on."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _json_column(f: Field, col, nl: str) -> list:
    """JSON text of every value of a column, ``nl`` the newline and indent
    of the values' lines."""
    if not isinstance(f.kind, list):
        return _texts(_JSON, f.kind, _values(col, f.null))
    item, inner = f.kind[0], nl + "  "
    if isinstance(item, Record):
        return [_json_array(_json_objects(item, v, inner), nl) for v in col]
    if isinstance(col, np.ndarray) and col.ndim == 2 and col.shape[1]:  # k items per record, written in one pass
        k = col.shape[1]
        array = "[" + inner + ("," + inner).join(["%s"] * k) + nl + "]"
        return [array % items for items in zip(*[iter(_texts(_JSON, item, col.ravel().tolist()))] * k)]
    return ["null" if v is None else _json_array(_texts(_JSON, item, v), nl) for v in _values(col)]


@functools.cache
def _json_layout(rec: Record, nl: str) -> tuple:
    """The %-template of the JSON object of a record that starts on a line
    ``nl``, nested records that are never null written in place, and the
    (path, field, newline) of each ``%s``: a value or a nullable record."""
    inner = nl + "  "
    keys, slots = [], []
    for f in rec.json:
        key = _encode_str(f.name).replace("%", "%%") + ": "
        if isinstance(f.kind, Record) and not f.null:
            template, inside = _json_layout(f.kind, inner)
            keys.append(key + template)
            slots += [(f"{f.name}.{path}", g, line) for path, g, line in inside]
        else:
            keys.append(key + "%s")
            slots.append((f.name, f, inner))
    return "{" + inner + ("," + inner).join(keys) + nl + "}", tuple(slots)


def _json_objects(rec: Record, cols: dict, nl: str, prefix: str = "") -> list:
    """JSON text of the record of every row of the columns, ``nl`` the
    newline and indent of the line each starts on; ``prefix`` is the path
    of a nested record."""
    template, slots = _json_layout(rec, nl)
    values = []
    for path, f, line in slots:
        path = prefix + path
        if isinstance(f.kind, Record):
            texts = _json_objects(f.kind, cols, line, path + ".")
            texts = [t if present else "null" for t, present in zip(texts, _values(cols[path]))]
        else:
            texts = _json_column(f, cols[path], line)
        values.append(texts)
    return [template % row for row in zip(*values)]


_RECORD_NL = "\n" + 4 * " "  # a record of the "records" array

# the envelope's summary, the same for every command
SUMMARY = Record(Field("passed", BOOL), Field("records", INT), Field("failures", INT))


def _json_object(rec: Record, obj: dict) -> str:
    """JSON text of one flat record of the envelope, given as a dict."""
    return _json_objects(rec, {f.name: [obj[f.name]] for f in rec.fields}, "\n  ")[0]


def json_chunk(rec: Record, params: Record, report: Report, cols: Optional[dict] = None) -> str:
    """The JSON text of the next chunk of the report's records, given as
    columns; the head of the report, with its ``params`` declared by
    ``params``, comes before the first chunk.  Without columns: the rest
    of the report, after the last chunk."""
    out = []
    if report.records == 0:
        out += ['{\n  "command": ', _encode_str(report.command), ',\n  "params": ', _json_object(params, report.params)]
        out.append(',\n  "records": ')
    if cols is not None:
        records = _json_objects(rec, cols, _RECORD_NL)
        out.append(("[" if report.records == 0 else ",") + _RECORD_NL + ("," + _RECORD_NL).join(records))
        return "".join(out)
    summary = {"failures": report.failures, "passed": report.failures == 0, "records": report.records}
    out.append("[]" if report.records == 0 else "\n  ]")
    out.append(f',\n  "schema": {SCHEMA_VERSION},\n  "seed": {report.seed},\n  "summary": ')
    out.append(_json_object(SUMMARY, summary) + "\n}\n")
    return "".join(out)


def _csv_column(f: Field, col, present=None) -> list:
    """CSV cells of every value of a column; empty where it is null, or
    where the nullable record around it is absent (``present`` false).  A
    list is the cells of its items joined by ";"."""
    if isinstance(f.kind, list):
        cells = ["" if v is None else ";".join(_texts(_CSV, f.kind[0], v)) for v in _values(col)]
    else:
        cells = _texts(_CSV, f.kind, _values(col, f.null))
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


def csv_chunk(rec: Record, params: Record, report: Report, cols: Optional[dict] = None) -> str:
    """The CSV text of the next chunk of the report's records, given as
    columns; the header lines come before the first chunk, with the
    report's ``params`` declared by ``params`` as ``name=cell`` pairs in
    name order, each cell by the rule of its kind.  Without columns: the
    (empty) rest of the report."""
    head = ""
    if report.records == 0:
        fields = sorted(params.fields, key=lambda f: f.name)
        lines = [
            f"# schema: {SCHEMA_VERSION}",
            f"# command: {report.command}",
            f"# seed: {report.seed}",
            "# params: " + " ".join(f"{f.name}={_csv_column(f, [report.params[f.name]])[0]}" for f in fields),
            ",".join(csv_columns(rec)),
        ]
        head = "\n".join(lines) + "\n"
    if cols is None:
        return head
    return head + "".join(row + "\n" for row in _csv_rows(rec, cols))
