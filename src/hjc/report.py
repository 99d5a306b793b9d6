"""Reports derived from one declaration per record: JSON schemas, CSV
columns, the pass verdict of every record and the JSON and CSV writers.

A record is declared as a :class:`Record` of :class:`Field` s.  Records
travel as column chunks: dicts that map the dotted path of every declared
field that is not a record ("class", "charts.I.unitarity",
"point.w.coeffs") to a sequence with one value per record.  A list-valued
field holds one list per record; a list of records holds one column dict
per record, the columns of its items, as the records themselves are held.
Null is None in a list, or NaN in a nullable float array, which has no
None.  A nullable nested record also has a column at its own path, true
where the object is present; where it is absent its fields are neither
judged nor written.  The ||H|| column a :class:`Record` names as its
``norm`` is declared by no field, and no writer reads it.

:func:`judge` gives every record of a chunk its ``pass`` as array
comparisons, one per declared residual read as a float array (None is
NaN, which passes only in a nullable field).  :func:`json_chunk` and
:func:`csv_chunk` write a chunk, column by column, as the next piece of a
report; the pieces together are the bytes that ``json.dumps(report,
indent=2, sort_keys=True)`` writes, or the CSV rows of the records.  The
declared kind of a field, not the type of a value, picks its text: one
JSON and one CSV rule per kind (``NUM``, ``INT``, ``BOOL``, ``STR``, an
enum as ``STR``), the same for an ndarray column, a list column and the
items of a list field.  The envelope's ``params`` (declared per command)
and :data:`SUMMARY` are written by the same path as the records; the CSV
``# params:`` line writes each param by the CSV rule of its kind.  The JSON
writer of each field is built once per declaration, and a chunk's records
are one %-template filled in one pass: the template of a row writes each
nullable nested record as the object or as null, as the row holds it.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import chain, repeat
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

SCHEMA_VERSION = 6
NUM, INT, BOOL, STR = "number", "integer", "boolean", "string"


class Record:
    """A JSON object made of declared :class:`Field` s.  ``norm`` names the
    column of a chunk that holds the size of every record's Hamiltonian,
    ||H||, which the command computes beside the declared columns; the
    residuals declared ``rel`` are held to their tolerance times it."""

    def __init__(self, *fields: "Field", norm: Optional[str] = None):
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


def _within(f: Field, col, limit) -> np.ndarray:
    """Whether each value of a residual column is at most its limit, the
    column read as a float array (None is NaN): NaN passes only in a
    field declared ``null``."""
    col = np.asarray(col, dtype=float)
    good = col <= limit
    return good | np.isnan(col) if f.null else good


def _judge(rec: Record, cols: dict, tol: Tolerances, norm, prefix: str, checks=None):
    """:func:`judge` of the record at path ``prefix``, ``norm`` the ||H||
    column around it.  A nested record that is never null and declares no
    ``pass`` adds its checks to ``checks``, those of the record around it,
    and returns None."""
    if rec.norm is not None:
        norm = np.asarray(cols[rec.norm], dtype=float)
    own = checks is None
    if own:
        checks = []
    for f in rec.fields:
        path = prefix + f.name
        if isinstance(f.kind, Record):
            if f.null:
                checks.append(_judge(f.kind, cols, tol, norm, path + ".") | ~np.asarray(cols[path], dtype=bool))
            elif f.kind.has_pass:
                checks.append(_judge(f.kind, cols, tol, norm, path + "."))
            else:
                _judge(f.kind, cols, tol, norm, path + ".", checks)
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


def judge(rec: Record, cols: dict, tol: Tolerances) -> np.ndarray:
    """Whether each record of a column chunk passes: every residual within
    its tolerance (times the ||H|| column named by ``norm`` where declared
    ``rel``) or null where the field may be, every verdict true and every
    present nested record passing.  Stores the verdict as the ``pass``
    column of every record that declares one.  Each verdict is one numpy
    reduction over all its checks."""
    return _judge(rec, cols, tol, None, "")


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
# ``json.dumps`` does (a number by its repr, a non-finite one or null by its
# word, looked up only in a column that holds one); CSV writes null as an
# empty cell, a number as %.17g and a boolean as true or false.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null"}
_NULL_WORDS = {**_JSON_WORDS, "nan": "null"}  # a nullable float array, where NaN is null


def _json_numbers(values, words: dict = _JSON_WORDS) -> list:
    """The repr of each number, or its word in ``words``."""
    texts = list(map(repr, values))
    return texts if words.keys().isdisjoint(texts) else list(map(words.get, texts, texts))


_JSON = {
    NUM: _json_numbers,
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


# The exact types of a list column's values per declared kind, None being
# null: a bool is no number, and a numpy scalar or a str prints as its repr.
_NONE = type(None)
_TYPES = {NUM: {float, int, _NONE}, INT: {int, _NONE}, BOOL: {bool, _NONE}, STR: {str, _NONE}}


def _texts(table: dict, kind, values: list) -> list:
    return table[STR if isinstance(kind, tuple) else kind](values)


def _checked(f: Field, col):
    """The column, once the types of a list column's values are checked:
    TypeError naming the field (an ndarray column keeps its own path)."""
    item = f.kind[0] if isinstance(f.kind, list) else f.kind
    if not isinstance(col, np.ndarray) and not isinstance(item, Record):
        values = [x for v in col if v is not None for x in v] if isinstance(f.kind, list) else col
        bad = set(map(type, values)) - _TYPES[STR if isinstance(item, tuple) else item]
        if bad:
            raise TypeError(f"field {f.name!r} of kind {f.kind!r} holds {', '.join(sorted(t.__name__ for t in bad))}")
    return col


def _json_array(texts: list, nl: str) -> str:
    """A JSON array of the item texts, ``nl`` the newline and indent of
    the line it starts on."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _json_writer(f: Field, line: str) -> Callable:
    """The writer of a column of ``f`` whose values start on a line
    ``line``: ``write(col, out)`` appends the JSON text of every value to
    ``out`` and returns None, or, for a 2-D array of k > 0 items per
    record, appends the text of every item as k columns and returns k."""
    kind = f.kind
    if not isinstance(kind, list):
        if kind in (NUM, INT):

            def write(col, out):
                if not isinstance(col, np.ndarray):
                    out.append(_json_numbers(_checked(f, col)))
                elif f.null and col.dtype.kind == "f":
                    out.append(_json_numbers(col.tolist(), _NULL_WORDS))
                else:
                    out.append(_json_numbers(col.tolist()))

        else:
            rule = _JSON[STR if isinstance(kind, tuple) else kind]

            def write(col, out):
                out.append(rule(_values(_checked(f, col), f.null)))

        return write
    item, inner = kind[0], line + "  "
    if isinstance(item, Record):

        def write(col, out):
            objects = [_json_objects(item, v, inner) for v in col]
            out.append(["[" + inner + text + line + "]" if text else "[]" for text in objects])

        return write
    rule = _JSON[STR if isinstance(item, tuple) else item]

    def write(col, out):
        if isinstance(col, np.ndarray) and col.ndim == 2 and col.shape[1]:
            k = col.shape[1]
            texts = rule(col.ravel().tolist())
            out += [texts[j::k] for j in range(k)]
            return k
        out.append(["null" if v is None else _json_array(rule(v), line) for v in _values(_checked(f, col))])

    return write


@functools.cache
def _json_layout(rec: Record, nl: str) -> tuple:
    """(slots, nullable) of the JSON object of a record that starts on a
    line ``nl``, in the order of its text, nested records written in
    place: the (path, writer) of each field that is not a record, and the
    path of each nullable nested record, one around another first."""
    slots, nullable = [], []

    def walk(rec, nl, prefix):
        for f in rec.json:
            path = prefix + f.name
            if isinstance(f.kind, Record):
                if f.null:
                    nullable.append(path)
                walk(f.kind, nl + "  ", path + ".")
            else:
                slots.append((path, _json_writer(f, nl + "  ")))

    walk(rec, nl, "")
    return tuple(slots), tuple(nullable)


def _json_template(rec: Record, nl: str, widths: tuple, present: tuple) -> str:
    """The %-template of the JSON object of a record that starts on a line
    ``nl``, with one ``%s`` per text a row of :func:`_json_layout`'s slots
    gives: ``widths`` holds each slot's item count, or None for one text.
    ``present`` holds whether each nullable nested record is present; an
    absent one is null and swallows its texts with ``%.0s``."""
    present, widths = iter(present), iter(widths)

    def obj(rec, nl):  # (template, number of texts)
        inner = nl + "  "
        items, count = [], 0
        for f in rec.json:
            if isinstance(f.kind, Record):
                shown = not f.null or next(present)
                text, n = obj(f.kind, inner)
                if not shown:
                    text = "null" + "%.0s" * n
            else:
                k = next(widths)
                text, n = ("%s", 1) if k is None else (_json_array(["%s"] * k, inner), k)
            items.append(_encode_str(f.name).replace("%", "%%") + ": " + text)
            count += n
        return "{" + inner + ("," + inner).join(items) + nl + "}", count

    return obj(rec, nl)[0]


class _Templates(dict):
    """The :func:`_json_template` s of a record, a line and the slot
    widths by ``present``, each built the first time a row needs it."""

    def __init__(self, *layout):
        super().__init__()
        self.layout = layout

    def __missing__(self, present: tuple) -> str:
        template = self[present] = _json_template(*self.layout, present)
        return template


_json_templates = functools.cache(_Templates)


def _json_objects(rec: Record, cols: dict, nl: str) -> str:
    """JSON text of the record of every row of the columns, joined by
    commas, ``nl`` the newline and indent of the line each starts on; ""
    for no row.  Each row takes the template of the nullable nested
    records it holds, and the chunk's templates are filled in one pass."""
    slots, nullable = _json_layout(rec, nl)
    texts = []
    widths = tuple([write(cols[path], texts) for path, write in slots])
    if not texts:
        return ""
    present = zip(*[_values(cols[path]) for path in nullable]) if nullable else repeat((), len(texts[0]))
    template = ("," + nl).join(map(_json_templates(rec, nl, widths).__getitem__, present))
    return template % tuple(chain.from_iterable(zip(*texts)))


_RECORD_NL = "\n" + 4 * " "  # a record of the "records" array

# the envelope's summary, the same for every command
SUMMARY = Record(Field("passed", BOOL), Field("records", INT), Field("failures", INT))


def _json_object(rec: Record, obj: dict) -> str:
    """JSON text of one flat record of the envelope, given as a dict."""
    return _json_objects(rec, {f.name: [obj[f.name]] for f in rec.fields}, "\n  ")


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
        out.append(("[" if report.records == 0 else ",") + _RECORD_NL + _json_objects(rec, cols, _RECORD_NL))
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
    col = _checked(f, col)
    if isinstance(f.kind, list):
        cells = ["" if v is None else ";".join(_texts(_CSV, f.kind[0], v)) for v in _values(col)]
    else:
        cells = _texts(_CSV, f.kind, _values(col, f.null))
    if present is None:
        return cells
    return [c if p else "" for c, p in zip(cells, _values(present))]


def _csv_rows(rec: Record, cols: dict, prefix: str = "") -> list:
    """The CSV rows of the records of a column chunk; ``prefix`` is the
    path of a nested record.  A record with no column of its own still
    writes one row per item of its ``rows`` field, the item's cells first."""
    cells = [_csv_column(f, cols[path], present and cols[present]) for path, _, f, present in _csv_leaves(rec, prefix)]
    expand = rec.rows
    if expand is None:
        return [",".join(row) for row in zip(*cells)]
    if isinstance(expand.kind, Record):
        parts = [(f.name, _csv_rows(f.kind, cols, f"{prefix}{expand.name}.{f.name}.")) for f in expand.kind.fields]
        items = zip(*[[f"{name},{sub}" for sub in subs] for name, subs in parts])
    else:
        items = map(_csv_rows, repeat(expand.kind[0]), cols[prefix + expand.name])
    heads = (",".join(row) + "," for row in zip(*cells)) if cells else repeat("")
    return [head + sub for head, subs in zip(heads, items) for sub in subs]


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
