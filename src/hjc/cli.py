"""Command line front end: verification sweeps and report emission.

Subcommands: ``berry`` (classical chart sweep over a grid plus random
samples), ``jc`` (quantum chart decomposition checks), ``strings``
(singular-sector map over a theta sweep), ``evolve`` (closed-form
propagator against the eigensolver oracle) and ``grassmann`` (coordinate
round trip).  ``--command NAME`` is accepted as an alias for the leading
subcommand.

Exit codes: 0 all checks passed, 1 a numerical check failed (the report
is still written), 2 usage or configuration error.  Output is JSON
(``"schema": 1`` envelope) or CSV with ``#``-prefixed header lines; both
are byte-identical across runs with the same ``--seed`` (env fallback
``HJC_SEED``).

Each command's record is declared once, in ``RECORDS``: every field with
its JSON type, whether it may be null, the ``Tolerances`` field that
judges it when it is a residual, and its CSV column.  The JSON schemas
(``SCHEMAS``), the CSV columns (``CSV_COLUMNS``) and rows, and every
record's ``pass`` are derived from that declaration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Optional

import numpy as np

from . import algebra, berry, grassmann, jc, oracle
from .config import DEFAULT, Tolerances

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Report declarations


class Record:
    """A JSON object made of declared :class:`Field` s.  ``norm`` gives the
    size of the record's Hamiltonian, ||H||, from the record itself; the
    residuals declared ``rel`` are held to their tolerance times it."""

    def __init__(self, *fields: "Field", norm: Optional[Callable] = None):
        self.fields = fields
        self.norm = norm


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
    column ``csv``.  ``get`` derives a CSV-only column from the enclosing
    object.
    """

    name: str
    kind: object
    null: bool = False
    tol: Optional[str] = None
    rel: bool = False
    ok: Optional[Callable] = None
    csv: object = True
    rows: bool = False
    get: Optional[Callable] = None


NUM, INT, BOOL = "number", "integer", "boolean"
_CHARTS = tuple(c.value for c in jc.ChartTag)
_PASS = Field("pass", BOOL)
# a singular set other than the ground level contradicts the paper
_SINGULAR_LEVELS = Field("singular_levels", [INT], ok=lambda levels: levels in ([], [0]))

_CHART_CHECK = Record(
    Field("reconstruction", NUM, tol="algebraic", rel=True),
    Field("unitarity", NUM, tol="algebraic"),
    Field("conditioning", NUM, null=True),
)
_JC_CHART = Record(
    Field("admissible", BOOL),
    Field("reconstruction", NUM, null=True, tol="reconstruction", rel=True),
    Field("unitarity", NUM, null=True, tol="algebraic"),
    Field("ordering_agreement", NUM, null=True, tol="strict"),
    _SINGULAR_LEVELS,
    _PASS,
)
_SECTOR = (Field("chart", _CHARTS), Field("row", INT), Field("level", INT))

RECORDS = {
    "berry": Record(
        Field("index", INT),
        Field("kind", ("grid", "sample")),
        Field(
            "point",
            Record(
                Field(
                    "w",
                    Record(Field("tag", tuple(algebra.AlgebraTag.__members__)), Field("coeffs", [NUM], csv=False)),
                    csv="",
                ),
                Field("z", NUM),
                Field("norm_w", NUM, get=lambda point: float(berry.norms(np.array(point["w"]["coeffs"])))),
            ),
            csv="",
        ),
        Field("class", tuple(c.value for c in berry.PointClass)),
        Field("charts", Record(*(Field(c, _CHART_CHECK, null=True) for c in _CHARTS)), csv="chart_"),
        Field("cocycle", NUM, null=True, tol="algebraic"),
        Field(
            "projector",
            Record(
                Field("idempotency", NUM, tol="algebraic"),
                Field("hermiticity", NUM, tol="algebraic"),
                Field("chart_agreement", NUM, null=True, tol="algebraic"),
            ),
            null=True,
        ),
        _PASS,
        # ||H|| = max(1, r), r = hypot(w, z)
        norm=lambda rec: max(1.0, math.hypot(*rec["point"]["w"]["coeffs"], rec["point"]["z"])),
    ),
    "jc": Record(
        Field("theta", NUM),
        Field("dim", INT),
        Field("charts", Record(*(Field(c, _JC_CHART) for c in _CHARTS)), csv="chart", rows=True),
        Field("eigenvalue_max_dev", NUM, tol="reconstruction", rel=True, csv=False),
        Field(
            "projector",
            Record(
                Field("idempotency", NUM, tol="algebraic"),
                Field("hermiticity", NUM, tol="algebraic"),
                Field("form_agreement", NUM, null=True, tol="algebraic"),
                Field("ordering_agreement", NUM, tol="strict"),
            ),
            csv=False,
        ),
        Field(
            "spectral",
            Record(
                Field("reconstruction", NUM, tol="reconstruction", rel=True),
                Field("commutator", NUM, tol="algebraic"),
            ),
            csv=False,
        ),
        Field("pass", BOOL, csv=False),
        # ||H|| = max(1, max_n R(n)) = max(1, sqrt(d - 1 + theta^2))
        norm=lambda rec: max(1.0, float(np.max(jc.radius_diag(rec["dim"], rec["theta"], 0)))),
    ),
    "strings": Record(
        Field("theta", NUM),
        Field("dim", INT, csv=False),
        Field(
            "sectors",
            [Record(*_SECTOR, Field("denominator", NUM), Field("status", ("regular", "ill_conditioned", "singular")))],
            rows=True,
        ),
        Field("singular", [Record(*_SECTOR)], csv=False),
        Field("ground_only", BOOL, ok=bool, csv=False),
        Field("lattice", [Record(Field("level_pair", [INT]), Field("color", ("black", "white")))], csv=False),
        Field("pass", BOOL, csv=False),
    ),
    "evolve": Record(
        Field("t", NUM),
        Field("closed_vs_oracle_residual", NUM, tol="propagator"),
        Field("unitarity", NUM, tol="propagator"),
        Field("sigma3", NUM),
        Field("pass", BOOL, csv=False),
    ),
    "grassmann": Record(
        Field("theta", NUM),
        Field("dim", INT),
        _SINGULAR_LEVELS,
        Field("forms_residual", NUM, null=True, tol="strict"),
        Field("roundtrip_residual", NUM, null=True, tol="reconstruction"),
        Field("intermediate_identity_residual", NUM, null=True, tol="algebraic"),
        _PASS,
    ),
}


def _schema(kind, null: bool = False) -> dict:
    """JSON schema of a declared kind; every field of a record is required."""
    if isinstance(kind, Record):
        props = {f.name: _schema(f.kind, f.null) for f in kind.fields if f.get is None}
        out = {"type": "object", "required": list(props), "properties": props}
    elif isinstance(kind, list):
        out = {"type": "array", "items": _schema(kind[0])}
    elif isinstance(kind, tuple):
        return {"enum": list(kind) + [None] * null}
    else:
        out = {"type": kind}
    if null:
        out["type"] = [out["type"], "null"]
    return out


def _cells(rec: Record, obj, prefix: str = "") -> list:
    """(column, value) pairs of ``obj`` in a CSV row; ``obj`` None (a null
    or absent object) gives empty cells."""
    out = []
    for f in rec.fields:
        if f.csv is False or f.rows:
            continue
        v = None if obj is None else f.get(obj) if f.get else obj[f.name]
        name = prefix + (f.name if f.csv is True else f.csv)
        if isinstance(f.kind, Record):
            out += _cells(f.kind, v, name + "_" if f.csv is True else name)
        else:
            out.append((name, v))
    return out


def _rows(rec: Record, records: list):
    """The CSV rows of ``records``, each a list of (column, value) pairs;
    ``[None]`` gives one row of the column names."""
    expand = next((f for f in rec.fields if f.rows), None)
    for r in records:
        head = _cells(rec, r)
        if expand is None:
            yield head
            continue
        items = None if r is None else r[expand.name]
        if isinstance(expand.kind, Record):
            for f in expand.kind.fields:
                yield head + [(expand.csv, f.name)] + _cells(f.kind, None if items is None else items[f.name])
        else:
            for item in [None] if items is None else items:
                yield head + _cells(expand.kind[0], item)


def _judge(rec: Record, obj: dict, tol: Tolerances, norm: float = 1.0) -> bool:
    """Whether every non-null residual of ``obj`` is within its tolerance
    (times ||H|| where declared ``rel``) and every verdict and nested record
    passes; stores the answer in ``obj["pass"]`` where the record declares
    one."""
    if rec.norm is not None:
        norm = rec.norm(obj)
    ok = True
    for f in rec.fields:
        v = obj.get(f.name)
        if v is None:
            continue
        if f.tol is not None:
            ok &= bool(v <= getattr(tol, f.tol) * (norm if f.rel else 1.0))
        if f.ok is not None:
            ok &= bool(f.ok(v))
        if isinstance(f.kind, Record):
            ok &= _judge(f.kind, v, tol, norm)
    if any(f.name == "pass" for f in rec.fields):
        obj["pass"] = ok
    return ok


_SUMMARY = Record(Field("passed", BOOL), Field("records", INT), Field("failures", INT))

SCHEMAS = {
    command: _schema(
        Record(
            Field("schema", (SCHEMA_VERSION,)),
            Field("command", (command,)),
            Field("seed", INT),
            Field("params", "object"),
            Field("records", [rec]),
            Field("summary", _SUMMARY),
        )
    )
    for command, rec in RECORDS.items()
}

# CSV columns per command, documented in the README.
CSV_COLUMNS = {command: [c for c, _ in next(_rows(rec, [None]))] for command, rec in RECORDS.items()}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config


def _finite_value(name: str, v: float) -> float:
    if not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got {v!r}")
    return v


def _parse_axis(token: str):
    try:
        name, span = token.split("=")
        lo, hi, count = span.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid token {token!r} (want name=lo:hi:count)") from exc
    if count <= 0:
        raise ConfigError(f"empty grid axis {token!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(_finite_value("grid bound", lo), _finite_value("grid bound", hi), count)
    if not np.isfinite(values).all():
        raise ConfigError(f"grid axis {token!r} spans more than the double range")
    return name, values


def parse_grid(spec: str):
    axes = dict(_parse_axis(tok) for tok in spec.split(",") if tok)
    if "z" not in axes or "w" not in axes:
        raise ConfigError(f"grid {spec!r} needs both z= and w= axes")
    if np.any(axes["w"] < 0):
        raise ConfigError("w axis holds ||w|| values and must be non-negative")
    if math.hypot(np.max(axes["w"]), np.max(np.abs(axes["z"]))) == math.inf:
        raise ConfigError(f"grid {spec!r} holds points whose radius hypot(w, z) overflows")
    return axes["w"], axes["z"]


def parse_float_list(text: str):
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc
    if not vals:
        raise ConfigError("empty value list")
    return tuple(_finite_value("list value", v) for v in vals)


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = DEFAULT
    overrides = {}
    for name in ("algebraic", "strict", "reconstruction", "propagator"):
        v = getattr(args, f"tol_{name}", None)
        if v is not None:
            overrides[name] = v
    return dataclasses.replace(tol, **overrides) if overrides else tol


# ---------------------------------------------------------------------------
# Command implementations: each returns (params, records); ``pass`` is
# added by ``_judge``.

# Points per array pass of ``hjc berry``: bounds the memory of the batched
# products, whose intermediates hold 2 KB per octonion point.
BERRY_CHUNK = 1024


def _field(rec: Record, name: str) -> Field:
    return next(f for f in rec.fields if f.name == name)


# The berry pass fills one column per residual and conditioning of the
# record, named by its path in the declaration: "charts.I.unitarity",
# "cocycle", "projector.idempotency", ...  _BERRY_NESTED holds the
# declarations of the nested objects by path.
_BERRY_NESTED = {
    **{f"charts.{f.name}": f.kind for f in _field(RECORDS["berry"], "charts").kind.fields},
    "projector": _field(RECORDS["berry"], "projector").kind,
}
_BERRY_COLUMNS = {
    **{f"{path}.{f.name}": f for path, rec in _BERRY_NESTED.items() for f in rec.fields},
    "cocycle": _field(RECORDS["berry"], "cocycle"),
}


def _berry_pass(pts: berry.Points, tol: Tolerances, out: dict) -> None:
    """Classify one chunk of points and write its class codes and every
    residual and conditioning of the berry record into ``out`` (arrays of
    the chunk's length, NaN where a check does not apply)."""
    tag = pts.tag
    mm = functools.partial(berry.matmul_coeffs, tag)
    codes = berry.classify(pts, tol)
    out["class"][:] = codes
    h = berry.hamiltonian_coeffs(pts)
    ident = berry.Matrix2K.identity(tag).coeffs
    units = {}
    for chart in berry.ChartTag:
        rows = berry.admissible(codes, chart)
        sub = pts.take(rows)
        u = berry.chart_coeffs(sub, chart)
        ud = berry.dagger_coeffs(u)
        d = berry.eigenvalue_coeffs(sub)
        out[f"charts.{chart.value}.reconstruction"][rows] = berry.residual_coeffs(mm(mm(u, d), ud), h[rows])
        out[f"charts.{chart.value}.unitarity"][rows] = berry.residual_coeffs(mm(ud, u), ident)
        out[f"charts.{chart.value}.conditioning"][rows] = berry.conditionings(sub, chart)
        units[chart] = rows, u, ud
    regular = codes == berry.POINT_CLASSES.index(berry.PointClass.REGULAR)
    rows_i, u_i, _ = units[berry.ChartTag.I]
    rows_ii, u_ii, _ = units[berry.ChartTag.II]
    phi = berry.transition_coeffs(pts.take(regular))
    out["cocycle"][regular] = berry.residual_coeffs(mm(u_i[regular[rows_i]], phi), u_ii[regular[rows_ii]])
    away = codes != berry.POINT_CLASSES.index(berry.PointClass.ORIGIN)
    proj = berry.projector_coeffs(pts.take(away))
    out["projector.idempotency"][away] = berry.residual_coeffs(mm(proj, proj), proj)
    out["projector.hermiticity"][away] = berry.residual_coeffs(berry.dagger_coeffs(proj), proj)
    p0 = berry.Matrix2K.diag(algebra.one(tag), algebra.zero(tag)).coeffs
    agreement = np.full(proj.shape[0], np.nan)
    for rows, u, ud in units.values():
        # every chart row lies away from the origin
        sel = rows[away]
        agreement[sel] = np.fmax(agreement[sel], berry.residual_coeffs(mm(mm(u, p0), ud), proj[sel]))
    out["projector.chart_agreement"][away] = agreement


def berry_columns(pts: berry.Points, tol: Tolerances) -> dict:
    """Class codes and the berry record's residual and conditioning columns
    for every point, evaluated ``BERRY_CHUNK`` points at a time."""
    n = pts.z.shape[0]
    cols = {"class": np.empty(n, dtype=int), **{k: np.full(n, np.nan) for k in _BERRY_COLUMNS}}
    for start in range(0, n, BERRY_CHUNK):
        part = slice(start, start + BERRY_CHUNK)
        _berry_pass(pts.take(part), tol, {k: v[part] for k, v in cols.items()})
    return cols


def berry_records(pts: berry.Points, kinds: list, tol: Tolerances) -> list:
    """The berry records of the points (``pass`` not yet judged)."""
    cols = berry_columns(pts, tol)
    classes = [berry.POINT_CLASSES[c].value for c in cols.pop("class").tolist()]
    # NaN: the check does not apply; an infinite value that no tolerance
    # bounds (a conditioning) is reported as null too
    cols = {
        k: [None if v != v or (v == math.inf and f.tol is None) else v for v in cols[k].tolist()]
        for k, f in _BERRY_COLUMNS.items()
    }

    def nested(path):
        # one object per point, null where its first column is
        names = [f.name for f in _BERRY_NESTED[path].fields]
        return [
            None if vals[0] is None else dict(zip(names, vals))
            for vals in zip(*(cols[f"{path}.{n}"] for n in names))
        ]

    chart_names = [f.name for f in _field(RECORDS["berry"], "charts").kind.fields]
    charts = [dict(zip(chart_names, objs)) for objs in zip(*(nested(f"charts.{c}") for c in chart_names))]
    name = pts.tag.name
    return [
        {
            "index": i,
            "kind": kind,
            "point": {"w": {"tag": name, "coeffs": w}, "z": z},
            "class": cls,
            "charts": chart,
            "cocycle": cocycle,
            "projector": proj,
        }
        for i, (w, z, kind, cls, chart, cocycle, proj) in enumerate(
            zip(pts.w.tolist(), pts.z.tolist(), kinds, classes, charts, cols["cocycle"], nested("projector"))
        )
    ]


def cmd_berry(args):
    tag = algebra.AlgebraTag[args.algebra]
    wscales, zvals = args.axes
    rng = np.random.default_rng(args.seed)
    direction = algebra.random_element(tag, rng)
    if direction.norm() == 0.0:  # pragma: no cover - measure zero
        direction = algebra.one(tag)
    direction = (direction / direction.norm()).coeffs
    # one draw per sample of dim + 1 normals, the same stream as drawing w
    # and then z sample by sample
    draws = rng.standard_normal((args.samples, tag.dim + 1))
    grid = len(wscales) * len(zvals)
    pts = berry.Points.of(
        tag,
        np.concatenate((np.repeat(wscales, len(zvals))[:, None] * direction, draws[:, :-1])),
        np.concatenate((np.tile(zvals, len(wscales)), draws[:, -1])),
    )
    records = berry_records(pts, ["grid"] * grid + ["sample"] * args.samples, args.tol)
    return {"algebra": args.algebra, "grid": args.grid, "samples": args.samples}, records


def _jc_chart_record(p, chart, tol):
    try:
        dec = jc.chart_decompose(p, chart, tol)
    except jc.SingularSectorError as err:
        return {
            "admissible": False,
            "singular_levels": sorted({s.level for s in err.sectors}),
            "reconstruction": None,
            "unitarity": None,
            "ordering_agreement": None,
        }
    v, d = dec.unitary, dec.diagonal
    other = jc.chart_unitary(p, chart, normalizer="right", tol=tol)
    return {
        "admissible": True,
        "singular_levels": [],
        "reconstruction": jc.block_residual((v @ d) @ v.dagger(), jc.hamiltonian(p), margin=2),
        "unitarity": jc.block_residual(v.dagger() @ v, jc.BlockOperator.identity(p.dim), margin=1),
        "ordering_agreement": jc.block_residual(v, other),
    }


def cmd_jc(args):
    p = jc.JCParams(theta=args.theta, dim=args.dim, g=args.g)
    tol = args.tol
    radii = jc.radius_diag(p.dim, p.theta, 0)
    charts = {c.value: _jc_chart_record(p, c, tol) for c in (jc.ChartTag.I, jc.ChartTag.II)}
    evals, _ = oracle.eig_hermitian(jc.hamiltonian(p).full())
    pattern = np.sort(np.concatenate([radii, -radii]))
    eig_dev = float(np.max(np.abs(np.sort(evals) - pattern)))
    proj = jc.projector(p, tol=tol)
    form = None
    p0 = jc.block_diag(np.ones(p.dim), np.zeros(p.dim))
    for chart_name, chart in (("I", jc.ChartTag.I), ("II", jc.ChartTag.II)):
        if charts[chart_name]["admissible"]:
            v = jc.chart_unitary(p, chart, tol=tol)
            form_res = jc.block_residual((v @ p0) @ v.dagger(), proj, margin=1)
            form = form_res if form is None else max(form, form_res)
    plus, minus = jc.spectral_decomposition(p, tol=tol)
    lam = jc.block_diag(jc.radius_diag(p.dim, p.theta, 1), jc.radius_diag(p.dim, p.theta, 0))
    record = {
        "theta": args.theta,
        "dim": args.dim,
        "charts": charts,
        "eigenvalue_max_dev": eig_dev,
        "projector": {
            "idempotency": jc.block_residual(proj @ proj, proj, margin=1),
            "hermiticity": jc.block_residual(proj.dagger(), proj),
            "form_agreement": form,
            "ordering_agreement": jc.block_residual(jc.projector(p, normalizer="right", tol=tol), proj),
        },
        "spectral": {
            "reconstruction": jc.block_residual(plus + minus, jc.hamiltonian(p), margin=2),
            "commutator": jc.block_residual(lam @ proj, proj @ lam),
        },
    }
    return {"theta": args.theta, "dim": args.dim, "g": args.g}, [record]


def cmd_strings(args):
    records = []
    for theta in args.thetas:
        p = jc.JCParams(theta=theta, dim=args.dim)
        report = jc.singular_sectors(p, args.tol)
        singular = [
            {"chart": s.chart.value, "row": s.row, "level": s.level}
            for s in report.singular()
        ]
        # chart I is singular at the ground level unless theta > 0, chart II unless theta < 0
        expected = [
            {"chart": c, "row": 2, "level": 0} for c, off in (("I", theta > 0), ("II", theta < 0)) if not off
        ]
        records.append(
            {
                "theta": theta,
                "dim": args.dim,
                "sectors": report.to_records(),
                "singular": singular,
                "ground_only": sorted(singular, key=str) == sorted(expected, key=str),
                "lattice": report.lattice(),
            }
        )
    return {"thetas": list(args.thetas), "dim": args.dim}, records


def _blockwise_max_abs(m: np.ndarray, margin: int) -> float:
    """Largest entry modulus of a flattened 2d x 2d block matrix over the
    leading (d - margin) square of each block, as in
    :meth:`hjc.jc.BlockOperator.max_abs`."""
    d = m.shape[0] // 2
    return float(np.max(np.abs(m.reshape(2, d, 2, d)[:, : d - margin, :, : d - margin])))


def cmd_evolve(args):
    # with omega/delta supplied the full split propagator is checked,
    # otherwise the bare interaction one; <sigma3> is identical either way
    # (the free part only rotates number-basis phases)
    p, d = args.model, args.dim
    if args.omega is not None:
        h1, h2 = jc.full_hamiltonian(p)
        evals, evecs = oracle.eig_hermitian((h1 + h2).full())
        evolve = jc.full_propagator
    else:
        evals, evecs = oracle.eig_hermitian((args.g * jc.hamiltonian(p)).full())
        evolve = jc.propagator
    ident = jc.BlockOperator.identity(d)
    records = []
    for t in np.linspace(0.0, args.t_max, args.t_steps):
        u = evolve(p, float(t))
        u_full = u.full()
        psi = u_full[:, args.n0]  # the evolved |excited, n0>
        records.append(
            {
                "t": float(t),
                "closed_vs_oracle_residual": _blockwise_max_abs(
                    u_full - oracle.expm_from_eig(evals, evecs, t), margin=2
                ),
                "unitarity": jc.block_residual(u.dagger() @ u, ident, margin=1),
                "sigma3": float(np.sum(np.abs(psi[:d]) ** 2) - np.sum(np.abs(psi[d:]) ** 2)),
            }
        )
    params = {
        "theta": p.theta, "g": args.g, "omega": args.omega, "delta": args.delta,
        "dim": d, "t_max": args.t_max, "t_steps": args.t_steps, "n0": args.n0,
    }
    return params, records


def cmd_grassmann(args):
    records = []
    tol = args.tol
    for theta in args.thetas:
        p = jc.JCParams(theta=theta, dim=args.dim)
        rec = {
            "theta": theta,
            "dim": args.dim,
            "singular_levels": [],
            "forms_residual": None,
            "roundtrip_residual": None,
            "intermediate_identity_residual": None,
        }
        records.append(rec)
        try:
            left, shifted = grassmann.local_coordinate_forms(p, tol)
        except jc.SingularSectorError as err:
            rec["singular_levels"] = sorted({s.level for s in err.sectors})
            continue
        proj = grassmann.projector_from_coordinate(grassmann.local_coordinate(p, tol))
        # the upper-left block (1 + Z+Z)^-1 against its closed form
        r1 = jc.radius_diag(args.dim, theta, 1)
        upper_left = jc.BlockOperator.from_diagonals(args.dim, ((proj.diags[0][0], {}), ({}, {})))
        expected = jc.block_diag((r1 + theta) / (2.0 * r1), np.zeros(args.dim))
        rec["forms_residual"] = float(np.max(np.abs(left - shifted)))
        rec["roundtrip_residual"] = jc.block_residual(proj, jc.projector(p, tol=tol), margin=1)
        rec["intermediate_identity_residual"] = jc.block_residual(upper_left, expected, margin=1)
    return {"thetas": list(args.thetas), "dim": args.dim}, records


COMMANDS = {
    "berry": cmd_berry,
    "jc": cmd_jc,
    "strings": cmd_strings,
    "evolve": cmd_evolve,
    "grassmann": cmd_grassmann,
}


# ---------------------------------------------------------------------------
# Rendering


# float.__repr__ of the values JSON spells differently
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_write(x, out: list, nl: str) -> None:
    """Append the JSON text of ``x`` to ``out`` as ``json.dumps(x, indent=2,
    sort_keys=True)`` writes it, ``nl`` being the newline and indent of the
    line ``x`` starts on.  Numpy scalars and arrays are written as their
    ``item()`` / ``tolist()``.  Floats are written in the loops without a
    call: they are most of every report."""
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
            v = x[k]
            if type(v) is float:
                r = float.__repr__(v)
                out.append(_JSON_FLOATS.get(r, r))
            else:
                _json_write(v, out, inner)
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
            if type(v) is float:
                r = float.__repr__(v)
                out.append(_JSON_FLOATS.get(r, r))
            else:
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


def render_json(payload: dict) -> str:
    out = []
    _json_write(payload, out, "\n")
    out.append("\n")
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


def render_csv(command: str, payload: dict) -> str:
    lines = [
        f"# schema: {SCHEMA_VERSION}",
        f"# command: {command}",
        f"# seed: {payload['seed']}",
        "# params: " + " ".join(f"{k}={v}" for k, v in sorted(payload["params"].items())),
        ",".join(CSV_COLUMNS[command]),
    ]
    for row in _rows(RECORDS[command], payload["records"]):
        lines.append(",".join(_csv_cell(v) for _, v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hjc`` argument parser, built once per process: ``parse_args``
    returns a fresh namespace each call and leaves the parser as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: HJC_SEED, then 0)")
    common.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
    common.add_argument("--out", default="-", help="output path, '-' for stdout")
    for name in ("algebraic", "strict", "reconstruction", "propagator"):
        common.add_argument(f"--tol-{name}", type=float, default=None, dest=f"tol_{name}")

    parser = argparse.ArgumentParser(
        prog="hjc",
        description="Verification sweeps for division-algebra chart systems "
        "and the detuned Jaynes-Cummings model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("berry", parents=[common], help="classical chart sweep")
    q.add_argument("--algebra", choices=("R", "C", "H", "O"), default="C")
    q.add_argument("--grid", default="z=-2:2:9,w=0:1:3", help="axes name=lo:hi:count, comma separated")
    q.add_argument("--samples", type=int, default=100)

    q = sub.add_parser("jc", parents=[common], help="quantum chart checks")
    q.add_argument("--theta", type=float, default=0.5)
    q.add_argument("--dim", type=int, default=32)
    q.add_argument("--g", type=float, default=1.0)

    q = sub.add_parser("strings", parents=[common], help="singular sector map")
    q.add_argument("--theta", default="-1,-0.5,-0.25,0.25,0.5,1", help="comma separated detunings")
    q.add_argument("--dim", type=int, default=16)

    q = sub.add_parser("evolve", parents=[common], help="propagator vs oracle")
    q.add_argument("--theta", type=float, default=None, help="default 0.25, or derived from omega/delta/g")
    q.add_argument("--g", type=float, default=1.0)
    q.add_argument("--omega", type=float, default=None)
    q.add_argument("--delta", type=float, default=None)
    q.add_argument("--dim", type=int, default=40)
    q.add_argument("--t-max", type=float, default=10.0, dest="t_max")
    q.add_argument("--t-steps", type=int, default=50, dest="t_steps")
    q.add_argument("--n0", type=int, default=0, help="initial field level (atom starts excited)")

    q = sub.add_parser("grassmann", parents=[common], help="coordinate round trip")
    q.add_argument("--theta", default="0.25,0.5,1,2", help="comma separated detunings")
    q.add_argument("--dim", type=int, default=24)
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Check the parsed options and complete them in place: ``seed``,
    ``fmt``, ``tol``, the berry grid ``axes`` (||w|| values, z values), the
    detuning list ``thetas`` and the evolve ``model``."""
    if args.seed is None:
        try:
            args.seed = int(os.environ.get("HJC_SEED", "0"))
        except ValueError as exc:
            raise ConfigError(f"HJC_SEED must be an integer: {exc}") from exc
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    for name in ("theta", "g", "omega", "delta", "t_max"):
        v = getattr(args, name, None)
        if isinstance(v, float):
            _finite_value(name.replace("_", "-"), v)
    args.fmt = args.fmt or ("csv" if args.command == "evolve" else "json")
    args.tol = _tolerances(args)
    if args.command in ("jc", "evolve") and args.dim < 3:
        raise ConfigError("dim must be at least 3: the residuals leave out the top two truncation levels")
    if getattr(args, "dim", 2) < 2:
        raise ConfigError("dim must be at least 2")
    if args.command == "berry":
        if args.samples < 0:
            raise ConfigError("samples must be non-negative")
        args.axes = parse_grid(args.grid)
    elif args.command in ("strings", "grassmann"):
        args.thetas = parse_float_list(args.theta)
    elif args.command == "evolve":
        if (args.omega is None) != (args.delta is None):
            raise ConfigError("omega and delta must be supplied together")
        if args.t_steps <= 0:
            raise ConfigError("t-steps must be positive")
        if not 0 <= args.n0 < args.dim:
            raise ConfigError(f"initial level n0={args.n0} outside 0..{args.dim - 1}")
        try:
            if args.theta is None and args.omega is not None:
                args.model = jc.JCParams.from_physical(args.omega, args.delta, args.g, args.dim)
            else:
                theta = 0.25 if args.theta is None else args.theta
                args.model = jc.JCParams(theta, args.dim, args.g, args.omega, args.delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _write(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _attach_negative_values(argv: list) -> list:
    """Rewrite ``--name -1,0.5`` as ``--name=-1,0.5``.

    argparse reads a value that starts with a minus sign as an option
    unless it is a plain negative number, so value lists such as
    "-1,-0.5" or "-1e8" would otherwise be refused.
    """
    out = []
    for tok in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-[^-]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_values(list(sys.argv[1:] if argv is None else argv))
    if "--command" in argv:
        i = argv.index("--command")
        if i + 1 >= len(argv):
            build_parser().error("--command needs a name")
        name = argv[i + 1]
        argv = [name] + argv[:i] + argv[i + 2 :]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
    except ConfigError as exc:
        parser.error(str(exc))
    params, records = COMMANDS[args.command](args)
    failures = sum(not _judge(RECORDS[args.command], r, args.tol) for r in records)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "seed": args.seed,
        "params": params,
        "records": records,
        "summary": {"passed": failures == 0, "records": len(records), "failures": failures},
    }
    text = render_json(payload) if args.fmt == "json" else render_csv(args.command, payload)
    _write(args.out, text)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
