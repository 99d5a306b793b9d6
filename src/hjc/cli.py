"""Command line front end: verification sweeps and report emission.

Subcommands: ``berry`` (classical chart sweep over a grid plus random
samples), ``jc`` (quantum chart decomposition checks), ``strings``
(singular-sector map over a theta sweep), ``evolve`` (closed-form
propagator against the eigensolver oracle) and ``grassmann`` (coordinate
round trip).  ``--command NAME`` is accepted as an alias for the leading
subcommand.

Exit codes: 0 all checks passed, 1 a numerical check failed (the report
is still written) or stdout was closed before the report was complete, 2
usage or configuration error.  Output is JSON
(``"schema": 2`` envelope) or CSV with ``#``-prefixed header lines; both
are byte-identical across runs with the same ``--seed`` (env fallback
``HJC_SEED``).

Each command's record is declared once, in ``RECORDS``: every field with
its JSON type, whether it may be null, the ``Tolerances`` field that
judges it when it is a residual, and its CSV column.  Its ``params`` are
declared the same way, in ``PARAMS``.  A command yields its records as
column chunks (see ``judge``); the JSON schemas (``SCHEMAS``, params
included), the CSV columns (``CSV_COLUMNS``), every record's ``pass`` and
both writers (``render_json``, ``render_csv``) are derived from the
declarations.  Each chunk is judged and written before the next is
computed.  ``berry`` evaluates every check for both charts at every point
of a chunk, and writes null where a chart is not admissible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import stat
import sys
import tempfile
from typing import Optional

import numpy as np

from . import algebra, berry, grassmann, jc, oracle
from .config import DEFAULT, Tolerances
from .report import (
    BOOL, INT, NUM, SCHEMA_VERSION, STR, SUMMARY, Field, Record, Report, csv_chunk, csv_columns, json_chunk, judge,
    schema, transpose,
)

# ---------------------------------------------------------------------------
# Report declarations (see :mod:`hjc.report`)

_CHARTS = tuple(c.value for c in jc.ChartTag)
_ALGEBRAS = tuple(algebra.AlgebraTag.__members__)
_DIM = Field("dim", INT)
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


def _berry_norms(cols) -> list:
    # ||H|| = max(1, r), r = hypot(w, z)
    w, z = (np.asarray(cols[k]).tolist() for k in ("point.w.coeffs", "point.z"))
    return [max(1.0, math.hypot(*wi, zi)) for wi, zi in zip(w, z)]


RECORDS = {
    "berry": Record(
        Field("index", INT),
        Field("kind", ("grid", "sample")),
        Field(
            "point",
            Record(
                Field(
                    "w",
                    Record(Field("tag", _ALGEBRAS), Field("coeffs", [NUM], csv=False)),
                    csv="",
                ),
                Field("z", NUM),
                Field("norm_w", NUM, json=False),
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
        norm=_berry_norms,
    ),
    "jc": Record(
        Field("theta", NUM),
        _DIM,
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
        norm=lambda cols: [
            max(1.0, float(np.max(jc.radius_diag(d, theta, 0)))) for d, theta in zip(cols["dim"], cols["theta"])
        ],
    ),
    "strings": Record(
        Field("theta", NUM),
        Field("dim", INT, csv=False),
        Field(
            "sectors",
            [
                Record(*_SECTOR, Field("denominator", NUM), Field("status", jc.SECTOR_STATUSES))
            ],
            rows=True,
        ),
        Field("singular", [Record(*_SECTOR)], csv=False),
        Field("ground_only", BOOL, ok=bool, csv=False),
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
        _DIM,
        _SINGULAR_LEVELS,
        Field("forms_residual", NUM, null=True, tol="strict"),
        Field("roundtrip_residual", NUM, null=True, tol="reconstruction"),
        Field("intermediate_identity_residual", NUM, null=True, tol="algebraic"),
        _PASS,
    ),
}


# The params of each command's report, as its ``cmd_*`` returns them.
_THETAS = Field("thetas", [NUM])
PARAMS = {
    "berry": Record(Field("algebra", _ALGEBRAS), Field("grid", STR), Field("samples", INT)),
    "jc": Record(Field("theta", NUM), _DIM, Field("g", NUM)),
    "strings": Record(_THETAS, _DIM),
    "evolve": Record(
        Field("theta", NUM), Field("g", NUM), Field("omega", NUM, null=True), Field("delta", NUM, null=True),
        _DIM, Field("t_max", NUM), Field("t_steps", INT), Field("n0", INT),
    ),
    "grassmann": Record(_THETAS, _DIM),
}

SCHEMAS = {
    command: schema(
        Record(
            Field("schema", (SCHEMA_VERSION,)),
            Field("command", (command,)),
            Field("seed", INT),
            Field("params", PARAMS[command]),
            Field("records", [rec]),
            Field("summary", SUMMARY),
        )
    )
    for command, rec in RECORDS.items()
}

# CSV columns per command, documented in the README.
CSV_COLUMNS = {command: list(csv_columns(rec)) for command, rec in RECORDS.items()}


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


@functools.lru_cache(maxsize=16)
def parse_grid(spec: str):
    """The (||w|| values, z values) of a grid spec, read-only arrays that
    each later request with the same spec shares."""
    axes = {}
    for name, values in (_parse_axis(tok) for tok in spec.split(",") if tok):
        if name not in ("z", "w"):
            raise ConfigError(f"grid {spec!r} has an unknown axis {name!r} (want z= and w=)")
        if name in axes:
            raise ConfigError(f"grid {spec!r} gives the axis {name!r} twice")
        axes[name] = values
    if "z" not in axes or "w" not in axes:
        raise ConfigError(f"grid {spec!r} needs both z= and w= axes")
    if np.any(axes["w"] < 0):
        raise ConfigError("w axis holds ||w|| values and must be non-negative")
    if math.hypot(np.max(axes["w"]), np.max(np.abs(axes["z"]))) == math.inf:
        raise ConfigError(f"grid {spec!r} holds points whose radius hypot(w, z) overflows")
    for values in axes.values():
        values.flags.writeable = False
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
    overrides = {}
    for name in (f.name for f in dataclasses.fields(Tolerances)):
        v = getattr(args, f"tol_{name}")
        if v is not None:
            if _finite_value(f"tol-{name}", v) < 0.0:
                raise ConfigError(f"tol-{name} must be non-negative, got {v!r}")
            overrides[name] = v
    return dataclasses.replace(DEFAULT, **overrides) if overrides else DEFAULT


# ---------------------------------------------------------------------------
# Command implementations: each returns (params, column chunks); ``pass``
# is added by ``judge``.

# Points per chunk of ``hjc berry``: bounds the memory of the batched
# products, whose intermediates hold 2 KB per octonion point and product,
# and of the chunk's report text.
BERRY_CHUNK = 1024

_REGULAR, _ORIGIN = (berry.POINT_CLASSES.index(c) for c in (berry.PointClass.REGULAR, berry.PointClass.ORIGIN))
_CLASS_NAMES = np.array([c.value for c in berry.POINT_CLASSES], dtype=object)


def _berry_pass(pts: berry.Points) -> dict:
    """The class, the presence of the charts and the projector, and one
    float column (NaN where null) per residual and conditioning of a chunk
    of berry points, from one half-angle per chart; a non-finite value
    raises only where it is reported.  Each product depth is one
    ``matmul_coeffs`` call and all residual norms are one ``norms`` call."""
    tag, n = pts.tag, pts.z.shape[0]
    codes = berry.classify(pts)
    regular, away = codes == _REGULAR, codes != _ORIGIN
    charts = np.stack([berry.admissible(codes, chart) for chart in berry.ChartTag])
    with np.errstate(all="ignore"):
        halves = {chart: berry._half_angle(pts, chart) for chart in berry.ChartTag}
        u = berry._unitaries(pts, halves)  # (chart, point, 2, 2, dim)
        ud, proj = berry.dagger_coeffs(u), berry._projector(pts, *(a for a, _ in halves.values()))
        mm = functools.partial(berry.matmul_coeffs, tag)
        left, right = (ud, u[:1], proj[None]), (u, berry._transition(pts)[None], proj[None])
        unit_cocycle_idem = mm(np.concatenate(left), np.concatenate(right))
        # u diag(r, -r) and u diag(1, 0) are u with its columns scaled
        recon, agree = mm(np.stack((u * np.stack((pts.r, -pts.r), axis=-1)[:, None, :, None], u * [[1.0], [0.0]])), ud)
        # reconstruction I, II, unitarity I, II, cocycle, idempotency, hermiticity, agreement I, II
        diffs = np.concatenate((recon, unit_cocycle_idem, berry.dagger_coeffs(proj)[None], agree))
        diffs[:2] -= berry.hamiltonian_coeffs(pts)
        for i in (0, 1):  # the identity
            diffs[2:4, :, i, i, 0] -= 1.0
        diffs[4] -= u[1]
        diffs[5:] -= proj
        res = berry._max_last(berry.norms(diffs).reshape(9, n, 4))
    used = np.concatenate((charts, charts, [regular, away, away], charts))
    if not np.isfinite(res[used]).all():  # a non-finite difference, or a norm past the double range
        berry._finite(diffs[used])
    res[~used] = np.nan
    cols = {
        "class": _CLASS_NAMES[codes],
        "cocycle": res[4],
        "projector": away,
        "projector.idempotency": res[5],
        "projector.hermiticity": res[6],
        "projector.chart_agreement": np.fmax(res[7], res[8]),
    }
    for i, (chart, (_, f)) in enumerate(halves.items()):
        name = f"charts.{chart.value}"
        cols[name] = charts[i]
        cols[name + ".reconstruction"], cols[name + ".unitarity"] = res[i], res[2 + i]
        # an infinite conditioning is bounded by no tolerance: null
        cols[name + ".conditioning"] = np.where(charts[i] & (f != np.inf), f, np.nan)
    return cols


def berry_chunk(pts: berry.Points, start: int, grid: int) -> dict:
    """The columns of the berry records of ``pts``, the points numbered
    from ``start``, the first ``grid`` points of the sweep being the grid."""
    index = np.arange(start, start + pts.z.shape[0])
    return {
        "index": index,
        "kind": np.where(index < grid, "grid", "sample").astype(object),
        "point.w.tag": np.full(len(index), pts.tag.name, dtype=object),
        "point.w.coeffs": pts.w,
        "point.z": pts.z,
        "point.norm_w": pts.norm_w,
        **_berry_pass(pts),
    }


def _berry_chunks(args):
    """The berry records, ``BERRY_CHUNK`` points at a time: the grid, then
    the samples, each chunk's samples drawn just before it is checked (one
    draw of dim + 1 normals per sample, the same stream as drawing w and
    then z sample by sample)."""
    tag = algebra.AlgebraTag[args.algebra]
    wscales, zvals = args.axes
    rng = np.random.default_rng(args.seed)
    direction = algebra.random_element(tag, rng)
    if direction.norm() == 0.0:  # pragma: no cover - measure zero
        direction = algebra.one(tag)
    direction = (direction / direction.norm()).coeffs
    grid = len(wscales) * len(zvals)
    total = grid + args.samples
    for start in range(0, total, BERRY_CHUNK):
        stop = min(start + BERRY_CHUNK, total)
        cells = np.arange(start, min(stop, grid))
        draws = rng.standard_normal((max(stop, grid) - max(start, grid), tag.dim + 1))
        pts = berry.Points.of(
            tag,
            np.concatenate((wscales[cells // len(zvals)][:, None] * direction, draws[:, :-1])),
            np.concatenate((zvals[cells % len(zvals)], draws[:, -1])),
        )
        yield berry_chunk(pts, start, grid)


def cmd_berry(args):
    return {"algebra": args.algebra, "grid": args.grid, "samples": args.samples}, _berry_chunks(args)


def _jc_chart(p, chart, h):
    """A chart's record and its unitary, None where the chart is
    inadmissible."""
    try:
        dec = jc.chart_decompose(p, chart)
    except jc.SingularSectorError as err:
        return {
            "admissible": False,
            "singular_levels": sorted({level for _, level in err.sectors}),
            "reconstruction": None,
            "unitarity": None,
            "ordering_agreement": None,
        }, None
    v, d = dec.unitary, dec.diagonal
    return {
        "admissible": True,
        "singular_levels": [],
        "reconstruction": jc.block_residual((v @ d) @ v.dagger(), h),
        "unitarity": jc.block_residual(v.dagger() @ v, jc.BlockOperator.identity(p.dim)),
        "ordering_agreement": jc.block_residual(v, jc.chart_unitary(p, chart, normalizer="right")),
    }, v


def cmd_jc(args):
    p = jc.JCParams(theta=args.theta, dim=args.dim, g=args.g)
    h = jc.hamiltonian(p)
    checked = {c.value: _jc_chart(p, c, h) for c in (jc.ChartTag.I, jc.ChartTag.II)}
    radii = jc.radius_diag(p.dim, p.theta, 0)
    evals = oracle.eigvals_hermitian(h.full())  # ascending
    eig_dev = float(np.max(np.abs(evals - np.sort(np.concatenate([radii, -radii])))))
    proj = jc.projector(p)
    p0 = jc.block_diag(np.ones(p.dim), np.zeros(p.dim))
    units = [v for _, v in checked.values() if v is not None]
    form = max((jc.block_residual((v @ p0) @ v.dagger(), proj) for v in units), default=None)
    plus, minus = jc.spectral_decomposition(p)
    lam = jc.block_diag(*jc.row_radii(p))
    record = {
        "theta": args.theta,
        "dim": args.dim,
        **{f"charts.{name}.{k}": v for name, (rec, _) in checked.items() for k, v in rec.items()},
        "eigenvalue_max_dev": eig_dev,
        "projector.idempotency": jc.block_residual(proj @ proj, proj),
        "projector.hermiticity": jc.block_residual(proj.dagger(), proj),
        "projector.form_agreement": form,
        "projector.ordering_agreement": jc.block_residual(jc.projector(p, normalizer="right"), proj),
        "spectral.reconstruction": jc.block_residual(plus + minus, h),
        "spectral.commutator": jc.block_residual(lam @ proj, proj @ lam),
    }
    return {"theta": args.theta, "dim": args.dim, "g": args.g}, [transpose([record])]


def cmd_strings(args):
    records = []
    for theta in args.thetas:
        report = jc.singular_sectors(jc.JCParams(theta=theta, dim=args.dim))
        singular = report.singular()
        found = set(zip(*(col.tolist() for col in singular.values())))
        # chart I is singular at the ground level unless theta > 0, chart II
        # unless theta < 0; below |theta| ~ 5e-8 both ground denominators
        # 4 theta^2 fall under the threshold, and nothing else may
        expected = {(c, 2, 0) for c, off in (("I", theta > 0), ("II", theta < 0)) if not off}
        records.append(
            {
                "theta": theta,
                "dim": args.dim,
                "sectors": report.columns,
                "singular": singular,
                "ground_only": expected <= found <= {("I", 2, 0), ("II", 2, 0)},
            }
        )
    return {"thetas": list(args.thetas), "dim": args.dim}, [transpose(records)]


def cmd_evolve(args):
    # with omega/delta supplied the full split propagator is checked,
    # otherwise the bare interaction one; <sigma3> is identical either way
    # (the free part only rotates number-basis phases)
    p, d = args.model, args.dim
    if args.omega is not None:
        h1, h2 = jc.full_hamiltonian(p)
        h, evolve = h1 + h2, jc.full_propagator
    else:
        h, evolve = args.g * jc.hamiltonian(p), jc.propagator
    evals, evecs = oracle.eig_hermitian(h.full())
    ts = np.linspace(0.0, args.t_max, args.t_steps)
    u = evolve(p, ts)
    start = np.zeros(2 * d)
    start[args.n0] = 1.0  # |excited, n0>
    psi = np.abs(u.apply(start)) ** 2
    columns = {
        "t": ts,
        "closed_vs_oracle_residual": jc.eigenbasis_residuals(u, evals, evecs, ts),
        "unitarity": jc.block_residual(u.dagger() @ u, jc.BlockOperator.identity(d)),
        "sigma3": np.sum(psi[:, :d], axis=-1) - np.sum(psi[:, d:], axis=-1),
    }
    params = {
        "theta": p.theta, "g": args.g, "omega": args.omega, "delta": args.delta,
        "dim": d, "t_max": args.t_max, "t_steps": args.t_steps, "n0": args.n0,
    }
    return params, [columns]


def cmd_grassmann(args):
    records = []
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
            left, shifted = grassmann.local_coordinate_forms(p)
        except jc.SingularSectorError as err:
            rec["singular_levels"] = sorted({level for _, level in err.sectors})
            continue
        proj = grassmann.projector_from_coordinate(shifted)
        # the upper-left block (1 + Z+Z)^-1 against its closed form
        # (R1 + theta) / 2R1, R1 the row 1 radius (theta > 0 here), from
        # halves so that R1 + theta is never formed
        r1, _ = jc.row_radii(p)
        upper_left = jc.BlockOperator(args.dim, ((proj.diags[0][0], {}), ({}, {})))
        expected = jc.block_diag((0.5 * r1 + 0.5 * theta) / r1, np.zeros(args.dim))
        rec["forms_residual"] = float(np.max(np.abs(left - shifted)))
        rec["roundtrip_residual"] = jc.block_residual(proj, jc.projector(p))
        rec["intermediate_identity_residual"] = jc.block_residual(upper_left, expected)
    return {"thetas": list(args.thetas), "dim": args.dim}, [transpose(records)]


COMMANDS = {
    "berry": cmd_berry,
    "jc": cmd_jc,
    "strings": cmd_strings,
    "evolve": cmd_evolve,
    "grassmann": cmd_grassmann,
}


# ---------------------------------------------------------------------------
# Rendering


def render_json(report: Report, cols: Optional[dict] = None) -> str:
    """The JSON text of the next chunk of the report's records (the head
    of the report first), or without columns its rest; see
    :func:`hjc.report.json_chunk`."""
    return json_chunk(RECORDS[report.command], PARAMS[report.command], report, cols)


def render_csv(report: Report, cols: Optional[dict] = None) -> str:
    """The CSV text of the next chunk of the report's records (the header
    lines first), or without columns its empty rest; see
    :func:`hjc.report.csv_chunk`."""
    return csv_chunk(RECORDS[report.command], PARAMS[report.command], report, cols)


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
    for name in (f.name for f in dataclasses.fields(Tolerances)):
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


def _open_out(path: str):
    """(file, temporary path, target) of ``--out``: stdout for ``-`` or the
    file that stdout writes to (an appending stdout keeps appending), the
    path as given for another device or pipe (the /dev/fd name of a pipe
    resolves to one that cannot be opened), else a temporary file beside the
    target that replaces it once the report is complete (mode kept, or
    new-file mode for a new target)."""
    try:
        st = None if path == "-" else os.stat(path)
    except FileNotFoundError:
        st = None
    try:
        to_stdout = path == "-" or st is not None and os.path.samestat(st, os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # a stdout without a file descriptor
        to_stdout = False
    if to_stdout:
        return sys.stdout, None, None
    if st is not None and not stat.S_ISREG(st.st_mode):
        return open(path, "w"), None, None
    target = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=f".{os.path.basename(target)}.", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, st.st_mode & 0o7777 if st is not None else 0o666 & ~umask)
    return os.fdopen(fd, "w"), tmp, target


def _report(args, write) -> int:
    """Compute, judge and write the report chunk by chunk; the number of
    failed records."""
    params, chunks = COMMANDS[args.command](args)
    report = Report(args.command, args.seed, params)
    render = render_json if args.fmt == "json" else render_csv
    for cols in chunks:
        passed = judge(RECORDS[args.command], cols, args.tol)
        write(render(report, cols))
        report.records += len(passed)
        report.failures += int(np.count_nonzero(~passed))
    write(render(report))
    return report.failures


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
    try:
        fh, tmp, target = _open_out(args.out)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    try:
        failures = _report(args, fh.write)
        if fh is sys.stdout:
            fh.flush()
        else:
            fh.close()
        if tmp is not None:
            os.replace(tmp, target)
    except BaseException as exc:
        # a report that stops part way never replaces the target
        if fh is not sys.stdout:
            fh.close()
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if fh is sys.stdout and isinstance(exc, BrokenPipeError):
            # the reader closed stdout: the interpreter's final flush of what
            # is left goes to devnull, so no second error is printed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        raise
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
