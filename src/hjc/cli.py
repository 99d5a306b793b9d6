"""Command line front end: verification sweeps and report emission.

Subcommands: ``berry`` (classical chart sweep over a grid plus random
samples), ``jc`` (quantum chart decomposition checks), ``strings``
(singular-sector map over a theta sweep), ``evolve`` (closed-form
propagator against the eigensolver oracle) and ``grassmann`` (coordinate
round trip), each the ``cmd_*`` function named after it.  Every input is
an option: the subcommand's own, declared in ``PARAMS``, and the common
flags; nothing is read from the environment.

Exit codes: 0 all checks passed, 1 a numerical check failed (the report
is still written) or stdout was closed before the report was complete, 2
usage or configuration error.  A phase of ``evolve`` beyond the double
range (extreme detuning or frequency) is NaN, not a warning, so its
records fail.  Output is JSON
(``"schema": 6`` envelope) or CSV with ``#``-prefixed header lines; both
are byte-identical across runs with the same ``--seed`` (default 0).

Each command's record is declared once, in ``RECORDS``: every field with
its JSON type, whether it may be null, the ``Tolerances`` field that
judges it when it is a residual, and its CSV column.  Each of its params
is declared once, in ``PARAMS``, with its option's flag, default and help:
the parser, the checks of single options and the report's ``params`` come
from that declaration, the help of a command from its ``cmd_*`` docstring.
A command yields its records as column chunks (see ``judge``), with the
||H|| column its record names as ``norm`` (``berry``, ``jc``); the JSON
schemas (``SCHEMAS``, params included), the CSV columns (``CSV_COLUMNS``),
every record's ``pass`` and both writers (``render_json``,
``render_csv``) are derived from the declarations.  Each chunk is judged
and written before the next is computed.  ``berry`` evaluates every check
for both charts at every point of a chunk, and writes null where a chart
is not admissible.
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
_PASS = Field("pass", BOOL)
# a singular set other than the ground level contradicts the paper
_SINGULAR_LEVELS = Field("singular_levels", [INT], ok=lambda levels: levels in ([], [0]))

_CHART_CHECK = Record(
    Field("reconstruction", NUM, tol="algebraic", rel=True),
    Field("unitarity", NUM, tol="algebraic"),
    Field("conditioning", NUM, null=True),
)
_JC_CHART = Record(
    Field("reconstruction", NUM, null=True, tol="reconstruction", rel=True),
    Field("unitarity", NUM, null=True, tol="algebraic"),
    _SINGULAR_LEVELS,
    _PASS,
)
_SECTOR = (Field("chart", _CHARTS), Field("row", INT), Field("level", INT))
_NORM = "hamiltonian_norm"  # the chunk column of every record's ||H||, undeclared


RECORDS = {
    "berry": Record(
        Field(
            "point",
            Record(
                Field("w", Record(Field("coeffs", [NUM])), csv=False),
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
                Field("chart_agreement", NUM, null=True, tol="algebraic"),
            ),
            null=True,
        ),
        _PASS,
        norm=_NORM,
    ),
    "jc": Record(
        Field("charts", Record(*(Field(c, _JC_CHART) for c in _CHARTS)), csv="chart", rows=True),
        Field("eigenvalue_max_dev", NUM, tol="reconstruction", rel=True, csv=False),
        Field(
            "projector",
            Record(
                Field("idempotency", NUM, tol="algebraic"),
                Field("form_agreement", NUM, null=True, tol="algebraic"),
            ),
            csv=False,
        ),
        Field("spectral", Record(Field("reconstruction", NUM, tol="reconstruction", rel=True)), csv=False),
        Field("pass", BOOL, csv=False),
        norm=_NORM,
    ),
    "strings": Record(
        Field("theta", NUM),
        # the entries not "regular": the other 4 dim - len(sectors), closed forms of (theta, dim), are bounded below
        Field("sectors", [Record(*_SECTOR, Field("denominator", NUM), Field("status", jc.SECTOR_STATUSES))], rows=True),
        Field("min_regular_denominator", NUM, null=True, csv=False),
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
        _SINGULAR_LEVELS,
        Field("roundtrip_residual", NUM, null=True, tol="reconstruction"),
        Field("intermediate_identity_residual", NUM, null=True, tol="algebraic"),
        _PASS,
    ),
}


@dataclasses.dataclass(frozen=True)
class _Param(Field):
    """A command's param and its option ``--dest`` (``-`` for ``_``; ``dest``
    is ``flag``, else the name) with argparse's ``default`` and ``help``."""

    default: object = None
    help: Optional[str] = None
    flag: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag or self.name


# The params of each command's report, each also the declaration of an option.
_dim = functools.partial(_Param, "dim", INT)
_thetas = functools.partial(_Param, "thetas", [NUM], flag="theta", help="comma separated detunings")
PARAMS = {
    "berry": Record(
        _Param("algebra", _ALGEBRAS, default="C"),
        _Param("grid", STR, default="z=-2:2:9,w=0:1:3", help="axes name=lo:hi:count, comma separated"),
        _Param("samples", INT, default=100),
    ),
    "jc": Record(_Param("theta", NUM, default=0.5), _dim(default=32)),
    "strings": Record(_thetas(default="-1,-0.5,-0.25,0.25,0.5,1"), _dim(default=16)),
    "evolve": Record(
        _Param("theta", NUM, help="default 0.25, or derived from omega/delta/g"), _Param("g", NUM, default=1.0),
        _Param("omega", NUM, null=True), _Param("delta", NUM, null=True), _dim(default=40),
        _Param("t_max", NUM, default=10.0), _Param("t_steps", INT, default=50),
        _Param("n0", INT, default=0, help="initial field level (atom starts excited)"),
    ),
    "grassmann": Record(_thetas(default="0.25,0.5,1,2"), _dim(default=24)),
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


# the --tol-* options, one per Tolerances field
_TOLERANCES = tuple(f.name for f in dataclasses.fields(Tolerances))


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
    for name in _TOLERANCES:
        v = getattr(args, f"tol_{name}")
        if v is not None:
            if _finite_value(f"tol-{name}", v) < 0.0:
                raise ConfigError(f"tol-{name} must be non-negative, got {v!r}")
            overrides[name] = v
    return dataclasses.replace(DEFAULT, **overrides) if overrides else DEFAULT


# ---------------------------------------------------------------------------
# Command implementations: ``cmd_<command>`` returns the command's column
# chunks, to which ``judge`` adds ``pass``; its docstring opens with its help.

# Points per chunk of ``hjc berry``: bounds the memory of the batched
# products, whose intermediates hold 2 KB per octonion point and product,
# and of the chunk's report text.
BERRY_CHUNK = 1024

_CLASS_NAMES = np.array([c.value for c in berry.POINT_CLASSES], dtype=object)
_CHART_PATHS = tuple(f"charts.{c.value}" for c in berry.ChartTag)  # chart rows of berry.Checks


def _berry_columns(checks: berry.Checks) -> dict:
    """The class, the presence of the charts and the projector, and one
    float column (NaN where null) per residual and conditioning."""
    cols = {
        "class": _CLASS_NAMES[checks.codes],
        "cocycle": checks.cocycle,
        "projector": checks.projector,
        "projector.idempotency": checks.idempotency,
        "projector.chart_agreement": checks.chart_agreement,
    }
    for i, name in enumerate(_CHART_PATHS):
        cols[name] = checks.admissible[i]
        cols[name + ".reconstruction"], cols[name + ".unitarity"] = checks.reconstruction[i], checks.unitarity[i]
        cols[name + ".conditioning"] = checks.conditioning[i]
    return cols


def berry_chunk(pts: berry.Points) -> dict:
    """The columns of the berry records of ``pts`` and their ||H|| =
    max(1, r)."""
    return {
        "point.w.coeffs": pts.w,
        "point.z": pts.z,
        "point.norm_w": pts.norm_w,
        _NORM: np.maximum(1.0, pts.r),
        **_berry_columns(berry.check_points(pts)),
    }


def cmd_berry(args):
    """classical chart sweep

    The berry records, ``BERRY_CHUNK`` points at a time: the grid, then
    the samples, each chunk's samples drawn just before it is checked (one
    draw of dim + 1 normals per sample, the same stream as drawing w and
    then z sample by sample)."""
    tag = algebra.AlgebraTag[args.algebra]
    wscales, zvals = args.axes
    rng = np.random.default_rng(args.seed)
    direction = rng.standard_normal(tag.dim)
    norm = math.sqrt(direction.dot(direction))  # np.linalg.norm's sum and root
    if norm == 0.0:  # pragma: no cover - measure zero
        direction, norm = np.eye(tag.dim)[0], 1.0
    direction = direction / norm
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
        yield berry_chunk(pts)


def _jc_chart(p, chart, h, ident):
    """A chart's record and its unitary with its adjoint, None where the
    chart is inadmissible; ``ident`` is the identity of the space."""
    try:
        dec = jc.chart_decompose(p, chart)
    except jc.SingularSectorError as err:
        return {"singular_levels": err.levels, "reconstruction": None, "unitarity": None}, None
    v, d, vh = dec.unitary, dec.diagonal, dec.unitary.dagger()
    return {
        "singular_levels": [],
        "reconstruction": jc.block_residual((v @ d) @ vh, h),
        "unitarity": jc.block_residual(vh @ v, ident),
    }, (v, vh)


def cmd_jc(args):
    """quantum chart checks"""
    p = jc.JCParams(theta=args.theta, dim=args.dim)
    h = jc.hamiltonian(p)
    ident = jc.BlockOperator.identity(p.dim)
    checked = {c.value: _jc_chart(p, c, h, ident) for c in (jc.ChartTag.I, jc.ChartTag.II)}
    radii = jc.row_radii(p)[1]  # R(n), n = 0 .. d - 1
    evals = oracle.eigvals_hermitian(h.full())  # ascending
    eig_dev = float(np.max(np.abs(evals - np.sort(np.concatenate([radii, -radii])))))
    proj = jc.projector(p)
    p0 = jc.block_diag(np.ones(p.dim), np.zeros(p.dim))
    units = [u for _, u in checked.values() if u is not None]
    form = max((jc.block_residual((v @ p0) @ vh, proj) for v, vh in units), default=None)
    plus, minus = jc.spectral_decomposition(p, proj)
    record = {
        **{f"charts.{name}.{k}": v for name, (rec, _) in checked.items() for k, v in rec.items()},
        "eigenvalue_max_dev": eig_dev,
        "projector.idempotency": jc.block_residual(proj @ proj, proj),
        "projector.form_agreement": form,
        "spectral.reconstruction": jc.block_residual(plus + minus, h),
        _NORM: max(1.0, float(radii[-1])),  # max_n R(n) = R(d - 1)
    }
    return [transpose([record])]


def cmd_strings(args):
    """singular sector map"""
    records = []
    # the ground sector |g,0> is the classical point w = 0, z = theta
    ground = berry.classify(berry.Points.of(algebra.AlgebraTag.C, np.zeros((len(args.thetas), 2)), args.thetas))
    for theta, code in zip(args.thetas, ground):
        report = jc.singular_sectors(jc.JCParams(theta=theta, dim=args.dim))
        den, codes = report.denominators.reshape(-1), report.codes.reshape(-1)
        sectors = report.take(np.flatnonzero(codes))  # the entries not regular (status code 0)
        singular = sectors["status"] == "singular"
        found = set(zip(*(sectors[k][singular].tolist() for k in ("chart", "row", "level"))))
        expected = {(c.value, 2, 0) for c in berry.ChartTag if not berry.admissible(code, c)}
        records.append(
            {
                "theta": theta,
                "sectors": sectors,
                "min_regular_denominator": None if codes.all() else float(np.min(den, where=codes == 0, initial=np.inf)),
                "ground_only": expected <= found <= {("I", 2, 0), ("II", 2, 0)},
            }
        )
    return [transpose(records)]


def cmd_evolve(args):
    """propagator vs oracle"""
    # with omega/delta supplied the full split propagator is checked,
    # otherwise the bare interaction one; <sigma3> is identical either way
    # (the free part only rotates number-basis phases)
    p, d = args.model, args.dim
    evals, evecs = oracle.eig_hermitian(args.hamiltonian.full())
    ts = np.linspace(0.0, args.t_max, args.t_steps)
    u = jc.propagator(p, ts) if args.omega is None else jc.full_propagator(p, args.omega, ts)
    start = np.zeros(2 * d)
    start[args.n0] = 1.0  # |excited, n0>
    psi = np.abs(u.apply(start)) ** 2
    columns = {
        "t": ts,
        "closed_vs_oracle_residual": jc.eigenbasis_residuals(u, evals, evecs, ts),
        "unitarity": jc.block_residual(u.dagger() @ u, jc.BlockOperator.identity(d)),
        "sigma3": np.sum(psi[:, :d], axis=-1) - np.sum(psi[:, d:], axis=-1),
    }
    return [columns]


def cmd_grassmann(args):
    """coordinate round trip"""
    records = []
    for theta in args.thetas:
        p = jc.JCParams(theta=theta, dim=args.dim)
        rec = {"theta": theta, "singular_levels": []}
        rec |= dict.fromkeys(("roundtrip_residual", "intermediate_identity_residual"))  # null where chart I is singular
        records.append(rec)
        try:
            z = grassmann.local_coordinate(p)
        except jc.SingularSectorError as err:
            rec["singular_levels"] = err.levels
            continue
        proj = grassmann.projector_from_coordinate(z)
        # the upper-left block (1 + Z+Z)^-1, P0 P P0 with P0 = diag(1, 0),
        # against its closed form (R1 + theta) / 2R1 = h1 / R1, R1 and h1 the
        # row 1 radius and chart I half sum: the first row of jc._rows alone,
        # not the chart's denominators and row 2, which would stay alive
        # through jc.projector below
        r1, h1 = next(jc._rows(p, 1.0))
        p0 = jc.block_diag(np.ones(args.dim), np.zeros(args.dim))
        expected = jc.block_diag(h1 / r1, np.zeros(args.dim))
        rec["intermediate_identity_residual"] = jc.block_residual(p0 @ proj @ p0, expected)
        rec["roundtrip_residual"] = jc.block_residual(proj, jc.projector(p))
    return [transpose(records)]


COMMANDS = {command: globals()[f"cmd_{command}"] for command in PARAMS}


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
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
    common.add_argument("--out", default="-", help="output path, '-' for stdout")
    for name in _TOLERANCES:
        common.add_argument(f"--tol-{name}", type=float, default=None, dest=f"tol_{name}")

    parser = argparse.ArgumentParser(
        prog="hjc",
        description="Verification sweeps for division-algebra chart systems "
        "and the detuned Jaynes-Cummings model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in COMMANDS.items():
        q = sub.add_parser(command, parents=[common], help=(fn.__doc__ or "").split("\n")[0])
        for f in PARAMS[command].fields:
            q.add_argument(
                "--" + f.dest.replace("_", "-"), default=f.default, help=f.help,
                type=float if f.kind == NUM else int if f.kind == INT else None,
                choices=f.kind if isinstance(f.kind, tuple) else None,
            )
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Check the parsed options and complete them in place: ``fmt``,
    ``tol``, each ``[NUM]`` param (its option's list read), the berry grid
    ``axes`` (||w|| values, z values) and the evolve ``model``, ``theta``
    and ``hamiltonian``; evolve takes ``--theta`` (default 0.25)
    or ``--omega`` and ``--delta``, from which theta is (delta - omega)/2g,
    not both.  Every ``NUM`` option and entry of it must be finite."""
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    params = PARAMS[args.command].fields
    for f in params:
        if f.kind == NUM and getattr(args, f.dest) is not None:
            _finite_value(f.dest.replace("_", "-"), getattr(args, f.dest))
    args.fmt = args.fmt or ("csv" if args.command == "evolve" else "json")
    args.tol = _tolerances(args)
    if getattr(args, "dim", 2) < 2:
        raise ConfigError("dim must be at least 2")
    for f in params:
        if f.kind == [NUM]:
            setattr(args, f.name, parse_float_list(getattr(args, f.dest)))
    if args.command == "berry":
        if args.samples < 0:
            raise ConfigError("samples must be non-negative")
        args.axes = parse_grid(args.grid)
    elif args.command == "evolve":
        if (args.omega is None) != (args.delta is None):
            raise ConfigError("omega and delta must be supplied together")
        if args.t_steps <= 0:
            raise ConfigError("t-steps must be positive")
        if not 0 <= args.n0 < args.dim:
            raise ConfigError(f"initial level n0={args.n0} outside 0..{args.dim - 1}")
        omega, g = args.omega, args.g
        if omega is not None:
            if args.theta is not None:
                raise ConfigError("give theta or omega and delta, not both")
            if g == 0.0:
                raise ConfigError("coupling g = 0 leaves the detuning ratio undefined")
            args.theta = (args.delta - omega) / (2.0 * g)
        elif args.theta is None:
            args.theta = 0.25
        args.model = jc.JCParams(args.theta, args.dim, g)
        with np.errstate(over="ignore", invalid="ignore"):
            if omega is not None:
                h1, h2 = jc.full_hamiltonian(args.model, omega)
                args.hamiltonian = h1 + h2
            else:
                args.hamiltonian = g * jc.hamiltonian(args.model)
            if not math.isfinite(args.hamiltonian.max_abs()):
                raise ConfigError(f"the model Hamiltonian at theta={args.theta!r} has entries beyond the double range")


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
    report = Report(args.command, args.seed, {f.name: getattr(args, f.name) for f in PARAMS[args.command].fields})
    render = render_json if args.fmt == "json" else render_csv
    for cols in COMMANDS[args.command](args):
        passed = judge(RECORDS[args.command], cols, args.tol)
        write(render(report, cols))
        report.records += len(passed)
        report.failures += len(passed) - int(np.count_nonzero(passed))
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
        if out and re.match(r"-[^-]", tok) and re.fullmatch(r"--[^=]+", out[-1]):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(list(sys.argv[1:] if argv is None else argv)))
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
