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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import algebra, berry, grassmann, jc, oracle
from .config import DEFAULT, Tolerances

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# JSON report schemas (validated by the test suite)

_NUMBER_OR_NULL = {"type": ["number", "null"]}

_ENVELOPE = {
    "type": "object",
    "required": ["schema", "command", "seed", "params", "records", "summary"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
        "records": {"type": "array"},
        "summary": {
            "type": "object",
            "required": ["passed", "records", "failures"],
            "properties": {
                "passed": {"type": "boolean"},
                "records": {"type": "integer"},
                "failures": {"type": "integer"},
            },
        },
    },
}


def _envelope_with(record_schema: dict) -> dict:
    out = json.loads(json.dumps(_ENVELOPE))
    out["properties"]["records"] = {"type": "array", "items": record_schema}
    return out


_CHART_CHECK = {
    "type": ["object", "null"],
    "required": ["reconstruction", "unitarity", "conditioning"],
    "properties": {
        "reconstruction": {"type": "number"},
        "unitarity": {"type": "number"},
        "conditioning": _NUMBER_OR_NULL,
    },
}

SCHEMAS = {
    "berry": _envelope_with(
        {
            "type": "object",
            "required": ["index", "kind", "point", "class", "charts", "cocycle", "projector", "pass"],
            "properties": {
                "index": {"type": "integer"},
                "kind": {"enum": ["grid", "sample"]},
                "point": {
                    "type": "object",
                    "required": ["w", "z"],
                    "properties": {
                        "w": {
                            "type": "object",
                            "required": ["tag", "coeffs"],
                            "properties": {
                                "tag": {"enum": ["R", "C", "H", "O"]},
                                "coeffs": {"type": "array", "items": {"type": "number"}},
                            },
                        },
                        "z": {"type": "number"},
                    },
                },
                "class": {"enum": ["regular", "lower_string", "upper_string", "origin"]},
                "charts": {
                    "type": "object",
                    "required": ["I", "II"],
                    "properties": {"I": _CHART_CHECK, "II": _CHART_CHECK},
                },
                "cocycle": _NUMBER_OR_NULL,
                "projector": {
                    "type": ["object", "null"],
                    "required": ["idempotency", "hermiticity", "chart_agreement"],
                    "properties": {
                        "idempotency": {"type": "number"},
                        "hermiticity": {"type": "number"},
                        "chart_agreement": _NUMBER_OR_NULL,
                    },
                },
                "pass": {"type": "boolean"},
            },
        }
    ),
    "jc": _envelope_with(
        {
            "type": "object",
            "required": ["theta", "dim", "charts", "eigenvalue_max_dev", "projector", "spectral", "pass"],
            "properties": {
                "theta": {"type": "number"},
                "dim": {"type": "integer"},
                "charts": {"type": "object"},
                "eigenvalue_max_dev": {"type": "number"},
                "projector": {
                    "type": "object",
                    "required": ["idempotency", "hermiticity", "form_agreement", "ordering_agreement"],
                },
                "spectral": {
                    "type": "object",
                    "required": ["reconstruction", "commutator"],
                },
                "pass": {"type": "boolean"},
            },
        }
    ),
    "strings": _envelope_with(
        {
            "type": "object",
            "required": ["theta", "dim", "sectors", "singular", "ground_only", "lattice", "pass"],
            "properties": {
                "theta": {"type": "number"},
                "dim": {"type": "integer"},
                "sectors": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["chart", "row", "level", "denominator", "status"],
                    },
                },
                "singular": {"type": "array"},
                "ground_only": {"type": "boolean"},
                "lattice": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["level_pair", "color"],
                        "properties": {
                            "level_pair": {"type": "array"},
                            "color": {"enum": ["black", "white"]},
                        },
                    },
                },
                "pass": {"type": "boolean"},
            },
        }
    ),
    "evolve": _envelope_with(
        {
            "type": "object",
            "required": ["t", "closed_vs_oracle_residual", "unitarity", "sigma3", "pass"],
            "properties": {
                "t": {"type": "number"},
                "closed_vs_oracle_residual": {"type": "number"},
                "unitarity": {"type": "number"},
                "sigma3": {"type": "number"},
                "pass": {"type": "boolean"},
            },
        }
    ),
    "grassmann": _envelope_with(
        {
            "type": "object",
            "required": [
                "theta",
                "dim",
                "singular_levels",
                "forms_residual",
                "roundtrip_residual",
                "intermediate_identity_residual",
                "pass",
            ],
            "properties": {
                "theta": {"type": "number"},
                "dim": {"type": "integer"},
                "singular_levels": {"type": "array", "items": {"type": "integer"}},
                "forms_residual": _NUMBER_OR_NULL,
                "roundtrip_residual": _NUMBER_OR_NULL,
                "intermediate_identity_residual": _NUMBER_OR_NULL,
                "pass": {"type": "boolean"},
            },
        }
    ),
}

# CSV columns per command, fixed and documented in the README.
CSV_COLUMNS = {
    "berry": [
        "index", "kind", "tag", "z", "norm_w", "class",
        "chart_I_reconstruction", "chart_I_unitarity", "chart_I_conditioning",
        "chart_II_reconstruction", "chart_II_unitarity", "chart_II_conditioning",
        "cocycle", "projector_idempotency", "projector_hermiticity",
        "projector_chart_agreement", "pass",
    ],
    "jc": [
        "theta", "dim", "chart", "admissible", "reconstruction", "unitarity",
        "ordering_agreement", "singular_levels", "pass",
    ],
    "strings": ["theta", "chart", "row", "level", "denominator", "status"],
    "evolve": ["t", "closed_vs_oracle_residual", "unitarity", "sigma3"],
    "grassmann": [
        "theta", "dim", "singular_levels", "forms_residual",
        "roundtrip_residual", "intermediate_identity_residual", "pass",
    ],
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config


@dataclasses.dataclass
class RunConfig:
    command: str
    seed: int
    fmt: str
    out: str
    tol: Tolerances
    algebra: str = "C"
    grid: str = "z=-2:2:9,w=0:1:3"
    samples: int = 100
    theta: float = 0.5
    thetas: tuple = ()
    dim: int = 32
    g: float = 1.0
    omega: float = None
    delta: float = None
    t_max: float = 10.0
    t_steps: int = 50
    n0: int = 0


def _parse_axis(token: str):
    try:
        name, span = token.split("=")
        lo, hi, count = span.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid token {token!r} (want name=lo:hi:count)") from exc
    if count <= 0:
        raise ConfigError(f"empty grid axis {token!r}")
    return name, np.linspace(lo, hi, count)


def parse_grid(spec: str):
    axes = dict(_parse_axis(tok) for tok in spec.split(",") if tok)
    if "z" not in axes or "w" not in axes:
        raise ConfigError(f"grid {spec!r} needs both z= and w= axes")
    if np.any(axes["w"] < 0):
        raise ConfigError("w axis holds ||w|| values and must be non-negative")
    return axes["w"], axes["z"]


def parse_float_list(text: str):
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc
    if not vals:
        raise ConfigError("empty value list")
    return vals


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = DEFAULT
    overrides = {}
    for name in ("algebraic", "strict", "reconstruction", "propagator"):
        v = getattr(args, f"tol_{name}", None)
        if v is not None:
            overrides[name] = v
    return dataclasses.replace(tol, **overrides) if overrides else tol


# ---------------------------------------------------------------------------
# Command implementations


def _finite(x: float) -> float:
    return float(x) if math.isfinite(x) else None


def _berry_point_record(index, kind, point, tol):
    tag = point.tag
    cls = berry.classify_point(point, tol)
    rec = {
        "index": index,
        "kind": kind,
        "point": {"w": point.w.to_json(), "z": point.z},
        "class": cls.value,
        "charts": {"I": None, "II": None},
        "cocycle": None,
        "projector": None,
        "pass": True,
    }
    checks = []
    ham = berry.hamiltonian(point)
    ident = berry.Matrix2K.identity(tag)
    units = {}
    for chart in (berry.ChartTag.I, berry.ChartTag.II):
        try:
            dec = berry.chart_decompose(point, chart, tol)
        except berry.DiracStringError:
            continue
        u, d = dec.unitary, dec.diagonal
        recon = berry.residual((u @ d) @ u.dagger(), ham)
        unit = berry.residual(u.dagger() @ u, ident)
        rec["charts"][chart.value] = {
            "reconstruction": recon,
            "unitarity": unit,
            "conditioning": _finite(dec.conditioning),
        }
        units[chart] = u
        checks += [recon <= tol.algebraic, unit <= tol.algebraic]
    if cls is berry.PointClass.REGULAR:
        phi = berry.transition_function(point, tol)
        coc = berry.residual(units[berry.ChartTag.I] @ phi, units[berry.ChartTag.II])
        rec["cocycle"] = coc
        checks.append(coc <= tol.algebraic)
    if cls is not berry.PointClass.ORIGIN:
        proj = berry.projector(point, tol)
        idem = berry.residual(proj @ proj, proj)
        herm = berry.residual(proj.dagger(), proj)
        agree = None
        if units:
            p0 = berry.Matrix2K.diag(algebra.one(tag), algebra.zero(tag))
            agree = max(
                berry.residual((u @ p0) @ u.dagger(), proj) for u in units.values()
            )
            checks.append(agree <= tol.algebraic)
        rec["projector"] = {
            "idempotency": idem,
            "hermiticity": herm,
            "chart_agreement": agree,
        }
        checks += [idem <= tol.algebraic, herm <= tol.algebraic]
    rec["pass"] = all(checks)
    return rec


def cmd_berry(cfg: RunConfig):
    tag = algebra.AlgebraTag[cfg.algebra]
    wscales, zvals = parse_grid(cfg.grid)
    rng = np.random.default_rng(cfg.seed)
    direction = algebra.random_element(tag, rng)
    if direction.norm() == 0.0:  # pragma: no cover - measure zero
        direction = algebra.one(tag)
    direction = direction / direction.norm()
    records = []
    index = 0
    for s in wscales:
        for z in zvals:
            point = berry.BasePoint(direction * float(s), float(z))
            records.append(_berry_point_record(index, "grid", point, cfg.tol))
            index += 1
    for _ in range(cfg.samples):
        point = berry.BasePoint(algebra.random_element(tag, rng), float(rng.standard_normal()))
        records.append(_berry_point_record(index, "sample", point, cfg.tol))
        index += 1
    return {"algebra": cfg.algebra, "grid": cfg.grid, "samples": cfg.samples}, records


def _jc_chart_record(p, chart, tol, scale):
    try:
        dec = jc.chart_decompose(p, chart, tol)
    except jc.SingularSectorError as err:
        levels = sorted({s.level for s in err.sectors})
        return {
            "admissible": False,
            "singular_levels": levels,
            "reconstruction": None,
            "unitarity": None,
            "ordering_agreement": None,
            "pass": levels == [0],
        }
    v, d = dec.unitary, dec.diagonal
    recon = jc.block_residual((v @ d) @ v.dagger(), jc.hamiltonian(p), margin=2)
    unit = jc.block_residual(v.dagger() @ v, jc.BlockOperator.identity(p.dim), margin=1)
    other = jc.chart_unitary(p, chart, normalizer="right", tol=tol)
    orders = jc.block_residual(v, other)
    ok = recon <= tol.reconstruction * scale and unit <= tol.algebraic and orders <= tol.strict
    return {
        "admissible": True,
        "singular_levels": [],
        "reconstruction": recon,
        "unitarity": unit,
        "ordering_agreement": orders,
        "pass": ok,
    }


def cmd_jc(cfg: RunConfig):
    p = jc.JCParams(theta=cfg.theta, dim=cfg.dim, g=cfg.g)
    tol = cfg.tol
    radii = jc.radius_diag(p.dim, p.theta, 0)
    # residuals of H itself scale with ||H|| = max R(n): a backward-stable
    # eigensolver or product is off by about eps ||H|| (see README)
    scale = max(1.0, float(np.max(radii)))
    charts = {c.value: _jc_chart_record(p, c, tol, scale) for c in (jc.ChartTag.I, jc.ChartTag.II)}
    evals, _ = oracle.eig_hermitian(jc.hamiltonian(p).full())
    pattern = np.sort(np.concatenate([radii, -radii]))
    eig_dev = float(np.max(np.abs(np.sort(evals) - pattern)))
    proj = jc.projector(p, tol=tol)
    idem = jc.block_residual(proj @ proj, proj, margin=1)
    herm = jc.block_residual(proj.dagger(), proj)
    order = jc.block_residual(jc.projector(p, normalizer="right", tol=tol), proj)
    form = None
    p0 = jc.block_diag(np.ones(p.dim), np.zeros(p.dim))
    for chart_name, chart in (("I", jc.ChartTag.I), ("II", jc.ChartTag.II)):
        if charts[chart_name]["admissible"]:
            v = jc.chart_unitary(p, chart, tol=tol)
            form_res = jc.block_residual((v @ p0) @ v.dagger(), proj, margin=1)
            form = form_res if form is None else max(form, form_res)
    plus, minus = jc.spectral_decomposition(p, tol=tol)
    spectral = jc.block_residual(plus + minus, jc.hamiltonian(p), margin=2)
    lam = jc.block_diag(jc.radius_diag(p.dim, p.theta, 1), jc.radius_diag(p.dim, p.theta, 0))
    comm = jc.block_residual(lam @ proj, proj @ lam)
    checks = [
        charts["I"]["pass"],
        charts["II"]["pass"],
        eig_dev <= tol.reconstruction * scale,
        idem <= tol.algebraic,
        herm <= tol.algebraic,
        order <= tol.strict,
        form is None or form <= tol.algebraic,
        spectral <= tol.reconstruction * scale,
        comm <= tol.algebraic,
    ]
    record = {
        "theta": cfg.theta,
        "dim": cfg.dim,
        "charts": charts,
        "eigenvalue_max_dev": eig_dev,
        "projector": {
            "idempotency": idem,
            "hermiticity": herm,
            "form_agreement": form,
            "ordering_agreement": order,
        },
        "spectral": {"reconstruction": spectral, "commutator": comm},
        "pass": all(checks),
    }
    return {"theta": cfg.theta, "dim": cfg.dim, "g": cfg.g}, [record]


def cmd_strings(cfg: RunConfig):
    records = []
    for theta in cfg.thetas:
        p = jc.JCParams(theta=theta, dim=cfg.dim)
        report = jc.singular_sectors(p, cfg.tol)
        singular = [
            {"chart": s.chart.value, "row": s.row, "level": s.level}
            for s in report.singular()
        ]
        if theta > 0:
            expected = [{"chart": "II", "row": 2, "level": 0}]
        elif theta < 0:
            expected = [{"chart": "I", "row": 2, "level": 0}]
        else:
            expected = [
                {"chart": "I", "row": 2, "level": 0},
                {"chart": "II", "row": 2, "level": 0},
            ]
        ground_only = sorted(singular, key=str) == sorted(expected, key=str)
        records.append(
            {
                "theta": theta,
                "dim": cfg.dim,
                "sectors": report.to_records(),
                "singular": singular,
                "ground_only": ground_only,
                "lattice": report.lattice(),
                "pass": ground_only,
            }
        )
    return {"thetas": list(cfg.thetas), "dim": cfg.dim}, records


def _blockwise_max_abs(m: np.ndarray, margin: int) -> float:
    """Largest entry modulus of a flattened 2d x 2d block matrix over the
    leading (d - margin) square of each block, as in
    :meth:`hjc.jc.BlockOperator.max_abs`."""
    d = m.shape[0] // 2
    return float(np.max(np.abs(m.reshape(2, d, 2, d)[:, : d - margin, :, : d - margin])))


def cmd_evolve(cfg: RunConfig):
    # with omega/delta supplied the full split propagator is checked,
    # otherwise the bare interaction one; <sigma3> is identical either way
    # (the free part only rotates number-basis phases)
    full = cfg.omega is not None
    p = jc.JCParams(theta=cfg.theta, dim=cfg.dim, g=cfg.g, omega=cfg.omega, delta=cfg.delta)
    tol = cfg.tol
    if full:
        h1, h2 = jc.full_hamiltonian(p)
        evals, evecs = oracle.eig_hermitian((h1 + h2).full())
        evolve = jc.full_propagator
    else:
        evals, evecs = oracle.eig_hermitian((cfg.g * jc.hamiltonian(p)).full())
        evolve = jc.propagator
    d = cfg.dim
    if not 0 <= cfg.n0 < d:
        raise ConfigError(f"initial level n0={cfg.n0} outside 0..{d - 1}")
    ident = jc.BlockOperator.identity(d)
    records = []
    for t in np.linspace(0.0, cfg.t_max, cfg.t_steps):
        u = evolve(p, float(t))
        u_full = u.full()
        res = _blockwise_max_abs(u_full - oracle.expm_from_eig(evals, evecs, t), margin=2)
        unit = jc.block_residual(u.dagger() @ u, ident, margin=1)
        psi = u_full[:, cfg.n0]  # the evolved |excited, n0>
        sigma3 = float(np.sum(np.abs(psi[:d]) ** 2) - np.sum(np.abs(psi[d:]) ** 2))
        records.append(
            {
                "t": float(t),
                "closed_vs_oracle_residual": res,
                "unitarity": unit,
                "sigma3": sigma3,
                "pass": res <= tol.propagator and unit <= tol.propagator,
            }
        )
    params = {
        "theta": cfg.theta,
        "g": cfg.g,
        "omega": cfg.omega,
        "delta": cfg.delta,
        "dim": cfg.dim,
        "t_max": cfg.t_max,
        "t_steps": cfg.t_steps,
        "n0": cfg.n0,
    }
    return params, records


def cmd_grassmann(cfg: RunConfig):
    records = []
    tol = cfg.tol
    for theta in cfg.thetas:
        p = jc.JCParams(theta=theta, dim=cfg.dim)
        rec = {
            "theta": theta,
            "dim": cfg.dim,
            "singular_levels": [],
            "forms_residual": None,
            "roundtrip_residual": None,
            "intermediate_identity_residual": None,
            "pass": True,
        }
        try:
            left, shifted = grassmann.local_coordinate_forms(p, tol)
        except jc.SingularSectorError as err:
            rec["singular_levels"] = sorted({s.level for s in err.sectors})
            rec["pass"] = rec["singular_levels"] == [0]
            records.append(rec)
            continue
        forms = float(np.max(np.abs(left - shifted)))
        proj = grassmann.projector_from_coordinate(grassmann.local_coordinate(p, tol))
        roundtrip = jc.block_residual(proj, jc.projector(p, tol=tol), margin=1)
        # the upper-left block (1 + Z+Z)^-1 against its closed form
        r1 = jc.radius_diag(cfg.dim, theta, 1)
        upper_left = jc.BlockOperator.from_diagonals(cfg.dim, ((proj.diags[0][0], {}), ({}, {})))
        expected = jc.block_diag((r1 + theta) / (2.0 * r1), np.zeros(cfg.dim))
        inter = jc.block_residual(upper_left, expected, margin=1)
        rec["forms_residual"] = forms
        rec["roundtrip_residual"] = roundtrip
        rec["intermediate_identity_residual"] = inter
        rec["pass"] = (
            forms <= tol.strict
            and roundtrip <= tol.reconstruction
            and inter <= tol.algebraic
        )
        records.append(rec)
    return {"thetas": list(cfg.thetas), "dim": cfg.dim}, records


COMMANDS = {
    "berry": cmd_berry,
    "jc": cmd_jc,
    "strings": cmd_strings,
    "evolve": cmd_evolve,
    "grassmann": cmd_grassmann,
}


# ---------------------------------------------------------------------------
# Rendering


def _json_ready(x):
    if isinstance(x, dict):
        return {k: _json_ready(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_json_ready(v) for v in x.tolist()]
    return x


def render_json(payload: dict) -> str:
    return json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"


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


def _csv_rows(command: str, records: list):
    if command == "berry":
        for r in records:
            charts = r["charts"]
            proj = r["projector"] or {}
            row = {
                "index": r["index"],
                "kind": r["kind"],
                "tag": r["point"]["w"]["tag"],
                "z": r["point"]["z"],
                "norm_w": float(np.linalg.norm(r["point"]["w"]["coeffs"])),
                "class": r["class"],
                "cocycle": r["cocycle"],
                "projector_idempotency": proj.get("idempotency"),
                "projector_hermiticity": proj.get("hermiticity"),
                "projector_chart_agreement": proj.get("chart_agreement"),
                "pass": r["pass"],
            }
            for c in ("I", "II"):
                info = charts[c] or {}
                row[f"chart_{c}_reconstruction"] = info.get("reconstruction")
                row[f"chart_{c}_unitarity"] = info.get("unitarity")
                row[f"chart_{c}_conditioning"] = info.get("conditioning")
            yield row
    elif command == "jc":
        for r in records:
            for chart in ("I", "II"):
                info = r["charts"][chart]
                yield {
                    "theta": r["theta"],
                    "dim": r["dim"],
                    "chart": chart,
                    "admissible": info["admissible"],
                    "reconstruction": info["reconstruction"],
                    "unitarity": info["unitarity"],
                    "ordering_agreement": info["ordering_agreement"],
                    "singular_levels": info["singular_levels"],
                    "pass": info["pass"],
                }
    elif command == "strings":
        for r in records:
            for s in r["sectors"]:
                yield {"theta": r["theta"], **s}
    elif command == "evolve":
        for r in records:
            yield {k: r[k] for k in CSV_COLUMNS["evolve"]}
    elif command == "grassmann":
        for r in records:
            yield {k: r[k] for k in CSV_COLUMNS["grassmann"]}


def render_csv(command: str, payload: dict) -> str:
    lines = [
        f"# schema: {SCHEMA_VERSION}",
        f"# command: {command}",
        f"# seed: {payload['seed']}",
        "# params: " + " ".join(f"{k}={v}" for k, v in sorted(payload["params"].items())),
    ]
    cols = CSV_COLUMNS[command]
    lines.append(",".join(cols))
    for row in _csv_rows(command, payload["records"]):
        lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("HJC_SEED", "0"))
    fmt = args.fmt or ("csv" if args.command == "evolve" else "json")
    cfg = RunConfig(command=args.command, seed=seed, fmt=fmt, out=args.out, tol=_tolerances(args))
    if args.command == "berry":
        cfg.algebra = args.algebra
        cfg.grid = args.grid
        if args.samples < 0:
            raise ConfigError("samples must be non-negative")
        cfg.samples = args.samples
        parse_grid(cfg.grid)  # validate early
    elif args.command == "jc":
        cfg.theta, cfg.dim, cfg.g = args.theta, args.dim, args.g
    elif args.command == "strings":
        cfg.thetas, cfg.dim = parse_float_list(args.theta), args.dim
    elif args.command == "evolve":
        cfg.g, cfg.dim = args.g, args.dim
        cfg.omega, cfg.delta = args.omega, args.delta
        if (cfg.omega is None) != (cfg.delta is None):
            raise ConfigError("omega and delta must be supplied together")
        if args.theta is not None:
            cfg.theta = args.theta
        elif cfg.omega is not None:
            if cfg.g == 0.0:
                raise ConfigError("coupling g = 0 leaves the detuning ratio undefined")
            cfg.theta = (cfg.delta - cfg.omega) / (2.0 * cfg.g)
        else:
            cfg.theta = 0.25
        cfg.t_max, cfg.t_steps, cfg.n0 = args.t_max, args.t_steps, args.n0
        if cfg.t_steps <= 0:
            raise ConfigError("t-steps must be positive")
    elif args.command == "grassmann":
        cfg.thetas, cfg.dim = parse_float_list(args.theta), args.dim
    if getattr(cfg, "dim", 2) < 2:
        raise ConfigError("dim must be at least 2")
    return cfg


def _write(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _attach_negative_values(argv: list) -> list:
    """Rewrite ``--theta -1,0.5`` as ``--theta=-1,0.5``.

    argparse reads a value that starts with a minus sign as an option
    unless it is a plain negative number, so detuning lists such as
    "-1,-0.5" or "-1e8" would otherwise be refused.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--theta" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--theta={tok}"
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
        cfg = _config_from_args(args)
        params, records = COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        parser.error(str(exc))
    failures = sum(1 for r in records if not r.get("pass", True))
    payload = {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "seed": cfg.seed,
        "params": params,
        "records": records,
        "summary": {
            "passed": failures == 0,
            "records": len(records),
            "failures": failures,
        },
    }
    text = render_json(payload) if cfg.fmt == "json" else render_csv(cfg.command, payload)
    _write(cfg.out, text)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
