"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Tolerances are pinned
here, not configurable.
"""

import functools
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from references import classical_coordinate, classical_projector_from_coordinate, expm_from_eig

from hjc import algebra as al
from hjc import berry, cli, fock, grassmann, jc, oracle
from hjc.algebra import AlgebraTag
from hjc.berry import ChartTag, Points
from hjc.jc import BlockOperator, JCParams, SingularSectorError

SEED = 20260811
TAGS = list(AlgebraTag)


def _max_abs(a, b) -> float:
    """Largest entry modulus of a - b, dense arrays."""
    return float(np.max(np.abs(a - b)))


def _verdict(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number}: {name}{tail}"


def test_01_composition_algebra_suite():
    rng = np.random.default_rng(SEED)
    worst_mult = worst_anti = worst_alt = 0.0
    for tag in TAGS:
        for _ in range(1000):
            a = al.random_element(tag, rng)
            b = al.random_element(tag, rng)
            ns = a.norm_sq() * b.norm_sq()
            worst_mult = max(worst_mult, abs((a * b).norm_sq() - ns) / max(ns, 1e-300))
            worst_anti = max(
                worst_anti, ((a * b).conjugate() - b.conjugate() * a.conjugate()).norm()
            )
            if tag is AlgebraTag.O:
                worst_alt = max(
                    worst_alt,
                    (a * (a * b) - (a * a) * b).norm(),
                    ((a * b) * b - a * (b * b)).norm(),
                )
    associator = max(
        ((al.basis(AlgebraTag.O, i) * al.basis(AlgebraTag.O, j)) * al.basis(AlgebraTag.O, k)
         - al.basis(AlgebraTag.O, i) * (al.basis(AlgebraTag.O, j) * al.basis(AlgebraTag.O, k))).norm()
        for i, j, k in itertools.product(range(1, 8), repeat=3)
    )
    ok = (
        worst_mult <= 1e-12
        and worst_anti <= 1e-13
        and associator > 1.0
        and worst_alt <= 1e-12
    )
    _verdict(
        1,
        "composition algebras",
        ok,
        f"mult {worst_mult:.2e}, antihom {worst_anti:.2e}, "
        f"associator {associator:.2f}, alt {worst_alt:.2e}",
    )


def _residual(a, b) -> float:
    """Largest entry norm of a - b, one-row (1, 2, 2, dim) arrays."""
    return float(berry.residual_coeffs(a, b)[0])


def test_02_classical_chart_suite():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    admissible = True
    for tag in TAGS:
        mm = functools.partial(berry.matmul_coeffs, tag)
        ident = np.eye(2)[:, :, None] * al.one(tag).coeffs
        p0 = np.diag([1.0, 0.0])[:, :, None] * al.one(tag).coeffs
        for _ in range(100):
            p = Points.of(tag, rng.standard_normal(tag.dim), float(rng.standard_normal()))
            code = berry.classify(p)
            h = berry.hamiltonian_coeffs(p)
            proj = berry.projector_coeffs(p)
            worst = max(
                worst,
                _residual(mm(proj, proj), proj),
                _residual(berry.dagger_coeffs(proj), proj),
            )
            units = {}
            for chart in ChartTag:
                admissible = admissible and bool(berry.admissible(code, chart)[0])
                u, d = berry.chart_coeffs(p, chart), berry.eigenvalue_coeffs(p)
                ud = berry.dagger_coeffs(u)
                units[chart] = u
                worst = max(
                    worst,
                    _residual(mm(mm(u, d), ud), h),
                    _residual(mm(ud, u), ident),
                    _residual(mm(mm(u, p0), ud), proj),
                )
            phi = berry.transition_coeffs(p)
            worst = max(worst, _residual(mm(units[ChartTag.I], phi), units[ChartTag.II]))
    # each chart is refused on its own string
    strings = Points.of(AlgebraTag.C, np.zeros((2, 2)), [-1.0, 1.0])
    string_refusals = sum(
        not berry.admissible(berry.classify(strings), chart)[i] for i, chart in enumerate(ChartTag)
    )
    ok = worst <= 1e-12 and admissible and string_refusals == 2
    _verdict(2, "classical charts", ok, f"max residual {worst:.2e}")


def test_03_string_divergence():
    rng = np.random.default_rng(SEED + 2)
    ok = True
    worst_growth = math.inf
    for tag in TAGS:
        u = rng.standard_normal(tag.dim)
        u = u / np.linalg.norm(u)
        conds = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = Points.of(tag, u * eps, -1.0)
            conds.append(berry.conditionings(p, ChartTag.I)[0])
            ok = ok and np.max(berry.norms(berry.projector_coeffs(p))) <= 1.0
        growth = min(conds[1] / conds[0], conds[2] / conds[1])
        worst_growth = min(worst_growth, growth)
        ok = ok and conds[1] >= 10.0 * conds[0] and conds[2] >= 10.0 * conds[1]
    _verdict(3, "string divergence", ok, f"min growth per decade {worst_growth:.1f}x")


def test_04_fock_suite():
    eps = np.finfo(float).eps
    ok = True
    detail = []
    for d in (8, 32):
        a = fock.annihilation(d)
        ad = fock.creation(d)
        comm = a @ ad - ad @ a
        expected = np.eye(d, dtype=complex)
        expected[d - 1, d - 1] = -(d - 1)
        ccr = float(np.max(np.abs(comm - expected)))
        # "exact" up to IEEE rounding of the sqrt(n) products (see ledger)
        ok = ok and ccr <= 8 * d * eps
        lo, hi = fock.unit_lowering(d), fock.unit_raising(d)
        ground = np.eye(d, dtype=complex)
        ground[0, 0] = 0.0
        top = np.eye(d, dtype=complex)
        top[d - 1, d - 1] = 0.0
        ok = ok and np.array_equal(hi @ lo, ground) and np.array_equal(lo @ hi, top)
        shift = max(
            fock.shift_identity_check(lambda n: math.sqrt(n + 0.3**2), d),
            fock.shift_identity_check(lambda n: float(n), d),
            fock.shift_identity_check(lambda n: 1.0, d),
        )
        ok = ok and shift <= 1e-13
        detail.append(f"d={d}: ccr {ccr:.2e}, shift {shift:.2e}")
    _verdict(4, "Fock suite", ok, "; ".join(detail))


def test_05_quantum_decomposition():
    d = 32
    worst_recon = worst_unit = 0.0
    ok = True
    for theta in (0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0):
        p = JCParams(theta=theta, dim=d)
        good = ChartTag.I if theta > 0 else ChartTag.II
        bad = ChartTag.II if theta > 0 else ChartTag.I
        v, lam = jc.chart_decompose(p, good)
        worst_recon = max(
            worst_recon, jc.block_residual((v @ lam) @ v.dagger(), jc.hamiltonian(p))
        )
        worst_unit = max(
            worst_unit,
            jc.block_residual(v.dagger() @ v, BlockOperator.identity(d)),
        )
        try:
            jc.chart_decompose(p, bad)
            ok = False
        except SingularSectorError as err:
            ok = ok and err.sectors == ((2, 0),)
    ok = ok and worst_recon <= 1e-10 and worst_unit <= 1e-12
    _verdict(
        5,
        "quantum decomposition",
        ok,
        f"recon {worst_recon:.2e}, unitarity {worst_unit:.2e}",
    )


def test_06_spectral_law(radius):
    d, theta = 16, 0.3
    evals, _ = oracle.eig_hermitian(jc.hamiltonian(JCParams(theta=theta, dim=d)).full())
    pattern = np.sort(np.concatenate([radius(d, theta), -radius(d, theta)]))
    dev = float(np.max(np.abs(np.sort(evals) - pattern)))
    _verdict(6, "spectral law", dev <= 1e-10, f"max deviation {dev:.2e}")


def test_07_projector_and_spectral_decomposition(radius):
    d = 24
    worst_pp = worst_form = worst_comm = worst_recon = 0.0
    p0 = jc.block_diag(np.ones(d), np.zeros(d))
    for theta, chart in ((1.0, ChartTag.I), (-1.0, ChartTag.II)):
        p = JCParams(theta=theta, dim=d)
        proj = jc.projector(p)
        worst_pp = max(
            worst_pp,
            jc.block_residual(proj @ proj, proj),
            jc.block_residual(proj.dagger(), proj),
        )
        v, _ = jc.chart_decompose(p, chart)
        worst_form = max(
            worst_form, jc.block_residual((v @ p0) @ v.dagger(), proj)
        )
        plus, minus = jc.spectral_decomposition(jc.row_radii(p), proj)
        worst_recon = max(
            worst_recon, jc.block_residual(plus + minus, jc.hamiltonian(p))
        )
        lam = jc.block_diag(radius(d, theta, 1), radius(d, theta))
        worst_comm = max(worst_comm, jc.block_residual(lam @ proj, proj @ lam))
    ok = (
        worst_pp <= 1e-12
        and worst_form <= 1e-12
        and worst_recon <= 1e-10
        and worst_comm <= 1e-12
    )
    _verdict(
        7,
        "projector and spectral decomposition",
        ok,
        f"P {worst_pp:.2e}, chart forms {worst_form:.2e}, "
        f"recon {worst_recon:.2e}, comm {worst_comm:.2e}",
    )


def test_08_propagator():
    d = 40
    # the model hjc evolve derives from omega, delta and g
    args = cli.build_parser().parse_args(["evolve", "--omega=1", "--delta=1.5", "--g=1", f"--dim={d}"])
    cli._validate(args)
    p = args.model
    assert p.theta == 0.25
    h1, h2 = jc.full_hamiltonian(p, args.omega)
    comm = jc.block_residual(h1 @ h2, h2 @ h1)
    hjc_full = (p.g * jc.hamiltonian(p)).full()
    evals, evecs = oracle.eig_hermitian(hjc_full)
    evals_f, evecs_f = oracle.eig_hermitian((h1 + h2).full())
    ident = BlockOperator.identity(d)
    worst_res = worst_unit = worst_full = 0.0
    for t in np.linspace(0.0, 10.0, 50):
        u = jc.propagator(p, float(t))
        u_oracle = expm_from_eig(evals, evecs, t)
        worst_res = max(worst_res, _max_abs(u.full(), u_oracle))
        worst_unit = max(
            worst_unit, jc.block_residual(u.dagger() @ u, ident)
        )
        uf = jc.full_propagator(p, args.omega, float(t))
        uf_oracle = expm_from_eig(evals_f, evecs_f, t)
        worst_full = max(worst_full, _max_abs(uf.full(), uf_oracle))
    ok = (
        worst_res <= 1e-8
        and worst_unit <= 1e-10
        and comm <= 1e-13
        and worst_full <= 1e-8
    )
    _verdict(
        8,
        "propagator",
        ok,
        f"closed vs oracle {worst_res:.2e}, unitarity {worst_unit:.2e}, "
        f"[H1,H2] {comm:.2e}, product law {worst_full:.2e}",
    )


def test_09_grassmann_round_trip(radius):
    d = 24
    worst_forms = worst_trip = 0.0
    for theta in (0.25, 0.5, 1.0, 2.0):
        p = JCParams(theta=theta, dim=d)
        # the coordinate against the dense form (1/(R(N)+theta)) a+, the
        # other side of the ordering identity from the one it is built by
        z, _ = grassmann.local_coordinate(p)
        left = np.diag(1.0 / (radius(d, theta) + theta)) @ fock.creation(d)
        worst_forms = max(worst_forms, float(np.max(np.abs(np.diag(z, k=-1) - left))))
        proj = grassmann.projector_from_coordinate(z)
        worst_trip = max(worst_trip, jc.block_residual(proj, jc.projector(p)))
    singular_ok = False
    try:
        grassmann.local_coordinate(JCParams(theta=-0.5, dim=d))
    except SingularSectorError as err:
        singular_ok = sorted({level for _, level in err.sectors}) == [0]
    rng = np.random.default_rng(SEED + 9)
    worst_classical = 0.0
    count = 0
    while count < 100:
        x, y, z = rng.standard_normal(3)
        if math.sqrt(x * x + y * y + z * z) + z <= 0.1:
            continue
        count += 1
        scalar_form = classical_projector_from_coordinate(classical_coordinate(x, y, z))
        chart_form = berry.projector_coeffs(Points.of(AlgebraTag.C, [x, y], z))[0]
        ref = chart_form[..., 0] + 1j * chart_form[..., 1]
        worst_classical = max(worst_classical, float(np.max(np.abs(scalar_form - ref))))
    ok = (
        worst_forms <= 1e-13
        and worst_trip <= 1e-10
        and singular_ok
        and worst_classical <= 1e-12
    )
    _verdict(
        9,
        "Grassmann round trip",
        ok,
        f"forms {worst_forms:.2e}, round trip {worst_trip:.2e}, "
        f"classical {worst_classical:.2e}",
    )


def test_10_cli_suite():
    import jsonschema

    from hjc import cli

    runs = {
        "berry": ["berry"],
        "jc": ["jc"],
        "strings": ["strings"],
        "evolve": ["evolve"],
        "grassmann": ["grassmann"],
    }
    ok = True
    for command, args in runs.items():
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hjc.cli", *args, "--seed", "123"],
                capture_output=True,
                text=True,
                timeout=300,
            )
            ok = ok and proc.returncode == 0
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
        if command == "evolve":  # default format is CSV
            header = next(
                l for l in outputs[0].splitlines() if not l.startswith("#")
            )
            ok = ok and header == ",".join(cli.CSV_COLUMNS["evolve"])
        else:
            payload = json.loads(outputs[0])
            jsonschema.validate(payload, cli.SCHEMAS[command])
            ok = ok and payload["summary"]["passed"]
    _verdict(10, "CLI suite", ok)
