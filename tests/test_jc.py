import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import expm_from_eig

from hjc import berry, cli, fock, grassmann, jc, oracle
from hjc.algebra import AlgebraTag
from hjc.berry import ChartTag
from hjc.config import ILL_CONDITIONED, SINGULAR_THRESHOLD
from hjc.jc import BlockOperator, JCParams, SingularSectorError


def kron_hamiltonian(theta, d):
    # independent assembly via tensor products
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.T.copy()
    s3 = np.diag([1.0, -1.0]).astype(complex)
    return (
        np.kron(sp, fock.annihilation(d))
        + np.kron(sm, fock.creation(d))
        + theta * np.kron(s3, np.eye(d))
    )


def kron_full_hamiltonian(omega, delta, g, d):
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.T.copy()
    s3 = np.diag([1.0, -1.0]).astype(complex)
    i2 = np.eye(2, dtype=complex)
    return (
        omega * np.kron(i2, fock.number(d))
        + 0.5 * delta * np.kron(s3, np.eye(d))
        + g * (np.kron(sp, fock.annihilation(d)) + np.kron(sm, fock.creation(d)))
    )


def block(op, i, j):
    # dense (i, j) block, sliced from the flattened export
    d = op.dim
    return op.full()[i * d : (i + 1) * d, j * d : (j + 1) * d]


def max_abs(a, b) -> float:
    """Largest entry modulus of a - b, dense arrays."""
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# params and Hamiltonians


def test_params_guard_dim():
    with pytest.raises(ValueError):
        JCParams(theta=0.5, dim=1)


def _evolve_args(*argv):
    args = cli.build_parser().parse_args(["evolve", *argv])
    cli._validate(args)
    return args


def test_params_consistency_check():
    # the model takes theta or (delta - omega)/2g, never both: a theta given
    # with omega and delta is refused, whether or not the two agree
    assert _evolve_args("--omega", "1", "--delta", "1.5", "--dim", "8").model == JCParams(0.25, 8, 1.0)
    for theta in ("0.25", "0.3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--theta", theta, "--omega", "1", "--delta", "1.5", "--dim", "8"])
        assert exc.value.code == 2


def test_params_from_physical_rejects_zero_coupling():
    with pytest.raises(cli.ConfigError, match="g = 0"):
        _evolve_args("--omega", "1", "--delta", "1.2", "--g", "0", "--dim", "8")


def test_hamiltonian_d2_flattened():
    h = jc.hamiltonian(JCParams(theta=1.0, dim=2)).full()
    expected = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, -1, 0],
            [1, 0, 0, -1],
        ],
        dtype=complex,
    )
    assert np.array_equal(h, expected)


def test_hamiltonian_resonance_blocks():
    h = jc.hamiltonian(JCParams(theta=0.0, dim=2))
    assert np.max(np.abs(block(h, 0, 0))) == 0.0
    assert np.max(np.abs(block(h, 1, 1))) == 0.0
    assert np.array_equal(block(h, 0, 1), fock.annihilation(2))


def test_hamiltonian_hermitian_exactly(rng):
    for _ in range(5):
        theta = float(rng.standard_normal())
        h = jc.hamiltonian(JCParams(theta=theta, dim=9)).full()
        assert np.array_equal(h, h.conj().T)


def test_hamiltonian_matches_kron_assembly(rng):
    for _ in range(5):
        theta = float(rng.standard_normal())
        h = jc.hamiltonian(JCParams(theta=theta, dim=7)).full()
        assert np.max(np.abs(h - kron_hamiltonian(theta, 7))) == 0.0


def test_full_hamiltonian_needs_frequencies():
    with pytest.raises(TypeError):
        jc.full_hamiltonian(JCParams(theta=0.5, dim=4))


def test_full_hamiltonian_commuting_split():
    p = JCParams(theta=(2.1 - 1.3) / (2 * 0.7), dim=12, g=0.7)
    h1, h2 = jc.full_hamiltonian(p, 1.3)
    assert jc.block_residual(h1 @ h2, h2 @ h1) <= 1e-13


def test_full_hamiltonian_resonance():
    # the model hjc evolve derives from omega = delta
    args = cli.build_parser().parse_args(["evolve", "--omega=1", "--delta=1", "--g=0.5", "--dim=6"])
    cli._validate(args)
    p = args.model
    assert p.theta == 0.0
    _, h2 = jc.full_hamiltonian(p, args.omega)
    expected = 0.5 * (
        np.kron(np.array([[0, 1], [0, 0]]), fock.annihilation(6))
        + np.kron(np.array([[0, 0], [1, 0]]), fock.creation(6))
    )
    assert np.max(np.abs(h2.full() - expected)) == 0.0


def test_full_hamiltonian_reconstructs_kron():
    # dyadic parameters: the two assembly paths agree bit for bit
    omega, g = 1.0, 0.5
    delta = omega + 2 * g * 0.25
    p = JCParams(theta=(delta - omega) / (2 * g), dim=16, g=g)
    h1, h2 = jc.full_hamiltonian(p, omega)
    assert np.array_equal((h1 + h2).full(), kron_full_hamiltonian(omega, delta, g, 16))
    # generic parameters: agree to the float-association floor
    omega, g = 1.1, 0.4
    delta = omega + 2 * g * 0.35
    p = JCParams(theta=(delta - omega) / (2 * g), dim=16, g=g)
    h1, h2 = jc.full_hamiltonian(p, omega)
    diff = np.max(np.abs((h1 + h2).full() - kron_full_hamiltonian(omega, delta, g, 16)))
    assert diff <= 1e-14


# ---------------------------------------------------------------------------
# sector structure of the flattened Hamiltonian


def test_invariant_sectors_exact():
    d, theta = 10, 0.7
    h = jc.hamiltonian(JCParams(theta=theta, dim=d)).full()
    touched = np.zeros((2 * d, 2 * d), dtype=bool)
    for n in range(d - 1):
        idx = [n, d + n + 1]  # |e,n>, |g,n+1>
        sector = h[np.ix_(idx, idx)]
        expected = np.array([[theta, math.sqrt(n + 1)], [math.sqrt(n + 1), -theta]])
        assert np.max(np.abs(sector - expected)) <= 1e-15
        touched[np.ix_(idx, idx)] = True
    # singleton sectors |g,0> and |e,d-1>
    assert h[d, d] == -theta
    assert h[d - 1, d - 1] == theta
    touched[d, d] = touched[d - 1, d - 1] = True
    assert np.max(np.abs(h[~touched])) == 0.0


def test_eigenvalue_multiset(radius):
    d, theta = 16, 0.3
    evals, _ = oracle.eig_hermitian(jc.hamiltonian(JCParams(theta=theta, dim=d)).full())
    pattern = np.sort(np.concatenate([radius(d, theta), -radius(d, theta)]))
    assert np.max(np.abs(np.sort(evals) - pattern)) <= 1e-10


# ---------------------------------------------------------------------------
# two-step factorization, written out densely over hjc.fock


def two_step_factors(theta, d):
    """Dense (L, M) of the operator analogue of the classical two-step
    split: L = diag(1, a+ (1/sqrt(N+1))), the lower entry the exact unit
    raising shift, and the real middle matrix
    M = [[theta, sqrt(N+1)], [sqrt(N+1), -theta]]."""
    zero = np.zeros((d, d))
    left = np.block([[np.eye(d), zero], [zero, fock.unit_raising(d)]])
    w = np.diag(np.sqrt(np.arange(1.0, d + 1)))
    return left, np.block([[theta * np.eye(d), w], [w, -theta * np.eye(d)]])


def test_two_step_partial_isometries():
    # L L+ = diag(1, 1 - |0><0|) and L+ L = diag(1, 1 - |d-1><d-1|), exactly
    d = 16
    left, _ = two_step_factors(0.5, d)
    lower_deficiency = np.ones(d)
    lower_deficiency[0] = 0.0
    assert np.array_equal(left @ left.conj().T, np.diag(np.append(np.ones(d), lower_deficiency)))
    top_deficiency = np.ones(d)
    top_deficiency[d - 1] = 0.0
    assert np.array_equal(left.conj().T @ left, np.diag(np.append(np.ones(d), top_deficiency)))


@pytest.mark.parametrize("theta", [0.5, -0.8, 0.0])
def test_two_step_reconstruction_defect(theta):
    # L M L+ equals H everywhere except the ground entry of the lower
    # block, which comes out -theta(1 - |0><0|): the defect is exactly
    # theta |g,0><g,0|, the seed of the quantum string
    d = 16
    left, mid = two_step_factors(theta, d)
    diff = left @ mid @ left.conj().T - jc.hamiltonian(JCParams(theta=theta, dim=d)).full()
    defect = np.zeros((2 * d, 2 * d))
    defect[d, d] = theta
    assert np.array_equal(diff, defect)


# ---------------------------------------------------------------------------
# the middle matrix's charts are Berry's


def middle_chart_levels(theta, d, chart):
    """Per level n, the 2x2 block of the middle matrix's chart unitary
    N (R + s M sigma_z)/2 on its coupling W = sqrt(N+1), written out as the
    JC chart formula is: R = R(n+1), the half sum h = (R + s theta)/2 from
    the halves, or (n+1)/(4 h0) with h0 = (R + |theta|)/2 where R + s theta
    cancels, and N = 0.5/(sqrt(R/2) sqrt(h/2)).  Shape (d, 2, 2)."""
    m = np.arange(1.0, d + 1)
    r, a = np.hypot(np.sqrt(m), theta), abs(theta)
    h0 = 0.5 * r + 0.5 * a if a > 2.0**1022 else 0.5 * (r + a)
    s = 1.0 if chart is ChartTag.I else -1.0
    h = h0 if s * theta >= 0.0 else 0.25 * m / h0
    f = 0.5 / (np.sqrt(0.5 * r) * np.sqrt(0.5 * h))
    diag, off = f * h, f * (0.5 * np.sqrt(m))
    if chart is ChartTag.I:
        return np.stack([np.stack([diag, -off], -1), np.stack([off, diag], -1)], -2)
    return np.stack([np.stack([off, -diag], -1), np.stack([diag, off], -1)], -2)


def berry_middle_chart(theta, d, chart):
    """berry.chart_coeffs over C at w = sqrt(n+1), z = theta, n = 0 .. d-1:
    real 2x2 blocks, shape (d, 2, 2)."""
    w = np.stack([np.sqrt(np.arange(1.0, d + 1)), np.zeros(d)], -1)
    u = berry.chart_coeffs(berry.Points.of(AlgebraTag.C, w, np.full(d, theta)), chart)
    assert not np.any(u[..., 1])
    return u[..., 0]


@pytest.mark.parametrize("d", [2, 7, 300])
@pytest.mark.parametrize("theta", [0.0, 5e-324, -5e-324, 1e-8, -1e-8, 0.5, -0.5, 3.0, -3.0, 1e200, -1e200, 1.7e308, -1.7e308])
@pytest.mark.parametrize("chart", list(ChartTag))
def test_middle_chart_is_berrys_chart(chart, theta, d):
    # each level's block of the middle unitary is Berry's chart at
    # |w|^2 = n + 1, z = theta; the largest gap is 8 eps, at |theta| =
    # 1.7e308, where the cancelling half sum (n+1)/(4 h0) is subnormal
    gap = np.max(np.abs(berry_middle_chart(theta, d, chart) - middle_chart_levels(theta, d, chart)))
    assert gap <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("theta", [0.5, -0.5, 1.0, 0.0])
@pytest.mark.parametrize("chart", list(ChartTag))
def test_middle_chart_diagonalizes(theta, chart, radius):
    # Berry's chart, assembled level by level, diagonalizes the dense middle
    # matrix with diag(R(N+1), -R(N+1)): both charts exist for every theta
    d = 16
    u = berry_middle_chart(theta, d, chart)
    dense = np.block([[np.diag(u[:, i, j]) for j in range(2)] for i in range(2)])
    r1 = radius(d, theta, 1)
    _, mid = two_step_factors(theta, d)
    assert max_abs(dense.T @ dense, np.eye(2 * d)) <= 1e-12
    assert max_abs((dense * np.append(r1, -r1)) @ dense.T, mid) <= 1e-12


# ---------------------------------------------------------------------------
# chart unitaries (the V operators)


@pytest.mark.parametrize("theta,chart", [(0.5, ChartTag.I), (-0.5, ChartTag.II), (2.0, ChartTag.I)])
def test_chart_unitarity_and_orderings(theta, chart):
    # V carries its normalizer 1/sqrt(2R(R + s theta)) on the left; the dense
    # form with it on the right (its rows swapped for chart II) is the same
    # operator by the ordering identity
    # (R(N) + s theta)^-1 a+ = a+ (R(N+1) + s theta)^-1
    d = 24
    p = JCParams(theta=theta, dim=d)
    v, _ = jc.chart_decompose(p, chart)
    assert jc.block_residual(v.dagger() @ v, BlockOperator.identity(d)) <= 1e-12
    s = 1.0 if chart is ChartTag.I else -1.0
    r1, r0 = jc.row_radii(p)
    f1, f0 = (1.0 / np.sqrt(2.0 * r * (r + s * theta)) for r in (r1, r0))
    a, ad = fock.annihilation(d), fock.creation(d)
    if chart is ChartTag.I:
        core, columns = np.block([[np.diag(r1 + theta), -a], [ad, np.diag(r0 + theta)]]), np.append(f1, f0)
    else:
        core, columns = np.block([[a, np.diag(theta - r1)], [np.diag(r0 - theta), ad]]), np.append(f0, f1)
    assert max_abs(v.full(), core * columns) <= 1e-13


@pytest.mark.parametrize(
    "theta,chart,ok",
    [
        (-0.75, ChartTag.I, False),
        (-0.75, ChartTag.II, True),
        (0.75, ChartTag.II, False),
        (0.75, ChartTag.I, True),
        (0.0, ChartTag.I, False),
        (0.0, ChartTag.II, False),
    ],
)
def test_chart_singularities(theta, chart, ok):
    p = JCParams(theta=theta, dim=12)
    if ok:
        jc.chart_decompose(p, chart)
        return
    with pytest.raises(SingularSectorError) as err:
        jc.chart_decompose(p, chart)
    assert err.value.chart is chart
    assert err.value.sectors == ((2, 0),) and err.value.levels == [0]


@pytest.mark.parametrize("theta,chart", [(0.5, ChartTag.I), (-0.5, ChartTag.II)])
def test_chart_reconstruction(theta, chart):
    d = 32
    p = JCParams(theta=theta, dim=d)
    v, lam = jc.chart_decompose(p, chart)
    assert jc.block_residual((v @ lam) @ v.dagger(), jc.hamiltonian(p)) <= 1e-10


def test_chart_diagonal_layout(radius):
    # row 1 carries R(N+1) below the top level and |theta| at it
    r1 = np.append(radius(6, 0.5, 1)[:-1], 0.5)
    _, d1 = jc.chart_decompose(JCParams(theta=0.5, dim=6), ChartTag.I)
    assert np.array_equal(np.diag(block(d1, 0, 0)), r1)
    assert np.array_equal(np.diag(block(d1, 1, 1)), -radius(6, 0.5))
    _, d2 = jc.chart_decompose(JCParams(theta=-0.5, dim=6), ChartTag.II)
    assert np.array_equal(np.diag(block(d2, 0, 0)), radius(6, 0.5))
    assert np.array_equal(np.diag(block(d2, 1, 1)), -r1)


def test_chart_eigenvalues_against_oracle(radius):
    # the diagonal factor of the admissible chart carries the truncated
    # spectrum {+-R(n)}, the one-level sectors' -theta (ground) and +theta
    # (top level) included
    d = 16
    for theta, chart in ((0.3, ChartTag.I), (-0.3, ChartTag.II), (2.5, ChartTag.I), (-2.5, ChartTag.II)):
        p = JCParams(theta=theta, dim=d)
        r = radius(d, theta)
        evals = oracle.eigvals_hermitian(jc.hamiltonian(p).full())
        lam_vals = np.sort(np.diag(jc.chart_decompose(p, chart)[1].full()))
        assert np.array_equal(lam_vals, np.sort(np.concatenate([r, -r])))
        assert np.max(np.abs(lam_vals - evals)) <= 1e-13


# ---------------------------------------------------------------------------
# singular sector report


def sector_keys(cols):
    """(chart, row, level) of every entry of sector columns."""
    return list(zip(cols["chart"].tolist(), cols["row"].tolist(), cols["level"].tolist()))


def sector_columns(rep, status=None):
    """The columns :meth:`SectorReport.take` gives for every entry, or for
    the entries of one ``status``."""
    codes = rep.codes.reshape(-1)
    if status is None:
        return rep.take(np.arange(codes.size))
    return rep.take(np.flatnonzero(codes == jc.SECTOR_STATUSES.index(status)))


def reference_sectors(p, threshold=SINGULAR_THRESHOLD):
    """The classification of :func:`jc.singular_sectors` with the singular
    threshold ``threshold``, entry by entry: (chart, row, level,
    denominator, status) in the report's order."""
    d = p.dim
    entries = []
    for chart in (ChartTag.I, ChartTag.II):
        for row, (_, _, den) in enumerate(jc.chart_denominators(p, chart), start=1):
            for level, v in enumerate(den.tolist()):
                status = (
                    "truncation" if (row, level) == (1, d - 1)
                    else "singular" if v <= threshold
                    else "ill_conditioned" if v < ILL_CONDITIONED
                    else "regular"
                )
                entries.append((chart.value, row, level, v, status))
    return entries


_EDGE_THETAS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-320, 5e-8, -5e-8, 1.7e308, -1.7e308, np.finfo(float).max]


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 64),
    theta=st.one_of(
        st.sampled_from(_EDGE_THETAS),
        st.floats(-6e-8, 6e-8),  # the ground denominator 4 theta^2 crosses the threshold at 5e-8
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    threshold=st.sampled_from([SINGULAR_THRESHOLD, 1.0, 40.0]),
)
@example(d=2, theta=-0.0, threshold=SINGULAR_THRESHOLD)
@example(d=64, theta=-1.7e308, threshold=40.0)
def test_sector_columns_match_the_reference(d, theta, threshold):
    # the array classification equals the per-entry loop, denominators bit
    # for bit, and admissible_denominators refuses exactly the reference's
    # singular (row, level) pairs of each chart (a threshold of 1 or 40
    # makes excited levels singular too, the truncation entry excepted);
    # the threshold is patched in the body, as Hypothesis refuses the
    # function-scoped monkeypatch fixture
    p = JCParams(theta=theta, dim=d)
    ref = reference_sectors(p, threshold)
    with mock.patch.object(jc, "SINGULAR_THRESHOLD", threshold):
        cols = sector_columns(jc.singular_sectors(p))
        assert list(cols) == ["chart", "row", "level", "denominator", "status"]
        assert sector_keys(cols) == [e[:3] for e in ref]
        assert cols["status"].tolist() == [e[4] for e in ref]
        assert np.array_equal(cols["denominator"].view(np.int64), np.array([e[3] for e in ref]).view(np.int64))
        for chart in ChartTag:
            bad = tuple((row, level) for c, row, level, _, status in ref if c == chart.value and status == "singular")
            if not bad:
                jc.admissible_denominators(p, chart)
                continue
            with pytest.raises(SingularSectorError) as err:
                jc.admissible_denominators(p, chart)
            assert err.value.chart is chart and err.value.sectors == bad
            assert err.value.levels == sorted({level for _, level in bad})


@pytest.mark.parametrize(
    "theta,expected",
    [
        (1.0, [("II", 2, 0)]),
        (-1.0, [("I", 2, 0)]),
        (0.5, [("II", 2, 0)]),
        (0.0, [("I", 2, 0), ("II", 2, 0)]),
    ],
)
def test_singular_sets(theta, expected):
    rep = jc.singular_sectors(JCParams(theta=theta, dim=8))
    got = sorted(sector_keys(sector_columns(rep, "singular")))
    assert got == sorted(expected)


def test_excited_levels_regular():
    # the top level's row 1 entry belongs to the truncation sector and
    # equals the ground entry of row 2
    d = 16
    for theta in (0.5, -0.5, 0.0, 1e-300, -1e200):
        rep = jc.singular_sectors(JCParams(theta=theta, dim=d))
        cols = sector_columns(rep)
        keys = sector_keys(cols)
        den = dict(zip(keys, cols["denominator"].tolist()))
        for (chart, row, level), status in zip(keys, cols["status"]):
            if (row, level) == (1, d - 1):
                assert status == "truncation"
                assert den[(chart, row, level)] == den[(chart, 2, 0)]
            elif level >= 1 or row == 1:
                assert status == "regular"


def test_sector_denominator_values():
    rep = jc.singular_sectors(JCParams(theta=1.0, dim=4))
    cols = sector_columns(rep)
    by_key = dict(zip(sector_keys(cols), cols["denominator"].tolist()))
    assert by_key[("I", 2, 0)] == 4.0  # 2 * 1 * (1 + 1)
    assert by_key[("II", 2, 0)] == 0.0


def _count_radius_calls(monkeypatch):
    calls = []
    evaluate = jc._radius

    def counted(m, theta, *signs):
        calls.append((m.shape, signs))
        return evaluate(m, theta, *signs)

    monkeypatch.setattr(jc, "_radius", counted)
    return calls


def test_singular_sectors_evaluates_each_row_once(monkeypatch):
    # both charts' denominators of a block row come from one radius evaluation
    calls = _count_radius_calls(monkeypatch)
    jc.singular_sectors(JCParams(theta=0.5, dim=7))
    assert calls == [((7,), (1.0, -1.0))] * 2


@pytest.mark.parametrize(
    "theta,build,signs",
    [
        (0.5, functools.partial(jc.chart_decompose, chart=ChartTag.I), (1.0,)),
        (-0.5, functools.partial(jc.chart_decompose, chart=ChartTag.II), (-1.0,)),
        (0.5, jc.projector, (1.0, -1.0)),
        (0.5, lambda p: jc.propagator(p, np.linspace(0.0, 1.0, 3)), ()),
    ],
)
def test_closed_forms_evaluate_each_row_once(theta, build, signs, monkeypatch):
    # each closed form reads its radii and half sums from one evaluation
    # per block row, as singular_sectors does
    calls = _count_radius_calls(monkeypatch)
    build(JCParams(theta=theta, dim=7))
    assert calls == [((7,), signs)] * 2


@pytest.mark.parametrize("thetas", [(0.5,), (-0.5,), (0.0, 2.0, -1.0, 0.25)])
def test_grassmann_command_evaluates_the_rows_once_per_build(thetas, monkeypatch):
    # per admissible theta: chart I's two rows give the coordinate and the
    # closed form of (1 + Z+Z)^-1, the projector's two rows the round trip;
    # per singular theta: chart I's two rows alone
    calls = _count_radius_calls(monkeypatch)
    args = cli.build_parser().parse_args(["grassmann", "--theta=" + ",".join(map(str, thetas)), "--dim=7"])
    cli._validate(args)
    list(cli.cmd_grassmann(args))
    assert len(calls) == sum(4 if theta > 0 else 2 for theta in thetas)


@pytest.mark.parametrize("theta", [0.5, 0.0, -0.5])
def test_jc_command_evaluates_the_rows_four_times(theta, monkeypatch):
    # the row radii, which the spectral split reads too, the projector and
    # each chart: two rows each, whether or not a chart is admissible
    calls = _count_radius_calls(monkeypatch)
    args = cli.build_parser().parse_args(["jc", f"--theta={theta}", "--dim=48"])
    cli._validate(args)
    list(cli.cmd_jc(args))
    assert len(calls) == 8


# ---------------------------------------------------------------------------
# every closed form's level vectors, as the layouts stated per operator give them


@np.errstate(all="ignore")  # a singular chart's normalizer, a phase beyond the double range
def _explicit_layouts(p, ts):
    """The level vectors of the Hamiltonian, the chart unitaries and
    diagonal factors (None where the chart is singular), the projector and
    the propagator stack over ``ts``, each written out with the JC coupling
    sqrt(n) on offsets +-1."""
    d, th = p.dim, p.theta
    sq = np.sqrt(np.arange(1.0, d))
    levels = (np.append(np.arange(1.0, d), 0.0), np.arange(float(d)))  # of a a+ and a+ a

    def normalizer(r, h):
        return 0.5 / (np.sqrt(0.5 * r) * np.sqrt(0.5 * h))

    out = {
        "hamiltonian": (({0: np.full(d, th)}, {1: sq}), ({-1: sq}, {0: np.full(d, -th)})),
    }
    for chart, s in ((ChartTag.I, 1.0), (ChartTag.II, -1.0)):
        (r1, h1), (r2, h2) = (jc._radius(m, th, s) for m in levels)
        f1, f2 = normalizer(r1, h1), normalizer(r2, h2)
        if chart is ChartTag.I:
            v = (({0: f1 * h1}, {1: f1[:-1] * -(0.5 * sq)}), ({-1: f2[1:] * (0.5 * sq)}, {0: f2 * h2}))
            lam = (({0: r1}, {}), ({}, {0: -r2}))
        else:
            v = (({1: f1[:-1] * (0.5 * sq)}, {0: f1 * -h1}), ({0: f2 * h2}, {-1: f2[1:] * (0.5 * sq)}))
            lam = (({0: r2}, {}), ({}, {0: -r1}))
        try:
            jc.admissible_denominators(p, chart)
        except SingularSectorError:
            v = lam = None
        out[f"chart {chart.value}"], out[f"diagonal {chart.value}"] = v, lam
    (r1, h1), (r2, h2) = jc._radius(levels[0], th, 1.0), jc._radius(levels[1], th, -1.0)
    p1, p2 = (np.divide(1.0, r, out=np.zeros(d), where=r > 0.5 * SINGULAR_THRESHOLD) for r in (r1, r2))
    out["projector"] = (({0: p1 * h1}, {1: p1[:-1] * (0.5 * sq)}), ({-1: p2[1:] * (0.5 * sq)}, {0: p2 * h2}))
    tg = p.g * ts[:, None]
    (c1, s1), (c0, s0) = ((np.cos(tg * r), np.sin(tg * r)) for r in (r1, r2))
    s1, s0 = (np.divide(s, r, out=tg * np.ones_like(r), where=r != 0.0) for s, r in ((s1, r1), (s0, r2)))
    out["propagator"] = (
        ({0: c1 - 1j * th * s1}, {1: -1j * (s1[..., :-1] * sq)}),
        ({-1: -1j * (s0[..., 1:] * sq)}, {0: c0 + 1j * th * s0}),
    )
    return out


@pytest.mark.parametrize("d", [2, 7, 300])
@pytest.mark.parametrize("theta", [0.0, 5e-324, -5e-324, 1e-8, -1e-8, 0.5, -0.5, 3.0, -3.0, 1e200, -1e200, 1.7e308, -1.7e308])
def test_closed_forms_keep_their_level_vectors(theta, d):
    # every closed form over (theta, W) gives the level vectors of its layout
    # written out per operator: each offset, dtype and value to the ulp, NaN
    # where a phase leaves the double range
    p = JCParams(theta=theta, dim=d, g=0.7)
    ts = np.linspace(0.0, 3.0, 5)
    built = {
        "hamiltonian": jc.hamiltonian(p),
        "projector": jc.projector(p),
        "propagator": jc.propagator(p, ts),
    }
    for chart in ChartTag:
        try:
            built[f"chart {chart.value}"], built[f"diagonal {chart.value}"] = jc.chart_decompose(p, chart)
        except SingularSectorError:
            built[f"chart {chart.value}"] = built[f"diagonal {chart.value}"] = None
    expected = _explicit_layouts(p, ts)
    assert built.keys() == expected.keys()
    for name, layout in expected.items():
        op = built[name]
        if layout is None:
            assert op is None, name
            continue
        vectors = [v for row in layout for b in row for v in b.values()]
        assert op.dtype == np.result_type(*vectors), name
        for got_row, want_row in zip(op.diags, layout):
            for got, want in zip(got_row, want_row):
                assert got.keys() == want.keys(), name
                for k, v in want.items():
                    assert got[k].dtype == v.dtype and np.array_equal(got[k], v, equal_nan=True), name


# 1e-160: the ground denominators 4 theta^2 are subnormal and show any change of rounding
_WIDE_THETAS = [0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e-8, -1e-8, 0.5, -0.5, 1e200, -1e200, 1.7e308, -1.7e308]


@pytest.mark.parametrize("d", [2, 7, 300])
@pytest.mark.parametrize("theta", _WIDE_THETAS)
def test_sector_denominators_are_the_chart_denominators(theta, d):
    # the one-pass denominators equal those of chart_denominators bit for bit
    p = JCParams(theta=theta, dim=d)
    den = jc.singular_sectors(p).denominators
    for chart, rows in zip(den, (jc.chart_denominators(p, c) for c in ChartTag)):
        for got, (_, _, expected) in zip(chart, rows):
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(
    log_mag=st.floats(-323.0, 308.2),
    sign=st.sampled_from([-1.0, 1.0]),
    chart=st.sampled_from(list(ChartTag)),
)
@example(log_mag=-323.3, sign=1.0, chart=ChartTag.I)  # theta = 5e-324, the least subnormal
def test_half_sums_are_exact_halves_and_never_overflow(log_mag, sign, chart, radius):
    # h = (R + s theta)/2 is exactly half the directly rounded sum (or
    # quotient m/(R + |theta|) where it cancels) wherever that is formed
    # without overflow and h is a normal double, and finite up to the
    # largest double
    theta = sign * min(10.0**log_mag, np.finfo(float).max)
    p = JCParams(theta=theta, dim=5)
    s = 1.0 if chart is ChartTag.I else -1.0
    # the level numbers of the rows: a a+ (n + 1 below the top level, 0 at it) and a+ a (n)
    levels = (np.array([1.0, 2.0, 3.0, 4.0, 0.0]), np.arange(5.0))
    for m, (r, h, den) in zip(levels, jc.chart_denominators(p, chart)):
        assert np.array_equal(r, np.append(radius(5, theta, 1)[:-1], abs(theta)) if m[0] else radius(5, theta))
        assert np.all(np.isfinite(h)) and np.all(h >= 0.0)
        with np.errstate(over="ignore"):
            total = r + abs(theta)
        direct = total if s * theta >= 0 else m / total
        normal = np.isfinite(total) & ((h >= np.finfo(float).tiny) | (h == 0.0))
        assert np.array_equal(2.0 * h[normal], direct[normal])
        # a level number 0 has R = |theta|: h is |theta| or 0 exactly, subnormal theta too
        assert np.all(h[m == 0] == (abs(theta) if s * theta >= 0 else 0.0))
        assert np.all(den >= 0.0)


@settings(max_examples=40, deadline=None)
@given(
    mag=st.floats(0.01, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_string_localization_property(mag, sign):
    # every off-resonance theta has exactly one singular pair, at level 0
    theta = sign * mag
    rep = jc.singular_sectors(JCParams(theta=theta, dim=8))
    assert sector_keys(sector_columns(rep, "singular")) == [("II" if theta > 0 else "I", 2, 0)]


@settings(max_examples=80, deadline=None)
@given(
    log_mag=st.floats(-8.0, 12.0),
    sign=st.sampled_from([-1.0, 1.0]),
    d=st.integers(2, 40),
)
def test_singular_set_is_ground_sector_over_wide_range(log_mag, sign, d):
    # R(n) +- theta is formed without cancellation, so no excited level
    # turns singular at large |theta|.  Below |theta| ~ 5e-8 both charts'
    # ground denominators 4 theta^2 fall under the singular threshold.
    theta = sign * 10.0 ** log_mag
    p = JCParams(theta=theta, dim=d)
    sing = sector_columns(jc.singular_sectors(p), "singular")
    assert set(zip(sing["row"].tolist(), sing["level"].tolist())) == {(2, 0)}
    assert ("II" if theta > 0 else "I") in sing["chart"].tolist()
    chart = ChartTag.I if theta > 0 else ChartTag.II
    if chart.value not in sing["chart"].tolist():
        v, _ = jc.chart_decompose(p, chart)
        assert jc.block_residual(v.dagger() @ v, BlockOperator.identity(d)) <= 1e-12


# ---------------------------------------------------------------------------
# transition operator


def test_transition_shift_blocks():
    phi = jc.transition_operator(3)
    assert np.array_equal(
        block(phi, 0, 0), np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    )
    assert np.array_equal(block(phi, 1, 1), block(phi, 0, 0).conj().T)


def test_transition_pinv_forms_agree_exactly():
    d = 24
    sq = fock.func_of_number(d, lambda n: math.sqrt(n))
    pinv = fock.pseudo_diag_inverse(sq)
    upper = fock.annihilation(d) @ pinv
    lower = pinv @ fock.creation(d)
    shifted_upper = fock.func_of_number(d, lambda n: 1 / math.sqrt(n + 1)) @ fock.annihilation(d)
    shifted_lower = fock.creation(d) @ fock.func_of_number(d, lambda n: 1 / math.sqrt(n + 1))
    assert np.array_equal(upper, shifted_upper)
    assert np.array_equal(lower, shifted_lower)
    phi = jc.transition_operator(d)
    assert np.max(np.abs(block(phi, 0, 0) - upper)) <= 2 * np.finfo(float).eps
    assert np.max(np.abs(block(phi, 1, 1) - lower)) <= 2 * np.finfo(float).eps


def test_transition_partial_isometry():
    d = 8
    phi = jc.transition_operator(d)
    prod = (phi.dagger() @ phi).full()
    upper = np.ones(d)
    upper[0] = 0.0
    lower = np.ones(d)
    lower[d - 1] = 0.0  # truncation artifact at the top
    assert np.array_equal(prod, np.diag(np.append(upper, lower)))


def test_quantum_cocycle(radius):
    # V_II = V_I Phi on the whole truncated space; for theta > 0 the
    # chart-II object is assembled here with the kernel convention on its
    # singular normalizers, the ground one of row 2 and the top-level one
    # of row 1, which zeroes the two columns Phi annihilates
    d, theta = 24, 0.5
    p = JCParams(theta=theta, dim=d)
    r1 = np.append(radius(d, theta, 1)[:-1], theta)
    r0 = radius(d, theta)
    f1, f2 = np.zeros(d), np.zeros(d)
    for f, den in ((f1, 2 * r1 * (r1 - theta)), (f2, 2 * r0 * (r0 - theta))):
        keep = den > 1e-14
        f[keep] = 1 / np.sqrt(den[keep])
    assert not f1[d - 1] and not f2[0]
    core = np.block([[fock.annihilation(d), np.diag(theta - r1)], [np.diag(r0 - theta), fock.creation(d)]])
    v_ii = np.append(f1, f2)[:, None] * core
    v_i, _ = jc.chart_decompose(p, ChartTag.I)
    assert max_abs((v_i @ jc.transition_operator(d)).full(), v_ii) <= 1e-12


# ---------------------------------------------------------------------------
# projector and spectral decomposition


@pytest.mark.parametrize("theta", [0.5, 1.0, -0.75, 0.0])
def test_projector_properties(theta):
    d = 24
    p = JCParams(theta=theta, dim=d)
    proj = jc.projector(p)
    assert jc.block_residual(proj @ proj, proj) <= 1e-12
    assert jc.block_residual(proj.dagger(), proj) == 0.0
    # the dense form with diag(1/2R1, 1/2R(N)) on the right (kernel
    # convention where R vanishes) is the same operator
    r1, r0 = jc.row_radii(p)
    radii = np.append(r1, r0)
    half_inverse = np.divide(0.5, radii, out=np.zeros(2 * d), where=radii > 0.0)
    core = np.block([[np.diag(r1 + theta), fock.annihilation(d)], [fock.creation(d), np.diag(r0 - theta)]])
    assert max_abs(proj.full(), core * half_inverse) <= 1e-13


@pytest.mark.parametrize("theta,chart", [(1.0, ChartTag.I), (-1.0, ChartTag.II)])
def test_projector_chart_form(theta, chart):
    d = 24
    p = JCParams(theta=theta, dim=d)
    v, _ = jc.chart_decompose(p, chart)
    p0 = jc.block_diag(np.ones(d), np.zeros(d))
    assert jc.block_residual((v @ p0) @ v.dagger(), jc.projector(p)) <= 1e-12


def test_projector_classical_limit_scaling():
    # at levels n >> theta^2 the diagonal entries track the classical
    # (r + z)/2r profile with r = sqrt(n)
    theta, d = 0.5, 64
    proj = jc.projector(JCParams(theta=theta, dim=d))
    for n in (40, 50, 60):
        quantum = block(proj, 1, 1)[n, n].real  # (R(n) - theta)/(2 R(n))
        r = math.sqrt(n)
        classical = (r - theta) / (2 * r)
        assert abs(quantum - classical) <= 2e-3  # theta^2/n corrections


def test_projector_sector_trace_is_one():
    d, theta = 12, 0.8
    proj = jc.projector(JCParams(theta=theta, dim=d)).full()
    for n in range(d - 1):
        idx = [n, d + n + 1]
        sector = proj[np.ix_(idx, idx)]
        assert abs(np.trace(sector).real - 1.0) <= 1e-13
        # rank one: determinant vanishes
        assert abs(np.linalg.det(sector)) <= 1e-13


@pytest.mark.parametrize("theta", [0.5, -0.5, 0.0])
def test_spectral_decomposition(theta, radius):
    d = 32
    p = JCParams(theta=theta, dim=d)
    proj = jc.projector(p)
    plus, minus = jc.spectral_decomposition(jc.row_radii(p), proj)
    assert jc.block_residual(plus + minus, jc.hamiltonian(p)) <= 1e-10
    lam = jc.block_diag(radius(d, theta, 1), radius(d, theta))
    assert jc.block_residual(lam @ proj, proj @ lam) <= 1e-12


# ---------------------------------------------------------------------------
# propagators


def test_propagator_at_zero_is_identity():
    u = jc.propagator(JCParams(theta=0.3, dim=8), 0.0)
    assert np.array_equal(u.full(), np.eye(16, dtype=complex))


def test_propagator_resonance_rabi_form():
    # the top level |e,d-1> is an eigenvector of eigenvalue theta = 0
    d, g, t = 12, 1.0, 1.7
    u = jc.propagator(JCParams(theta=0.0, dim=d, g=g), t)
    n = np.arange(d)
    upper = np.cos(t * g * np.sqrt(np.append(n[1:], 0)))
    assert upper[d - 1] == 1.0
    assert np.max(np.abs(np.diag(block(u, 0, 0)) - upper)) <= 1e-14
    assert np.max(np.abs(np.diag(block(u, 1, 1)) - np.cos(t * g * np.sqrt(n)))) <= 1e-14


def test_propagator_against_oracle():
    d = 40
    p = JCParams(theta=0.25, dim=d, g=1.0)
    h = (p.g * jc.hamiltonian(p)).full()
    u = jc.propagator(p, 3.7)
    u_oracle = expm_from_eig(*oracle.eig_hermitian(h), 3.7)
    assert max_abs(u.full(), u_oracle) <= 1e-8


@pytest.mark.parametrize("theta", [0.25, -0.6, 0.0])
def test_propagator_unitarity(theta):
    d = 24
    u = jc.propagator(JCParams(theta=theta, dim=d, g=1.0), 2.9)
    assert jc.block_residual(u.dagger() @ u, BlockOperator.identity(d)) <= 1e-10


def test_propagator_group_law():
    p = JCParams(theta=0.4, dim=16, g=0.8)
    u1 = jc.propagator(p, 1.3)
    u2 = jc.propagator(p, 2.1)
    u3 = jc.propagator(p, 3.4)
    assert jc.block_residual(u1 @ u2, u3) <= 1e-12


def test_full_propagator_against_oracle():
    p = JCParams(theta=0.25, dim=32)  # omega = 1, delta = 1.5, g = 1
    h1, h2 = jc.full_hamiltonian(p, 1.0)
    t = 4.2
    u = jc.full_propagator(p, 1.0, t)
    u_oracle = expm_from_eig(*oracle.eig_hermitian((h1 + h2).full()), t)
    assert max_abs(u.full(), u_oracle) <= 1e-8


@pytest.mark.parametrize("theta", [0.5, -0.5, 3.0, -4.0, 0.0, 1e-6])
@pytest.mark.parametrize("d", [2, 3, 12, 48])
def test_closed_forms_against_the_dense_oracle(d, theta):
    # every closed form on the whole truncated space, the one-level
    # sectors |g,0> (eigenvalue -theta) and |e,d-1> (+theta) included
    p = JCParams(theta=theta, dim=d, g=0.8)
    h = jc.hamiltonian(p)
    w, v = oracle.eig_hermitian(h.full())
    # |H| and the projector onto the positive eigenspace (P = 0 on the
    # null space at resonance)
    oracle_abs = (v * np.abs(w)) @ v.T
    oracle_proj = (v * (w > 1e-9)) @ v.T
    # the oracle's eigenvectors are good to about eps ||H|| / gap, the gap
    # between the two halves of the spectrum being 2|theta| (1 at resonance)
    proj_tol = 1e-12 / min(1.0, 2 * abs(theta) or 1.0)
    ident = BlockOperator.identity(d)
    for chart in ChartTag:
        try:
            u, lam = jc.chart_decompose(p, chart)
        except SingularSectorError:
            continue
        assert jc.block_residual((u @ lam) @ u.dagger(), h) <= 1e-12 * max(1.0, abs(theta))
        assert jc.block_residual(u.dagger() @ u, ident) <= 1e-12
        assert max_abs(((u @ jc.block_diag(np.ones(d), np.zeros(d))) @ u.dagger()).full(), oracle_proj) <= proj_tol
    assert max_abs(jc.projector(p).full(), oracle_proj) <= proj_tol
    plus, minus = jc.spectral_decomposition(jc.row_radii(p), jc.projector(p))
    assert max_abs((plus - minus).full(), oracle_abs) <= 1e-12
    assert max_abs(jc.block_diag(*jc.row_radii(p)).full(), oracle_abs) <= 1e-12
    if theta > 1e-7:
        z = grassmann.projector_from_coordinate(grassmann.local_coordinate(p)[0])
        assert max_abs(z.full(), oracle_proj) <= proj_tol
    for t in (0.3, 2.0, 7.5):
        assert max_abs(jc.propagator(p, t).full(), expm_from_eig(w, v, p.g * t)) <= 1e-12
    h1, h2 = jc.full_hamiltonian(p, 1.1)
    w, v = oracle.eig_hermitian((h1 + h2).full())
    assert max_abs(jc.full_propagator(p, 1.1, 2.0).full(), expm_from_eig(w, v, 2.0)) <= 1e-12


@pytest.mark.parametrize("steps", [1, 2, 9])
@pytest.mark.parametrize("d", [2, 3, 17])
def test_propagator_over_times_is_the_stack_of_scalar_ones(d, steps):
    # one code path: slice i of the stack is bitwise the scalar-t result
    ts = np.linspace(0.0, 7.5, steps)
    p = JCParams(theta=-0.35, dim=d, g=0.8)
    for evolve in (jc.propagator, functools.partial(jc.full_propagator, omega=1.2)):
        stack = evolve(p, t=ts)
        assert stack.batch == (steps,)
        for i, t in enumerate(ts.tolist()):
            single = evolve(p, t=t)
            assert single.batch == ()
            assert _same_operator(_slice(stack, i), single)


def test_eigenbasis_residuals_refuse_mismatched_input():
    p = JCParams(theta=0.5, dim=3)
    w, v = oracle.eig_hermitian(jc.hamiltonian(p).full())
    ts = np.linspace(0.0, 1.0, 4)
    u = jc.propagator(p, ts)
    assert jc.eigenbasis_residuals(u, w, v, ts).shape == (4,)
    for args in ((u, w, v, ts[:3]), (u, w, v, ts[:, None]), (u, w, v.astype(complex), ts), (jc.propagator(p, 1.0), w, v, ts)):
        with pytest.raises(ValueError, match="expected a stack"):
            jc.eigenbasis_residuals(*args)


def test_full_propagator_needs_frequencies():
    # without omega the one number given is read as omega and t is missing
    with pytest.raises(TypeError):
        jc.full_propagator(JCParams(theta=0.5, dim=4), 1.0)


# ---------------------------------------------------------------------------
# block operator plumbing


def test_block_operator_shape_guard():
    # the level vector on offset k has length d - |k|, after any batch axes
    for d, k, v in ((3, 0, np.ones(2)), (3, 1, np.ones(3)), (3, -2, np.ones(2)), (3, 0, np.ones((2, 4))), (3, 0, 1.0)):
        with pytest.raises(ValueError, match=r"needs length d - \|k\|"):
            BlockOperator(d, (({}, {k: v}), ({}, {})))
    assert BlockOperator(3, (({}, {-2: np.ones((2, 1))}), ({}, {}))).batch == (2,)
    for x in (np.ones((6, 2)), np.ones(8, dtype=complex)):
        with pytest.raises(ValueError, match="expected a real array of 8 rows"):
            BlockOperator.identity(4).apply(x)


def test_block_full_roundtrip(rng):
    # every level vector lands on its diagonal of its block bit for bit,
    # signed zeros included, and every other entry is zero
    for d in (2, 5, 9):
        op = _random_operator(rng, d)
        full = op.full()
        stored = np.zeros(full.shape, dtype=bool)
        for i, row in enumerate(op.diags):
            for j, b in enumerate(row):
                for k, v in b.items():
                    assert _same_bits(np.diagonal(full[i * d : (i + 1) * d, j * d : (j + 1) * d], k).copy(), v)
                    n = np.arange(d - abs(k))
                    stored[i * d + n + max(0, -k), j * d + n + max(0, k)] = True
        assert not np.any(full[~stored])


def _dense(op):
    # complex dense reference, block by block through numpy.diag
    d = op.dim
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for i, row in enumerate(op.diags):
        for j, b in enumerate(row):
            for k, v in b.items():
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] += np.diag(v, k)
    return out


@pytest.mark.parametrize("theta", [0.7, -0.7, 1e-9, 3.0, 1e200, -1.7e308])
@pytest.mark.parametrize("d", [2, 7, 64])
def test_full_is_real_when_every_level_vector_is(theta, d):
    # the Hamiltonians, the projector and the chart unitaries and diagonals
    # at real theta export as real C-contiguous matrices carrying the complex
    # export's values; the oracle gives a complex copy of them the same bits
    p = JCParams(theta=theta, dim=d, g=0.5)
    h1, h2 = jc.full_hamiltonian(p, 1.0)
    ops = [jc.hamiltonian(p), h1, h2, h1 + h2, jc.projector(p)]
    for chart in ChartTag:
        try:
            ops.extend(jc.chart_decompose(p, chart))
        except SingularSectorError:  # only where a chart is singular
            pass
    for op in ops:
        full = op.full()
        assert full.dtype == np.float64 and full.flags.c_contiguous
        ref = _dense(op)
        assert not np.any(ref.imag) and _same_bits(full, np.ascontiguousarray(ref.real))
    h = ops[0].full()
    evals = oracle.eigvals_hermitian(h)
    assert _same_bits(oracle.eigvals_hermitian(h.astype(complex)), evals)
    w, v = oracle.eig_hermitian(h)
    wc, vc = oracle.eig_hermitian(h.astype(complex))
    assert vc.dtype == np.float64 and _same_bits(wc, w) and _same_bits(vc, v)


def test_full_is_complex_when_one_imaginary_part_is_not_zero():
    p = JCParams(theta=0.7, dim=7)
    u = jc.propagator(p, 1.3)
    assert u.full().dtype == np.complex128 and _same_bits(u.full(), _dense(u))
    # one subnormal imaginary part anywhere keeps the whole export complex
    h = jc.hamiltonian(p)
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 0, -1), (1, 1, 0)):
        diags = [[dict(b) for b in row] for row in h.diags]
        v = diags[i][j][k].astype(complex)
        v[-1] += 5e-324j
        diags[i][j][k] = v
        op = BlockOperator(p.dim, diags)
        full = op.full()
        assert full.dtype == np.complex128 and _same_bits(full, _dense(op))
        assert np.count_nonzero(full.imag) == 1


@pytest.mark.parametrize("theta", [0.7, -0.7, 0.0, 5e-324, 1e200, -1.7e308])
def test_closed_forms_at_real_theta_store_float64_level_vectors(theta):
    # the dtype follows the level vectors: the Hamiltonian, the projector,
    # the chart unitaries and diagonals and the Grassmann projector are real
    # at real theta and g, the propagator is complex
    p = JCParams(theta=theta, dim=7, g=0.5)
    ops = [jc.hamiltonian(p), jc.projector(p)]
    builds = [functools.partial(jc.chart_decompose, p, chart) for chart in ChartTag]
    builds.append(lambda: (grassmann.projector_from_coordinate(grassmann.local_coordinate(p)[0]),))
    for build in builds:
        try:
            ops.extend(build())
        except SingularSectorError:  # only where a chart is singular
            pass
    assert len(ops) == 2 + 2 * (abs(theta) > 1e-7) + (theta > 1e-7)
    for op in ops:
        assert op.dtype == np.float64 and all(v.dtype == np.float64 for v in _vectors(op))
    for op in (jc.propagator(p, 1.3), jc.propagator(p, np.linspace(0.0, 2.0, 3))):
        assert op.dtype == np.complex128 and all(v.dtype == np.complex128 for v in _vectors(op))
    z = np.linspace(0.5, 2.0, 6)
    assert grassmann.projector_from_coordinate(z * 1j).dtype == np.complex128


def _random_operator(rng, d, real=False):
    # up to three random offsets per block, each with a random level vector
    # holding some exact zeros and -0.0; real level vectors where ``real``
    diags = []
    for _ in range(2):
        row = []
        for _ in range(2):
            block = {}
            for k in rng.choice(np.arange(1 - d, d), size=rng.integers(0, 4), replace=False).tolist():
                v = rng.standard_normal(d - abs(k)) + (0.0 if real else 1j * rng.standard_normal(d - abs(k)))
                v[rng.random(v.shape) < 0.2] = 0.0
                v[rng.random(v.shape) < 0.1] = -0.0 if real else complex(-0.0, -0.0)
                block[k] = v
            row.append(block)
        diags.append(row)
    return BlockOperator(d, diags)


def _reference_product(x, y):
    # the product term by term in the operator's accumulation order and
    # dtype, each row r of the product's diagonal k = p + q from its own
    # indices
    d = x.dim
    out = [[{}, {}], [{}, {}]]
    for i in range(2):
        for j in range(2):
            for m in range(2):
                for p, a in x.diags[i][m].items():
                    for q, b in y.diags[m][j].items():
                        k = p + q
                        r = np.array([r for r in range(d) if 0 <= r + p < d and 0 <= r + k < d], dtype=int)
                        if r.size:
                            c = out[i][j].setdefault(k, np.zeros(d - abs(k), dtype=np.result_type(x.dtype, y.dtype)))
                            c[r - max(0, -k)] += a[r - max(0, -p)] * b[r + p - max(0, -q)]
    return BlockOperator(d, out)


def _slice(op, i):
    # slice i of a stack, vector by vector (an unbatched vector is shared)
    pick = lambda v: v[i] if v.ndim > 1 else v
    return BlockOperator(op.dim, [[{k: pick(v) for k, v in b.items()} for b in row] for row in op.diags])


def _stack(ops):
    # the stack of operators of one layout, offsets taken from the first
    first = ops[0].diags
    diags = [[{k: np.stack([op.diags[i][j][k] for op in ops]) for k in first[i][j]} for j in range(2)] for i in range(2)]
    return BlockOperator(ops[0].dim, diags, (len(ops),))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _vectors(op):
    # every stored level vector of an operator
    return [v for row in op.diags for b in row for v in b.values()]


def _complex_copy(op):
    # the operator with every level vector cast to complex128
    return BlockOperator(op.dim, [[{k: v.astype(complex) for k, v in b.items()} for b in row] for row in op.diags], op.batch)


def _equal_operator(a, b):
    # equal offsets and equal level vector values (a real vector equals its
    # complex copy; signed zeros compare equal)
    return all(
        a.diags[i][j].keys() == b.diags[i][j].keys()
        and all(np.array_equal(a.diags[i][j][k], b.diags[i][j][k]) for k in a.diags[i][j])
        for i in range(2)
        for j in range(2)
    )


def _same_operator(a, b):
    # equal offsets and bitwise equal level vectors, signed zeros included
    return all(
        a.diags[i][j].keys() == b.diags[i][j].keys()
        and all(_same_bits(a.diags[i][j][k], b.diags[i][j][k]) for k in a.diags[i][j])
        for i in range(2)
        for j in range(2)
    )


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 4),
    real=st.tuples(st.booleans(), st.booleans()),
)
# a stack of one with length-1 diagonals times a single operator: numpy's
# complex product of a (1, 1) and a (1,) array rounds without FMA
@example(d=2, seed=0, batch=1, real=(False, False))
@example(d=2, seed=0, batch=1, real=(True, False))
@example(d=5, seed=1, batch=3, real=(True, True))
def test_block_operator_algebra_matches_dense(d, seed, batch, real):
    rng = np.random.default_rng(seed)
    a, b = (_random_operator(rng, d, r) for r in real)
    # float64 unless a level vector is complex (an operator may store none)
    for op, r in zip((a, b), real):
        assert op.dtype == (np.float64 if r or not _vectors(op) else np.complex128)
    af, bf = a.full(), b.full()
    assert (af.dtype, bf.dtype) == (a.dtype, b.dtype)
    # the product: summation error stays under 1e-13 of |A| |B| entrywise
    assert np.all(np.abs((a @ b).full() - af @ bf) <= 1e-13 * (np.abs(af) @ np.abs(bf)))
    assert np.array_equal((a + b).full(), af + bf)
    assert np.array_equal((a - b).full(), af - bf)
    assert np.array_equal(a.dagger().full(), af.conj().T)
    assert a.max_abs() == np.max(np.abs(af))
    assert _same_operator(a @ b, _reference_product(a, b))
    # the residual over the union of offsets is the difference's max_abs
    assert jc.block_residual(a, b) == (a - b).max_abs() == np.max(np.abs(af - bf), initial=0.0)
    # apply: a vector and a matrix
    x = rng.standard_normal((2 * d, 3))
    for y in (x[:, 0], x):
        assert np.all(np.abs(a.apply(y) - af @ y) <= 1e-13 * (np.abs(af) @ np.abs(y)))
    # stacks: every operation on a stack is the operation on each slice,
    # bit for bit; a single operator broadcasts against a stack
    scalar = lambda r: rng.standard_normal() if r else complex(*rng.standard_normal(2))
    sa = _stack([a] + [a * scalar(real[0]) for _ in range(batch - 1)])
    sb = _stack([b] + [b * scalar(real[1]) for _ in range(batch - 1)])
    assert sa.batch == (batch,)
    assert _same_bits(_slice(sa, 0).full(), af)
    results = {
        "matmul": (sa @ sb, lambda s, t: s @ t),
        "add": (sa + sb, lambda s, t: s + t),
        "sub": (sa - sb, lambda s, t: s - t),
        "scale": (sa * 0.5j, lambda s, t: s * 0.5j),
        "dagger": (sa.dagger(), lambda s, t: s.dagger()),
        "with_single": (sa @ b, lambda s, t: s @ b),
    }
    for name, (stacked, op) in results.items():
        assert stacked.batch == (batch,), name
        # an operator that products and sums build themselves is what the
        # public constructor makes of its level vectors (the batch argument
        # keeps the stack shape of an operator with no stored diagonal)
        rebuilt = BlockOperator(d, stacked.diags, stacked.batch)
        assert rebuilt.batch == stacked.batch and _same_operator(rebuilt, stacked), name
        assert {v.dtype for v in _vectors(stacked)} <= {np.dtype(float), stacked.dtype}, name
        for i in range(batch):
            assert _same_operator(_slice(stacked, i), op(_slice(sa, i), _slice(sb, i))), (name, i)
    peaks = sa.max_abs()
    assert peaks.shape == (batch,)
    residuals = jc.block_residual(sa, sb)
    assert _same_bits(residuals, (sa - sb).max_abs())
    assert residuals.tolist() == [jc.block_residual(_slice(sa, i), _slice(sb, i)) for i in range(batch)]
    assert _same_bits(jc.block_residual(sa, b), (sa - b).max_abs())
    assert [_slice(sa, i).max_abs() for i in range(batch)] == peaks.tolist()
    for y in (x[:, 0], x):
        applied = sa.apply(y)
        assert applied.shape == (batch,) + y.shape
        assert all(_same_bits(applied[i], _slice(sa, i).apply(y)) for i in range(batch))
    with pytest.raises(ValueError, match="no single dense form"):
        sa.full()
    # every operation on real operators, alone, with a complex one or as
    # stacks, gives the values of the same operation on their complex
    # copies, in the operands' common dtype
    for s, t in ((a, b), (sa, sb), (sa, b)):
        sc, tc = _complex_copy(s), _complex_copy(t)
        common = np.result_type(s.dtype, t.dtype)
        pairs = {
            "matmul": (s @ t, sc @ tc, common),
            "add": (s + t, sc + tc, common),
            "sub": (s - t, sc - tc, common),
            "scale": (s * 0.5, sc * 0.5, s.dtype),
            "scale_complex": (s * 0.5j, sc * 0.5j, np.dtype(complex)),
            "dagger": (s.dagger(), sc.dagger(), s.dtype),
        }
        for name, (got, ref, dtype) in pairs.items():
            assert got.dtype == dtype and got.batch == ref.batch and _equal_operator(got, ref), name
            assert {v.dtype for v in _vectors(got)} <= {np.dtype(float), dtype}, name
        assert np.array_equal(s.max_abs(), sc.max_abs())
        assert np.array_equal(jc.block_residual(s, t), jc.block_residual(sc, tc))
        for y in (x[:, 0], x):
            applied = s.apply(y)
            assert applied.dtype == s.dtype and np.array_equal(applied, sc.apply(y))
        if not s.batch:
            assert s.full().dtype == s.dtype and np.array_equal(s.full(), sc.full())


def test_closed_forms_are_linear_in_memory():
    # a dense d x d block alone would take 160 GB at this size
    d = 100_000
    p = JCParams(theta=0.5, dim=d)
    tracemalloc.start()
    try:
        u = jc.propagator(p, 1.3)
        v, _ = jc.chart_decompose(p, ChartTag.I)
        proj = jc.projector(p)
        plus, minus = jc.spectral_decomposition(jc.row_radii(p), proj)
        start = np.zeros(2 * d)
        start[3] = 1.0
        psi = u.apply(start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert jc.block_residual(u.dagger() @ u, BlockOperator.identity(d)) <= 1e-10
    assert jc.block_residual(v.dagger() @ v, BlockOperator.identity(d)) <= 1e-12
    assert jc.block_residual(proj @ proj, proj) <= 1e-12
    assert jc.block_residual(plus + minus, jc.hamiltonian(p)) <= 1e-10
    assert np.array_equal(psi[[3, d + 4]], [u.diags[0][0][0][3], u.diags[1][0][-1][3]])
