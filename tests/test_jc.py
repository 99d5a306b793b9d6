import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjc import fock, jc, oracle
from hjc.berry import ChartTag
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


def radius_block(p, upper_shift, lower_shift):
    return jc.block_diag(
        np.diag(jc.radius_diag(p.dim, p.theta, upper_shift)).astype(complex),
        np.diag(jc.radius_diag(p.dim, p.theta, lower_shift)).astype(complex),
    )


# ---------------------------------------------------------------------------
# params and Hamiltonians


def test_params_guard_dim():
    with pytest.raises(ValueError):
        JCParams(theta=0.5, dim=1)


def test_params_consistency_check():
    JCParams(theta=0.25, dim=4, g=1.0, omega=1.0, delta=1.5)
    with pytest.raises(ValueError, match="inconsistent"):
        JCParams(theta=0.3, dim=4, g=1.0, omega=1.0, delta=1.5)


def test_params_from_physical_rejects_zero_coupling():
    with pytest.raises(ValueError, match="g = 0"):
        JCParams.from_physical(omega=1.0, delta=1.2, g=0.0, dim=8)


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
    assert np.max(np.abs(h.blocks[0][0])) == 0.0
    assert np.max(np.abs(h.blocks[1][1])) == 0.0
    assert np.array_equal(h.blocks[0][1], fock.annihilation(2))


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


def test_full_hamiltonian_commuting_split():
    p = JCParams.from_physical(omega=1.3, delta=2.1, g=0.7, dim=12)
    h1, h2 = jc.full_hamiltonian(p)
    assert jc.block_residual(h1 @ h2, h2 @ h1) <= 1e-13


def test_full_hamiltonian_resonance():
    p = JCParams.from_physical(omega=1.0, delta=1.0, g=0.5, dim=6)
    assert p.theta == 0.0
    _, h2 = jc.full_hamiltonian(p)
    expected = 0.5 * (
        np.kron(np.array([[0, 1], [0, 0]]), fock.annihilation(6))
        + np.kron(np.array([[0, 0], [1, 0]]), fock.creation(6))
    )
    assert np.max(np.abs(h2.full() - expected)) == 0.0


def test_full_hamiltonian_reconstructs_kron():
    # dyadic parameters: the two assembly paths agree bit for bit
    omega, g = 1.0, 0.5
    delta = omega + 2 * g * 0.25
    p = JCParams.from_physical(omega=omega, delta=delta, g=g, dim=16)
    h1, h2 = jc.full_hamiltonian(p)
    assert np.array_equal((h1 + h2).full(), kron_full_hamiltonian(omega, delta, g, 16))
    # generic parameters: agree to the float-association floor
    omega, g = 1.1, 0.4
    delta = omega + 2 * g * 0.35
    p = JCParams.from_physical(omega=omega, delta=delta, g=g, dim=16)
    h1, h2 = jc.full_hamiltonian(p)
    diff = np.max(np.abs((h1 + h2).full() - kron_full_hamiltonian(omega, delta, g, 16)))
    assert diff <= 1e-14


def test_full_hamiltonian_needs_frequencies():
    with pytest.raises(ValueError):
        jc.full_hamiltonian(JCParams(theta=0.5, dim=4))


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


def test_eigenvalue_multiset():
    d, theta = 16, 0.3
    evals, _ = oracle.eig_hermitian(jc.hamiltonian(JCParams(theta=theta, dim=d)).full())
    pattern = np.sort(np.concatenate([jc.radius_diag(d, theta, 0), -jc.radius_diag(d, theta, 0)]))
    assert np.max(np.abs(np.sort(evals) - pattern)) <= 1e-10


# ---------------------------------------------------------------------------
# two-step factorization


def test_two_step_resonance_middle():
    _, mid, _ = jc.two_step_factors(JCParams(theta=0.0, dim=3))
    sq = np.diag(np.sqrt([1.0, 2.0, 3.0])).astype(complex)
    assert np.max(np.abs(mid.blocks[0][1] - sq)) == 0.0
    assert np.max(np.abs(mid.blocks[1][0] - sq)) == 0.0
    assert np.max(np.abs(mid.blocks[0][0])) == 0.0


def test_two_step_partial_isometries():
    d = 16
    left, _, right = jc.two_step_factors(JCParams(theta=0.5, dim=d))
    lower_deficiency = np.eye(d, dtype=complex)
    lower_deficiency[0, 0] = 0.0
    expected = jc.block_diag(np.eye(d, dtype=complex), lower_deficiency)
    assert np.array_equal((left @ right).full(), expected.full())
    top_deficiency = np.eye(d, dtype=complex)
    top_deficiency[d - 1, d - 1] = 0.0
    expected = jc.block_diag(np.eye(d, dtype=complex), top_deficiency)
    assert np.array_equal((right @ left).full(), expected.full())


@pytest.mark.parametrize("theta", [0.5, -0.8, 0.0])
def test_two_step_reconstruction_defect(theta):
    # L M L+ equals H everywhere except the ground entry of the lower
    # block, which comes out -theta(1 - |0><0|): the defect is exactly
    # theta |0><0|, the seed of the quantum string.
    d = 16
    p = JCParams(theta=theta, dim=d)
    left, mid, right = jc.two_step_factors(p)
    diff = ((left @ mid) @ right - jc.hamiltonian(p)).full()
    assert abs(diff[d, d] - theta) <= 1e-15
    diff[d, d] = 0.0
    assert np.max(np.abs(diff)) <= 1e-13


# ---------------------------------------------------------------------------
# middle unitaries


@pytest.mark.parametrize("theta", [0.5, -0.5, 1.0, 0.0])
@pytest.mark.parametrize("chart", list(ChartTag))
def test_middle_unitary_diagonalizes(theta, chart):
    # denominators carry R(N+1) only, so both charts exist for every theta
    d = 16
    p = JCParams(theta=theta, dim=d)
    u = jc.middle_unitary(p, chart)
    assert jc.block_residual(u.dagger() @ u, BlockOperator.identity(d)) <= 1e-12
    _, mid, _ = jc.two_step_factors(p)
    lam = radius_block(p, 1, 1)
    lam = jc.block_diag(lam.blocks[0][0], -lam.blocks[1][1])
    assert jc.block_residual((u @ lam) @ u.dagger(), mid) <= 1e-12


def test_middle_unitary_denominator_floor():
    p = JCParams(theta=1.0, dim=8)
    r1 = jc.radius_diag(8, 1.0, 1)
    dens = 2.0 * r1 * (r1 + 1.0)
    assert dens.min() >= 4.0  # n = 0 gives 2 * 1 * 2


# ---------------------------------------------------------------------------
# chart unitaries (the V operators)


@pytest.mark.parametrize("theta,chart", [(0.5, ChartTag.I), (-0.5, ChartTag.II), (2.0, ChartTag.I)])
def test_chart_unitarity_and_orderings(theta, chart):
    d = 24
    p = JCParams(theta=theta, dim=d)
    v = jc.chart_unitary(p, chart)
    assert jc.block_residual(v.dagger() @ v, BlockOperator.identity(d), margin=1) <= 1e-12
    other = jc.chart_unitary(p, chart, normalizer="right")
    assert jc.block_residual(v, other) <= 1e-13


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
        jc.chart_unitary(p, chart)
        return
    with pytest.raises(SingularSectorError) as err:
        jc.chart_unitary(p, chart)
    assert err.value.chart is chart
    assert [(s.row, s.level) for s in err.value.sectors] == [(2, 0)]


@pytest.mark.parametrize("theta,chart", [(0.5, ChartTag.I), (-0.5, ChartTag.II)])
def test_chart_reconstruction(theta, chart):
    d = 32
    p = JCParams(theta=theta, dim=d)
    dec = jc.chart_decompose(p, chart)
    v, lam = dec.unitary, dec.diagonal
    assert jc.block_residual((v @ lam) @ v.dagger(), jc.hamiltonian(p), margin=2) <= 1e-10


def test_chart_diagonal_layout():
    p = JCParams(theta=0.5, dim=6)
    d1 = jc.chart_diagonal(p, ChartTag.I)
    assert np.allclose(np.diag(d1.blocks[0][0]).real, jc.radius_diag(6, 0.5, 1), atol=0, rtol=0)
    assert np.allclose(np.diag(d1.blocks[1][1]).real, -jc.radius_diag(6, 0.5, 0), atol=0, rtol=0)
    d2 = jc.chart_diagonal(p, ChartTag.II)
    assert np.allclose(np.diag(d2.blocks[0][0]).real, jc.radius_diag(6, 0.5, 0), atol=0, rtol=0)


def test_chart_eigenvalues_against_oracle():
    # the diagonal factor carries {R(1..d)} u {-R(0..d-1)}; the truncated
    # spectrum replaces the untruncated R(d) by +theta (orphaned top state)
    d, theta = 16, 0.3
    p = JCParams(theta=theta, dim=d)
    evals, _ = oracle.eig_hermitian(jc.hamiltonian(p).full())
    lam_vals = np.sort(np.diag(jc.chart_diagonal(p, ChartTag.I).full()).real)
    spectrum = np.sort(evals)
    neg_factor, pos_factor = lam_vals[:d], lam_vals[d:]
    neg_oracle, pos_oracle = spectrum[:d], spectrum[d:]
    assert np.max(np.abs(neg_factor - neg_oracle)) <= 1e-10
    assert abs(pos_oracle[0] - theta) <= 1e-10
    assert np.max(np.abs(pos_factor[:-1] - pos_oracle[1:])) <= 1e-10
    assert abs(pos_factor[-1] - math.sqrt(d + theta**2)) <= 1e-12


# ---------------------------------------------------------------------------
# singular sector report


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
    got = sorted((s.chart.value, s.row, s.level) for s in rep.singular())
    assert got == sorted(expected)


def test_excited_levels_regular():
    rep = jc.singular_sectors(JCParams(theta=0.5, dim=16))
    for entry in rep.entries:
        if entry.level >= 1 or entry.row == 1:
            assert entry.status == "regular"


def test_sector_denominator_values():
    rep = jc.singular_sectors(JCParams(theta=1.0, dim=4))
    by_key = {(s.chart.value, s.row, s.level): s.denominator for s in rep.entries}
    assert by_key[("I", 2, 0)] == 4.0  # 2 * 1 * (1 + 1)
    assert by_key[("II", 2, 0)] == 0.0


def test_lattice_black_on_axes():
    rep = jc.singular_sectors(JCParams(theta=0.7, dim=4))
    cells = {tuple(c["level_pair"]): c["color"] for c in rep.lattice()}
    for m in range(4):
        for n in range(4):
            expected = "black" if (m == 0 or n == 0) else "white"
            assert cells[(m, n)] == expected


@settings(max_examples=40, deadline=None)
@given(
    mag=st.floats(0.01, 8.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_string_localization_property(mag, sign):
    # every off-resonance theta has exactly one singular pair, at level 0
    theta = sign * mag
    rep = jc.singular_sectors(JCParams(theta=theta, dim=8))
    sing = rep.singular()
    assert len(sing) == 1
    s = sing[0]
    assert s.level == 0 and s.row == 2
    assert s.chart is (ChartTag.II if theta > 0 else ChartTag.I)


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
    sing = jc.singular_sectors(p).singular()
    assert {(s.row, s.level) for s in sing} == {(2, 0)}
    assert (ChartTag.II if theta > 0 else ChartTag.I) in {s.chart for s in sing}
    chart = ChartTag.I if theta > 0 else ChartTag.II
    if all(s.chart is not chart for s in sing):
        v = jc.chart_unitary(p, chart)
        assert jc.block_residual(v.dagger() @ v, BlockOperator.identity(d), margin=1) <= 1e-12


# ---------------------------------------------------------------------------
# transition operator


def test_transition_shift_blocks():
    phi = jc.transition_operator(3)
    assert np.array_equal(
        phi.blocks[0][0], np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    )
    assert np.array_equal(phi.blocks[1][1], phi.blocks[0][0].conj().T)


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
    assert np.max(np.abs(phi.blocks[0][0] - upper)) <= 2 * np.finfo(float).eps
    assert np.max(np.abs(phi.blocks[1][1] - lower)) <= 2 * np.finfo(float).eps


def test_transition_partial_isometry():
    d = 8
    phi = jc.transition_operator(d)
    prod = (phi.dagger() @ phi).full()
    upper = np.eye(d, dtype=complex)
    upper[0, 0] = 0.0
    lower = np.eye(d, dtype=complex)
    lower[d - 1, d - 1] = 0.0  # truncation artifact at the top
    assert np.array_equal(prod, jc.block_diag(upper, lower).full())


def test_quantum_cocycle():
    # V_II = V_I Phi off the ground column; for theta > 0 the chart-II
    # object is assembled here with the kernel convention on its singular
    # ground normalizer
    d, theta = 24, 0.5
    p = JCParams(theta=theta, dim=d)
    r1 = jc.radius_diag(d, theta, 1)
    r0 = jc.radius_diag(d, theta, 0)
    den1 = 2 * r1 * (r1 - theta)
    den2 = 2 * r0 * (r0 - theta)
    f1 = 1 / np.sqrt(den1)
    f2 = np.zeros(d)
    keep = den2 > 1e-14
    f2[keep] = 1 / np.sqrt(den2[keep])
    core = BlockOperator(
        (
            (fock.annihilation(d), np.diag((theta - r1).astype(complex))),
            (np.diag((r0 - theta).astype(complex)), fock.creation(d)),
        )
    )
    v_ii = jc.block_diag(np.diag(f1).astype(complex), np.diag(f2).astype(complex)) @ core
    v_i = jc.chart_unitary(p, ChartTag.I)
    diff = ((v_i @ jc.transition_operator(d)) - v_ii).restrict(1).full()
    diff[:, 0] = 0.0
    diff[:, d - 1] = 0.0  # ground column of each block column
    assert np.max(np.abs(diff)) <= 1e-12


# ---------------------------------------------------------------------------
# projector and spectral decomposition


@pytest.mark.parametrize("theta", [0.5, 1.0, -0.75, 0.0])
def test_projector_properties(theta):
    d = 24
    p = JCParams(theta=theta, dim=d)
    proj = jc.projector(p)
    assert jc.block_residual(proj @ proj, proj, margin=1) <= 1e-12
    assert jc.block_residual(proj.dagger(), proj) <= 1e-12
    assert jc.block_residual(jc.projector(p, normalizer="right"), proj) <= 1e-13


@pytest.mark.parametrize("theta,chart", [(1.0, ChartTag.I), (-1.0, ChartTag.II)])
def test_projector_chart_form(theta, chart):
    d = 24
    p = JCParams(theta=theta, dim=d)
    v = jc.chart_unitary(p, chart)
    p0 = jc.block_diag(np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex))
    assert jc.block_residual((v @ p0) @ v.dagger(), jc.projector(p), margin=1) <= 1e-12


def test_projector_classical_limit_scaling():
    # at levels n >> theta^2 the diagonal entries track the classical
    # (r + z)/2r profile with r = sqrt(n)
    theta, d = 0.5, 64
    proj = jc.projector(JCParams(theta=theta, dim=d))
    for n in (40, 50, 60):
        quantum = proj.blocks[1][1][n, n].real  # (R(n) - theta)/(2 R(n))
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
def test_spectral_decomposition(theta):
    d = 32
    p = JCParams(theta=theta, dim=d)
    plus, minus = jc.spectral_decomposition(p)
    assert jc.block_residual(plus + minus, jc.hamiltonian(p), margin=2) <= 1e-10
    lam = radius_block(p, 1, 0)
    proj = jc.projector(p)
    assert jc.block_residual(lam @ proj, proj @ lam) <= 1e-12


# ---------------------------------------------------------------------------
# propagators


def test_propagator_at_zero_is_identity():
    u = jc.propagator(JCParams(theta=0.3, dim=8), 0.0)
    assert np.array_equal(u.full(), np.eye(16, dtype=complex))


def test_propagator_resonance_rabi_form():
    d, g, t = 12, 1.0, 1.7
    u = jc.propagator(JCParams(theta=0.0, dim=d, g=g), t)
    n = np.arange(d)
    assert np.max(np.abs(np.diag(u.blocks[0][0]) - np.cos(t * g * np.sqrt(n + 1)))) <= 1e-14
    assert np.max(np.abs(np.diag(u.blocks[1][1]) - np.cos(t * g * np.sqrt(n)))) <= 1e-14


def test_propagator_against_oracle():
    d = 40
    p = JCParams(theta=0.25, dim=d, g=1.0)
    h = (p.g * jc.hamiltonian(p)).full()
    u = jc.propagator(p, 3.7)
    u_oracle = oracle.expm_hermitian(h, 3.7)
    assert jc.block_residual(u, BlockOperator.from_full(u_oracle), margin=2) <= 1e-8


@pytest.mark.parametrize("theta", [0.25, -0.6, 0.0])
def test_propagator_unitarity(theta):
    d = 24
    u = jc.propagator(JCParams(theta=theta, dim=d, g=1.0), 2.9)
    assert jc.block_residual(u.dagger() @ u, BlockOperator.identity(d), margin=1) <= 1e-10


def test_propagator_group_law():
    p = JCParams(theta=0.4, dim=16, g=0.8)
    u1 = jc.propagator(p, 1.3)
    u2 = jc.propagator(p, 2.1)
    u3 = jc.propagator(p, 3.4)
    assert jc.block_residual(u1 @ u2, u3, margin=1) <= 1e-12


def test_full_propagator_against_oracle():
    p = JCParams.from_physical(omega=1.0, delta=1.5, g=1.0, dim=32)
    h1, h2 = jc.full_hamiltonian(p)
    t = 4.2
    u = jc.full_propagator(p, t)
    u_oracle = oracle.expm_hermitian((h1 + h2).full(), t)
    assert jc.block_residual(u, BlockOperator.from_full(u_oracle), margin=2) <= 1e-8


def test_full_propagator_needs_frequencies():
    with pytest.raises(ValueError):
        jc.full_propagator(JCParams(theta=0.5, dim=4), 1.0)


# ---------------------------------------------------------------------------
# block operator plumbing


def test_block_operator_shape_guard():
    with pytest.raises(ValueError):
        BlockOperator(((np.eye(2), np.eye(3)), (np.eye(2), np.eye(2))))


def test_block_full_roundtrip(rng):
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = BlockOperator.from_full(m)
    assert np.array_equal(op.full(), m)
    assert np.array_equal(op.restrict(1).full().shape, (6, 6))
