import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjc import algebra as al
from hjc import berry
from hjc.algebra import AlgebraTag
from hjc.berry import BasePoint, ChartTag, DiracStringError, Matrix2K, PointClass
from hjc.config import DEFAULT

TAGS = list(AlgebraTag)


def cpoint(x, y, z):
    return BasePoint(al.AlgebraElement(AlgebraTag.C, [x, y]), z)


def to_complex(m: Matrix2K) -> np.ndarray:
    # complex representation, valid for tags R and C only
    out = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            c = m.entry(i, j).coeffs
            out[i, j] = c[0] + (1j * c[1] if c.size > 1 else 0.0)
    return out


def random_regular_point(tag, rng):
    return BasePoint(al.random_element(tag, rng), float(rng.standard_normal()))


# ---------------------------------------------------------------------------
# hamiltonian


def test_hamiltonian_sigma3_case():
    h = berry.hamiltonian(cpoint(0.0, 0.0, 1.0))
    assert np.array_equal(to_complex(h), np.diag([1.0, -1.0]).astype(complex))


def test_hamiltonian_matches_pauli_expansion(rng):
    # x sigma1 + y sigma2 + z sigma3 assembled independently
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.diag([1.0, -1.0]).astype(complex)
    for _ in range(20):
        x, y, z = rng.standard_normal(3)
        h = berry.hamiltonian(cpoint(x, y, z))
        assert np.max(np.abs(to_complex(h) - (x * s1 + y * s2 + z * s3))) == 0.0


def test_hamiltonian_quaternion_entries():
    w = al.basis(AlgebraTag.H, 1) + al.basis(AlgebraTag.H, 2)  # i + j
    h = berry.hamiltonian(BasePoint(w, 0.0))
    assert np.array_equal(h.entry(0, 1).coeffs, [0.0, -1.0, -1.0, 0.0])
    assert np.array_equal(h.entry(1, 0).coeffs, [0.0, 1.0, 1.0, 0.0])
    assert h.entry(0, 0).norm() == 0.0


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize(
    "x,y,z,expected",
    [
        (0.0, 0.0, -3.0, PointClass.LOWER_STRING),
        (0.0, 0.0, 2.0, PointClass.UPPER_STRING),
        (1.0, 2.0, -5.0, PointClass.REGULAR),
        (0.0, 0.0, 0.0, PointClass.ORIGIN),
        (1e-15, 0.0, -1.0, PointClass.LOWER_STRING),  # below threshold
    ],
)
def test_classify_point(x, y, z, expected):
    assert berry.classify_point(cpoint(x, y, z)) is expected


# ---------------------------------------------------------------------------
# chart unitaries


def test_chart_I_north_pole_is_identity():
    u = berry.chart_unitary(cpoint(0.0, 0.0, 1.0), ChartTag.I)
    assert np.max(np.abs(to_complex(u) - np.eye(2))) <= 1e-15


def test_chart_I_equator_hadamard_like():
    u = berry.chart_unitary(cpoint(1.0, 0.0, 0.0), ChartTag.I)
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    assert np.max(np.abs(to_complex(u) - expected)) <= 1e-15


def test_chart_I_on_lower_string_raises():
    with pytest.raises(DiracStringError) as err:
        berry.chart_unitary(cpoint(0.0, 0.0, -1.0), ChartTag.I)
    assert err.value.point_class is PointClass.LOWER_STRING


def test_chart_II_on_upper_string_raises():
    with pytest.raises(DiracStringError) as err:
        berry.chart_unitary(cpoint(0.0, 0.0, 1.0), ChartTag.II)
    assert err.value.point_class is PointClass.UPPER_STRING


def test_charts_refuse_origin():
    for chart in ChartTag:
        with pytest.raises(DiracStringError) as err:
            berry.chart_unitary(cpoint(0.0, 0.0, 0.0), chart)
        assert err.value.point_class is PointClass.ORIGIN


def test_chart_decompose_eigenvalues_against_eigh():
    p = cpoint(1.0, 2.0, 2.0)
    dec = berry.chart_decompose(p, ChartTag.I)
    evals = np.linalg.eigvalsh(to_complex(berry.hamiltonian(p)))
    assert np.max(np.abs(np.sort(evals) - np.array([-3.0, 3.0]))) <= 1e-12
    d = to_complex(dec.diagonal)
    assert np.max(np.abs(d - np.diag([3.0, -3.0]))) <= 1e-12


def test_chart_decompose_real_axis_point():
    p = BasePoint(al.zero(AlgebraTag.R), 5.0)
    dec = berry.chart_decompose(p, ChartTag.I)
    assert np.array_equal(to_complex(dec.unitary), np.eye(2).astype(complex))
    assert np.array_equal(to_complex(dec.diagonal), np.diag([5.0, -5.0]).astype(complex))


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("chart", list(ChartTag))
def test_chart_reconstruction_all_tags(tag, chart, rng):
    for _ in range(10):
        p = random_regular_point(tag, rng)
        dec = berry.chart_decompose(p, chart)
        u, d = dec.unitary, dec.diagonal
        h = berry.hamiltonian(p)
        assert berry.residual((u @ d) @ u.dagger(), h) <= 1e-12
        assert berry.residual(u.dagger() @ u, Matrix2K.identity(tag)) <= 1e-12


@pytest.mark.parametrize("tag", TAGS)
def test_eigenvector_columns(tag, rng):
    # first chart-I column carries eigenvalue +r, second -r
    p = random_regular_point(tag, rng)
    u = berry.chart_unitary(p, ChartTag.I)
    h = berry.hamiltonian(p)
    d = Matrix2K.diag(al.scalar(tag, p.r), al.scalar(tag, -p.r))
    assert berry.residual(h @ u, u @ d) <= 1e-12


# ---------------------------------------------------------------------------
# transition function


def test_transition_complex_formula(rng):
    for _ in range(10):
        x, y, z = rng.standard_normal(3)
        phi = to_complex(berry.transition_function(cpoint(x, y, z)))
        n = math.hypot(x, y)
        expected = np.diag([complex(x, -y) / n, complex(x, y) / n])
        assert np.max(np.abs(phi - expected)) <= 1e-15


def test_transition_real_positive_is_identity():
    phi = berry.transition_function(cpoint(2.0, 0.0, 0.7))
    assert berry.residual(phi, Matrix2K.identity(AlgebraTag.C)) <= 1e-15


def test_transition_unitary_quaternion(rng):
    p = random_regular_point(AlgebraTag.H, rng)
    phi = berry.transition_function(p)
    assert berry.residual(phi.dagger() @ phi, Matrix2K.identity(AlgebraTag.H)) <= 1e-13


def test_transition_undefined_on_axis():
    with pytest.raises(DiracStringError):
        berry.transition_function(cpoint(0.0, 0.0, 1.5))


@pytest.mark.parametrize("tag", TAGS)
def test_cocycle(tag, rng):
    for _ in range(10):
        p = random_regular_point(tag, rng)
        ui = berry.chart_unitary(p, ChartTag.I)
        uii = berry.chart_unitary(p, ChartTag.II)
        phi = berry.transition_function(p)
        assert berry.residual(ui @ phi, uii) <= 1e-12
        # phi really is U_I+ U_II
        assert berry.residual(ui.dagger() @ uii, phi) <= 1e-12


# ---------------------------------------------------------------------------
# projector


def test_projector_poles():
    north = berry.projector(cpoint(0.0, 0.0, 1.0))
    south = berry.projector(cpoint(0.0, 0.0, -1.0))
    assert np.array_equal(to_complex(north), np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(to_complex(south), np.diag([0.0, 1.0]).astype(complex))


def test_projector_refuses_origin():
    with pytest.raises(DiracStringError) as err:
        berry.projector(cpoint(0.0, 0.0, 0.0))
    assert err.value.point_class is PointClass.ORIGIN


@pytest.mark.parametrize("tag", TAGS)
def test_projector_properties(tag, rng):
    p0 = Matrix2K.diag(al.one(tag), al.zero(tag))
    for _ in range(10):
        p = random_regular_point(tag, rng)
        proj = berry.projector(p)
        assert berry.residual(proj @ proj, proj) <= 1e-12
        assert berry.residual(proj.dagger(), proj) <= 1e-12
        for chart in ChartTag:
            u = berry.chart_unitary(p, chart)
            assert berry.residual((u @ p0) @ u.dagger(), proj) <= 1e-12


def test_projector_finite_on_strings():
    # chart I fails on the lower string, the projector does not
    p = cpoint(0.0, 0.0, -4.0)
    proj = berry.projector(p)
    assert berry.residual(proj @ proj, proj) <= 1e-12
    assert proj.max_abs() <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# two-step factorization and the middle matrix


def test_two_step_complex_real_w():
    left, mid, right = berry.two_step_factors(cpoint(1.0, 0.0, 0.0))
    assert np.array_equal(to_complex(left), np.eye(2).astype(complex))
    assert np.array_equal(to_complex(mid), np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex))
    assert np.array_equal(to_complex(right), np.eye(2).astype(complex))


def test_two_step_quaternion_example():
    w = 2.0 * al.basis(AlgebraTag.H, 3)  # 2k
    _, mid, _ = berry.two_step_factors(BasePoint(w, 3.0))
    assert mid.entry(0, 0).coeffs[0] == 3.0
    assert mid.entry(0, 1).coeffs[0] == 2.0
    assert mid.entry(1, 0).coeffs[0] == 2.0
    assert mid.entry(1, 1).coeffs[0] == -3.0
    assert all(np.max(np.abs(mid.entry(i, j).coeffs[1:])) == 0.0 for i in range(2) for j in range(2))


@pytest.mark.parametrize("tag", TAGS)
def test_two_step_reconstruction(tag, rng):
    for _ in range(10):
        p = random_regular_point(tag, rng)
        left, mid, right = berry.two_step_factors(p)
        assert berry.residual((left @ mid) @ right, berry.hamiltonian(p)) <= 1e-12


def test_two_step_needs_nonzero_w():
    with pytest.raises(DiracStringError):
        berry.two_step_factors(cpoint(0.0, 0.0, 1.0))


def test_middle_diagonalize_north():
    dec = berry.middle_diagonalize(0.0, 1.0, ChartTag.I)
    assert np.array_equal(dec.unitary, np.eye(2))


def test_middle_diagonalize_equator():
    dec = berry.middle_diagonalize(1.0, 0.0, ChartTag.I)
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    assert np.max(np.abs(dec.unitary - expected)) <= 1e-15


def test_middle_diagonalize_string():
    with pytest.raises(DiracStringError) as err:
        berry.middle_diagonalize(0.0, -1.0, ChartTag.I)
    assert err.value.point_class is PointClass.LOWER_STRING
    with pytest.raises(DiracStringError):
        berry.middle_diagonalize(0.0, 1.0, ChartTag.II)


@pytest.mark.parametrize("z", [-1.0, -1e-8, 1e-8, 1.0])
@pytest.mark.parametrize("norm_w", [0.0, 1e-16, 1e-14, 1.1e-14, 1e-12, 1e-9, 1e-8, 1e-4])
@pytest.mark.parametrize("chart", list(ChartTag))
def test_middle_diagonalize_admissible_where_chart_unitary_is(chart, norm_w, z):
    # one string criterion for both: near a string, regular points keep
    # their chart even where 2r(r +- z) is far below 1e-14
    try:
        berry.chart_unitary(cpoint(norm_w, 0.0, z), chart)
        chart_ok = True
    except DiracStringError:
        chart_ok = False
    try:
        u = berry.middle_diagonalize(norm_w, z, chart).unitary
    except DiracStringError:
        assert not chart_ok
        return
    assert chart_ok
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-12


def test_middle_diagonalize_reconstruction(rng):
    for _ in range(20):
        m = abs(rng.standard_normal())
        z = float(rng.standard_normal())
        for chart in ChartTag:
            dec = berry.middle_diagonalize(m, z, chart)
            mat = np.array([[z, m], [m, -z]])
            u, d = dec.unitary, dec.diagonal
            assert np.max(np.abs(u @ d @ u.T - mat)) <= 1e-12
            assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-12


# ---------------------------------------------------------------------------
# reductions and divergence


def test_complex_case_reduces_to_explicit_formulas(rng):
    # general K-valued construction vs the complex-coordinate closed forms
    for _ in range(20):
        x, y, z = rng.standard_normal(3)
        r = math.sqrt(x * x + y * y + z * z)
        p = cpoint(x, y, z)
        ui = np.array([[r + z, complex(-x, y)], [complex(x, y), r + z]]) / math.sqrt(
            2 * r * (r + z)
        )
        uii = np.array([[complex(x, -y), z - r], [r - z, complex(x, y)]]) / math.sqrt(
            2 * r * (r - z)
        )
        assert np.max(np.abs(to_complex(berry.chart_unitary(p, ChartTag.I)) - ui)) <= 1e-14
        assert np.max(np.abs(to_complex(berry.chart_unitary(p, ChartTag.II)) - uii)) <= 1e-14


@pytest.mark.parametrize("tag", TAGS)
def test_string_divergence_conditioning(tag, rng):
    # approaching the lower string the chart-I normalization prefactor
    # blows up like 1/eps while the projector stays bounded
    u = al.random_element(tag, rng)
    u = u / u.norm()
    conds = []
    for eps in (1e-2, 1e-3, 1e-4):
        p = BasePoint(u * eps, -1.0)
        assert berry.classify_point(p) is PointClass.REGULAR
        conds.append(berry.conditioning(p, ChartTag.I))
        proj = berry.projector(p)
        assert proj.max_abs() <= 1.0
    assert conds[1] >= 10.0 * conds[0]
    assert conds[2] >= 10.0 * conds[1]


def test_conditioning_infinite_on_string():
    assert berry.conditioning(cpoint(0.0, 0.0, -1.0), ChartTag.I) == math.inf


def test_matrix2k_rejects_mixed_tags():
    with pytest.raises(ValueError):
        Matrix2K(((al.one(AlgebraTag.C), al.one(AlgebraTag.C)),
                  (al.one(AlgebraTag.C), al.one(AlgebraTag.H))))


def random_matrix(tag, rng):
    return Matrix2K(tuple(tuple(al.random_element(tag, rng) for _ in range(2)) for _ in range(2)))


@pytest.mark.parametrize("tag", TAGS)
def test_matmul_matches_entrywise_reference(tag, rng):
    # sum_k a[i, k] b[k, j], every product taken by the recursive definition
    for _ in range(20):
        a, b = random_matrix(tag, rng), random_matrix(tag, rng)
        got = a @ b
        for i in range(2):
            for j in range(2):
                ref = sum(
                    al._mul_coeffs(a.entry(i, k).coeffs, b.entry(k, j).coeffs) for k in range(2)
                )
                assert np.linalg.norm(got.entry(i, j).coeffs - ref) <= 1e-14 * a.max_abs() * b.max_abs()


def test_matrix2k_array_layout():
    tag = AlgebraTag.H
    e = [[al.basis(tag, 2 * i + j) for j in range(2)] for i in range(2)]
    m = Matrix2K(e)
    assert m.coeffs.shape == (2, 2, tag.dim)
    assert np.array_equal(m.coeffs, np.array([[x.coeffs for x in row] for row in e]))
    assert np.array_equal(m.dagger().entry(0, 1).coeffs, e[1][0].conjugate().coeffs)
    assert all(x.tag is tag for row in m.entries for x in row)
    with pytest.raises(ValueError):
        m.coeffs[0, 0, 0] = 2.0


def test_matrix2k_rejects_non_finite_and_tag_mismatch():
    big = Matrix2K.identity(AlgebraTag.C).scale(1e300)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        big.scale(1e10)
    with pytest.raises(ValueError, match="mismatch"):
        Matrix2K.identity(AlgebraTag.C) @ Matrix2K.identity(AlgebraTag.H)


def test_chart_near_lower_string_has_no_division_by_zero():
    # r + z = 0 in floating point at ||w|| = 1e-9, z = -1
    p = cpoint(1e-9, 0.0, -1.0)
    u = berry.chart_unitary(p, ChartTag.I)
    assert berry.residual(u.dagger() @ u, Matrix2K.identity(AlgebraTag.C)) <= 1e-12
    assert berry.conditioning(p, ChartTag.I) == pytest.approx(1e9, rel=1e-12)
    proj = berry.projector(p)
    assert proj.entry(0, 0).coeffs[0] == pytest.approx(0.25e-18, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    log_w=st.floats(-300.0, 300.0),
    log_z=st.floats(-300.0, 300.0),
    sign=st.sampled_from([-1.0, 1.0]),
    tag=st.sampled_from(TAGS),
    seed=st.integers(0, 2**32 - 1),
)
def test_allowed_charts_unitary_over_wide_range(log_w, log_z, sign, tag, seed):
    # every admissible chart is unitary and reconstructs H to eps ||H||,
    # ||H|| = max(1, r), over the double range
    rng = np.random.default_rng(seed)
    u = al.random_element(tag, rng)
    w = u * (10.0 ** log_w / u.norm())
    p = BasePoint(w, sign * 10.0 ** log_z)
    if berry.classify_point(p) is PointClass.ORIGIN:
        return
    h = berry.hamiltonian(p)
    for chart in ChartTag:
        try:
            dec = berry.chart_decompose(p, chart)
        except DiracStringError:
            assert berry.classify_point(p) is not PointClass.REGULAR
            continue
        v, d = dec.unitary, dec.diagonal
        assert berry.residual(v.dagger() @ v, Matrix2K.identity(tag)) <= DEFAULT.algebraic
        assert berry.residual((v @ d) @ v.dagger(), h) <= DEFAULT.algebraic * max(1.0, p.r)


@settings(max_examples=150, deadline=None)
@given(
    log_scale=st.floats(-100.0, 100.0),
    tag=st.sampled_from(TAGS),
    seed=st.integers(0, 2**32 - 1),
)
def test_norms_equal_the_unscaled_norm_in_range(log_scale, tag, seed):
    # power-of-two scaling is exact, so where no square leaves the double
    # range the scaled norm is the plain sqrt(sum c^2) bit for bit
    c = np.random.default_rng(seed).standard_normal((5, tag.dim)) * 10.0**log_scale
    assert np.array_equal(berry.norms(c), np.sqrt(np.sum(c * c, axis=-1)))


@pytest.mark.parametrize("scale", [1e300, 1.5e308 / 3.0, 1e-300, 1e-310])
@pytest.mark.parametrize("tag", TAGS)
def test_norms_near_the_ends_of_the_double_range(scale, tag, rng):
    # c * c overflows or underflows at these scales; the norm does not
    c = rng.uniform(-1.0, 1.0, (4, tag.dim)) * scale
    got = berry.norms(c)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    for norm, row in zip(got, c):
        assert norm == pytest.approx(math.hypot(*row), rel=1e-15, abs=0.0)
