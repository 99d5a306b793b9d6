"""The classical charts, transition function, projector and two-step split,
each checked on one-row :class:`hjc.berry.Points` through the array
functions; entries are read from the (1, 2, 2, dim) coefficient arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import half_sum

from hjc import algebra as al
from hjc import berry
from hjc.algebra import AlgebraTag
from hjc.berry import POINT_CLASSES, ChartTag, Matrix2K, PointClass, Points
from hjc.config import DEFAULT

TAGS = list(AlgebraTag)


def cpoint(x, y, z):
    return Points.of(AlgebraTag.C, [x, y], z)


def to_complex(m: np.ndarray) -> np.ndarray:
    # complex representation of (..., 2, 2, dim) coefficients, valid for
    # tags R and C only
    return m[..., 0] + (1j * m[..., 1] if m.shape[-1] > 1 else 0.0)


def random_regular_point(tag, rng):
    return Points.of(tag, rng.standard_normal(tag.dim), float(rng.standard_normal()))


def point_class(pts) -> PointClass:
    return POINT_CLASSES[berry.classify(pts)[0]]


def chart_ok(pts, chart) -> bool:
    return bool(berry.admissible(berry.classify(pts), chart)[0])


def identity(tag) -> np.ndarray:
    return np.eye(2)[:, :, None] * al.one(tag).coeffs


def upper_projector(tag) -> np.ndarray:
    """diag(1, 0)."""
    return np.diag([1.0, 0.0])[:, :, None] * al.one(tag).coeffs


def mul(tag, *factors) -> np.ndarray:
    """Left-to-right product of stacked 2x2 matrices."""
    out = factors[0]
    for f in factors[1:]:
        out = berry.matmul_coeffs(tag, out, f)
    return out


def conj_by(tag, u, d) -> np.ndarray:
    """u d u*."""
    return mul(tag, u, d, berry.dagger_coeffs(u))


def residual(a, b) -> float:
    return float(np.max(berry.residual_coeffs(a, b)))


def max_abs(m) -> float:
    return float(np.max(berry.norms(m)))


def two_step_factors(pts):
    """(L, M) of the split H = L M L* with L = diag(1, w/||w||), the lower
    entry of the transition function, and the real middle matrix
    M = [[z, ||w||], [||w||, -z]]: the Hamiltonian of the real point
    (||w||, z), common to all four algebras."""
    left = berry.transition_coeffs(pts)
    left[:, 0, 0] = al.one(pts.tag).coeffs
    mid = berry.hamiltonian_coeffs(Points.of(pts.tag, pts.norm_w[:, None] * al.one(pts.tag).coeffs, pts.z))
    return left, mid


def middle_point(norm_w, z):
    """The real point (||w||, z) whose chart unitaries diagonalize the
    middle matrix [[z, ||w||], [||w||, -z]]."""
    return Points.of(AlgebraTag.R, norm_w, z)


# ---------------------------------------------------------------------------
# hamiltonian


def test_hamiltonian_sigma3_case():
    h = berry.hamiltonian_coeffs(cpoint(0.0, 0.0, 1.0))[0]
    assert np.array_equal(to_complex(h), np.diag([1.0, -1.0]).astype(complex))


def test_hamiltonian_matches_pauli_expansion(rng):
    # x sigma1 + y sigma2 + z sigma3 assembled independently
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.diag([1.0, -1.0]).astype(complex)
    for _ in range(20):
        x, y, z = rng.standard_normal(3)
        h = berry.hamiltonian_coeffs(cpoint(x, y, z))[0]
        assert np.max(np.abs(to_complex(h) - (x * s1 + y * s2 + z * s3))) == 0.0


def test_hamiltonian_quaternion_entries():
    w = al.basis(AlgebraTag.H, 1) + al.basis(AlgebraTag.H, 2)  # i + j
    h = berry.hamiltonian_coeffs(Points.of(AlgebraTag.H, w.coeffs, 0.0))[0]
    assert np.array_equal(h[0, 1], [0.0, -1.0, -1.0, 0.0])
    assert np.array_equal(h[1, 0], [0.0, 1.0, 1.0, 0.0])
    assert berry.norms(h[0, 0]) == 0.0


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
    assert point_class(cpoint(x, y, z)) is expected


# ---------------------------------------------------------------------------
# chart unitaries


def test_chart_I_north_pole_is_identity():
    u = berry.chart_coeffs(cpoint(0.0, 0.0, 1.0), ChartTag.I)[0]
    assert np.max(np.abs(to_complex(u) - np.eye(2))) <= 1e-15


def test_chart_I_equator_hadamard_like():
    u = berry.chart_coeffs(cpoint(1.0, 0.0, 0.0), ChartTag.I)[0]
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    assert np.max(np.abs(to_complex(u) - expected)) <= 1e-15


def test_chart_I_on_lower_string_raises():
    # chart I is not admissible there
    p = cpoint(0.0, 0.0, -1.0)
    assert not chart_ok(p, ChartTag.I)
    assert point_class(p) is PointClass.LOWER_STRING


def test_chart_II_on_upper_string_raises():
    # chart II is not admissible there
    p = cpoint(0.0, 0.0, 1.0)
    assert not chart_ok(p, ChartTag.II)
    assert point_class(p) is PointClass.UPPER_STRING


def test_charts_refuse_origin():
    p = cpoint(0.0, 0.0, 0.0)
    for chart in ChartTag:
        assert not chart_ok(p, chart)
    assert point_class(p) is PointClass.ORIGIN


def test_chart_decompose_eigenvalues_against_eigh():
    p = cpoint(1.0, 2.0, 2.0)
    assert chart_ok(p, ChartTag.I)
    evals = np.linalg.eigvalsh(to_complex(berry.hamiltonian_coeffs(p)[0]))
    assert np.max(np.abs(np.sort(evals) - np.array([-3.0, 3.0]))) <= 1e-12
    d = to_complex(berry.eigenvalue_coeffs(p)[0])
    assert np.max(np.abs(d - np.diag([3.0, -3.0]))) <= 1e-12


def test_chart_decompose_real_axis_point():
    p = Points.of(AlgebraTag.R, 0.0, 5.0)
    assert chart_ok(p, ChartTag.I)
    assert np.array_equal(to_complex(berry.chart_coeffs(p, ChartTag.I)[0]), np.eye(2).astype(complex))
    assert np.array_equal(to_complex(berry.eigenvalue_coeffs(p)[0]), np.diag([5.0, -5.0]).astype(complex))


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("chart", list(ChartTag))
def test_chart_reconstruction_all_tags(tag, chart, rng):
    for _ in range(10):
        p = random_regular_point(tag, rng)
        assert chart_ok(p, chart)
        u, d = berry.chart_coeffs(p, chart), berry.eigenvalue_coeffs(p)
        h = berry.hamiltonian_coeffs(p)
        assert residual(conj_by(tag, u, d), h) <= 1e-12
        assert residual(mul(tag, berry.dagger_coeffs(u), u), identity(tag)) <= 1e-12


@pytest.mark.parametrize("tag", TAGS)
def test_eigenvector_columns(tag, rng):
    # first chart-I column carries eigenvalue +r, second -r
    p = random_regular_point(tag, rng)
    u = berry.chart_coeffs(p, ChartTag.I)
    h = berry.hamiltonian_coeffs(p)
    d = np.diag([p.r[0], -p.r[0]])[:, :, None] * al.one(tag).coeffs
    assert residual(mul(tag, h, u), mul(tag, u, d)) <= 1e-12


# ---------------------------------------------------------------------------
# transition function


def test_transition_complex_formula(rng):
    for _ in range(10):
        x, y, z = rng.standard_normal(3)
        phi = to_complex(berry.transition_coeffs(cpoint(x, y, z))[0])
        n = math.hypot(x, y)
        expected = np.diag([complex(x, -y) / n, complex(x, y) / n])
        assert np.max(np.abs(phi - expected)) <= 1e-15


def test_transition_real_positive_is_identity():
    phi = berry.transition_coeffs(cpoint(2.0, 0.0, 0.7))
    assert residual(phi, identity(AlgebraTag.C)) <= 1e-15


def test_transition_unitary_quaternion(rng):
    p = random_regular_point(AlgebraTag.H, rng)
    phi = berry.transition_coeffs(p)
    assert residual(mul(AlgebraTag.H, berry.dagger_coeffs(phi), phi), identity(AlgebraTag.H)) <= 1e-13


def test_transition_undefined_on_axis():
    # the transition function lives on the regular points, off the z axis
    assert point_class(cpoint(0.0, 0.0, 1.5)) is not PointClass.REGULAR


@pytest.mark.parametrize("tag", TAGS)
def test_cocycle(tag, rng):
    for _ in range(10):
        p = random_regular_point(tag, rng)
        ui = berry.chart_coeffs(p, ChartTag.I)
        uii = berry.chart_coeffs(p, ChartTag.II)
        phi = berry.transition_coeffs(p)
        assert residual(mul(tag, ui, phi), uii) <= 1e-12
        # phi really is U_I+ U_II
        assert residual(mul(tag, berry.dagger_coeffs(ui), uii), phi) <= 1e-12


# ---------------------------------------------------------------------------
# projector


def test_projector_poles():
    north = berry.projector_coeffs(cpoint(0.0, 0.0, 1.0))[0]
    south = berry.projector_coeffs(cpoint(0.0, 0.0, -1.0))[0]
    assert np.array_equal(to_complex(north), np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(to_complex(south), np.diag([0.0, 1.0]).astype(complex))


def test_projector_refuses_origin():
    # the projector is defined away from the origin only
    assert point_class(cpoint(0.0, 0.0, 0.0)) is PointClass.ORIGIN


@pytest.mark.parametrize("tag", TAGS)
def test_projector_properties(tag, rng):
    p0 = upper_projector(tag)
    for _ in range(10):
        p = random_regular_point(tag, rng)
        proj = berry.projector_coeffs(p)
        assert residual(mul(tag, proj, proj), proj) <= 1e-12
        assert residual(berry.dagger_coeffs(proj), proj) <= 1e-12
        for chart in ChartTag:
            u = berry.chart_coeffs(p, chart)
            assert residual(conj_by(tag, u, p0), proj) <= 1e-12


def test_projector_finite_on_strings():
    # chart I fails on the lower string, the projector does not
    p = cpoint(0.0, 0.0, -4.0)
    assert point_class(p) is PointClass.LOWER_STRING
    proj = berry.projector_coeffs(p)
    assert residual(mul(AlgebraTag.C, proj, proj), proj) <= 1e-12
    assert max_abs(proj) <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# two-step factorization and the middle matrix


def test_two_step_complex_real_w():
    left, mid = two_step_factors(cpoint(1.0, 0.0, 0.0))
    assert np.array_equal(to_complex(left[0]), np.eye(2).astype(complex))
    assert np.array_equal(to_complex(mid[0]), np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex))
    assert np.array_equal(to_complex(berry.dagger_coeffs(left)[0]), np.eye(2).astype(complex))


def test_two_step_quaternion_example():
    w = 2.0 * al.basis(AlgebraTag.H, 3)  # 2k
    _, mid = two_step_factors(Points.of(AlgebraTag.H, w.coeffs, 3.0))
    mid = mid[0]
    assert mid[0, 0, 0] == 3.0
    assert mid[0, 1, 0] == 2.0
    assert mid[1, 0, 0] == 2.0
    assert mid[1, 1, 0] == -3.0
    assert np.max(np.abs(mid[..., 1:])) == 0.0


@pytest.mark.parametrize("tag", TAGS)
def test_two_step_reconstruction(tag, rng):
    for _ in range(10):
        p = random_regular_point(tag, rng)
        left, mid = two_step_factors(p)
        assert residual(conj_by(tag, left, mid), berry.hamiltonian_coeffs(p)) <= 1e-12
        # chart I splits the same way, U_I = L U_mid L*, with U_mid chart I
        # of the real point (||w||, z)
        u_mid = berry.chart_coeffs(middle_point(p.norm_w[0], p.z[0]), ChartTag.I)
        u_mid = u_mid[..., 0, None] * al.one(tag).coeffs
        assert residual(conj_by(tag, left, u_mid), berry.chart_coeffs(p, ChartTag.I)) <= 1e-12


def test_two_step_needs_nonzero_w():
    # L = diag(1, w/||w||) is the transition function's, defined at regular
    # points only
    assert point_class(cpoint(0.0, 0.0, 1.0)) is not PointClass.REGULAR


def test_middle_diagonalize_north():
    u = berry.chart_coeffs(middle_point(0.0, 1.0), ChartTag.I)[0, :, :, 0]
    assert np.array_equal(u, np.eye(2))


def test_middle_diagonalize_equator():
    u = berry.chart_coeffs(middle_point(1.0, 0.0), ChartTag.I)[0, :, :, 0]
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    assert np.max(np.abs(u - expected)) <= 1e-15


def test_middle_diagonalize_string():
    assert not chart_ok(middle_point(0.0, -1.0), ChartTag.I)
    assert point_class(middle_point(0.0, -1.0)) is PointClass.LOWER_STRING
    assert not chart_ok(middle_point(0.0, 1.0), ChartTag.II)


@pytest.mark.parametrize("z", [-1.0, -1e-8, 1e-8, 1.0])
@pytest.mark.parametrize("norm_w", [0.0, 1e-16, 1e-14, 1.1e-14, 1e-12, 1e-9, 1e-8, 1e-4])
@pytest.mark.parametrize("chart", list(ChartTag))
def test_middle_diagonalize_admissible_where_chart_unitary_is(chart, norm_w, z):
    # one string criterion for both: near a string, regular points keep
    # their chart even where 2r(r +- z) is far below 1e-14
    real = middle_point(norm_w, z)
    assert chart_ok(real, chart) == chart_ok(cpoint(norm_w, 0.0, z), chart)
    if chart_ok(real, chart):
        u = berry.chart_coeffs(real, chart)[0, :, :, 0]
        assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-12


def test_middle_diagonalize_reconstruction(rng):
    for _ in range(20):
        m = abs(rng.standard_normal())
        z = float(rng.standard_normal())
        real = middle_point(m, z)
        for chart in ChartTag:
            u, r = berry.chart_coeffs(real, chart)[0, :, :, 0], real.r[0]
            mat = np.array([[z, m], [m, -z]])
            assert np.max(np.abs(u @ np.diag([r, -r]) @ u.T - mat)) <= 1e-12
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
        assert np.max(np.abs(to_complex(berry.chart_coeffs(p, ChartTag.I)[0]) - ui)) <= 1e-14
        assert np.max(np.abs(to_complex(berry.chart_coeffs(p, ChartTag.II)[0]) - uii)) <= 1e-14


@pytest.mark.parametrize("tag", TAGS)
def test_string_divergence_conditioning(tag, rng):
    # approaching the lower string the chart-I normalization prefactor
    # blows up like 1/eps while the projector stays bounded
    u = rng.standard_normal(tag.dim)
    u = u / np.linalg.norm(u)
    conds = []
    for eps in (1e-2, 1e-3, 1e-4):
        p = Points.of(tag, u * eps, -1.0)
        assert point_class(p) is PointClass.REGULAR
        conds.append(berry.conditionings(p, ChartTag.I)[0])
        assert max_abs(berry.projector_coeffs(p)) <= 1.0
    assert conds[1] >= 10.0 * conds[0]
    assert conds[2] >= 10.0 * conds[1]


def test_conditioning_infinite_on_string():
    assert berry.conditionings(cpoint(0.0, 0.0, -1.0), ChartTag.I)[0] == math.inf


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
    u = berry.chart_coeffs(p, ChartTag.I)
    assert residual(mul(AlgebraTag.C, berry.dagger_coeffs(u), u), identity(AlgebraTag.C)) <= 1e-12
    assert berry.conditionings(p, ChartTag.I)[0] == pytest.approx(1e9, rel=1e-12)
    proj = berry.projector_coeffs(p)
    assert proj[0, 0, 0, 0] == pytest.approx(0.25e-18, rel=1e-12)


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
    u = rng.standard_normal(tag.dim)
    w = u * (10.0 ** log_w / np.linalg.norm(u))
    p = Points.of(tag, w, sign * 10.0 ** log_z)
    if point_class(p) is PointClass.ORIGIN:
        return
    h = berry.hamiltonian_coeffs(p)
    for chart in ChartTag:
        if not chart_ok(p, chart):
            assert point_class(p) is not PointClass.REGULAR
            continue
        v, d = berry.chart_coeffs(p, chart), berry.eigenvalue_coeffs(p)
        assert residual(mul(tag, berry.dagger_coeffs(v), v), identity(tag)) <= DEFAULT.algebraic
        assert residual(conj_by(tag, v, d), h) <= DEFAULT.algebraic * max(1.0, p.r[0])


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


def _per_chart_half_angle(pts, chart):
    """The per-chart half angle as it was before both charts shared one
    evaluation: h, the mask and both branches of f formed for one chart."""
    same = (pts.z >= 0.0) if chart is ChartTag.I else (pts.z <= 0.0)
    half = 0.5 * pts.r + 0.5 * np.abs(pts.z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.sqrt(half / pts.r)
        a = np.where(same, c, c * (0.5 * pts.norm_w / half))
        f = np.empty_like(c)
        np.divide(0.5 * c, half, out=f, where=same)
        np.divide(c, pts.norm_w, out=f, where=~same)
    return half, same, a, f


# ||w|| and z: zeros of both signs, subnormals, and 1e-300 .. 1.7e308
_WIDE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 2.2e-308, 1e-14, 1e-300, 1e300, 1.7e308]),
    st.floats(-300.0, 308.0).map(lambda e: 10.0**e),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(TAGS),
    st.lists(st.tuples(_WIDE, _WIDE, st.sampled_from([-1.0, 1.0])), min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
)
def test_the_fused_half_angles_are_the_per_chart_ones_bitwise(tag, rows, seed):
    u = np.random.default_rng(seed).standard_normal((len(rows), tag.dim))
    w = u / np.linalg.norm(u, axis=1)[:, None] * np.array([norm_w for norm_w, _, _ in rows])[:, None]
    z = np.array([sign * mag for _, mag, sign in rows])
    with np.errstate(all="ignore"):
        pts = Points.of(tag, w, z)
    a, f = berry._half_angles(pts)
    for row, chart in enumerate(ChartTag):
        half, same, ref_a, ref_f = _per_chart_half_angle(pts, chart)
        assert a[row].tobytes() == ref_a.tobytes() and f[row].tobytes() == ref_f.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(berry._half_angle(pts, chart), (ref_a, ref_f)))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(half_sum(pts, chart), (half, same)))


# one coordinate of w or z: zeros of both signs, subnormals and 1e-300 ..
# 1.7e308, of either sign
_COORD = st.builds(
    lambda mag, sign: sign * mag,
    st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e300, 1.7e308]),
        st.floats(-300.0, 308.0).map(lambda e: 10.0**e),
    ),
    st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TAGS), st.data())
def test_the_projector_is_its_own_adjoint_bitwise(tag, data):
    # hjc berry writes no Hermiticity residual of the projector: P^dagger
    # is P exactly at every point off the origin whose radius is finite
    coords = st.lists(_COORD, min_size=tag.dim + 1, max_size=tag.dim + 1)
    c = np.array(data.draw(st.lists(coords, min_size=1, max_size=12)))
    with np.errstate(all="ignore"):
        pts = Points.of(tag, c[:, :-1], c[:, -1])
    pts = pts.take(np.isfinite(pts.r) & (berry.classify(pts) != POINT_CLASSES.index(PointClass.ORIGIN)))
    proj = berry.projector_coeffs(pts)
    # the conjugation turns the diagonal's zero imaginary parts into -0.0;
    # adding 0.0 makes every zero +0.0 and leaves every other bit as it is
    assert (berry.dagger_coeffs(proj) + 0.0).tobytes() == (proj + 0.0).tobytes()
