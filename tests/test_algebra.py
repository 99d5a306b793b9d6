import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjc import algebra as al
from hjc.algebra import AlgebraElement, AlgebraTag

TAGS = list(AlgebraTag)


def elements(tag, scale=8.0):
    coeff = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    return st.lists(coeff, min_size=tag.dim, max_size=tag.dim).map(
        lambda c: AlgebraElement(tag, np.array(c))
    )


def test_add_componentwise():
    a = AlgebraElement(AlgebraTag.C, [1.0, 2.0])
    b = AlgebraElement(AlgebraTag.C, [3.0, -1.0])
    assert np.array_equal((a + b).coeffs, [4.0, 1.0])


def test_add_identity():
    x = AlgebraElement(AlgebraTag.O, np.arange(8.0))
    assert np.array_equal((al.zero(AlgebraTag.O) + x).coeffs, x.coeffs)


def test_add_basis_sum():
    i, j = al.basis(AlgebraTag.H, 1), al.basis(AlgebraTag.H, 2)
    assert np.array_equal((i + j).coeffs, [0.0, 1.0, 1.0, 0.0])


def test_add_tag_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        al.one(AlgebraTag.C) + al.one(AlgebraTag.H)


def test_complex_i_squared():
    i = al.basis(AlgebraTag.C, 1)
    assert np.array_equal((i * i).coeffs, [-1.0, 0.0])


def test_quaternion_ij_equals_k():
    # Hand expansion of one doubling step: i = ((0,1),(0,0)), j = ((0,0),(1,0));
    # (ac - conj(d) b, da + b conj(c)) = ((0,0), (0,1)) = k.
    i, j = al.basis(AlgebraTag.H, 1), al.basis(AlgebraTag.H, 2)
    assert np.array_equal((i * j).coeffs, al.basis(AlgebraTag.H, 3).coeffs)
    assert np.array_equal((j * i).coeffs, (-al.basis(AlgebraTag.H, 3)).coeffs)


def test_octonion_associator_exists():
    # brute-force search over imaginary basis triples
    best = 0.0
    for i, j, k in itertools.product(range(1, 8), repeat=3):
        ei, ej, ek = (al.basis(AlgebraTag.O, n) for n in (i, j, k))
        best = max(best, ((ei * ej) * ek - ei * (ej * ek)).norm())
    assert best > 1.0


def test_mul_tag_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        al.one(AlgebraTag.R) * al.one(AlgebraTag.O)


def test_conjugation_examples():
    a = AlgebraElement(AlgebraTag.C, [1.0, 2.0])
    assert np.array_equal(a.conjugate().coeffs, [1.0, -2.0])
    r = al.scalar(AlgebraTag.R, 3.5)
    assert np.array_equal(r.conjugate().coeffs, r.coeffs)


def test_norm_sq_examples():
    assert AlgebraElement(AlgebraTag.C, [3.0, 4.0]).norm_sq() == 25.0
    assert al.zero(AlgebraTag.H).norm_sq() == 0.0


def test_norm_sq_is_scalar_part_of_conj_product(rng):
    for _ in range(50):
        x = al.random_element(AlgebraTag.O, rng)
        prod = x.conjugate() * x
        assert abs(prod.scalar_part - x.norm_sq()) <= 1e-14 * x.norm_sq()
        # the non-scalar part vanishes too
        assert np.max(np.abs(prod.coeffs[1:])) <= 1e-13


def test_inverse(rng):
    for tag in TAGS:
        x = al.random_element(tag, rng)
        prod = x * x.inverse()
        assert abs(prod.scalar_part - 1.0) <= 1e-13
        assert np.max(np.abs(prod.coeffs[1:])) <= 1e-13 if tag.dim > 1 else True


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        al.zero(AlgebraTag.O).inverse()


def test_bad_coeff_length():
    with pytest.raises(ValueError):
        AlgebraElement(AlgebraTag.H, [1.0, 2.0])


def test_non_finite_coeffs():
    with pytest.raises(ValueError):
        AlgebraElement(AlgebraTag.C, [np.nan, 0.0])


@pytest.mark.parametrize("tag", TAGS)
def test_conj_is_involution(tag, rng):
    x = al.random_element(tag, rng)
    assert np.array_equal(x.conjugate().conjugate().coeffs, x.coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tag=st.sampled_from(TAGS))
def test_norm_multiplicative(data, tag):
    a = data.draw(elements(tag))
    b = data.draw(elements(tag))
    lhs = (a * b).norm_sq()
    rhs = a.norm_sq() * b.norm_sq()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tag=st.sampled_from(TAGS))
def test_conjugation_antihomomorphism(data, tag):
    a = data.draw(elements(tag))
    b = data.draw(elements(tag))
    diff = ((a * b).conjugate() - b.conjugate() * a.conjugate()).norm()
    assert diff <= 1e-13 * max(1.0, a.norm() * b.norm())


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tag=st.sampled_from([AlgebraTag.R, AlgebraTag.C, AlgebraTag.H]))
def test_associative_tags(data, tag):
    a, b, c = (data.draw(elements(tag, scale=4.0)) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).norm() <= 1e-13 * max(
        1.0, a.norm() * b.norm() * c.norm()
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_octonion_alternative(data):
    a = data.draw(elements(AlgebraTag.O, scale=4.0))
    b = data.draw(elements(AlgebraTag.O, scale=4.0))
    scale = max(1.0, a.norm() ** 2 * b.norm())
    assert (a * (a * b) - (a * a) * b).norm() <= 1e-12 * scale
    scale = max(1.0, a.norm() * b.norm() ** 2)
    assert ((a * b) * b - a * (b * b)).norm() <= 1e-12 * scale


def test_single_octonion_subalgebra_is_commutative_associative(rng):
    # Words in {1, w, conj(w)} must behave like complex numbers; this is
    # what lets 2x2 matrix identities over O go through unchanged.
    for _ in range(25):
        w = al.random_element(AlgebraTag.O, rng)
        wc = w.conjugate()
        c = rng.standard_normal(6)
        u = al.scalar(AlgebraTag.O, c[0]) + c[1] * w + c[2] * (w * w)
        v = al.scalar(AlgebraTag.O, c[3]) + c[4] * wc + c[5] * (wc * w)
        x = w * (wc * w)
        assert (u * v - v * u).norm() <= 1e-13 * max(1.0, u.norm() * v.norm())
        lhs = (u * v) * x
        rhs = u * (v * x)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, u.norm() * v.norm() * x.norm())


@pytest.mark.parametrize("tag", TAGS)
def test_structure_constants_equal_recursion_on_basis_pairs(tag):
    t = al.structure_constants(tag)
    assert t.shape == (tag.dim,) * 3
    for a, b in itertools.product(range(tag.dim), repeat=2):
        ref = al._mul_coeffs(al.basis(tag, a).coeffs, al.basis(tag, b).coeffs)
        # the stacked recursion gives the per-pair one bitwise, signs of zeros included
        assert t[a, b].tobytes() == ref.tobytes()
        assert np.array_equal((al.basis(tag, a) * al.basis(tag, b)).coeffs, ref)


@pytest.mark.parametrize("tag", TAGS)
def test_the_recursion_on_stacks_is_the_recursion_per_pair(tag, rng):
    x = rng.standard_normal((3, 1, tag.dim)) * 10.0 ** rng.integers(-300, 300, (3, 1, tag.dim))
    y = rng.standard_normal((1, 4, tag.dim))
    x[0, 0, 0], y[0, 1, -1] = -0.0, 0.0
    got = al._mul_coeffs(x, y)
    assert got.shape == (3, 4, tag.dim)
    for i, j in itertools.product(range(3), range(4)):
        assert got[i, j].tobytes() == al._mul_coeffs(x[i, 0], y[0, j]).tobytes()


def _contraction(tag, x, y):
    """The structure-tensor contraction of ``product_coeffs`` for any tag."""
    n = tag.dim
    left = np.reshape(np.reshape(x, (-1, n)) @ al.structure_constants(tag).reshape(n, n * n), x.shape[:-1] + (n, n))
    return (y[..., None, :] @ left)[..., 0, :]


_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-320, 2.2e-308, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_REALS, min_size=6, max_size=6),
    st.lists(_REALS, min_size=4, max_size=4),
)
def test_real_products_are_the_contraction_bitwise_on_broadcast_stacks(xs, ys):
    x, y = np.reshape(xs, (3, 1, 2, 1)), np.reshape(ys, (1, 2, 2, 1))
    tag = AlgebraTag.R
    with np.errstate(all="ignore"):
        got, want = al.product_coeffs(tag, x, y), _contraction(tag, x, y)
    assert got.shape == want.shape == (3, 2, 2, 1)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # every non-NaN value, and the sign of every zero, is the contraction's
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("tag", TAGS)
def test_tensor_product_matches_recursion(tag, rng):
    for _ in range(200):
        x = rng.standard_normal(tag.dim) * 10.0 ** rng.uniform(-3, 3)
        y = rng.standard_normal(tag.dim) * 10.0 ** rng.uniform(-3, 3)
        ref = al._mul_coeffs(x, y)
        got = (AlgebraElement(tag, x) * AlgebraElement(tag, y)).coeffs
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(y)


def test_product_coeffs_broadcasts_over_leading_axes(rng):
    tag = AlgebraTag.O
    x = rng.standard_normal((3, 1, tag.dim))
    y = rng.standard_normal((1, 4, tag.dim))
    got = al.product_coeffs(tag, x, y)
    assert got.shape == (3, 4, tag.dim)
    for i, j in itertools.product(range(3), range(4)):
        assert np.array_equal(got[i, j], al.product_coeffs(tag, x[i, 0], y[0, j]))
