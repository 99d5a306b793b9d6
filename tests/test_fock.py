import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjc import fock

MACHINE = np.finfo(float).eps


def test_annihilation_d2():
    assert np.array_equal(fock.annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))


def test_creation_d2():
    assert np.array_equal(fock.creation(2), np.array([[0, 0], [1, 0]], dtype=complex))


def test_annihilation_action_on_level_3():
    a = fock.annihilation(6)
    vec = np.zeros(6, dtype=complex)
    vec[3] = 1.0
    out = a @ vec
    expected = np.zeros(6, dtype=complex)
    expected[2] = math.sqrt(3.0)
    assert np.array_equal(out, expected)


def test_creation_annihilates_top_level():
    d = 5
    vec = np.zeros(d, dtype=complex)
    vec[d - 1] = 1.0
    assert np.array_equal(fock.creation(d) @ vec, np.zeros(d, dtype=complex))


def test_creation_is_conj_transpose():
    a = fock.annihilation(7)
    assert np.array_equal(fock.creation(7), a.conj().T)


def test_dim_guard():
    for fn in (fock.annihilation, fock.creation, fock.number):
        with pytest.raises(ValueError):
            fn(1)


def test_number_diagonal():
    assert np.array_equal(np.diag(fock.number(5)).real, np.arange(5.0))


def test_number_equals_adag_a():
    # up to the rounding of sqrt(n)^2
    d = 12
    prod = fock.creation(d) @ fock.annihilation(d)
    assert np.max(np.abs(prod - fock.number(d))) <= 8 * d * MACHINE


@pytest.mark.parametrize("d", [8, 32])
def test_truncated_ccr(d):
    a = fock.annihilation(d)
    ad = fock.creation(d)
    comm = a @ ad - ad @ a
    expected = np.eye(d, dtype=complex)
    expected[d - 1, d - 1] = -(d - 1)
    # identity up to sqrt-rounding in the matrix products; the structure
    # (including the -(d-1) truncation entry) is what matters
    assert np.max(np.abs(comm - expected)) <= 8 * d * MACHINE
    assert np.max(np.abs(fock.restrict(comm, 1) - np.eye(d - 1))) <= 8 * d * MACHINE


def test_func_of_number_identity():
    d = 6
    assert np.array_equal(fock.func_of_number(d, lambda n: n), fock.number(d))


def test_func_of_number_radius_example():
    out = fock.func_of_number(3, lambda n: math.sqrt(n + 1.0))
    assert np.allclose(np.diag(out), [1.0, math.sqrt(2), math.sqrt(3)], rtol=0, atol=1e-15)


def test_func_of_number_flags_singular_level():
    with pytest.raises(ValueError, match="level 0"):
        fock.func_of_number(4, lambda n: 1.0 / math.sqrt(n) if n else math.inf)


def test_func_of_number_hermitian_for_real_f():
    m = fock.func_of_number(9, lambda n: math.sqrt(n + 0.3))
    assert np.array_equal(m, m.conj().T)


def test_pseudo_diag_inverse():
    m = np.diag([0.0, 1.0, 2.0]).astype(complex)
    out = fock.pseudo_diag_inverse(m)
    assert np.array_equal(out, np.diag([0.0, 1.0, 0.5]).astype(complex))


def test_pseudo_diag_inverse_invertible_case():
    m = np.diag([2.0, -4.0]).astype(complex)
    assert np.max(np.abs(fock.pseudo_diag_inverse(m) @ m - np.eye(2))) == 0.0


def test_pseudo_diag_inverse_rejects_offdiagonal():
    with pytest.raises(ValueError):
        fock.pseudo_diag_inverse(fock.annihilation(3))


def test_pinv_form_equals_shifted_form():
    # a pinv(sqrt N) and (1/sqrt(N+1)) a are the same matrix, bit for bit
    d = 40
    sq = fock.func_of_number(d, lambda n: math.sqrt(n))
    lhs = fock.annihilation(d) @ fock.pseudo_diag_inverse(sq)
    rhs = fock.func_of_number(d, lambda n: 1.0 / math.sqrt(n + 1.0)) @ fock.annihilation(d)
    assert np.array_equal(lhs, rhs)
    # and both are the unit shift up to a ulp
    assert np.max(np.abs(lhs - fock.unit_lowering(d))) <= 2 * MACHINE


def test_unit_shift_partial_isometries():
    d = 9
    lo = fock.unit_lowering(d)
    hi = fock.unit_raising(d)
    assert np.array_equal(hi, lo.conj().T)
    # lowering-then-raising misses the ground level, exactly
    expected = np.eye(d, dtype=complex)
    expected[0, 0] = 0.0
    assert np.array_equal(hi @ lo, expected)
    # raising-then-lowering misses the top truncation level, exactly
    expected = np.eye(d, dtype=complex)
    expected[d - 1, d - 1] = 0.0
    assert np.array_equal(lo @ hi, expected)


@pytest.mark.parametrize("d", [8, 32])
def test_shift_identity_constant_and_linear(d):
    assert fock.shift_identity_check(lambda n: 3.7, d) == 0.0
    assert fock.shift_identity_check(lambda n: float(n), d) == 0.0


@pytest.mark.parametrize("d", [8, 32])
def test_shift_identity_radius(d):
    theta = 0.3
    assert fock.shift_identity_check(lambda n: math.sqrt(n + theta**2), d) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3, allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    d=st.integers(4, 20),
)
def test_shift_identity_random_polynomials(coeffs, d):
    f = lambda n: sum(c * n**k for k, c in enumerate(coeffs))
    assert fock.shift_identity_check(f, d) <= 1e-13 * max(1.0, abs(f(d)))


def test_restrict():
    m = fock.number(6)
    assert np.array_equal(fock.restrict(m, 2), fock.number(6)[:4, :4])
    with pytest.raises(ValueError):
        fock.restrict(m, 6)
    with pytest.raises(ValueError):
        fock.restrict(m, -1)

