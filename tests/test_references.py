"""Tests of ``tests/references.py``: the classical coordinate and its
scalar chart against the berry projector, and the oracle propagator
exp(-i t m) formed from an eigendecomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    DiracStringError,
    classical_coordinate,
    classical_projector_from_coordinate,
    expm_from_eig,
    kron_jc_hamiltonian,
)

from hjc import berry, oracle
from hjc.algebra import AlgebraTag
from hjc.berry import Points


def test_classical_coordinate_examples():
    assert classical_coordinate(0.0, 0.0, 1.0) == 0.0
    assert abs(classical_coordinate(1.0, 0.0, 0.0) - 1.0) <= 1e-15
    with pytest.raises(DiracStringError):
        classical_coordinate(0.0, 0.0, -1.0)


def test_classical_consistency_with_chart_projector(rng):
    count = 0
    while count < 100:
        x, y, z = rng.standard_normal(3)
        r = math.sqrt(x * x + y * y + z * z)
        if r + z <= 0.1:
            continue
        count += 1
        zc = classical_coordinate(x, y, z)
        scalar_form = classical_projector_from_coordinate(zc)
        chart_form = berry.projector_coeffs(Points.of(AlgebraTag.C, [x, y], z))[0]
        reference = chart_form[..., 0] + 1j * chart_form[..., 1]
        assert np.max(np.abs(scalar_form - reference)) <= 1e-12


def test_classical_coordinate_near_lower_string():
    # r + z = 0 in floating point here, yet the point is regular
    code = berry.classify(Points.of(AlgebraTag.C, [1e-9, 0.0], -1.0))[0]
    assert berry.POINT_CLASSES[code] is berry.PointClass.REGULAR
    zc = classical_coordinate(1e-9, 0.0, -1.0)
    assert zc == pytest.approx(2e9, rel=1e-12)


def test_classical_projector_at_huge_coordinate():
    # |Z|^2 would overflow here; the chart is evaluated through 1/Z
    zc = classical_coordinate(1e-13, 0.0, -1e150)
    assert abs(zc) > 1e163
    proj = classical_projector_from_coordinate(zc)
    assert np.all(np.isfinite(proj))
    assert np.max(np.abs(proj - np.diag([0.0, 1.0]))) <= 1e-150
    for zc in (1.5 - 2j, 1e200j, -1e308):
        proj = classical_projector_from_coordinate(zc)
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-15
        assert np.max(np.abs(proj.conj().T - proj)) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    log_w=st.floats(-150.0, 150.0),
    log_z=st.floats(-150.0, 150.0),
    sign=st.sampled_from([-1.0, 1.0]),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_classical_coordinate_finite_at_regular_points(log_w, log_z, sign, phase):
    norm_w, z = 10.0**log_w, sign * 10.0**log_z
    x, y = norm_w * math.cos(phase), norm_w * math.sin(phase)
    point = Points.of(AlgebraTag.C, [x, y], z)
    if berry.POINT_CLASSES[berry.classify(point)[0]] is not berry.PointClass.REGULAR:
        return
    zc = classical_coordinate(x, y, z)
    assert math.isfinite(zc.real) and math.isfinite(zc.imag)
    chart_form = berry.projector_coeffs(point)[0]
    reference = chart_form[..., 0] + 1j * chart_form[..., 1]
    assert np.max(np.abs(classical_projector_from_coordinate(zc) - reference)) <= 1e-12


@pytest.mark.parametrize(
    "z, expected",
    [
        # r + z = ||w||^2 / (r + |z|) cancels; r + |z| overflows
        (-1.7e308, 3.4e8),
        # r + z itself overflows
        (1.7e308, 1e300 / 1.7e308 / 2.0),
    ],
)
def test_classical_coordinate_where_r_plus_abs_z_overflows(z, expected):
    zc = classical_coordinate(1e300, 0.0, z)
    assert zc.imag == 0.0
    assert zc.real == pytest.approx(expected, rel=1e-14)


# a real JC matrix (real path) and one with a complex coupling phase (complex path)
PHASES = [0.0, 0.9]


def expm(m, t):
    """exp(-i t m) through the oracle's eigendecomposition."""
    return expm_from_eig(*oracle.eig_hermitian(m), t)


def test_expm_at_zero():
    for phase in PHASES:
        m = kron_jc_hamiltonian(0.5, 4, phase)
        assert np.max(np.abs(expm(m, 0.0) - np.eye(8))) <= 1e-14


def test_expm_group_law():
    for phase in PHASES:
        m = kron_jc_hamiltonian(0.4, 6, phase)
        lhs = expm(m, 1.1) @ expm(m, 2.3)
        rhs = expm(m, 3.4)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_expm_unitary():
    for phase in PHASES:
        m = kron_jc_hamiltonian(0.7, 8, phase)
        # real input takes the real path, complex input the complex one
        assert oracle.eig_hermitian(m)[1].dtype == (np.float64 if phase == 0.0 else np.complex128)
        u = expm(m, 5.0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-11
