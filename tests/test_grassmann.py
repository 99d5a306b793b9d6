import math

import numpy as np
import pytest

from hjc import algebra as al
from hjc import berry, grassmann, jc
from hjc.algebra import AlgebraTag
from hjc.berry import BasePoint, DiracStringError
from hjc.jc import JCParams, SingularSectorError


def test_forms_agree_exactly():
    for theta in (0.25, 0.5, 1.0, 2.0):
        left, shifted = grassmann.local_coordinate_forms(JCParams(theta=theta, dim=24))
        assert np.max(np.abs(left - shifted)) == 0.0


def test_coordinate_is_subdiagonal():
    z = grassmann.local_coordinate(JCParams(theta=0.5, dim=8))
    m = z.matrix
    assert np.max(np.abs(m - np.diag(np.diag(m, k=-1), k=-1))) == 0.0
    zd = m.conj().T
    assert np.max(np.abs(zd - np.diag(np.diag(zd, k=1), k=1))) == 0.0


def test_coordinate_explicit_values():
    z = grassmann.local_coordinate(JCParams(theta=1.0, dim=3))
    sub = np.diag(z.matrix, k=-1).real
    expected = [1.0 / (math.sqrt(2) + 1), math.sqrt(2) / (math.sqrt(3) + 1)]
    assert np.max(np.abs(sub - expected)) <= 1e-15


@pytest.mark.parametrize("theta", [-0.5, 0.0, -1e8, -1e12])
def test_coordinate_singular_at_ground(theta):
    with pytest.raises(SingularSectorError) as err:
        grassmann.local_coordinate(JCParams(theta=theta, dim=8))
    assert sorted({s.level for s in err.value.sectors}) == [0]


def test_projector_of_zero_coordinate():
    p = grassmann.projector_from_coordinate(np.zeros((5, 5)))
    expected = jc.block_diag(np.eye(5, dtype=complex), np.zeros((5, 5), dtype=complex))
    assert np.max(np.abs(p.full() - expected.full())) == 0.0


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
def test_roundtrip_matches_projector(theta):
    p = JCParams(theta=theta, dim=24)
    via_coordinate = grassmann.projector_from_coordinate(grassmann.local_coordinate(p))
    assert jc.block_residual(via_coordinate, jc.projector(p), margin=1) <= 1e-10


def test_roundtrip_projector_is_projector():
    p = JCParams(theta=1.0, dim=16)
    proj = grassmann.projector_from_coordinate(grassmann.local_coordinate(p))
    assert jc.block_residual(proj @ proj, proj, margin=1) <= 1e-12
    assert jc.block_residual(proj.dagger(), proj) <= 1e-12


def test_resolvent_block_closed_form():
    # (1 + Z+Z)^-1 is the diagonal (R(N+1)+theta)/(2 R(N+1)) off the top
    theta, d = 1.0, 24
    p = JCParams(theta=theta, dim=d)
    proj = grassmann.projector_from_coordinate(grassmann.local_coordinate(p))
    r1 = jc.radius_diag(d, theta, 1)
    expected = np.diag(((r1 + theta) / (2 * r1)).astype(complex))
    from hjc.fock import restrict

    assert np.max(np.abs(restrict(proj.blocks[0][0] - expected, 1))) <= 1e-12


def test_inversion_identity():
    # [[1, -Z+], [Z, 1]]^-1 = diag((1+Z+Z)^-1, (1+ZZ+)^-1) [[1, Z+], [-Z, 1]]
    d = 12
    z = grassmann.local_coordinate(JCParams(theta=0.7, dim=d)).matrix
    eye = np.eye(d, dtype=complex)
    big = np.block([[eye, -z.conj().T], [z, eye]])
    lhs = np.linalg.inv(big)
    g1 = np.linalg.inv(eye + z.conj().T @ z)
    g2 = np.linalg.inv(eye + z @ z.conj().T)
    rhs = np.block([[g1, np.zeros_like(eye)], [np.zeros_like(eye), g2]]) @ np.block(
        [[eye, z.conj().T], [-z, eye]]
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_classical_coordinate_examples():
    assert grassmann.classical_coordinate(0.0, 0.0, 1.0) == 0.0
    assert abs(grassmann.classical_coordinate(1.0, 0.0, 0.0) - 1.0) <= 1e-15
    with pytest.raises(DiracStringError):
        grassmann.classical_coordinate(0.0, 0.0, -1.0)


def test_classical_consistency_with_chart_projector(rng):
    count = 0
    while count < 100:
        x, y, z = rng.standard_normal(3)
        r = math.sqrt(x * x + y * y + z * z)
        if r + z <= 0.1:
            continue
        count += 1
        zc = grassmann.classical_coordinate(x, y, z)
        scalar_form = grassmann.classical_projector_from_coordinate(zc)
        point = BasePoint(al.AlgebraElement(AlgebraTag.C, [x, y]), z)
        chart_form = berry.projector(point)
        reference = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                c = chart_form.entry(i, j).coeffs
                reference[i, j] = c[0] + 1j * c[1]
        assert np.max(np.abs(scalar_form - reference)) <= 1e-12
