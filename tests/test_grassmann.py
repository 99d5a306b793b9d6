import math
import tracemalloc

import numpy as np
import pytest

from hjc import fock, grassmann, jc
from hjc.jc import JCParams, SingularSectorError


def test_coordinate_is_both_dense_closed_forms(radius):
    # Z = (1/(R(N)+theta)) a+ = a+ (1/(R(N+1)+theta)), each formed densely
    d = 24
    ad = fock.creation(d)
    for theta in (0.25, 0.5, 1.0, 2.0):
        z = np.diag(grassmann.local_coordinate(JCParams(theta=theta, dim=d))[0], k=-1)
        left = np.diag(1.0 / (radius(d, theta) + theta)) @ ad
        right = ad @ np.diag(1.0 / (radius(d, theta, 1) + theta))
        assert max(np.max(np.abs(z - left)), np.max(np.abs(z - right))) <= 1e-15


def test_coordinate_is_subdiagonal():
    z, _ = grassmann.local_coordinate(JCParams(theta=0.5, dim=8))
    assert z.shape == (7,)
    m = np.diag(z, k=-1)
    assert np.max(np.abs(m - np.diag(np.diag(m, k=-1), k=-1))) == 0.0
    zd = m.conj().T
    assert np.max(np.abs(zd - np.diag(np.diag(zd, k=1), k=1))) == 0.0


def test_coordinate_explicit_values():
    sub = grassmann.local_coordinate(JCParams(theta=1.0, dim=3))[0].real
    expected = [1.0 / (math.sqrt(2) + 1), math.sqrt(2) / (math.sqrt(3) + 1)]
    assert np.max(np.abs(sub - expected)) <= 1e-15


@pytest.mark.parametrize("theta", [-0.5, 0.0, -1e8, -1e12, -1e-7, -1.7e308])
def test_coordinate_singular_at_ground(theta):
    with pytest.raises(SingularSectorError) as err:
        grassmann.local_coordinate(JCParams(theta=theta, dim=8))
    assert sorted({level for _, level in err.value.sectors}) == [0]


def test_projector_of_zero_coordinate():
    p = grassmann.projector_from_coordinate(np.zeros(4))
    expected = np.diag(np.append(np.ones(5), np.zeros(5)))
    assert np.max(np.abs(p.full() - expected)) == 0.0
    with pytest.raises(ValueError, match="level vector"):
        grassmann.projector_from_coordinate(np.zeros((5, 5)))


def test_projector_matches_dense_rank_one_chart(rng):
    # the dense chart formula with a solve is the reference for the level-vector build
    for d, scale in ((2, 1.0), (7, 1.0), (12, 1e3), (12, 1e-3)):
        z = scale * (rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1))
        m = np.diag(z, k=-1)
        res = np.linalg.solve(np.eye(d) + m.conj().T @ m, np.eye(d))
        dense = np.block([[res, res @ m.conj().T], [m @ res, m @ res @ m.conj().T]])
        assert np.max(np.abs(grassmann.projector_from_coordinate(z).full() - dense)) <= 1e-14


def test_coordinate_and_projector_are_linear_in_memory():
    # a dense d x d Z alone would take 80 GB at this size
    d = 100_000
    p = JCParams(theta=0.5, dim=d)
    tracemalloc.start()
    try:
        proj = grassmann.projector_from_coordinate(grassmann.local_coordinate(p)[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert jc.block_residual(proj @ proj, proj) <= 1e-12
    assert jc.block_residual(proj, jc.projector(p)) <= 1e-10


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
def test_roundtrip_matches_projector(theta):
    p = JCParams(theta=theta, dim=24)
    via_coordinate = grassmann.projector_from_coordinate(grassmann.local_coordinate(p)[0])
    assert jc.block_residual(via_coordinate, jc.projector(p)) <= 1e-10


def test_roundtrip_projector_is_projector():
    p = JCParams(theta=1.0, dim=16)
    proj = grassmann.projector_from_coordinate(grassmann.local_coordinate(p)[0])
    assert jc.block_residual(proj @ proj, proj) <= 1e-12
    assert jc.block_residual(proj.dagger(), proj) <= 1e-12


@pytest.mark.parametrize("theta", [1e-7, 0.25, 1.0, 3.0, 1e200, 1.7e308])
def test_resolvent_block_closed_form(theta, radius):
    # m, the diagonal of (1 + Z+Z)^-1, is (R1 + theta)/(2 R1) with the row 1
    # radius R1: R(N+1) below the top level, |theta| at it, where Z+Z
    # vanishes and m is 1 (for theta < 0 there is no Z, and no m: see
    # test_coordinate_singular_at_ground)
    d = 24
    p = JCParams(theta=theta, dim=d)
    z, m = grassmann.local_coordinate(p)
    r1 = np.append(radius(d, theta, 1)[:-1], theta)
    assert np.array_equal(jc.row_radii(p)[0], r1)
    expected = (0.5 * r1 + 0.5 * theta) / r1
    assert m[-1] == 1.0
    assert np.all(np.abs(m - expected) <= 4 * np.spacing(expected))
    proj = grassmann.projector_from_coordinate(z)
    assert np.max(np.abs(proj.full()[:d, :d] - np.diag(m))) <= 1e-12


def test_inversion_identity():
    # [[1, -Z+], [Z, 1]]^-1 = diag((1+Z+Z)^-1, (1+ZZ+)^-1) [[1, Z+], [-Z, 1]]
    d = 12
    z = np.diag(grassmann.local_coordinate(JCParams(theta=0.7, dim=d))[0], k=-1)
    eye = np.eye(d, dtype=complex)
    big = np.block([[eye, -z.conj().T], [z, eye]])
    lhs = np.linalg.inv(big)
    g1 = np.linalg.inv(eye + z.conj().T @ z)
    g2 = np.linalg.inv(eye + z @ z.conj().T)
    rhs = np.block([[g1, np.zeros_like(eye)], [np.zeros_like(eye), g2]]) @ np.block(
        [[eye, z.conj().T], [-z, eye]]
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
