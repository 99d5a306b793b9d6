"""Grassmannian local coordinate behind the spectral projector.

The projector of the detuned model is the image of a single operator
coordinate

    Z = (1/(R(N) + theta)) a+  =  a+ (1/(R(N+1) + theta))

under the standard rank-one chart of the Grassmannian,

    P(Z) = [[ (1+Z+Z)^-1,      (1+Z+Z)^-1 Z+   ],
            [ Z (1+Z+Z)^-1,    Z (1+Z+Z)^-1 Z+ ]].

The coordinate exists whenever R(n) + theta stays away from zero, which
fails exactly at the ground level for theta <= 0 -- the string's shadow in
the coordinate chart.  The classical limit of Z is the familiar scalar
stereographic coordinate (x + iy)/(r + z), undefined on the lower string.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .algebra import AlgebraElement, AlgebraTag
from .berry import BasePoint, ChartTag, DiracStringError, PointClass, _radius_sum, classify_point
from .config import DEFAULT, Tolerances
from .jc import BlockOperator, JCParams, SectorStatus, SingularSectorError, radius_sum

__all__ = [
    "LocalCoordinate",
    "local_coordinate",
    "local_coordinate_forms",
    "projector_from_coordinate",
    "classical_coordinate",
    "classical_projector_from_coordinate",
]


@dataclass(frozen=True)
class LocalCoordinate:
    """Operator coordinate for the projector chart.

    ``matrix`` is the regular (shifted) form a+ (1/(R(N+1)+theta)); only
    the first subdiagonal is populated.  ``singular_levels`` records the
    levels where R(n) + theta fell below threshold (construction refuses
    such parameters, so this is empty on returned values)."""

    matrix: np.ndarray
    theta: float
    singular_levels: tuple = ()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _denominators(p: JCParams):
    return radius_sum(p.dim, p.theta, 0, 1.0), radius_sum(p.dim, p.theta, 1, 1.0)


def local_coordinate_forms(p: JCParams, tol: Tolerances = DEFAULT):
    """Both closed forms of Z, (1/(R(N)+theta)) a+ and
    a+ (1/(R(N+1)+theta)); they agree identically."""
    den0, den1 = _denominators(p)
    bad = np.nonzero(den0 <= tol.singular_threshold)[0]
    if bad.size:
        sectors = tuple(
            SectorStatus(ChartTag.I, 2, int(n), float(2.0 * abs(den0[n])), "singular")
            for n in bad
        )
        raise SingularSectorError(ChartTag.I, sectors)
    ad = fock.creation(p.dim)
    left = np.diag((1.0 / den0).astype(complex)) @ ad
    shifted = ad @ np.diag((1.0 / den1).astype(complex))
    return left, shifted


def local_coordinate(p: JCParams, tol: Tolerances = DEFAULT) -> LocalCoordinate:
    """The regular form of Z; raises :class:`SingularSectorError` when
    R(n) + theta vanishes at some level (ground level, theta <= 0)."""
    _, shifted = local_coordinate_forms(p, tol)
    return LocalCoordinate(shifted, p.theta)


def projector_from_coordinate(z) -> BlockOperator:
    """Rank-one Grassmannian projector P(Z) of a coordinate operator.

    (1 + Z+Z) is Hermitian positive definite, so the resolvent block is a
    plain dense solve.
    """
    m = z.matrix if isinstance(z, LocalCoordinate) else np.asarray(z, dtype=complex)
    d = m.shape[0]
    gram = np.eye(d, dtype=complex) + m.conj().T @ m
    res = np.linalg.solve(gram, np.eye(d, dtype=complex))
    zres = m @ res
    return BlockOperator(((res, res @ m.conj().T), (zres, zres @ m.conj().T)))


def classical_coordinate(x: float, y: float, z: float, tol: Tolerances = DEFAULT) -> complex:
    """Scalar limit (x + iy)/(r + z); blows up on the lower string.

    Refused exactly where :func:`hjc.berry.classify_point` puts the point
    on the lower string or at the origin; r + z is formed without
    cancellation, so the coordinate is finite arbitrarily close to the
    string.
    """
    point = BasePoint(AlgebraElement(AlgebraTag.C, [x, y]), z)
    cls = classify_point(point, tol)
    if cls in (PointClass.LOWER_STRING, PointClass.ORIGIN):
        raise DiracStringError(cls, "classical coordinate undefined where r + z = 0")
    return complex(x, y) / _radius_sum(point.norm_w, point.z, point.r, 1.0)


def classical_projector_from_coordinate(zc: complex) -> np.ndarray:
    """Scalar version of the rank-one chart,
    (1/(1+|Z|^2)) [[1, conj(Z)], [Z, |Z|^2]]."""
    zc = complex(zc)
    a2 = abs(zc) ** 2
    return np.array([[1.0, zc.conjugate()], [zc, a2]], dtype=complex) / (1.0 + a2)
