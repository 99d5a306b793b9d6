"""Grassmannian local coordinate behind the spectral projector.

The projector of the detuned model is the image of a single operator
coordinate

    Z = (1/(R(N) + theta)) a+  =  a+ (1/(R(N+1) + theta))

under the standard rank-one chart of the Grassmannian,

    P(Z) = [[ (1+Z+Z)^-1,      (1+Z+Z)^-1 Z+   ],
            [ Z (1+Z+Z)^-1,    Z (1+Z+Z)^-1 Z+ ]].

The coordinate exists exactly where chart I does: its denominators are
those of chart I (:func:`hjc.jc.chart_denominators`), whose row 2 entry
2 R(n) (R(n) + theta) vanishes only at the ground level for theta <= 0 --
the string's shadow in the coordinate chart.  The classical limit of Z is
the familiar scalar stereographic coordinate (x + iy)/(r + z), undefined
on the lower string.

The two forms of Z are the ordering identity of the shift a+ and agree
level by level, so :func:`local_coordinate` builds only the regular one,
a+ (1/(R(N+1)+theta)); the identity itself is checked against dense Fock
matrices by the tests of :func:`hjc.fock.shift_identity_check`.  Z is one
subdiagonal and 1 + Z+Z is diagonal, so Z is held as its subdiagonal level
vector, Z|n> = z[n] |n+1>, and P(Z) is built elementwise as a
:class:`hjc.jc.BlockOperator`: both cost O(d).
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraTag
from .berry import POINT_CLASSES, ChartTag, DiracStringError, Points, admissible, classify, half_sum
from .jc import BlockOperator, JCParams, admissible_denominators

__all__ = [
    "local_coordinate",
    "projector_from_coordinate",
    "classical_coordinate",
    "classical_projector_from_coordinate",
]


def local_coordinate(p: JCParams) -> np.ndarray:
    """Z's subdiagonal level vector in its regular form a+ (1/(R(N+1)+theta)),
    z[n] = sqrt(n+1)/(R(n+1)+theta) for n = 0 .. d-2; raises
    :class:`hjc.jc.SingularSectorError` where chart I is singular (ground
    level, theta <= 0), as :func:`hjc.jc.singular_sectors` reports it."""
    (_, shifted, _), _ = admissible_denominators(p, ChartTag.I)
    return 0.5 * np.sqrt(np.arange(1.0, p.dim)) / shifted[:-1]  # half the subdiagonal of a+, over the half sums


def projector_from_coordinate(z) -> BlockOperator:
    """Rank-one Grassmannian projector P(Z) of a coordinate, given as its
    subdiagonal level vector.

    Z is one subdiagonal, so 1 + Z+Z is the diagonal 1 + |z|^2 (1 on the
    top level) and every block of P(Z) is one level vector, real where z
    is.
    """
    z = np.asarray(z)
    if z.ndim != 1:
        raise ValueError(f"expected a subdiagonal level vector, got shape {z.shape}")
    a2 = np.abs(z) ** 2
    inner = 1.0 / (1.0 + a2)  # (1 + Z+Z)^-1 below the top level, where it is 1
    res, lower = np.append(inner, 1.0), np.append(0.0, a2 * inner)  # lower: Z (1 + Z+Z)^-1 Z+
    return BlockOperator(z.shape[0] + 1, (({0: res}, {1: z.conj() * inner}), ({-1: z * inner}, {0: lower})))


def classical_coordinate(x: float, y: float, z: float) -> complex:
    """Scalar limit (x + iy)/(r + z); blows up on the lower string.

    Refused exactly where :func:`hjc.berry.classify` puts the point on the
    lower string or at the origin, where chart I is not admissible.  r + z
    is never formed: the quotient is taken against h = (r + |z|)/2 of
    :func:`hjc.berry.half_sum`, as (x + iy)/2h where r + z = 2h and as
    (x + iy)/||w|| * 2h/||w|| where r + z = ||w||^2/2h cancels, so the
    coordinate is finite arbitrarily close to the string and over the whole
    double range.
    """
    pts = Points.of(AlgebraTag.C, [x, y], z)
    code = classify(pts)
    if not admissible(code, ChartTag.I)[0]:
        raise DiracStringError(POINT_CLASSES[code[0]], "classical coordinate undefined where r + z = 0")
    half, same = half_sum(pts, ChartTag.I)
    h = float(half[0])
    if same[0]:
        return complex(x, y) / h * 0.5
    norm_w = float(pts.norm_w[0])
    return complex(x, y) / norm_w * (h / norm_w * 2.0)


def classical_projector_from_coordinate(zc: complex) -> np.ndarray:
    """Scalar version of the rank-one chart,
    (1/(1+|Z|^2)) [[1, conj(Z)], [Z, |Z|^2]].

    For |Z| > 1 it is evaluated through u = 1/Z as
    (1/(1+|u|^2)) [[|u|^2, u], [conj(u), 1]], so |Z|^2 never overflows.
    """
    zc = complex(zc)
    if abs(zc) <= 1.0:
        a2 = abs(zc) ** 2
        return np.array([[1.0, zc.conjugate()], [zc, a2]], dtype=complex) / (1.0 + a2)
    u = 1.0 / zc
    b2 = abs(u) ** 2
    return np.array([[b2, u], [u.conjugate(), 1.0]], dtype=complex) / (1.0 + b2)
