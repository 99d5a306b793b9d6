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
on the lower string; no command reports it, so that scalar reference and
its rank-one chart live with the tests (``tests/references.py``), which
hold them against :func:`hjc.berry.projector_coeffs`.

The two forms of Z are the ordering identity of the shift a+ and agree
level by level, so :func:`local_coordinate` builds only the regular one,
a+ (1/(R(N+1)+theta)), with the closed form of the diagonal of
(1 + Z+Z)^-1, the upper-left block of P(Z); the identity itself is
checked against dense Fock matrices by the tests of
:func:`hjc.fock.shift_identity_check`.  Z is one subdiagonal and 1 + Z+Z
is diagonal, so Z is held as its subdiagonal level vector,
Z|n> = z[n] |n+1>, and P(Z) is built elementwise as a
:class:`hjc.jc.BlockOperator`: both cost O(d).
"""

from __future__ import annotations

import numpy as np

from .berry import ChartTag
from .jc import BlockOperator, JCParams, admissible_denominators

__all__ = ["local_coordinate", "projector_from_coordinate"]


def local_coordinate(p: JCParams):
    """(z, m): Z's subdiagonal level vector in its regular form
    a+ (1/(R(N+1)+theta)), z[n] = sqrt(n+1)/(R(n+1)+theta) for n = 0 .. d-2,
    and the diagonal m = h1/R1 = (R1 + theta)/2R1 of (1 + Z+Z)^-1, R1 the
    row 1 radius (|theta| at the top level, where m is 1) and h1 the chart I
    half sum, both from the one chart I evaluation that gives z.  Raises
    :class:`hjc.jc.SingularSectorError` where chart I is singular (ground
    level, theta <= 0), as :func:`hjc.jc.singular_sectors` reports it."""
    (r1, shifted, _), _ = admissible_denominators(p, ChartTag.I)
    z = 0.5 * np.sqrt(np.arange(1.0, p.dim)) / shifted[:-1]  # half the subdiagonal of a+, over the half sums
    return z, shifted / r1


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
