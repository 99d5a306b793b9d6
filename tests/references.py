"""References that only the tests use, held beside them rather than in the
package: no command calls any of them.

* :func:`classical_coordinate` and :func:`classical_projector_from_coordinate`,
  the classical limit of :mod:`hjc.grassmann`: the scalar stereographic
  coordinate (x + iy)/(r + z) and its rank-one chart, held against
  :func:`hjc.berry.projector_coeffs` over C;
* :class:`DiracStringError`, which :func:`classical_coordinate` raises on
  the lower string and at the origin;
* :func:`half_sum`, one chart's row of the half sums that ``hjc.berry``
  forms for both charts at once;
* :func:`expm_from_eig`, exp(-i t m) from an eigendecomposition of
  :func:`hjc.oracle.eig_hermitian`, the dense propagator the closed forms
  are held against;
* :func:`kron_jc_hamiltonian`, the JC Hamiltonian assembled densely from
  Kronecker products.
"""

from __future__ import annotations

import numpy as np

from hjc import berry, fock
from hjc.algebra import AlgebraTag
from hjc.berry import POINT_CLASSES, ChartTag, PointClass, Points, admissible, classify


class DiracStringError(Exception):
    """A chart (or other point-local operation) was requested where it is
    not defined; carries the classification of the offending point."""

    def __init__(self, point_class: PointClass, message: str = ""):
        self.point_class = point_class
        super().__init__(message or f"operation undefined at {point_class.value} point")


def half_sum(pts: Points, chart: ChartTag):
    """(h, same) of the chart at every point: h = (r + |z|)/2, formed from
    the halves so that it cannot overflow, and the mask ``same`` where the
    chart's r +- z (+ for chart I, - for chart II) equals r + |z| = 2h.
    Elsewhere r +- z cancels and equals ||w||^2 / 2h; callers form it as
    ||w|| (||w|| / 2h) or never form it at all.
    """
    half, same = berry._half_sums(pts)
    return half, same[berry._ROW[chart]]


def classical_coordinate(x: float, y: float, z: float) -> complex:
    """Scalar limit (x + iy)/(r + z); blows up on the lower string.

    Refused exactly where :func:`hjc.berry.classify` puts the point on the
    lower string or at the origin, where chart I is not admissible.  r + z
    is never formed: the quotient is taken against h = (r + |z|)/2 of
    :func:`half_sum`, as (x + iy)/2h where r + z = 2h and as
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


def expm_from_eig(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t m) from the eigendecomposition m = v diag(w) v+.

    For real ``v`` this is one real product: v times the real view of
    diag(exp(-i t w)) v^T, read back as complex.
    """
    phases = np.exp(-1j * t * np.asarray(w))
    if np.iscomplexobj(v):
        return (v * phases) @ v.conj().T
    right = np.multiply(phases[:, None], v.T, order="C")  # the float view interleaves re/im
    return (v @ right.view(float)).view(complex)


def kron_jc_hamiltonian(theta, d, phase=0.0):
    # a coupling phase exp(i phase) makes the matrix genuinely complex
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    s3 = np.diag([1.0, -1.0]).astype(complex)
    c = np.exp(1j * phase)
    return (
        c * np.kron(sp, fock.annihilation(d))
        + np.conj(c) * np.kron(sp.T, fock.creation(d))
        + theta * np.kron(s3, np.eye(d))
    )
