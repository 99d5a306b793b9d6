"""Two-chart diagonalization of the Berry spin Hamiltonian over R, C, H, O.

For a base point (w, z) in K x R the Hamiltonian is the 2x2 matrix
``[[z, conj(w)], [w, -z]]`` with eigenvalues +-r, r = sqrt(||w||^2 + z^2).
Two diagonalizing unitaries exist: chart I is undefined on the lower
half-axis {w = 0, z < 0}, chart II on the upper half-axis {w = 0, z > 0}.
Those half-axes are the Dirac strings; the transition function relating
the two charts lives on ||w|| > 0 only, while the spectral projector is
defined globally away from the origin.

Every formula is an array function of :class:`Points`, n base points held
as an (n, dim) array of w and an (n,) array of z, and returns an
(n, 2, 2, dim) coefficient array: ``hamiltonian_coeffs``, ``chart_coeffs``,
``transition_coeffs``, ``projector_coeffs``, with ``classify`` and
``conditionings`` as vectors.  Batched products, adjoints and residual
norms (``matmul_coeffs``, ``dagger_coeffs``, ``residual_coeffs``) contract
the same arrays with the algebra's structure-constant tensor, derived from
the Cayley-Dickson recursion (see :mod:`hjc.algebra`).  A single point is
the one-row ``Points.of(tag, w, z)``.

The charts, the projector and the transition function come from private
builders that evaluate the formula at every point, defined there or not;
the public functions refuse a non-finite result.  The berry pass
(``hjc.cli``) calls the builders on a whole chunk, both charts from one
:func:`_half_angle` each, and nulls what is not defined.  :class:`Matrix2K` holds one read-only (2, 2, dim)
array; the traced benchmark run wraps its methods by name.  Every entry of
every matrix built here lies in the (commutative, associative) subalgebra
generated by a single element w, so the fixed left-to-right evaluation
order of matrix products is immaterial even for octonions.

Nothing here forms a square or a sum that can overflow or underflow
before the result does.  Norms are scaled by a power of two (exact)
before squaring.  The sums r + z and r - z vanish on the lower and upper
string; of them only h = (r + |z|)/2 is ever formed, from the halves (see
:func:`half_sum`).  Chart entries are written in half-angle form:
sqrt(h/r) on the side where r +- z does not cancel, and
||w|| / sqrt(2r (r + |z|)) = sqrt(h/r) ||w|| / 2h on the side where it
does, so charts stay unitary arbitrarily close to a string and over the
whole double range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import AlgebraElement, AlgebraTag, conj_coeffs, one, product_coeffs, zero
from .config import STRING_THRESHOLD

__all__ = [
    "ChartTag",
    "PointClass",
    "POINT_CLASSES",
    "DiracStringError",
    "Matrix2K",
    "Points",
    "norms",
    "classify",
    "admissible",
    "half_sum",
    "conditionings",
    "hamiltonian_coeffs",
    "chart_coeffs",
    "transition_coeffs",
    "projector_coeffs",
    "eigenvalue_coeffs",
    "matmul_coeffs",
    "dagger_coeffs",
    "residual_coeffs",
]


class ChartTag(Enum):
    I = "I"
    II = "II"


class PointClass(Enum):
    REGULAR = "regular"
    LOWER_STRING = "lower_string"
    UPPER_STRING = "upper_string"
    ORIGIN = "origin"


# the class codes returned by :func:`classify` index this tuple
POINT_CLASSES = tuple(PointClass)
_CODE = {c: i for i, c in enumerate(POINT_CLASSES)}


class DiracStringError(Exception):
    """A chart (or other point-local operation) was requested where it is
    not defined; carries the classification of the offending point."""

    def __init__(self, point_class: PointClass, message: str = ""):
        self.point_class = point_class
        super().__init__(message or f"operation undefined at {point_class.value} point")


def _finite(coeffs: np.ndarray) -> np.ndarray:
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite coefficients")
    return coeffs


# ---------------------------------------------------------------------------
# Batched 2x2 matrix arithmetic on (..., 2, 2, dim) coefficient arrays


def _max_last(a: np.ndarray) -> np.ndarray:
    """np.max over the last axis, taken down the rows of the transposed
    copy: numpy reduces a short last axis one vector at a time."""
    return np.max(np.ascontiguousarray(np.reshape(a, (-1, a.shape[-1])).T), axis=0).reshape(a.shape[:-1])


def norms(c: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis.

    Each vector is scaled by the power of two at its largest coefficient
    before squaring, which is exact, so no square overflows or underflows
    and in-range results equal the unscaled sqrt(sum c^2) bitwise.
    """
    _, e = np.frexp(_max_last(np.abs(c))[..., None])
    s = np.ldexp(c, -e)
    return np.ldexp(np.sqrt(np.sum(s * s, axis=-1)), e[..., 0])


def matmul_coeffs(tag: AlgebraTag, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a b of stacked 2x2 matrices, broadcast over the
    leading axes."""
    # products[..., i, k, j] = a[..., i, k] b[..., k, j]
    products = product_coeffs(tag, a[..., :, :, None, :], b[..., None, :, :, :])
    return products[..., 0, :, :] + products[..., 1, :, :]


def dagger_coeffs(c: np.ndarray) -> np.ndarray:
    """Conjugate transposes with the algebra's conjugation."""
    return conj_coeffs(np.swapaxes(c, -3, -2))


def residual_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entry norm of each a - b; refuses a non-finite difference."""
    return np.max(norms(_finite(a - b)), axis=(-2, -1))


def _stack(e00, e01, e10, e11) -> np.ndarray:
    """[[e00, e01], [e10, e11]] from four (..., dim) entry arrays of the
    shape of e00."""
    out = np.empty(e00.shape[:-1] + (2, 2) + e00.shape[-1:])
    out[..., 0, 0, :], out[..., 0, 1, :], out[..., 1, 0, :], out[..., 1, 1, :] = e00, e01, e10, e11
    return out


def _diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a, b) for (..., dim) entry arrays."""
    zeros = np.zeros_like(a)
    return _stack(a, zeros, zeros, b)


def _real(x: np.ndarray, dim: int) -> np.ndarray:
    """(n, dim) coefficients of the real scalars x."""
    out = np.zeros(x.shape + (dim,))
    out[..., 0] = x
    return out


@dataclass(frozen=True, eq=False, init=False)
class Matrix2K:
    """2x2 matrix with entries in a single division algebra, built from a
    2x2 layout of :class:`AlgebraElement` s of one tag and held as the
    read-only (2, 2, dim) array ``coeffs``."""

    tag: AlgebraTag
    coeffs: np.ndarray

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 layout")
        tags = {e.tag for row in rows for e in row}
        if len(tags) != 1:
            raise ValueError("mixed algebra tags in matrix")
        self._store(tags.pop(), np.array([[e.coeffs for e in row] for row in rows]))

    def _store(self, tag: AlgebraTag, coeffs: np.ndarray) -> None:
        _finite(coeffs).flags.writeable = False
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of(cls, tag: AlgebraTag, coeffs: np.ndarray) -> "Matrix2K":
        """Take ownership of a fresh (2, 2, dim) coefficient array."""
        m = object.__new__(cls)
        m._store(tag, coeffs)
        return m

    def _check_tag(self, other: "Matrix2K") -> None:
        if self.tag is not other.tag:
            raise ValueError(f"algebra mismatch: {self.tag.name} vs {other.tag.name}")

    @property
    def entries(self) -> tuple:
        return tuple(tuple(AlgebraElement(self.tag, c) for c in row) for row in self.coeffs)

    def entry(self, i: int, j: int) -> AlgebraElement:
        return AlgebraElement(self.tag, self.coeffs[i, j])

    @classmethod
    def identity(cls, tag: AlgebraTag) -> "Matrix2K":
        return cls(((one(tag), zero(tag)), (zero(tag), one(tag))))

    def __matmul__(self, other: "Matrix2K") -> "Matrix2K":
        self._check_tag(other)
        return Matrix2K._of(self.tag, matmul_coeffs(self.tag, self.coeffs, other.coeffs))

    def dagger(self) -> "Matrix2K":
        """Conjugate transpose with the algebra's conjugation."""
        return Matrix2K._of(self.tag, dagger_coeffs(self.coeffs))

    def scale(self, c: float) -> "Matrix2K":
        return Matrix2K._of(self.tag, self.coeffs * float(c))

    def max_abs(self) -> float:
        """Largest entry norm."""
        return float(np.max(norms(self.coeffs)))


# ---------------------------------------------------------------------------
# Base points


@dataclass(frozen=True, eq=False)
class Points:
    """n base points (w, z) of K x R: ``w`` is (n, dim), ``z``, ``norm_w``
    and ``r`` = hypot(||w||, z) are (n,).  Build with :meth:`of`."""

    tag: AlgebraTag
    w: np.ndarray
    z: np.ndarray
    norm_w: np.ndarray
    r: np.ndarray

    @classmethod
    def of(cls, tag: AlgebraTag, w, z) -> "Points":
        w = np.asarray(w, dtype=float).reshape(-1, tag.dim)
        z = np.asarray(z, dtype=float).reshape(-1)
        if w.shape[0] != z.shape[0]:
            raise ValueError(f"{w.shape[0]} w rows for {z.shape[0]} z values")
        norm_w = norms(w)
        return cls(tag, w, z, norm_w, np.hypot(norm_w, z))

    def take(self, rows) -> "Points":
        """The points selected by an index, slice or mask."""
        return Points(self.tag, self.w[rows], self.z[rows], self.norm_w[rows], self.r[rows])


# ---------------------------------------------------------------------------
# Array functions: one formula each


def classify(pts: Points) -> np.ndarray:
    """Class code of every point, an index into :data:`POINT_CLASSES`.

    Membership of the w = 0 axis is thresholded at
    :data:`hjc.config.STRING_THRESHOLD` on ||w||, and the origin at the same
    threshold on |z|; nearby points remain formally regular (use
    :func:`conditionings` to see how badly a chart behaves there).
    """
    thr = STRING_THRESHOLD
    on_axis = np.where(pts.z < 0.0, _CODE[PointClass.LOWER_STRING], _CODE[PointClass.UPPER_STRING])
    on_axis = np.where(np.abs(pts.z) <= thr, _CODE[PointClass.ORIGIN], on_axis)
    return np.where(pts.norm_w <= thr, on_axis, _CODE[PointClass.REGULAR])


_FORBIDDEN = {
    ChartTag.I: (PointClass.LOWER_STRING, PointClass.ORIGIN),
    ChartTag.II: (PointClass.UPPER_STRING, PointClass.ORIGIN),
}
_ALLOWED = {chart: np.array([c not in bad for c in POINT_CLASSES]) for chart, bad in _FORBIDDEN.items()}


def admissible(codes: np.ndarray, chart: ChartTag) -> np.ndarray:
    """Mask of the class codes at which ``chart`` is defined."""
    return _ALLOWED[chart][codes]


def half_sum(pts: Points, chart: ChartTag):
    """(h, same) of the chart at every point: h = (r + |z|)/2, formed from
    the halves so that it cannot overflow, and the mask ``same`` where the
    chart's r +- z (+ for chart I, - for chart II) equals r + |z| = 2h.
    Elsewhere r +- z cancels and equals ||w||^2 / 2h; callers form it as
    ||w|| (||w|| / 2h) or never form it at all.
    """
    same = (pts.z >= 0.0) if chart is ChartTag.I else (pts.z <= 0.0)
    return 0.5 * pts.r + 0.5 * np.abs(pts.z), same


def _half_angle(pts: Points, chart: ChartTag):
    """(a, f) of the chart: a = sqrt((r +- z)/2r), the real diagonal entry of
    its unitary, and f = 1/sqrt(2r(r +- z)), the factor of w.

    With h and ``same`` from :func:`half_sum` and c = sqrt(h/r): where
    ``same``, a = c and f = c/2h; where r +- z cancels, a = c ||w||/2h and
    f = c/||w||.  f is inf on the chart's string and at the origin, where
    ||w|| and 2h may be zero or so small that the quotient overflows; each
    branch of f is divided out only where it is taken.
    """
    half, same = half_sum(pts, chart)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.sqrt(half / pts.r)
        a = np.where(same, c, c * (0.5 * pts.norm_w / half))
        f = np.empty_like(c)
        np.divide(0.5 * c, half, out=f, where=same)
        np.divide(c, pts.norm_w, out=f, where=~same)
        return a, f


def conditionings(pts: Points, chart: ChartTag) -> np.ndarray:
    """Normalization prefactor 1/sqrt(2r(r +- z)) of the chart unitary at
    every point.

    Diverges like 1/||w|| on approach to the chart's string, which is the
    numerical signature of the Dirac string (the unitary's entries
    themselves stay bounded by 1).  ``inf`` on the string and at the origin.
    """
    return _half_angle(pts, chart)[1]


def _unitaries(pts: Points, halves: dict) -> np.ndarray:
    """The unitaries of the charts of ``halves`` (chart: its (a, f) from
    :func:`_half_angle`) at every point, stacked: (charts, n, 2, 2, dim)."""
    out = np.zeros((len(halves),) + pts.w.shape[:1] + (2, 2, pts.tag.dim))
    for u, (chart, (a, f)) in zip(out, halves.items()):
        wf = pts.w * f[:, None]
        if chart is ChartTag.I:  # [[a, -conj(w) f], [w f, a]]
            u[:, 0, 0, 0] = u[:, 1, 1, 0] = a
            u[:, 0, 1], u[:, 1, 0] = -conj_coeffs(wf), wf
        else:  # [[conj(w) f, -a], [a, w f]]
            u[:, 0, 1, 0], u[:, 1, 0, 0] = -a, a
            u[:, 0, 0], u[:, 1, 1] = conj_coeffs(wf), wf
    return out


def _projector(pts: Points, a_i: np.ndarray, a_ii: np.ndarray) -> np.ndarray:
    """The projector, its diagonal the squares of the charts' a."""
    wi = pts.w * (0.5 / pts.r)[:, None]
    return _stack(_real(a_i**2, pts.tag.dim), conj_coeffs(wi), wi, _real(a_ii**2, pts.tag.dim))


def _transition(pts: Points) -> np.ndarray:
    u = pts.w / pts.norm_w[:, None]
    return _diag(conj_coeffs(u), u)


def hamiltonian_coeffs(pts: Points) -> np.ndarray:
    """``[[z, conj(w)], [w, -z]]`` at every point."""
    dim = pts.tag.dim
    return _finite(_stack(_real(pts.z, dim), conj_coeffs(pts.w), pts.w, _real(-pts.z, dim)))


def eigenvalue_coeffs(pts: Points) -> np.ndarray:
    """The eigenvalue factor diag(r, -r) of every point."""
    return _diag(_real(pts.r, pts.tag.dim), _real(-pts.r, pts.tag.dim))


def chart_coeffs(pts: Points, chart: ChartTag) -> np.ndarray:
    """Diagonalizing unitary of the chart at every point, all of which must
    lie in the chart's domain (see :func:`admissible`).

    Chart I is ``[[a, -conj(w) f], [w f, a]]``, chart II
    ``[[conj(w) f, -a], [a, w f]]``, with a and f from the half-angle form:
    the columns are the +r / -r eigenvectors scaled by 1/sqrt(2r(r +- z)).
    """
    return _finite(_unitaries(pts, {chart: _half_angle(pts, chart)})[0])


def transition_coeffs(pts: Points) -> np.ndarray:
    """diag(conj(w)/||w||, w/||w||) relating the two charts, at points off
    the z axis."""
    return _finite(_transition(pts))


def projector_coeffs(pts: Points) -> np.ndarray:
    """Rank-one spectral projector (1/2r) [[r+z, conj(w)], [w, r-z]] at
    points away from the origin, its diagonal the squared chart entries
    (r +- z)/2r."""
    return _finite(_projector(pts, *(_half_angle(pts, chart)[0] for chart in ChartTag)))
