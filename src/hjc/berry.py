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
the public functions refuse a non-finite result.  The half angles of both
charts come from one evaluation (:func:`_half_angles`).  The berry pass,
:func:`check_points`, calls the builders on a whole chunk of the sweep and
returns every check as arrays (:class:`Checks`), NaN where a check is not
defined; ``hjc berry`` names them as its columns.  :class:`Matrix2K` holds
one read-only (2, 2, dim) array; the traced benchmark run wraps its
methods by name.  Every entry of
every matrix built here lies in the (commutative, associative) subalgebra
generated by a single element w, so the fixed left-to-right evaluation
order of matrix products is immaterial even for octonions.

Nothing here forms a square or a sum that can overflow or underflow
before the result does.  Norms are scaled by a power of two (exact)
before squaring.  The sums r + z and r - z vanish on the lower and upper
string; of them only h = (r + |z|)/2 is ever formed, from the halves, in
one place (:func:`_half_sums`).  Chart entries are written in half-angle
form: sqrt(h/r) on the side where r +- z does not cancel, and
||w|| / sqrt(2r (r + |z|)) = sqrt(h/r) ||w|| / 2h on the side where it
does, so charts stay unitary arbitrarily close to a string and over the
whole double range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, AlgebraTag, conj_coeffs, one, product_coeffs, zero
from .config import STRING_THRESHOLD

__all__ = [
    "ChartTag",
    "PointClass",
    "POINT_CLASSES",
    "Matrix2K",
    "Points",
    "norms",
    "classify",
    "admissible",
    "conditionings",
    "hamiltonian_coeffs",
    "chart_coeffs",
    "transition_coeffs",
    "projector_coeffs",
    "eigenvalue_coeffs",
    "matmul_coeffs",
    "dagger_coeffs",
    "residual_coeffs",
    "Checks",
    "check_points",
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


def _finite(coeffs: np.ndarray) -> np.ndarray:
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite coefficients")
    return coeffs


# ---------------------------------------------------------------------------
# Batched 2x2 matrix arithmetic on (..., 2, 2, dim) coefficient arrays


def _max_last(a: np.ndarray) -> np.ndarray:
    """The max over the last axis, taken down the rows of the transposed
    copy: numpy reduces a short last axis one vector at a time."""
    return np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T).max(axis=0).reshape(a.shape[:-1])


def norms(c: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis.

    Each vector is scaled by the power of two at its largest coefficient
    before squaring, which is exact, so no square overflows or underflows
    and in-range results equal the unscaled sqrt(sum c^2) bitwise.
    """
    _, e = np.frexp(_max_last(np.abs(c))[..., None])
    s = np.ldexp(c, -e)
    s *= s
    return np.ldexp(np.sqrt(s.sum(axis=-1)), e[..., 0])


def matmul_coeffs(tag: AlgebraTag, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Matrix products a b of stacked 2x2 matrices, broadcast over the
    leading axes; written into ``out`` when it is given."""
    # products[..., i, k, j] = a[..., i, k] b[..., k, j]
    products = product_coeffs(tag, a[..., :, :, None, :], b[..., None, :, :, :])
    return np.add(products[..., 0, :, :], products[..., 1, :, :], out=out)


def dagger_coeffs(c: np.ndarray) -> np.ndarray:
    """Conjugate transposes with the algebra's conjugation."""
    return conj_coeffs(np.swapaxes(c, -3, -2))


def residual_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entry norm of each a - b; refuses a non-finite difference."""
    return np.max(norms(_finite(a - b)), axis=(-2, -1))


def _diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a, b) for (..., dim) entry arrays of one shape."""
    out = np.zeros(a.shape[:-1] + (2, 2) + a.shape[-1:])
    out[..., 0, 0, :], out[..., 1, 1, :] = a, b
    return out


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


# the row of each chart in the chart-stacked arrays below
_ROW = {chart: i for i, chart in enumerate(ChartTag)}
_FORBIDDEN = {
    ChartTag.I: (PointClass.LOWER_STRING, PointClass.ORIGIN),
    ChartTag.II: (PointClass.UPPER_STRING, PointClass.ORIGIN),
}
# chart x class: whether the chart is defined at a point of the class
_ALLOWED = np.array([[c not in _FORBIDDEN[chart] for c in POINT_CLASSES] for chart in ChartTag])


def admissible(codes: np.ndarray, chart: ChartTag) -> np.ndarray:
    """Mask of the class codes at which ``chart`` is defined."""
    return _ALLOWED[_ROW[chart]][codes]


# the sign of z in each chart's r +- z, by row
_ORIENT = np.array([[1.0], [-1.0]])


def _half_sums(pts: Points):
    """h = (r + |z|)/2 at every point, formed from the halves so that it
    cannot overflow, and the (2, n) mask ``same``, row 0 for chart I and
    row 1 for chart II, where the chart's r +- z (+ for chart I, - for
    chart II) equals r + |z| = 2h.  Elsewhere r +- z cancels and equals
    ||w||^2 / 2h; callers form it as ||w|| (||w|| / 2h) or never form it
    at all."""
    return 0.5 * pts.r + 0.5 * np.abs(pts.z), pts.z * _ORIENT >= 0.0


def _half_angles(pts: Points):
    """(a, f) of both charts, each a (2, n) array with row 0 for chart I and
    row 1 for chart II: a = sqrt((r +- z)/2r), the real diagonal entry of
    the chart's unitary, and f = 1/sqrt(2r(r +- z)), the factor of w.

    With h and ``same`` from :func:`_half_sums` and c = sqrt(h/r): where
    ``same``, a = c and f = c/2h; where r +- z cancels, a = c ||w||/2h and
    f = c/||w||.  Both charts share h, c and the four branches, and differ
    only in ``same``.  f is inf on the chart's string and at the origin,
    where ||w|| and 2h may be zero or so small that the quotient overflows.
    """
    half, same = _half_sums(pts)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.sqrt(half / pts.r)
        a = np.where(same, c, c * (0.5 * pts.norm_w / half))
        f = np.where(same, 0.5 * c / half, c / pts.norm_w)
        return a, f


def _half_angle(pts: Points, chart: ChartTag):
    """(a, f) of one chart, the row of :func:`_half_angles`."""
    a, f = _half_angles(pts)
    return a[_ROW[chart]], f[_ROW[chart]]


def conditionings(pts: Points, chart: ChartTag) -> np.ndarray:
    """Normalization prefactor 1/sqrt(2r(r +- z)) of the chart unitary at
    every point.

    Diverges like 1/||w|| on approach to the chart's string, which is the
    numerical signature of the Dirac string (the unitary's entries
    themselves stay bounded by 1).  ``inf`` on the string and at the origin.
    """
    return _half_angle(pts, chart)[1]


def _zeros(pts: Points, *lead: int) -> np.ndarray:
    """Zero 2x2 matrices at every point, (*lead, n, 2, 2, dim)."""
    n, dim = pts.w.shape
    return np.zeros(lead + (n, 2, 2, dim))


def _unitaries(pts: Points, halves: dict, out: np.ndarray) -> np.ndarray:
    """The unitaries of the charts of ``halves`` (chart: its (a, f) from
    :func:`_half_angle`) at every point, written into ``out``, stacked
    zeros of :func:`_zeros` (charts, n, 2, 2, dim)."""
    for u, (chart, (a, f)) in zip(out, halves.items()):
        wf = pts.w * f[:, None]
        if chart is ChartTag.I:  # [[a, -conj(w) f], [w f, a]]
            u[:, 0, 0, 0] = u[:, 1, 1, 0] = a
            u[:, 0, 1], u[:, 1, 0] = wf, wf
            u[:, 0, 1, 0] = -wf[:, 0]  # -conj(w f)
        else:  # [[conj(w) f, -a], [a, w f]]
            u[:, 0, 1, 0], u[:, 1, 0, 0] = -a, a
            u[:, 0, 0], u[:, 1, 1] = wf, wf
            u[:, 0, 0, 1:] = -wf[:, 1:]  # conj(w f)
    return out


def _projector(pts: Points, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The projector, its diagonal the squares of the charts' a, given as
    the (2, n) array of :func:`_half_angles`, written into ``out``, zeros
    of :func:`_zeros` (n, 2, 2, dim)."""
    wi = pts.w * (0.5 / pts.r)[:, None]
    out[:, 0, 0, 0], out[:, 1, 1, 0] = a**2
    out[:, 0, 1], out[:, 1, 0] = wi, wi
    out[:, 0, 1, 1:] = -wi[:, 1:]  # conj(w / 2r)
    return out


def _transition(pts: Points) -> np.ndarray:
    u = pts.w / pts.norm_w[:, None]
    return _diag(conj_coeffs(u), u)


def hamiltonian_coeffs(pts: Points) -> np.ndarray:
    """``[[z, conj(w)], [w, -z]]`` at every point."""
    out = np.zeros(pts.w.shape[:1] + (2, 2, pts.tag.dim))
    out[:, 0, 0, 0], out[:, 1, 1, 0] = pts.z, -pts.z
    out[:, 0, 1], out[:, 1, 0] = conj_coeffs(pts.w), pts.w
    return _finite(out)


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
    return _finite(_unitaries(pts, {chart: _half_angle(pts, chart)}, _zeros(pts, 1))[0])


def transition_coeffs(pts: Points) -> np.ndarray:
    """diag(conj(w)/||w||, w/||w||) relating the two charts, at points off
    the z axis."""
    return _finite(_transition(pts))


def projector_coeffs(pts: Points) -> np.ndarray:
    """Rank-one spectral projector (1/2r) [[r+z, conj(w)], [w, r-z]] at
    points away from the origin, its diagonal the squared chart entries
    (r +- z)/2r."""
    return _finite(_projector(pts, _half_angles(pts)[0], _zeros(pts)))


class Checks(NamedTuple):
    """Every check of both charts and the projector at n points, as arrays:
    (2, n) with row 0 for chart I and row 1 for chart II, or (n,).  A
    residual is NaN where its check is not defined, a conditioning where it
    is not defined or infinite.  The residuals are the norms of the eight
    difference rows of :func:`check_points`; P^dagger - P is not one of
    them, as :func:`_projector` makes it exactly zero."""

    codes: np.ndarray  # class codes, see :func:`classify`
    admissible: np.ndarray  # (2, n)
    projector: np.ndarray  # where the projector is defined: off the origin
    reconstruction: np.ndarray  # (2, n): u diag(r, -r) u^dagger - H
    unitarity: np.ndarray  # (2, n): u^dagger u - 1
    conditioning: np.ndarray  # (2, n)
    cocycle: np.ndarray  # u_I T - u_II, off the z axis
    idempotency: np.ndarray  # P P - P
    chart_agreement: np.ndarray  # the larger of u diag(1, 0) u^dagger - P over the admissible charts


# The eight rows of the difference array of :func:`check_points`:
# reconstruction I, II, unitarity I, II, idempotency, agreement I, II and
# cocycle; the classes at which each row's check is defined, row by class.
_OFF_ORIGIN = np.array([c is not PointClass.ORIGIN for c in POINT_CLASSES])
_REGULAR = np.array([c is PointClass.REGULAR for c in POINT_CLASSES])
_DEFINED = np.array([*_ALLOWED, *_ALLOWED, _OFF_ORIGIN, *_ALLOWED, _REGULAR])
# the signs of the eigenvalues r, -r
_EIGEN_SIGNS = np.array([1.0, -1.0])


def check_points(pts: Points) -> Checks:
    """Every check of the berry sweep at every point of ``pts``.

    Both charts are evaluated at every point, defined there or not, from
    one :func:`_half_angles`; what is not defined is masked to NaN after.
    A non-finite difference, or a norm past the double range, raises only
    where its check is defined, or at a non-finite input.  The eight
    difference rows (see ``_DEFINED``) fill one array; the products of two
    2x2 matrices are two :func:`matmul_coeffs` calls written into it, and
    the cocycle u_I T (T diagonal) and the agreement u diag(1, 0) u^dagger,
    which skip their terms with a zero factor (that moves only the sign of
    a zero difference), are one :func:`product_coeffs` call, so that the
    left-multiplication matrices of a 1024-point octonion chunk stay near
    6 MB.  The factors of all products are written into two stacks; all
    residual norms are one :func:`norms` call.
    """
    tag, (n, dim) = pts.tag, pts.w.shape
    codes = classify(pts)
    used = _DEFINED.take(codes, axis=1)  # (row, point)
    with np.errstate(all="ignore"):
        a, f = _half_angles(pts)
        # the factors of the first five rows, (u diag(r, -r)) u^dagger,
        # u^dagger u and P P: u^dagger as dagger_coeffs forms it, and
        # u diag(r, -r) u with its columns scaled
        left, right = np.empty((5, n, 2, 2, dim)), _zeros(pts, 5)
        ud, u, proj = right[:2], right[2:4], _projector(pts, a, right[4])
        _unitaries(pts, dict(zip(ChartTag, zip(a, f))), u)
        ud[...] = u.swapaxes(-3, -2)
        ud[..., 1:] = -ud[..., 1:]
        np.multiply(u, (pts.r[:, None] * _EIGEN_SIGNS)[:, None, :, None], out=left[:2])
        left[2:4], left[4] = ud, proj
        diffs = np.empty((8, n, 2, 2, dim))
        matmul_coeffs(tag, left[:2], right[:2], out=diffs[:2])
        matmul_coeffs(tag, left[2:], right[2:], out=diffs[2:5])
        # the agreement, column 0 of u times row 0 of u^dagger, and the
        # cocycle, u_I times T = diag(conj(w), w) / ||w|| entrywise: factors
        # written out in full over the spent left stack and over the rows
        # their products fill, which are assigned only after the call
        x, y = left[:3], diffs[5:]
        x[:2], x[2] = u[..., :, :1, :], u[0]
        y[:2] = ud[..., :1, :, :]
        np.divide(pts.w, pts.norm_w[:, None], out=y[2, :, 0, 1])
        y[2, :, 0, 0] = y[2, :, 0, 1]
        y[2, :, 0, 0, 1:] = -y[2, :, 0, 1, 1:]
        y[2, :, 1] = y[2, :, 0]
        diffs[5:] = product_coeffs(tag, x, y)
        diffs[:2] -= hamiltonian_coeffs(pts)
        diffs[2:4].reshape(2, n, 4, dim)[:, :, ::3, 0] -= 1.0  # the identity's diagonal
        diffs[4:7] -= proj
        diffs[7] -= u[1]
        res = _max_last(norms(diffs).reshape(8, n, 4))
    if not np.isfinite(res[used]).all():
        _finite(diffs[used])
    res[~used] = np.nan
    charts = used[:2]
    return Checks(
        codes=codes,
        admissible=charts,
        projector=used[4],
        reconstruction=res[:2],
        unitarity=res[2:4],
        # an infinite conditioning is bounded by no tolerance: null
        conditioning=np.where(charts & (f != np.inf), f, np.nan),
        cocycle=res[7],
        idempotency=res[4],
        chart_agreement=np.fmax(res[5], res[6]),
    )
