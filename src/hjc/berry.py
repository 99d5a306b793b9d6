"""Two-chart diagonalization of the Berry spin Hamiltonian over R, C, H, O.

For a base point (w, z) in K x R the Hamiltonian is the 2x2 matrix
``[[z, conj(w)], [w, -z]]`` with eigenvalues +-r, r = sqrt(||w||^2 + z^2).
Two diagonalizing unitaries exist: chart I is undefined on the lower
half-axis {w = 0, z < 0}, chart II on the upper half-axis {w = 0, z > 0}.
Those half-axes are the Dirac strings; the transition function relating
the two charts lives on ||w|| > 0 only, while the spectral projector is
defined globally away from the origin.

A :class:`Matrix2K` is stored as one (2, 2, dim) coefficient array:
``coeffs[i, j]`` holds the dim real coefficients of entry (i, j), and
:meth:`Matrix2K.entry` views one entry as an
:class:`~hjc.algebra.AlgebraElement`.  Matrix products contract that array
with the algebra's structure-constant tensor, which is derived from the
Cayley-Dickson recursion (see :mod:`hjc.algebra`).  Every entry of every
matrix built here lies in the (commutative, associative) subalgebra
generated by a single element w, so the fixed left-to-right evaluation
order of matrix products is immaterial even for octonions.

The sums r + z and r - z vanish on the lower and upper string.  On the
side where one of them cancels it is evaluated as ||w||^2 / (r -+ z),
which keeps charts unitary arbitrarily close to a string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import AlgebraElement, AlgebraTag, conj_coeffs, one, product_coeffs, scalar, zero
from .config import DEFAULT, Tolerances

__all__ = [
    "ChartTag",
    "PointClass",
    "DiracStringError",
    "Matrix2K",
    "BasePoint",
    "ChartDecomposition",
    "hamiltonian",
    "classify_point",
    "chart_unitary",
    "chart_decompose",
    "transition_function",
    "projector",
    "two_step_factors",
    "middle_diagonalize",
    "conditioning",
]


class ChartTag(Enum):
    I = "I"
    II = "II"


class PointClass(Enum):
    REGULAR = "regular"
    LOWER_STRING = "lower_string"
    UPPER_STRING = "upper_string"
    ORIGIN = "origin"


class DiracStringError(Exception):
    """A chart (or other point-local operation) was requested where it is
    not defined; carries the classification of the offending point."""

    def __init__(self, point_class: PointClass, message: str = ""):
        self.point_class = point_class
        super().__init__(message or f"operation undefined at {point_class.value} point")


@dataclass(frozen=True, eq=False, init=False)
class Matrix2K:
    """2x2 matrix with entries in a single division algebra.

    Built from a 2x2 layout of :class:`AlgebraElement` values sharing one
    tag; held as the read-only (2, 2, dim) array ``coeffs``.
    """

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
        if not np.isfinite(coeffs).all():
            raise ValueError("non-finite coefficients")
        coeffs.flags.writeable = False
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
        return cls.diag(one(tag), one(tag))

    @classmethod
    def diag(cls, a: AlgebraElement, b: AlgebraElement) -> "Matrix2K":
        z = zero(a.tag)
        return cls(((a, z), (z, b)))

    def __add__(self, other: "Matrix2K") -> "Matrix2K":
        self._check_tag(other)
        return Matrix2K._of(self.tag, self.coeffs + other.coeffs)

    def __sub__(self, other: "Matrix2K") -> "Matrix2K":
        self._check_tag(other)
        return Matrix2K._of(self.tag, self.coeffs - other.coeffs)

    def __matmul__(self, other: "Matrix2K") -> "Matrix2K":
        self._check_tag(other)
        # products[i, k, j] = self[i, k] * other[k, j]
        products = product_coeffs(self.tag, self.coeffs[:, :, None, :], other.coeffs[None, :, :, :])
        return Matrix2K._of(self.tag, products[:, 0] + products[:, 1])

    def dagger(self) -> "Matrix2K":
        """Conjugate transpose with the algebra's conjugation."""
        return Matrix2K._of(self.tag, conj_coeffs(self.coeffs.transpose(1, 0, 2)))

    def scale(self, c: float) -> "Matrix2K":
        return Matrix2K._of(self.tag, self.coeffs * float(c))

    def max_abs(self) -> float:
        """Largest entry norm."""
        c = self.coeffs
        return float(np.sqrt(np.max(np.sum(c * c, axis=-1))))

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.entries]


def residual(a: Matrix2K, b: Matrix2K) -> float:
    return (a - b).max_abs()


@dataclass(frozen=True, eq=False)
class BasePoint:
    """A point (w, z) of K x R with its radius cached."""

    w: AlgebraElement
    z: float
    norm_w: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "norm_w", self.w.norm())
        object.__setattr__(self, "r", math.hypot(self.norm_w, self.z))

    @property
    def tag(self) -> AlgebraTag:
        return self.w.tag


@dataclass(frozen=True)
class ChartDecomposition:
    """Unitary + diagonal factor pair together with the chart it came
    from and the chart's conditioning score at the point."""

    unitary: object
    diagonal: object
    chart: ChartTag
    conditioning: float


def classify_point(p: BasePoint, tol: Tolerances = DEFAULT) -> PointClass:
    """Sort a point into regular / string / origin.

    Membership of the w = 0 axis is thresholded at ``tol.string_threshold``
    on ||w||; nearby points remain formally regular (use
    :func:`conditioning` to see how badly a chart behaves there).
    """
    if p.norm_w <= tol.string_threshold:
        if abs(p.z) <= tol.string_threshold:
            return PointClass.ORIGIN
        return PointClass.LOWER_STRING if p.z < 0 else PointClass.UPPER_STRING
    return PointClass.REGULAR


_FORBIDDEN = {
    ChartTag.I: (PointClass.LOWER_STRING, PointClass.ORIGIN),
    ChartTag.II: (PointClass.UPPER_STRING, PointClass.ORIGIN),
}


def _require_chart(p: BasePoint, chart: ChartTag, tol: Tolerances) -> None:
    cls = classify_point(p, tol)
    if cls in _FORBIDDEN[chart]:
        raise DiracStringError(cls, f"chart {chart.value} undefined at {cls.value} point")


def hamiltonian(p: BasePoint) -> Matrix2K:
    """``[[z, conj(w)], [w, -z]]``; Hermitian under the K conjugate
    transpose.  Defined for every point, including the origin."""
    tag = p.tag
    return Matrix2K(
        (
            (scalar(tag, p.z), p.w.conjugate()),
            (p.w, scalar(tag, -p.z)),
        )
    )


def _radius_sum(norm_w: float, z: float, r: float, s: float) -> float:
    """r + s z with r = hypot(||w||, z), without cancellation: where s z < 0
    it is evaluated as ||w||^2 / (r - s z)."""
    sz = s * z
    if sz >= 0.0:
        return r + sz
    return norm_w * norm_w / (r - sz)


def conditioning(p: BasePoint, chart: ChartTag) -> float:
    """Normalization prefactor 1/sqrt(2r(r +- z)) of the chart unitary.

    Diverges like 1/||w|| on approach to the chart's string, which is the
    numerical signature of the Dirac string (the unitary's entries
    themselves stay bounded by 1).  Returns ``inf`` on the string.
    """
    s = 1.0 if chart is ChartTag.I else -1.0
    den = 2.0 * p.r * _radius_sum(p.norm_w, p.z, p.r, s)
    if den <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(den)


def chart_unitary(p: BasePoint, chart: ChartTag, tol: Tolerances = DEFAULT) -> Matrix2K:
    """Diagonalizing unitary of the chart.

    Chart I columns are the +r / -r eigenvectors scaled by
    1/sqrt(2r(r+z)); chart II uses 1/sqrt(2r(r-z)).  Raises
    :class:`DiracStringError` on the chart's string and at the origin.
    """
    _require_chart(p, chart, tol)
    tag = p.tag
    r = p.r
    if chart is ChartTag.I:
        q = _radius_sum(p.norm_w, p.z, r, 1.0)
        m = Matrix2K(
            (
                (scalar(tag, q), -p.w.conjugate()),
                (p.w, scalar(tag, q)),
            )
        )
    else:
        q = _radius_sum(p.norm_w, p.z, r, -1.0)
        m = Matrix2K(
            (
                (p.w.conjugate(), scalar(tag, -q)),
                (scalar(tag, q), p.w),
            )
        )
    return m.scale(1.0 / math.sqrt(2.0 * r * q))


def chart_decompose(p: BasePoint, chart: ChartTag, tol: Tolerances = DEFAULT) -> ChartDecomposition:
    """Unitary and eigenvalue factor diag(r, -r) for the chart."""
    u = chart_unitary(p, chart, tol)
    tag = p.tag
    d = Matrix2K.diag(scalar(tag, p.r), scalar(tag, -p.r))
    return ChartDecomposition(u, d, chart, conditioning(p, chart))


def transition_function(p: BasePoint, tol: Tolerances = DEFAULT) -> Matrix2K:
    """diag(conj(w)/||w||, w/||w||) relating the two charts; undefined on
    the whole z axis."""
    cls = classify_point(p, tol)
    if cls is not PointClass.REGULAR:
        raise DiracStringError(cls, "transition function undefined on the z axis")
    u = p.w / p.norm_w
    return Matrix2K.diag(u.conjugate(), u)


def projector(p: BasePoint, tol: Tolerances = DEFAULT) -> Matrix2K:
    """Rank-one spectral projector (1/2r) [[r+z, conj(w)], [w, r-z]].

    Globally defined for r > 0 -- in particular on both strings, where the
    chart unitaries fail.  Refuses the degenerate origin.
    """
    if p.r <= tol.string_threshold:
        raise DiracStringError(PointClass.ORIGIN, "projector undefined at the origin")
    tag = p.tag
    m = Matrix2K(
        (
            (scalar(tag, _radius_sum(p.norm_w, p.z, p.r, 1.0)), p.w.conjugate()),
            (p.w, scalar(tag, _radius_sum(p.norm_w, p.z, p.r, -1.0))),
        )
    )
    return m.scale(1.0 / (2.0 * p.r))


def two_step_factors(p: BasePoint, tol: Tolerances = DEFAULT):
    """Split H = L M L* with L = diag(1, w/||w||) and the real middle
    matrix M = [[z, ||w||], [||w||, -z]] common to all four algebras.

    The outer factor needs w != 0; the middle matrix is where the strings
    live (see :func:`middle_diagonalize`).
    """
    cls = classify_point(p, tol)
    if cls is not PointClass.REGULAR:
        raise DiracStringError(cls, "two-step factors need ||w|| > 0")
    tag = p.tag
    u = p.w / p.norm_w
    left = Matrix2K.diag(one(tag), u)
    mid = Matrix2K(
        (
            (scalar(tag, p.z), scalar(tag, p.norm_w)),
            (scalar(tag, p.norm_w), scalar(tag, -p.z)),
        )
    )
    return left, mid, left.dagger()


def middle_diagonalize(
    norm_w: float, z: float, chart: ChartTag, tol: Tolerances = DEFAULT
) -> ChartDecomposition:
    """Real orthogonal diagonalization of [[z, m], [m, -z]], m = ||w||.

    This is the matrix that actually carries the Dirac strings: the
    chart-I factor needs r + z > 0, chart II needs r - z > 0.  Factors are
    plain numpy arrays.
    """
    if norm_w < 0.0:
        raise ValueError("norm_w must be non-negative")
    r = math.hypot(norm_w, z)
    s = 1.0 if chart is ChartTag.I else -1.0
    q = _radius_sum(norm_w, z, r, s)
    den = 2.0 * r * q
    if den <= tol.singular_threshold:
        if r <= tol.string_threshold:
            raise DiracStringError(PointClass.ORIGIN)
        cls = PointClass.LOWER_STRING if z < 0 else PointClass.UPPER_STRING
        raise DiracStringError(cls, f"chart {chart.value} undefined: 2r(r{'+' if s > 0 else '-'}z) = {den:.3e}")
    f = 1.0 / math.sqrt(den)
    if chart is ChartTag.I:
        u = f * np.array([[q, -norm_w], [norm_w, q]])
    else:
        u = f * np.array([[norm_w, -q], [q, norm_w]])
    d = np.diag([r, -r])
    return ChartDecomposition(u, d, chart, f)
