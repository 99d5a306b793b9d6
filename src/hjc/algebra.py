"""Cayley-Dickson arithmetic for the four normed division algebras.

The doubling construction starts from the reals and at each step forms
pairs ``(a, b)`` multiplying as

    (a, b)(c, d) = (ac - conj(d) b,  da + b conj(c))

with conjugation ``conj((a, b)) = (conj(a), -b)``.  Three doublings give,
in order, the complex numbers, the quaternions and the octonions.  The
construction stops there: a fourth step (sedenions) loses the composition
property ``||xy|| = ||x|| ||y||`` that everything downstream relies on.

Coefficients are plain double-precision floats.  The octonion basis is
whatever the recursion produces; no attempt is made to match a particular
published multiplication table, only the structural invariants (norm
multiplicativity, alternativity, a non-vanishing associator) matter.

The recursion ``_mul_coeffs`` is the one definition of the product.  The
products actually evaluated go through the dim x dim x dim structure-constant
tensor ``T`` with ``k_a k_b = sum_c T[a, b, c] k_c``, derived once per
algebra by applying the recursion to every pair of basis elements
(:func:`structure_constants`); :func:`product_coeffs` contracts stacked
coefficient arrays with it in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "AlgebraTag",
    "AlgebraElement",
    "zero",
    "one",
    "scalar",
    "basis",
    "random_element",
    "conj_coeffs",
    "structure_constants",
    "product_coeffs",
]


class AlgebraTag(Enum):
    """The four composition algebras, tagged by real dimension."""

    R = 1
    C = 2
    H = 4
    O = 8

    @property
    def dim(self) -> int:
        return self.value


def conj_coeffs(v: np.ndarray) -> np.ndarray:
    """Conjugate coefficient arrays of shape (..., dim): negate every
    coefficient except the scalar one."""
    out = v.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _mul_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products x y of coefficient arrays of shape (..., dim), broadcast over
    the leading axes: one doubling step of (a,b)(c,d) = (ac - conj(d)b,
    da + b conj(c)) on the halves of the last axis, recursing down to real
    multiplication.  Each product is computed element by element, so a
    stack gives bitwise the products of its members."""
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    lo = _mul_coeffs(a, c) - _mul_coeffs(conj_coeffs(d), b)
    hi = _mul_coeffs(d, a) + _mul_coeffs(b, conj_coeffs(c))
    return np.concatenate((lo, hi), axis=-1)


@functools.cache
def structure_constants(tag: AlgebraTag) -> np.ndarray:
    """Read-only tensor ``T`` of shape (dim, dim, dim) with
    ``k_a k_b = sum_c T[a, b, c] k_c``.

    Row (a, b) is the recursive product of the basis elements k_a and k_b,
    from one call of the recursion on the stacked basis pairs, so every
    entry is 0 or +-1 and the tensor reproduces the recursion exactly on
    basis pairs.
    """
    basis_coeffs = np.eye(tag.dim)
    t = _mul_coeffs(basis_coeffs[:, None, :], basis_coeffs[None, :, :])
    t.flags.writeable = False
    return t


def product_coeffs(tag: AlgebraTag, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the products x y for coefficient arrays of shape
    (..., dim), broadcast over the leading axes.

    Each product is one contraction with :func:`structure_constants`: the
    left-multiplication matrix of x (row b holds x k_b) applied to y.  It
    sums the same coefficient products as the recursion, in another order.
    Every entry of the left-multiplication matrix is one signed coefficient
    of x, so all of them come exactly from one matrix product.  Over R the
    tensor is [[[1]]] and the contraction is the one rounded product x y
    added to a zero sum, which is what is returned, with no matrix product.
    """
    if tag is AlgebraTag.R:
        return np.add(x * y, 0.0)  # + 0.0 makes a -0 product +0, as the sum does
    n = tag.dim
    t = structure_constants(tag).reshape(n, n * n)  # a row of x times it is x's left-multiplication matrix, row-major
    left = (x.reshape(-1, n) @ t).reshape(x.shape[:-1] + (n, n))
    return (y[..., None, :] @ left)[..., 0, :]


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element ``sum_j x_j k_j`` with real coefficients x_j over the
    generators of the tagged algebra.  Immutable; all operations return
    new elements."""

    tag: AlgebraTag
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.tag.dim,):
            raise ValueError(
                f"{self.tag.name} element needs {self.tag.dim} coefficients, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "coeffs", c)

    def _check_tag(self, other: "AlgebraElement") -> None:
        if self.tag is not other.tag:
            raise ValueError(f"algebra mismatch: {self.tag.name} vs {other.tag.name}")

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_tag(other)
        return AlgebraElement(self.tag, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_tag(other)
        return AlgebraElement(self.tag, self.coeffs - other.coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.tag, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_tag(other)
            return AlgebraElement(self.tag, product_coeffs(self.tag, self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return AlgebraElement(self.tag, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        # Real scalars are central in every composition algebra.
        if isinstance(other, (int, float)):
            return AlgebraElement(self.tag, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return AlgebraElement(self.tag, self.coeffs / float(other))
        return NotImplemented

    def conjugate(self) -> "AlgebraElement":
        """Negate every coefficient except the scalar one."""
        return AlgebraElement(self.tag, conj_coeffs(self.coeffs))

    def norm_sq(self) -> float:
        """Squared norm, the sum of squared coefficients.

        Equals the scalar part of conj(x) * x for every tag.
        """
        return float(np.dot(self.coeffs, self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inverse(self) -> "AlgebraElement":
        """Multiplicative inverse conj(x) / ||x||^2."""
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ZeroDivisionError("zero element has no inverse")
        return AlgebraElement(self.tag, conj_coeffs(self.coeffs) / n2)

    def __repr__(self) -> str:
        body = ", ".join(f"{c:.6g}" for c in self.coeffs)
        return f"{self.tag.name}[{body}]"


def zero(tag: AlgebraTag) -> AlgebraElement:
    return AlgebraElement(tag, np.zeros(tag.dim))


def one(tag: AlgebraTag) -> AlgebraElement:
    return scalar(tag, 1.0)


def scalar(tag: AlgebraTag, x: float) -> AlgebraElement:
    c = np.zeros(tag.dim)
    c[0] = x
    return AlgebraElement(tag, c)


def basis(tag: AlgebraTag, j: int) -> AlgebraElement:
    """Generator k_j (k_0 is the unit)."""
    if not 0 <= j < tag.dim:
        raise ValueError(f"generator index {j} out of range for {tag.name}")
    c = np.zeros(tag.dim)
    c[j] = 1.0
    return AlgebraElement(tag, c)


def random_element(tag: AlgebraTag, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(tag, rng.standard_normal(tag.dim))
