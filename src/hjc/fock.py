"""Ladder-operator matrices on a truncated Fock space.

All operators are dense complex matrices over the number basis
|0>, ..., |d-1>.  Truncation convention: the creation operator is the
exact conjugate transpose of the annihilation operator, so it annihilates
the top level instead of leaving the space.  Identities that the
truncation breaks at the top are therefore asserted only on the leading
"safe subspace" |0>, ..., |d-1-k> obtained with :func:`restrict`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances

__all__ = [
    "annihilation",
    "creation",
    "number",
    "identity",
    "func_of_number",
    "pseudo_diag_inverse",
    "shift_identity_check",
    "restrict",
    "unit_lowering",
    "unit_raising",
]


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"Fock truncation needs d >= 2, got {d}")


def annihilation(d: int) -> np.ndarray:
    """Matrix of the annihilation operator a on d levels.

    Parameters
    ----------
    d : int
        Number of retained levels; the last state is |d-1>.

    Returns
    -------
    (d, d) complex ndarray with sqrt(n) on the superdiagonal, so that
    a|n> = sqrt(n)|n-1> and a|0> = 0.
    """
    _check_dim(d)
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)


def creation(d: int) -> np.ndarray:
    """Conjugate transpose of :func:`annihilation`; a+|d-1> = 0 under the
    truncation convention."""
    return annihilation(d).conj().T


def number(d: int) -> np.ndarray:
    """diag(0, 1, ..., d-1)."""
    _check_dim(d)
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def func_of_number(d: int, f: Callable[[int], float]) -> np.ndarray:
    """diag(f(0), ..., f(d-1)) for a level function f.

    Raises ValueError naming the first level where f is not finite.
    """
    _check_dim(d)
    vals = np.empty(d, dtype=complex)
    for n in range(d):
        v = f(n)
        if not np.isfinite(v):
            raise ValueError(f"level function not finite at level {n}: {v!r}")
        vals[n] = v
    return np.diag(vals)


def pseudo_diag_inverse(op: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Invert a diagonal operator entrywise, sending (near-)zero entries
    to zero.

    The kernel convention makes expressions like a (1/sqrt(N)) meaningful
    on the whole truncated space; entries with magnitude at most
    ``tol.singular_threshold`` map to 0.
    """
    d = np.diag(op)
    if np.count_nonzero(op - np.diag(d)):
        raise ValueError("pseudo_diag_inverse expects a diagonal operator")
    out = np.zeros_like(d)
    keep = np.abs(d) > tol.singular_threshold
    out[keep] = 1.0 / d[keep]
    return np.diag(out)


def restrict(op: np.ndarray, margin: int) -> np.ndarray:
    """Compress to the leading (d - margin) x (d - margin) block."""
    d = op.shape[0]
    if not 0 <= margin < d:
        raise ValueError(f"margin {margin} out of range for dimension {d}")
    k = d - margin
    return op[:k, :k].copy()


def shift_identity_check(f: Callable[[int], float], d: int) -> float:
    """Max-norm of a f(N) - f(N+1) a on the margin-1 safe subspace.

    The identity holds exactly for the truncated matrices (a only moves
    levels down), so the residual is a pure floating-point figure.
    """
    a = annihilation(d)
    lhs = a @ func_of_number(d, f)
    rhs = func_of_number(d, lambda n: f(n + 1)) @ a
    return float(np.max(np.abs(restrict(lhs - rhs, 1))))


def unit_lowering(d: int) -> np.ndarray:
    """The normalized lowering operator (1/sqrt(N+1)) a.

    Algebraically this product is the unit shift |n> -> |n-1>; it is
    constructed directly as the 0/1 shift matrix so the partial-isometry
    identities hold bitwise.  (The product form agrees to a few ulps.)
    """
    _check_dim(d)
    return np.eye(d, k=1, dtype=complex)


def unit_raising(d: int) -> np.ndarray:
    """a+ (1/sqrt(N+1)), the unit shift |n> -> |n+1> truncated at the top."""
    _check_dim(d)
    return np.eye(d, k=-1, dtype=complex)

