"""Independent verification paths: dense Hermitian eigensolver, the
eigendecomposition matrix exponential, and residual bookkeeping.

Nothing here touches the closed-form constructions it is used to check;
the only dependency is the dense linear algebra in numpy.

A Hermitian input whose entries are all real (every imaginary part
exactly zero, as for the Jaynes-Cummings Hamiltonian with real theta and
g) is real symmetric, so :func:`eig_hermitian` solves it in real
arithmetic and returns a real orthogonal eigenvector matrix; genuinely
complex input takes the complex path.  The choice follows from the input
data alone.  :func:`expm_from_eig` is the one place exp(-i t m) is formed
from an eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ResidualReport", "eig_hermitian", "expm_from_eig", "expm_hermitian", "residual"]


@dataclass(frozen=True)
class ResidualReport:
    metric: str  # "max_abs" | "frobenius"
    value: float
    margin: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def eig_hermitian(m: np.ndarray, herm_tol: float = 1e-10):
    """Ascending eigenvalues and unitary eigenvector matrix of a
    Hermitian input.

    Refuses inputs whose Hermiticity residual exceeds ``herm_tol`` and
    self-checks the reconstruction to 1e-11 * ||m||.  The eigenvectors
    are real exactly when every entry of ``m`` is real.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m) and not np.any(m.imag):
        m = m.real
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > herm_tol:
        raise ValueError(f"input not Hermitian: residual {herm:.3e}")
    w, v = np.linalg.eigh(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    recon = float(np.max(np.abs((v * w) @ v.conj().T - m)))  # conj() of a real array is itself
    if recon > 1e-11 * scale:
        raise ArithmeticError(f"eigendecomposition reconstruction residual {recon:.3e}")
    return w, v


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


def expm_hermitian(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t m) through the eigendecomposition of a Hermitian m."""
    return expm_from_eig(*eig_hermitian(m), t)


def residual(
    a: np.ndarray,
    b: np.ndarray,
    margin: int = 0,
    tolerance: float = 0.0,
    metric: str = "max_abs",
) -> ResidualReport:
    """Difference of two square matrices after dropping ``margin``
    trailing rows and columns from each."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if margin:
        if margin >= a.shape[0]:
            raise ValueError(f"margin {margin} out of range for dimension {a.shape[0]}")
        a = a[: a.shape[0] - margin, : a.shape[1] - margin]
        b = b[: b.shape[0] - margin, : b.shape[1] - margin]
    diff = a - b
    if metric == "max_abs":
        value = float(np.max(np.abs(diff))) if diff.size else 0.0
    elif metric == "frobenius":
        value = float(np.linalg.norm(diff))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return ResidualReport(metric, value, margin, tolerance)
