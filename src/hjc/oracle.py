"""Independent verification path: dense Hermitian eigensolvers.

Nothing here touches the closed-form constructions it is used to check;
the only dependency is the dense linear algebra in numpy.

A Hermitian input whose entries are all real is real symmetric, so
:func:`eig_hermitian` solves it in real arithmetic and returns a real
orthogonal eigenvector matrix; genuinely complex input takes the complex
path.  The choice follows from the input data alone.  The CLI hands the
oracle the Jaynes-Cummings Hamiltonian (real theta and g) as a float64
C-contiguous matrix, since ``BlockOperator.full`` exports real operators
real; a complex input whose imaginary parts are all exactly zero, as other
callers may pass, is solved on a contiguous copy of its real parts, with
the same results as the real matrix.  :func:`eigvals_hermitian` gives the
eigenvalues alone, at about half the cost.  The CLI calls nothing else
here; the tests form exp(-i t m) from :func:`eig_hermitian` themselves.

Both eigensolvers check their own output before returning it and raise
:class:`ArithmeticError` when it fails; the check of
:func:`eigvals_hermitian` needs no eigenvectors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eig_hermitian", "eigvals_hermitian"]

# Tolerance of the self-checks that grow with the dimension n, in units of
# n * EPS (times ||m||_F, or its square, where a check compares values of
# that size).  On JC and random Hermitian input up to n = 640 the largest
# deviation measured is below one unit.
CHECK_ULPS = 16
EPS = np.finfo(float).eps
# Largest max |m - m+| the eigensolvers accept as Hermitian.
HERM_TOL = 1e-10


def _max_abs(r: np.ndarray) -> float:
    """max |r_ij|, taking the moduli in place when ``r`` is real."""
    return float(np.max(np.abs(r, out=None if np.iscomplexobj(r) else r)))


@np.errstate(invalid="ignore")  # inf - inf, left to the test below as NaN
def _hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as a float array when every entry is real, else complex;
    refuses it unless its Hermiticity residual is at most ``HERM_TOL``."""
    m = np.asarray(m)
    if np.iscomplexobj(m) and not np.any(m.imag):
        m = np.ascontiguousarray(m.real)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    herm = _max_abs(m - m.conj().T)
    if not herm <= HERM_TOL:  # a NaN or infinite entry leaves a NaN residual
        raise ValueError(f"input not Hermitian: residual {herm:.3e}")
    return m


def eig_hermitian(m: np.ndarray):
    """Ascending eigenvalues and unitary eigenvector matrix of a
    Hermitian input.

    Refuses inputs whose Hermiticity residual is not at most ``HERM_TOL``
    (NaN included).  Self-checks the reconstruction to 1e-11 * max(1,
    max |m_ij|) and the orthonormality, max |V+ V - I|, to ``CHECK_ULPS``
    * n * eps, a NaN failing each: a lost eigenvector of a null space leaves
    the reconstruction intact.  The eigenvectors are real exactly when m is.

    An input whose largest row sum of |m_ij|, a bound on every eigenvalue
    and on every sum of the self-check, is beyond the double range is
    solved and checked scaled by the power of two 2**-e that brings its
    largest entry into [1/2, 1) (exact for every entry above 2**(e - 1022)),
    and the eigenvalues are scaled back, +-inf beyond the double range.
    Any other input is solved as it is, so its eigenpairs are numpy's bits.
    """
    m = _hermitian(m)
    a = np.abs(m)
    top = float(np.max(a))
    bound = 1e-11 * max(1.0, top)
    with np.errstate(over="ignore"):
        e = int(np.frexp(top)[1]) if np.isinf(np.max(np.sum(a, axis=1))) else 0
    del a
    if e:
        m, bound = m * 2.0**-e, bound * 2.0**-e
    w, v = np.linalg.eigh(m)
    n = m.shape[0]
    vh = v.conj().T  # conj() of a real array is itself
    r = (v * w) @ vh
    r -= m
    recon = _max_abs(r)
    if not recon <= bound:
        raise ArithmeticError(f"eigendecomposition reconstruction residual {recon:.3e}" + (f" at scale 2**{-e}" if e else ""))
    r = vh @ v
    r.flat[:: n + 1] -= 1.0
    orth = _max_abs(r)
    if not orth <= CHECK_ULPS * n * EPS:
        raise ArithmeticError(f"eigenvector orthonormality residual {orth:.3e}")
    if e:
        with np.errstate(over="ignore"):
            w = np.ldexp(w, e)
    return w, v


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian input, without eigenvectors.

    Refuses inputs as :func:`eig_hermitian` does.  Self-checks the
    eigenvalues against two invariants of ``m``: with s = ||m||_F,
    |sum w - tr m| <= c n eps s and |sum w^2 - ||m||_F^2| <= c n eps s^2,
    c = ``CHECK_ULPS``.  A backward-stable solver moves each eigenvalue by
    about eps ||m||_2 <= eps s, so the sums move by about n eps s and
    2 n eps s^2 at most.  The sums are taken on ``m`` scaled by a power of
    two (exactly), so no square overflows or underflows.
    """
    m = _hermitian(m)
    w = np.linalg.eigvalsh(m)
    n = m.shape[0]
    k = 2.0 ** -np.frexp(np.max(np.abs(m)))[1]
    ms, ws = m * k, w * k
    fro2 = float(np.vdot(ms, ms).real)
    bound = CHECK_ULPS * n * EPS * np.sqrt(fro2)
    trace_dev = abs(float(np.sum(ws)) - float(np.trace(ms).real))
    fro_dev = abs(float(ws @ ws) - fro2)
    if not (trace_dev <= bound and fro_dev <= bound * np.sqrt(fro2)):  # a NaN fails it
        raise ArithmeticError(
            f"eigenvalue self-check failed: trace deviation {trace_dev / k:.3e}, "
            f"squared-norm deviation {fro_dev / (k * k):.3e}"
        )
    return w
