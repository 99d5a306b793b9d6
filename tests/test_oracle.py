import math
from pathlib import Path

import numpy as np
import pytest

from hjc import fock, oracle


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


def random_hermitian(rng, n, complex_part):
    a = rng.standard_normal((n, n)) + complex_part * 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def reference_eig(m):
    """The complex path: complex eigh of the input cast to complex."""
    return np.linalg.eigh(np.asarray(m, dtype=complex))


# real, complex with every imaginary part zero, genuinely complex
INPUT_KINDS = ["real", "complex_zero_imag", "complex"]


def make_input(kind, rng, n):
    m = random_hermitian(rng, n, 1.0 if kind == "complex" else 0.0)
    return m.real.copy() if kind == "real" else m.astype(complex)


@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_eig_paths_match_complex_reference(kind, n, rng):
    m = make_input(kind, rng, n)
    w, v = oracle.eig_hermitian(m)
    w_ref, v_ref = reference_eig(m)
    norm = np.max(np.abs(m))
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * norm
    # a 1 x 1 Hermitian matrix is real whatever its dtype
    assert v.dtype == (np.float64 if kind != "complex" or n == 1 else np.complex128)
    for t in (0.0, 0.3, -2.1):
        u_ref = (v_ref * np.exp(-1j * t * w_ref)) @ v_ref.conj().T
        u = oracle.expm_from_eig(w, v, t)
        assert u.dtype == np.complex128 and u.shape == (n, n)
        assert np.max(np.abs(u - u_ref)) <= 1e-12


def test_eig_real_path_keeps_integer_and_signed_zero_input_real():
    w, v = oracle.eig_hermitian(np.array([[2, 1], [1, 2]]))
    assert v.dtype == np.float64 and np.allclose(w, [1.0, 3.0], rtol=0, atol=1e-15)
    m = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    m.imag[0, 1] = m.imag[1, 0] = -0.0
    assert np.signbit(m.imag).any() and not np.any(m.imag)
    assert oracle.eig_hermitian(m)[1].dtype == np.float64


def test_eig_diagonal_input():
    w, v = oracle.eig_hermitian(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) <= 1e-14


def test_eig_two_by_two_radius(rng):
    for _ in range(20):
        x, y, z = rng.standard_normal(3)
        m = np.array([[z, complex(x, -y)], [complex(x, y), -z]])
        w, _ = oracle.eig_hermitian(m)
        r = math.sqrt(x * x + y * y + z * z)
        assert np.max(np.abs(w - np.array([-r, r]))) <= 1e-12


def test_eig_jc_pattern():
    d, theta = 8, 0.3
    w, _ = oracle.eig_hermitian(kron_jc_hamiltonian(theta, d))
    pattern = np.sort(
        np.concatenate(
            [np.sqrt(np.arange(d) + theta**2), -np.sqrt(np.arange(d) + theta**2)]
        )
    )
    assert np.max(np.abs(np.sort(w) - pattern)) <= 1e-10


def test_eig_rejects_non_hermitian():
    for m in (
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # real, not symmetric
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 1j], [1j, 0.0]]),  # complex symmetric, not Hermitian
    ):
        with pytest.raises(ValueError, match="not Hermitian"):
            oracle.eig_hermitian(m)


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_eig_self_check_catches_bad_vectors(kind, rng, monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        w, v = eigh(a)
        return w, v + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ArithmeticError, match="reconstruction residual"):
        oracle.eig_hermitian(make_input(kind, rng, 6))


# a real JC matrix (real path) and one with a complex coupling phase (complex path)
PHASES = [0.0, 0.9]


def test_expm_at_zero():
    for phase in PHASES:
        m = kron_jc_hamiltonian(0.5, 4, phase)
        assert np.max(np.abs(oracle.expm_hermitian(m, 0.0) - np.eye(8))) <= 1e-14


def test_expm_group_law():
    for phase in PHASES:
        m = kron_jc_hamiltonian(0.4, 6, phase)
        lhs = oracle.expm_hermitian(m, 1.1) @ oracle.expm_hermitian(m, 2.3)
        rhs = oracle.expm_hermitian(m, 3.4)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_expm_unitary():
    for phase in PHASES:
        u = oracle.expm_hermitian(kron_jc_hamiltonian(0.7, 8, phase), 5.0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-11


@pytest.mark.parametrize("phase", PHASES)
def test_expm_from_eig_is_expm_hermitian(phase):
    m = kron_jc_hamiltonian(0.3, 5, phase)
    w, v = oracle.eig_hermitian(m)
    assert v.dtype == (np.float64 if phase == 0.0 else np.complex128)
    assert np.array_equal(oracle.expm_from_eig(w, v, 1.7), oracle.expm_hermitian(m, 1.7))


def test_residual_restriction():
    a = np.arange(16.0).reshape(4, 4)
    b = a.copy()
    b[3, 3] += 5.0
    assert oracle.residual(a, b).value == 5.0
    rep = oracle.residual(a, b, margin=1, tolerance=1e-12)
    assert rep.value == 0.0 and rep.passed and rep.margin == 1


def test_residual_frobenius():
    a = np.zeros((2, 2))
    b = np.ones((2, 2))
    assert oracle.residual(a, b, metric="frobenius").value == 2.0


def test_residual_shape_guard():
    with pytest.raises(ValueError):
        oracle.residual(np.eye(2), np.eye(3))


def test_oracle_module_is_independent():
    # the verification path must not import the closed-form constructions
    import hjc.oracle as mod

    assert "hjc.jc" not in {getattr(v, "__name__", "") for v in vars(mod).values()}
    src = Path(mod.__file__).read_text()
    assert "import" in src and "jc" not in [
        line.split()[-1] for line in src.splitlines() if line.startswith("from .")
    ]
