import math
from pathlib import Path

import numpy as np
import pytest
from references import expm_from_eig, kron_jc_hamiltonian

from hjc import oracle


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
    assert np.max(np.abs(oracle.eigvals_hermitian(m) - w_ref)) <= 1e-13 * norm
    # a 1 x 1 Hermitian matrix is real whatever its dtype
    assert v.dtype == (np.float64 if kind != "complex" or n == 1 else np.complex128)
    for t in (0.0, 0.3, -2.1):
        u_ref = (v_ref * np.exp(-1j * t * w_ref)) @ v_ref.conj().T
        u = expm_from_eig(w, v, t)
        assert u.dtype == np.complex128 and u.shape == (n, n)
        assert np.max(np.abs(u - u_ref)) <= 1e-12


def test_eig_real_path_keeps_integer_and_signed_zero_input_real():
    w, v = oracle.eig_hermitian(np.array([[2, 1], [1, 2]]))
    assert v.dtype == np.float64 and np.allclose(w, [1.0, 3.0], rtol=0, atol=1e-15)
    m = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    m.imag[0, 1] = m.imag[1, 0] = -0.0
    assert np.signbit(m.imag).any() and not np.any(m.imag)
    assert oracle.eig_hermitian(m)[1].dtype == np.float64


@pytest.mark.parametrize("n", [1, 2, 7, 40, 96])
def test_zero_imaginary_input_solves_exactly_as_its_real_part(n, rng):
    # the real path runs on one contiguous copy of the real parts: a
    # complex input whose imaginary parts are all zero (as the dense export
    # of a real BlockOperator) gives bitwise the real input's results
    real = make_input("real", rng, n)
    m = real.astype(complex)
    m.imag[rng.random((n, n)) < 0.5] = -0.0
    w, v = oracle.eig_hermitian(m)
    w_real, v_real = oracle.eig_hermitian(real)
    assert v.dtype == np.float64
    assert np.array_equal(w.view(np.uint64), w_real.view(np.uint64))
    assert np.array_equal(v.view(np.uint64), v_real.view(np.uint64))
    evals, evals_real = oracle.eigvals_hermitian(m), oracle.eigvals_hermitian(real)
    assert np.array_equal(evals.view(np.uint64), evals_real.view(np.uint64))


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
        for solve in (oracle.eig_hermitian, oracle.eigvals_hermitian):
            with pytest.raises(ValueError, match="not Hermitian"):
                solve(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_eig_refuses_non_finite_input(bad, dtype):
    m = np.array([[bad, 0.0], [0.0, 1.0]], dtype=dtype)
    for solve in (oracle.eig_hermitian, oracle.eigvals_hermitian):
        with pytest.raises((ArithmeticError, ValueError)):
            solve(m)


def test_eig_self_check_catches_a_nan_eigenvalue(monkeypatch):
    eigh = np.linalg.eigh

    def nan_first(a):
        w, v = eigh(a)
        return np.concatenate(([np.nan], w[1:])), v

    monkeypatch.setattr(np.linalg, "eigh", nan_first)
    with pytest.raises(ArithmeticError, match="reconstruction residual"):
        oracle.eig_hermitian(np.diag([2.0, 1.0]))


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_eig_self_check_catches_bad_vectors(kind, rng, monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        w, v = eigh(a)
        return w, v + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ArithmeticError, match="reconstruction residual"):
        oracle.eig_hermitian(make_input(kind, rng, 6))


def test_eig_self_check_catches_a_lost_null_vector(monkeypatch):
    # at resonance the ground and the top level span a null space; an
    # eigenvector of it zeroed leaves the reconstruction intact
    m = kron_jc_hamiltonian(0.0, 6)
    eigh = np.linalg.eigh

    def lossy(a):
        w, v = eigh(a)
        v = v.copy()
        v[:, np.argmin(np.abs(w))] = 0.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", lossy)
    with pytest.raises(ArithmeticError, match="orthonormality"):
        oracle.eig_hermitian(m)


# real and genuinely complex input, random and JC (at resonance, with its
# null space, and at a detuning where ||H|| ~ 1e8)
SELF_CHECK_INPUTS = {
    "random_real": lambda rng: make_input("real", rng, 40),
    "random_complex": lambda rng: make_input("complex", rng, 40),
    "jc_resonance": lambda rng: kron_jc_hamiltonian(0.0, 20),
    "jc_complex_large_theta": lambda rng: kron_jc_hamiltonian(1e8, 20, phase=0.9),
}


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("name", SELF_CHECK_INPUTS)
def test_eigvals_self_check_catches_bad_eigenvalues(name, spread, rng, monkeypatch):
    # off by 1e-6 of the largest entry of m: the eigenvalue nearest zero,
    # which leaves sum w^2 all but unchanged, or the two extreme ones moved
    # apart, which leaves sum w unchanged
    m = SELF_CHECK_INPUTS[name](rng)
    eigvalsh = np.linalg.eigvalsh
    assert oracle.eigvals_hermitian(m).shape == (m.shape[0],)

    def perturbed(a):
        w = eigvalsh(a).copy()
        delta = 1e-6 * np.max(np.abs(a))
        if spread:
            w[0] -= delta
            w[-1] += delta
        else:
            w[np.argmin(np.abs(w))] += delta
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    with pytest.raises(ArithmeticError, match="eigenvalue self-check"):
        oracle.eigvals_hermitian(m)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_eigvals_self_check_over_the_double_range(scale):
    # ||m||_F^2 over- or underflows here; the check is taken on m scaled by
    # a power of two
    m = kron_jc_hamiltonian(0.3, 8).real
    w = oracle.eigvals_hermitian(m * scale)
    assert np.max(np.abs(w / scale - np.linalg.eigvalsh(m))) <= 1e-14


def _row_sum(m):
    with np.errstate(over="ignore"):
        return np.max(np.sum(np.abs(m), axis=1))


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_eig_input_whose_row_sums_overflow_reconstructs_to_its_relative_bound(kind, rng):
    # every row sum of |m| beyond the double range, every eigenvalue within
    # it: solved on m scaled by a power of two, checked to the same bound
    m = make_input(kind, rng, 40)
    m = m * (1e308 / _row_sum(m)) * 2.5  # ||m||_2 is under a third of the row sums here
    assert np.isinf(_row_sum(m))
    w, v = oracle.eig_hermitian(m)
    assert np.all(np.isfinite(w))
    assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-11 * np.max(np.abs(m))


def test_eig_eigenvalues_beyond_the_double_range_read_inf():
    # g H at g = 1e308, theta = 1, d = 4: the radii 2 g of the top sector
    # exceed the double range; numpy alone gives inf and a NaN reconstruction
    m = 1e308 * kron_jc_hamiltonian(1.0, 4).real
    w, v = oracle.eig_hermitian(m)
    assert np.all(np.isfinite(v)) and np.array_equal(np.isinf(w), [True] + [False] * 6 + [True])
    expected = 1e308 * np.array([np.sqrt(2.0), np.sqrt(3.0), 1.0])
    assert np.allclose(np.sort(np.abs(w[1:-1])), np.sort(np.repeat(expected, 2)), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("row_sum", [1.0, 1e200, 1.7e308, 1e-300])
def test_eig_input_with_finite_row_sums_is_numpys_eigh(kind, row_sum, rng):
    # no scaling while every row sum of |m| is finite, however large or
    # small the entries: the eigenpairs are eigh's bits
    m = make_input(kind, rng, 9)
    m = m * (row_sum / _row_sum(m))
    if np.iscomplexobj(m) and not np.any(m.imag):
        m = np.ascontiguousarray(m.real)
    assert np.isfinite(_row_sum(m))
    w, v = oracle.eig_hermitian(m)
    w0, v0 = np.linalg.eigh(m)
    assert np.array_equal(w.view(np.uint64), w0.view(np.uint64))
    assert v.dtype == v0.dtype and np.array_equal(v.view(np.uint64), v0.view(np.uint64))


def test_oracle_module_is_independent():
    # the verification path must not import the closed-form constructions
    import hjc.oracle as mod

    assert "hjc.jc" not in {getattr(v, "__name__", "") for v in vars(mod).values()}
    src = Path(mod.__file__).read_text()
    assert "import" in src and "jc" not in [
        line.split()[-1] for line in src.splitlines() if line.startswith("from .")
    ]
