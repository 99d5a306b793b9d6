"""Detuned Jaynes-Cummings model as an operator-valued Berry system.

The scaled interaction Hamiltonian on C^2 (x) F is the block operator

    H = [[theta,  a  ],
         [ a+  , -theta]]

with theta = (Delta - omega) / 2g playing the role of the classical z
coordinate and a, a+ replacing w, conj(w).  The classical two-chart
construction carries over with the radius replaced by the operator
R(N) = sqrt(N + theta^2): each chart has an operator-valued unitary, a
diagonal factor built from R(N) and R(N+1), a transition operator, a
globally defined projector and a closed-form propagator.

Chart denominators 2 R(n) (R(n) +- theta) vanish only at the ground level
n = 0 (chart I for theta < 0, chart II for theta > 0, both at resonance),
which is the quantum remnant of the classical Dirac string: it lives
purely in states containing the ground level.  The sums R(n) +- theta are
evaluated as n / (R(n) -+ theta) on the side where they would cancel
(:func:`radius_sum`), so no other level turns singular at large |theta|.

Flattening convention: the atom index is major, so a block operator maps
component vectors (upper, lower) of length d each, and flattened index
j = atom * d + level with the excited state as component 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fock
from .berry import ChartDecomposition, ChartTag
from .config import DEFAULT, Tolerances

__all__ = [
    "JCParams",
    "BlockOperator",
    "SectorStatus",
    "SectorReport",
    "SingularSectorError",
    "block_diag",
    "block_residual",
    "radius_diag",
    "radius_sum",
    "hamiltonian",
    "full_hamiltonian",
    "two_step_factors",
    "middle_unitary",
    "chart_unitary",
    "chart_decompose",
    "singular_sectors",
    "transition_operator",
    "projector",
    "spectral_decomposition",
    "propagator",
    "full_propagator",
]


@dataclass(frozen=True)
class JCParams:
    """Model parameters.

    ``theta`` is the detuning ratio (Delta - omega)/2g; ``g`` the coupling;
    ``omega`` and ``delta`` are only needed for the full (unscaled)
    Hamiltonian and propagator.  ``dim`` is the Fock truncation.
    """

    theta: float
    dim: int
    g: float = 1.0
    omega: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"need dim >= 2, got {self.dim}")
        if self.omega is not None and self.delta is not None:
            if self.g == 0.0:
                raise ValueError("coupling g = 0 leaves the detuning ratio undefined")
            implied = (self.delta - self.omega) / (2.0 * self.g)
            if abs(self.theta - implied) > 1e-9 * max(1.0, abs(implied)):
                raise ValueError(
                    f"theta = {self.theta} inconsistent with (delta-omega)/2g = {implied}"
                )

    @classmethod
    def from_physical(cls, omega: float, delta: float, g: float, dim: int) -> "JCParams":
        if g == 0.0:
            raise ValueError("coupling g = 0 leaves the detuning ratio undefined")
        return cls(theta=(delta - omega) / (2.0 * g), dim=dim, g=g, omega=omega, delta=delta)


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """2x2 block matrix of equal-size Fock operators."""

    blocks: tuple

    def __post_init__(self):
        rows = tuple(tuple(np.asarray(b, dtype=complex) for b in row) for row in self.blocks)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 block layout")
        d = rows[0][0].shape[0]
        for row in rows:
            for b in row:
                if b.shape != (d, d):
                    raise ValueError("inconsistent block shapes")
        object.__setattr__(self, "blocks", rows)

    @property
    def dim(self) -> int:
        return self.blocks[0][0].shape[0]

    @classmethod
    def identity(cls, d: int) -> "BlockOperator":
        z = np.zeros((d, d), dtype=complex)
        return cls(((np.eye(d, dtype=complex), z), (z, np.eye(d, dtype=complex))))

    def full(self) -> np.ndarray:
        """Flatten to a 2d x 2d matrix, atom index major."""
        return np.block([list(row) for row in self.blocks])

    @classmethod
    def from_full(cls, m: np.ndarray) -> "BlockOperator":
        n = m.shape[0]
        if m.shape != (n, n) or n % 2:
            raise ValueError("expected an even-dimensional square matrix")
        d = n // 2
        return cls(
            (
                (m[:d, :d], m[:d, d:]),
                (m[d:, :d], m[d:, d:]),
            )
        )

    def dagger(self) -> "BlockOperator":
        b = self.blocks
        return BlockOperator(
            (
                (b[0][0].conj().T, b[1][0].conj().T),
                (b[0][1].conj().T, b[1][1].conj().T),
            )
        )

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        a, b = self.blocks, other.blocks
        return BlockOperator(
            tuple(
                tuple(a[i][0] @ b[0][j] + a[i][1] @ b[1][j] for j in range(2))
                for i in range(2)
            )
        )

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(
            tuple(
                tuple(self.blocks[i][j] + other.blocks[i][j] for j in range(2))
                for i in range(2)
            )
        )

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(
            tuple(
                tuple(self.blocks[i][j] - other.blocks[i][j] for j in range(2))
                for i in range(2)
            )
        )

    def __mul__(self, c):
        if isinstance(c, (int, float, complex)):
            return BlockOperator(
                tuple(tuple(self.blocks[i][j] * c for j in range(2)) for i in range(2))
            )
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "BlockOperator":
        return self * (-1.0)

    def restrict(self, margin: int) -> "BlockOperator":
        """Compress every block to its leading (d - margin) square."""
        return BlockOperator(
            tuple(
                tuple(fock.restrict(self.blocks[i][j], margin) for j in range(2))
                for i in range(2)
            )
        )

    def max_abs(self, margin: int = 0) -> float:
        op = self.restrict(margin) if margin else self
        return float(max(np.max(np.abs(b)) for row in op.blocks for b in row))


def block_diag(b00: np.ndarray, b11: np.ndarray) -> BlockOperator:
    z = np.zeros_like(np.asarray(b00, dtype=complex))
    return BlockOperator(((b00, z), (z, b11)))


def block_residual(a: BlockOperator, b: BlockOperator, margin: int = 0) -> float:
    return (a - b).max_abs(margin)


def radius_diag(d: int, theta: float, shift: int = 0) -> np.ndarray:
    """Level values of R(N + shift) = sqrt(N + shift + theta^2).

    The n + shift = 0 entry is |theta| exactly (sqrt of a rounded square
    can be a ulp off, which would smear the vanishing denominators the
    string analysis keys on).
    """
    n = np.arange(d, dtype=float) + shift
    out = np.sqrt(n + theta * theta)
    out[n == 0.0] = abs(theta)
    return out


def radius_sum(d: int, theta: float, shift: int, sign: float) -> np.ndarray:
    """Level values of R(N + shift) + sign * theta, without cancellation.

    Where sign * theta < 0 the difference is evaluated as
    (n + shift) / (R(N + shift) - sign * theta), so it vanishes only at
    n + shift = 0 and keeps full relative accuracy for every |theta|.
    """
    r = radius_diag(d, theta, shift)
    st = sign * theta
    if st >= 0.0:
        return r + st
    return (np.arange(d, dtype=float) + shift) / (r - st)


def _diag(values: np.ndarray) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=complex))


# ---------------------------------------------------------------------------
# Hamiltonians


def hamiltonian(p: JCParams) -> BlockOperator:
    """The scaled interaction Hamiltonian [[theta, a], [a+, -theta]]."""
    d = p.dim
    i = np.eye(d)
    return BlockOperator(
        (
            (p.theta * i, fock.annihilation(d)),
            (fock.creation(d), -p.theta * i),
        )
    )


def full_hamiltonian(p: JCParams):
    """Split the full model Hamiltonian into commuting parts (H1, H2).

    H1 = omega (1 (x) N) + (omega/2) (sigma3 (x) 1) is block diagonal;
    H2 = g * [[theta, a], [a+, -theta]].  Requires omega, delta, g.
    """
    if p.omega is None or p.delta is None:
        raise ValueError("full Hamiltonian needs omega and delta")
    if p.g == 0.0:
        raise ValueError("coupling g = 0 leaves the detuning ratio undefined")
    d = p.dim
    n = np.arange(d, dtype=float)
    h1 = block_diag(_diag(p.omega * n + p.omega / 2.0), _diag(p.omega * n - p.omega / 2.0))
    h2 = p.g * hamiltonian(p)
    return h1, h2


# ---------------------------------------------------------------------------
# Two-step factorization and middle matrix


def two_step_factors(p: JCParams):
    """Operator analogue (L, M, L+) of the classical two-step split.

    L = diag(1, a+ (1/sqrt(N+1))) with the lower entry realized as the
    exact unit raising shift, M = [[theta, sqrt(N+1)], [sqrt(N+1), -theta]].

    L M L+ reproduces the Hamiltonian everywhere except the lower-right
    ground entry, where it gives -theta (1 - |0><0|) instead of -theta:
    the product misses the one-dimensional ground sector exactly, which is
    the algebraic seed of the quantum string.  L L+ = diag(1, 1 - |0><0|)
    bitwise; L+ L = diag(1, 1 - |d-1><d-1|) from the truncation.
    """
    d = p.dim
    i = np.eye(d, dtype=complex)
    z = np.zeros((d, d), dtype=complex)
    left = BlockOperator(((i, z), (z, fock.unit_raising(d))))
    sqrt_shift = _diag(np.sqrt(np.arange(d, dtype=float) + 1.0))
    mid = BlockOperator(((p.theta * i, sqrt_shift), (sqrt_shift, -p.theta * i)))
    return left, mid, left.dagger()


def middle_unitary(p: JCParams, chart: ChartTag, tol: Tolerances = DEFAULT) -> BlockOperator:
    """Diagonalizing unitary of the middle matrix M.

    Both charts use R(N+1) throughout, so the denominators
    2 R(n+1) (R(n+1) +- theta) never vanish for finite theta; the check is
    kept defensively.  M = U diag(R(N+1), -R(N+1)) U+ exactly on the full
    space (everything is diagonal per level).
    """
    d, th = p.dim, p.theta
    s = 1.0 if chart is ChartTag.I else -1.0
    r1 = radius_diag(d, th, 1)
    q1 = radius_sum(d, th, 1, s)
    den = 2.0 * r1 * q1
    bad = np.nonzero(den <= tol.singular_threshold)[0]
    if bad.size:
        report = singular_sectors(p, tol)
        raise SingularSectorError(chart, report.for_chart(chart, singular_only=True), report)
    f = 1.0 / np.sqrt(den)
    sq = np.sqrt(np.arange(d, dtype=float) + 1.0)
    if chart is ChartTag.I:
        u = ((f * q1, -f * sq), (f * sq, f * q1))
    else:
        u = ((f * sq, -f * q1), (f * q1, f * sq))
    return BlockOperator(tuple(tuple(_diag(v) for v in row) for row in u))


# ---------------------------------------------------------------------------
# Singular sector analysis


@dataclass(frozen=True)
class SectorStatus:
    """One (chart, block row, level) denominator with its verdict.

    Row 1 normalizers carry R(N+1) arguments, row 2 carries R(N); the
    denominator is 2 R (R + theta) for chart I and 2 R (R - theta) for
    chart II.
    """

    chart: ChartTag
    row: int
    level: int
    denominator: float
    status: str  # "regular" | "ill_conditioned" | "singular"

    @property
    def singular(self) -> bool:
        return self.status == "singular"


@dataclass(frozen=True)
class SectorReport:
    theta: float
    dim: int
    entries: tuple

    def singular(self):
        return tuple(e for e in self.entries if e.singular)

    def for_chart(self, chart: ChartTag, singular_only: bool = False):
        out = tuple(e for e in self.entries if e.chart is chart)
        if singular_only:
            out = tuple(e for e in out if e.singular)
        return out

    def lattice(self):
        """Level-pair grid in the style of the string map: a basis pair is
        black iff it touches the ground level, where the strings live."""
        cells = []
        for m in range(self.dim):
            for n in range(self.dim):
                color = "black" if (m == 0 or n == 0) else "white"
                cells.append({"level_pair": [m, n], "color": color})
        return cells

    def to_records(self):
        return [
            {
                "chart": e.chart.value,
                "row": e.row,
                "level": e.level,
                "denominator": e.denominator,
                "status": e.status,
            }
            for e in self.entries
        ]


class SingularSectorError(Exception):
    """A chart operator was requested for a theta whose denominator chain
    vanishes somewhere (the quantum Dirac string)."""

    def __init__(self, chart: ChartTag, sectors, report: SectorReport = None):
        self.chart = chart
        self.sectors = tuple(sectors)
        self.report = report
        where = ", ".join(f"(row {s.row}, level {s.level})" for s in self.sectors) or "?"
        super().__init__(f"chart {chart.value} singular at {where}")


def singular_sectors(p: JCParams, tol: Tolerances = DEFAULT) -> SectorReport:
    """Classify every chart denominator 2 R (R +- theta) per block row and
    level.

    For theta > 0 the singular set is exactly {chart II, row 2, level 0};
    for theta < 0 it is {chart I, row 2, level 0}; at resonance both
    charts are singular at the ground level.
    """
    d, th = p.dim, p.theta
    entries = []
    for chart, s in ((ChartTag.I, 1.0), (ChartTag.II, -1.0)):
        for row, shift in ((1, 1), (2, 0)):
            den = 2.0 * radius_diag(d, th, shift) * radius_sum(d, th, shift, s)
            for level in range(d):
                v = float(den[level])
                if v <= tol.singular_threshold:
                    status = "singular"
                elif v < tol.ill_conditioned:
                    status = "ill_conditioned"
                else:
                    status = "regular"
                entries.append(SectorStatus(chart, row, level, v, status))
    return SectorReport(th, d, tuple(entries))


# ---------------------------------------------------------------------------
# Chart operators


def _chart_pieces(p: JCParams, chart: ChartTag, tol: Tolerances):
    """Normalizer level values (row1, row2) and the unnormalized chart
    matrix; raises on vanishing denominators."""
    d, th = p.dim, p.theta
    s = 1.0 if chart is ChartTag.I else -1.0
    q1 = radius_sum(d, th, 1, s)
    q0 = radius_sum(d, th, 0, s)
    den1 = 2.0 * radius_diag(d, th, 1) * q1
    den2 = 2.0 * radius_diag(d, th, 0) * q0
    if np.any(den1 <= tol.singular_threshold) or np.any(den2 <= tol.singular_threshold):
        report = singular_sectors(p, tol)
        raise SingularSectorError(chart, report.for_chart(chart, singular_only=True), report)
    a = fock.annihilation(d)
    ad = fock.creation(d)
    if chart is ChartTag.I:
        core = BlockOperator(((_diag(q1), -a), (ad, _diag(q0))))
    else:
        core = BlockOperator(((a, _diag(-q1)), (_diag(q0), ad)))
    return 1.0 / np.sqrt(den1), 1.0 / np.sqrt(den2), core


def chart_unitary(
    p: JCParams,
    chart: ChartTag,
    normalizer: str = "left",
    tol: Tolerances = DEFAULT,
) -> BlockOperator:
    """Operator-valued chart unitary V.

    ``normalizer`` picks which side the inverse-square-root diagonal
    factor multiplies from; the two sides agree identically (for chart II
    the right-side factor carries the row arguments swapped).  Raises
    :class:`SingularSectorError` for the theta sign whose ground-level
    denominator vanishes.
    """
    if normalizer not in ("left", "right"):
        raise ValueError("normalizer must be 'left' or 'right'")
    f1, f2, core = _chart_pieces(p, chart, tol)
    if normalizer == "left":
        norm = block_diag(_diag(f1), _diag(f2))
        return norm @ core
    if chart is ChartTag.I:
        norm = block_diag(_diag(f1), _diag(f2))
    else:
        norm = block_diag(_diag(f2), _diag(f1))
    return core @ norm


def chart_diagonal(p: JCParams, chart: ChartTag) -> BlockOperator:
    """Eigenvalue factor: diag(R(N+1), -R(N)) for chart I and
    diag(R(N), -R(N+1)) for chart II."""
    r1 = radius_diag(p.dim, p.theta, 1)
    r0 = radius_diag(p.dim, p.theta, 0)
    if chart is ChartTag.I:
        return block_diag(_diag(r1), _diag(-r0))
    return block_diag(_diag(r0), _diag(-r1))


def chart_decompose(p: JCParams, chart: ChartTag, tol: Tolerances = DEFAULT) -> ChartDecomposition:
    """Chart unitary and diagonal factor with H = V D V+ on the safe
    subspace (margin 2 absorbs the top-level truncation artifacts)."""
    v = chart_unitary(p, chart, tol=tol)
    d = chart_diagonal(p, chart)
    f1, f2, _ = _chart_pieces(p, chart, tol)
    cond = float(max(np.max(f1), np.max(f2)))
    return ChartDecomposition(v, d, chart, cond)


def transition_operator(d: int) -> BlockOperator:
    """diag((1/sqrt(N+1)) a, a+ (1/sqrt(N+1))) -- the exact unit shifts.

    A partial isometry: Phi+ Phi = diag(1 - |0><0|, 1) up to the top
    truncation level, the ground deficiency being the string's footprint.
    The kernel-convention forms a (1/sqrt(N)) and (1/sqrt(N)) a+ agree
    exactly (see :func:`hjc.fock.pseudo_diag_inverse`).
    """
    return block_diag(fock.unit_lowering(d), fock.unit_raising(d))


def projector(p: JCParams, normalizer: str = "left", tol: Tolerances = DEFAULT) -> BlockOperator:
    """Globally defined spectral projector

        diag(1/2R(N+1), 1/2R(N)) [[R(N+1)+theta, a], [a+, R(N)-theta]].

    Defined for every theta: at resonance the 1/2R(0) factor is taken with
    the kernel convention (the level-0 entries it scales vanish anyway).
    Agrees with V diag(1, 0) V+ for whichever charts exist.
    """
    if normalizer not in ("left", "right"):
        raise ValueError("normalizer must be 'left' or 'right'")
    d, th = p.dim, p.theta
    r1 = radius_diag(d, th, 1)
    r0 = radius_diag(d, th, 0)
    p1 = 1.0 / (2.0 * r1)
    p2 = np.zeros(d)
    keep = 2.0 * r0 > tol.singular_threshold
    p2[keep] = 1.0 / (2.0 * r0[keep])
    a = fock.annihilation(d)
    ad = fock.creation(d)
    core = BlockOperator(((_diag(radius_sum(d, th, 1, 1.0)), a), (ad, _diag(radius_sum(d, th, 0, -1.0)))))
    norm = block_diag(_diag(p1), _diag(p2))
    return norm @ core if normalizer == "left" else core @ norm


def spectral_decomposition(p: JCParams, tol: Tolerances = DEFAULT):
    """Operator-eigenvalue split (Lambda P, -Lambda (1 - P)) with
    Lambda = diag(R(N+1), R(N)); the parts sum back to the Hamiltonian and
    Lambda commutes with P."""
    d = p.dim
    lam = block_diag(_diag(radius_diag(d, p.theta, 1)), _diag(radius_diag(d, p.theta, 0)))
    proj = projector(p, tol=tol)
    plus = lam @ proj
    minus = -(lam @ (BlockOperator.identity(d) - proj))
    return plus, minus


# ---------------------------------------------------------------------------
# Propagators


def propagator(p: JCParams, t: float) -> BlockOperator:
    """Closed form of exp(-i g t H) built from level functions:

        [[cos(tg R(N+1)) - i theta sin(tg R(N+1))/R(N+1),
                                -i sin(tg R(N+1))/R(N+1) a],
         [-i sin(tg R(N))/R(N) a+,
                                cos(tg R(N)) + i theta sin(tg R(N))/R(N)]]

    At resonance the level-0 ratio sin(tg R)/R is taken in the limit, tg.
    """
    d, th = p.dim, p.theta
    tg = p.g * t

    def sin_ratio(r: np.ndarray) -> np.ndarray:
        out = np.full_like(r, tg)
        nz = r != 0.0
        out[nz] = np.sin(tg * r[nz]) / r[nz]
        return out

    r1 = radius_diag(d, th, 1)
    r0 = radius_diag(d, th, 0)
    s1, s0 = sin_ratio(r1), sin_ratio(r0)
    c1, c0 = np.cos(tg * r1), np.cos(tg * r0)
    a = fock.annihilation(d)
    ad = fock.creation(d)
    return BlockOperator(
        (
            (_diag(c1 - 1j * th * s1), -1j * (_diag(s1) @ a)),
            (-1j * (_diag(s0) @ ad), _diag(c0 + 1j * th * s0)),
        )
    )


def full_propagator(p: JCParams, t: float) -> BlockOperator:
    """exp(-i t H_full) as the product of the diagonal free part and the
    closed-form interaction propagator (the two parts commute)."""
    if p.omega is None or p.delta is None:
        raise ValueError("full propagator needs omega and delta")
    d = p.dim
    n = np.arange(d, dtype=float)
    u1 = block_diag(
        _diag(np.exp(-1j * t * (p.omega * n + p.omega / 2.0))),
        _diag(np.exp(-1j * t * (p.omega * n - p.omega / 2.0))),
    )
    return u1 @ propagator(p, t)
