"""Detuned Jaynes-Cummings model as an operator-valued Berry system.

The scaled interaction Hamiltonian on C^2 (x) F is the block operator

    H = [[theta,  a  ],
         [ a+  , -theta]]

with theta = (Delta - omega) / 2g playing the role of the classical z
coordinate and a, a+ replacing w, conj(w).  The classical two-chart
construction carries over with the radius replaced by the operator
sqrt(H^2): each chart has an operator-valued unitary, a diagonal factor
built from the radius, a transition operator, a globally defined
projector and a closed-form propagator.

Truncation: on C^2 (x) F_d the square H^2 = diag(a a+ + theta^2,
a+ a + theta^2) holds exactly, so the radius of block row 1 is
R(N+1) = sqrt(N + 1 + theta^2) below the top level and |theta| at it
(a+ annihilates |d-1>), and that of row 2 is R(N) = sqrt(N + theta^2)
(:func:`row_radii`).  H is an exact direct sum of the two-level sectors
span{|e,n-1>, |g,n>}, n = 1 .. d-1, and two one-level sectors: the ground
level |g,0> (eigenvalue -theta) and the top level |e,d-1> (eigenvalue
+theta), a pure truncation artifact.  Every closed form here carries the
row radii, so it is exact on every sector, the top one included.

Chart denominators 2 R (R +- theta) (:func:`chart_denominators`) vanish
only at the ground level n = 0 (chart I for theta < 0, chart II for
theta > 0, both at resonance), which is the quantum remnant of the
classical Dirac string: it lives purely in states containing the ground
level.  The top level's denominator always equals the ground one, so it
never decides which chart exists.  The sums R +- theta are evaluated as
m / (R -+ theta), m the level number, on the side where they would
cancel, and R as hypot(sqrt(m), theta), so no other level turns singular
and nothing overflows at large |theta|.

Flattening convention: the atom index is major, so a block operator maps
component vectors (upper, lower) of length d each, and flattened index
j = atom * d + level with the excited state as component 0.

Representation: H conserves the excitation number, pairing |e,n> only
with |g,n+1>, so every operator built here has blocks made of one or two
shifted diagonals of level functions.  A :class:`BlockOperator` stores
block (i, j) as ``diags[i][j]``, a map from offset k to the level vector
of length d - |k| on the k-th diagonal (``numpy.diag(v, k)`` layout).
Products, sums and adjoints act on these vectors elementwise with a
shift, so every closed form here costs O(d) time and memory, against the
O(d^3) of the dense oracle; :meth:`BlockOperator.apply` multiplies a
real dense (2d, m) array in O(d m).  :meth:`BlockOperator.full` is the only
dense export; the dense constructor and :meth:`BlockOperator.from_full`
extract the diagonals losslessly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

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
    "row_radii",
    "chart_denominators",
    "admissible_denominators",
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


def _dense_diagonals(b: np.ndarray) -> dict:
    """Every diagonal of a dense block holding a nonzero bit (-0.0 included,
    so the block round-trips bitwise through :meth:`BlockOperator.full`)."""
    rows, cols = np.nonzero((b != 0) | np.signbit(b.real) | np.signbit(b.imag))
    return {int(k): np.diagonal(b, k).copy() for k in np.unique(cols - rows)}


def _block_product(d: int, x: dict, y: dict, out: dict) -> None:
    """Accumulate the product of blocks ``x`` and ``y`` into ``out``.

    Offsets add: row i of the product's diagonal p + q is row i of x's
    diagonal p times row i + p of y's diagonal q.
    """
    for p, a in x.items():
        for q, b in y.items():
            k = p + q
            lo, hi = max(0, -p, -k), min(d, d - p, d - k)  # rows i, i + p, i + p + q in range
            if lo < hi:
                c = out.setdefault(k, np.zeros(d - abs(k), dtype=complex))
                c[lo - max(0, -k) : hi - max(0, -k)] += (
                    a[lo - max(0, -p) : hi - max(0, -p)] * b[lo + p - max(0, -q) : hi + p - max(0, -q)]
                )


class BlockOperator:
    """2x2 block operator on C^2 (x) F_d, each block a sum of shifted
    level diagonals (see the module docstring).

    ``BlockOperator(blocks)`` takes a 2x2 layout of dense d x d blocks;
    :meth:`from_diagonals` takes the level vectors directly.
    """

    __slots__ = ("dim", "diags")

    def __init__(self, blocks):
        rows = [[np.asarray(b, dtype=complex) for b in row] for row in blocks]
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 block layout")
        d = rows[0][0].shape[0]
        if any(b.shape != (d, d) for row in rows for b in row):
            raise ValueError("inconsistent block shapes")
        self.dim = d
        self.diags = tuple(tuple(_dense_diagonals(b) for b in row) for row in rows)

    @classmethod
    def from_diagonals(cls, d: int, diags) -> "BlockOperator":
        """Operator from a 2x2 layout of {offset: level vector} maps."""
        op = object.__new__(cls)
        op.dim = d
        op.diags = tuple(tuple({k: np.asarray(v, dtype=complex) for k, v in b.items()} for b in row) for row in diags)
        if any(v.shape != (d - abs(k),) for row in op.diags for b in row for k, v in b.items()):
            raise ValueError("the level vector on offset k needs length d - |k|")
        return op

    @classmethod
    def identity(cls, d: int) -> "BlockOperator":
        return block_diag(np.ones(d), np.ones(d))

    def full(self) -> np.ndarray:
        """Flatten to a 2d x 2d matrix, atom index major."""
        d = self.dim
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        flat = out.reshape(-1)
        for i, row in enumerate(self.diags):
            for j, block in enumerate(row):
                for k, v in block.items():
                    start = (i * d + max(0, -k)) * 2 * d + j * d + max(0, k)
                    flat[start : start + v.size * (2 * d + 1) : 2 * d + 1] = v
        return out

    def apply(self, x: np.ndarray, out=None):
        """The product with a real dense array ``x`` of 2d rows (a vector
        or a (2d, m) matrix) in O(d m): every stored diagonal scales a
        shifted slice of the rows of ``x``.  The real and imaginary parts
        are formed apart, in real arithmetic.

        Returns the complex product.  With ``out``, a pair of real arrays
        shaped like ``x``, the real and imaginary parts of the product are
        added to ``out[0]`` and ``out[1]`` in place instead and ``out`` is
        returned: a caller that wants a difference needs no second pass,
        and no complex array is formed.
        """
        d = self.dim
        x = np.asarray(x)
        if x.shape[:1] != (2 * d,) or np.iscomplexobj(x):
            raise ValueError(f"expected a real array of {2 * d} rows, got {x.dtype} {x.shape}")
        re, im = (np.zeros(x.shape), np.zeros(x.shape)) if out is None else out
        for i, row in enumerate(self.diags):
            for j, block in enumerate(row):
                for k, v in block.items():
                    lo, hi = max(0, -k), d - max(0, k)  # rows n with n + k in range
                    xs = x[j * d + lo + k : j * d + hi + k]
                    v = v.reshape(v.shape + (1,) * (x.ndim - 1))
                    re[i * d + lo : i * d + hi] += v.real * xs
                    im[i * d + lo : i * d + hi] += v.imag * xs
        return re + 1j * im if out is None else out

    @classmethod
    def from_full(cls, m: np.ndarray) -> "BlockOperator":
        n = m.shape[0]
        if m.shape != (n, n) or n % 2:
            raise ValueError("expected an even-dimensional square matrix")
        d = n // 2
        return cls(((m[:d, :d], m[:d, d:]), (m[d:, :d], m[d:, d:])))

    def _check_dim(self, other: "BlockOperator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def dagger(self) -> "BlockOperator":
        b = self.diags
        adj = [[{-k: v.conj() for k, v in b[j][i].items()} for j in range(2)] for i in range(2)]
        return BlockOperator.from_diagonals(self.dim, adj)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        self._check_dim(other)
        d, a, b = self.dim, self.diags, other.diags
        out = [[{}, {}], [{}, {}]]
        for i in range(2):
            for j in range(2):
                for m in range(2):
                    _block_product(d, a[i][m], b[m][j], out[i][j])
        return BlockOperator.from_diagonals(d, out)

    def _combine(self, other: "BlockOperator", ufunc) -> "BlockOperator":
        self._check_dim(other)
        out = [[dict(x) for x in row] for row in self.diags]
        for row_out, row_b in zip(out, other.diags):
            for block, y in zip(row_out, row_b):
                for k, v in y.items():
                    block[k] = ufunc(block.get(k, 0.0), v)
        return BlockOperator.from_diagonals(self.dim, out)

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self._combine(other, np.subtract)

    def __mul__(self, c):
        if isinstance(c, (int, float, complex)):
            return BlockOperator.from_diagonals(self.dim, [[{k: v * c for k, v in b.items()} for b in row] for row in self.diags])
        return NotImplemented

    __rmul__ = __mul__

    def max_abs(self) -> float:
        """Largest entry modulus."""
        return float(np.max([np.max(np.abs(v)) for row in self.diags for b in row for v in b.values()], initial=0.0))


def block_diag(b00, b11) -> BlockOperator:
    """diag(B00, B11) from two level vectors (the main diagonals) or from
    two dense d x d blocks."""
    b00, b11 = np.asarray(b00, dtype=complex), np.asarray(b11, dtype=complex)
    if b00.ndim == 2:
        z = np.zeros_like(b00)
        return BlockOperator(((b00, z), (z, b11)))
    return BlockOperator.from_diagonals(b00.shape[0], (({0: b00}, {}), ({}, {0: b11})))


def block_residual(a: BlockOperator, b: BlockOperator) -> float:
    return (a - b).max_abs()


def radius_diag(d: int, theta: float, shift: int = 0) -> np.ndarray:
    """Level values of R(N + shift) = sqrt(N + shift + theta^2), as
    hypot(sqrt(N + shift), theta): theta^2 is never formed, and the
    n + shift = 0 entry is |theta| exactly."""
    return np.hypot(np.sqrt(np.arange(d, dtype=float) + shift), theta)


def _row_levels(d: int):
    """Level numbers m of the two block rows, the eigenvalues of a a+
    (n + 1 below the top level, 0 at it) and of a+ a (n)."""
    n = np.arange(d, dtype=float)
    return np.append(n[1:], 0.0), n


def _radius_sum(m: np.ndarray, theta: float, sign: float):
    """R = sqrt(m + theta^2) and R + sign * theta for level numbers m.

    Where sign * theta < 0 the sum is evaluated as m / (R - sign * theta),
    so it vanishes only at m = 0 and keeps full relative accuracy for
    every |theta|.
    """
    r = np.hypot(np.sqrt(m), theta)
    st = sign * theta
    return r, (r + st if st >= 0.0 else m / (r - st))


def row_radii(p: JCParams):
    """Level values of the radius sqrt(H^2) in each block row:
    sqrt(a a+ + theta^2), which is R(N+1) below the top level and |theta|
    at it, and sqrt(a+ a + theta^2) = R(N)."""
    return tuple(np.hypot(np.sqrt(m), p.theta) for m in _row_levels(p.dim))


def chart_denominators(p: JCParams, chart: ChartTag):
    """Per block row of a chart, the level values of the radius R of
    :func:`row_radii`, of q = R + s theta and of the denominator 2 R q,
    with s = +1 for chart I and -1 for chart II.

    The denominator is formed as 2 (R q).  Where q cancels, R q =
    m R / (R + |theta|) <= m for level number m, so only the other side
    can exceed the double range, and there it reads inf (never singular).
    The chart normalizer is 1/(sqrt(2R) sqrt(q)), finite either way.
    """
    s = 1.0 if chart is ChartTag.I else -1.0
    rows = []
    for m in _row_levels(p.dim):
        r, q = _radius_sum(m, p.theta, s)
        with np.errstate(over="ignore"):
            rows.append((r, q, 2.0 * (r * q)))
    return rows


def _ladder(d: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(d-1): the superdiagonal of a and the subdiagonal
    of its exact adjoint a+, which annihilates the top level."""
    return np.sqrt(np.arange(1.0, d))


def _sectors(d: int, upper, lowering, raising, lower) -> BlockOperator:
    """[[diag(upper), diag(lowering, 1)], [diag(raising, -1), diag(lower)]]:
    the layout of every operator that pairs |e,n> with |g,n+1>."""
    return BlockOperator.from_diagonals(d, (({0: upper}, {1: lowering}), ({-1: raising}, {0: lower})))


# ---------------------------------------------------------------------------
# Hamiltonians


def hamiltonian(p: JCParams) -> BlockOperator:
    """The scaled interaction Hamiltonian [[theta, a], [a+, -theta]]."""
    d = p.dim
    sq = _ladder(d)
    return _sectors(d, np.full(d, p.theta), sq, sq, np.full(d, -p.theta))


def full_hamiltonian(p: JCParams):
    """Split the full model Hamiltonian into commuting parts (H1, H2).

    H1 = omega (1 (x) N) + (omega/2) (sigma3 (x) 1) is block diagonal;
    H2 = g * [[theta, a], [a+, -theta]].  Requires omega, delta, g.
    """
    return block_diag(*_free_levels(p)), p.g * hamiltonian(p)


def _free_levels(p: JCParams):
    """Level energies of H1 in the excited and the ground block."""
    if p.omega is None or p.delta is None:
        raise ValueError("the full model needs omega and delta")
    n = np.arange(p.dim, dtype=float)
    return p.omega * n + p.omega / 2.0, p.omega * n - p.omega / 2.0


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
    left = BlockOperator.from_diagonals(d, (({0: np.ones(d)}, {}), ({}, {-1: np.ones(d - 1)})))
    sq, th = _ladder(d + 1), np.full(d, p.theta)
    mid = BlockOperator.from_diagonals(d, (({0: th}, {0: sq}), ({0: sq}, {0: -th})))
    return left, mid, left.dagger()


def middle_unitary(p: JCParams, chart: ChartTag) -> BlockOperator:
    """Diagonalizing unitary of the middle matrix M.

    Both charts use R(N+1) throughout, so for every theta the denominators
    2 R(n+1) (R(n+1) +- theta) are at least n + 1 and both charts exist.
    M = U diag(R(N+1), -R(N+1)) U+ exactly on the full space (everything
    is diagonal per level, and M keeps sqrt(N+1) up to the top level, so
    its radius is the untruncated R(N+1)).
    """
    d = p.dim
    sq = _ladder(d + 1)
    r1, q1 = _radius_sum(np.arange(1.0, d + 1), p.theta, 1.0 if chart is ChartTag.I else -1.0)
    f = 1.0 / (np.sqrt(2.0 * r1) * np.sqrt(q1))
    if chart is ChartTag.I:
        u = ((f * q1, -f * sq), (f * sq, f * q1))
    else:
        u = ((f * sq, -f * q1), (f * q1, f * sq))
    return BlockOperator.from_diagonals(d, tuple(tuple({0: v} for v in row) for row in u))


# ---------------------------------------------------------------------------
# Singular sector analysis


@dataclass(frozen=True)
class SectorStatus:
    """One (chart, block row, level) denominator 2 R (R + s theta) of
    :func:`chart_denominators` with its verdict.

    The row 1 entry of the top level, 2|theta|(|theta| + s theta), belongs
    to the one-level truncation sector |e,d-1> and has the status
    ``truncation``: it always equals the ground entry of row 2, so it never
    decides whether a chart exists, and it is never ``singular``.
    """

    chart: ChartTag
    row: int
    level: int
    denominator: float
    status: str  # "regular" | "ill_conditioned" | "singular" | "truncation"

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
        return [{**asdict(e), "chart": e.chart.value} for e in self.entries]


class SingularSectorError(Exception):
    """A chart operator was requested for a theta whose denominator chain
    vanishes somewhere (the quantum Dirac string)."""

    def __init__(self, chart: ChartTag, sectors):
        self.chart = chart
        self.sectors = tuple(sectors)
        where = ", ".join(f"(row {s.row}, level {s.level})" for s in self.sectors) or "?"
        super().__init__(f"chart {chart.value} singular at {where}")


def singular_sectors(p: JCParams, tol: Tolerances = DEFAULT) -> SectorReport:
    """Classify every chart denominator per block row and level.

    For theta > 0 the singular set is exactly {chart II, row 2, level 0};
    for theta < 0 it is {chart I, row 2, level 0}; at resonance both
    charts are singular at the ground level.  The row 1 entry of the top
    level is reported as ``truncation`` (see :class:`SectorStatus`).
    """
    d = p.dim
    entries = []
    for chart in (ChartTag.I, ChartTag.II):
        for row, (_, _, den) in enumerate(chart_denominators(p, chart), start=1):
            for level, v in enumerate(den.tolist()):
                status = (
                    "truncation" if (row, level) == (1, d - 1)
                    else "singular" if v <= tol.singular_threshold
                    else "ill_conditioned" if v < tol.ill_conditioned
                    else "regular"
                )
                entries.append(SectorStatus(chart, row, level, v, status))
    return SectorReport(p.theta, d, tuple(entries))


# ---------------------------------------------------------------------------
# Chart operators


def admissible_denominators(p: JCParams, chart: ChartTag, tol: Tolerances = DEFAULT):
    """The chart's :func:`chart_denominators`; raises
    :class:`SingularSectorError` naming every singular entry (the
    top-level entry of row 1 left out: it equals the ground entry of
    row 2)."""
    rows = chart_denominators(p, chart)
    bad = [
        SectorStatus(chart, row, int(n), float(den[n]), "singular")
        for row, den in ((1, rows[0][2][:-1]), (2, rows[1][2]))
        for n in np.flatnonzero(den <= tol.singular_threshold)
    ]
    if bad:
        raise SingularSectorError(chart, bad)
    return rows


def _chart_pieces(p: JCParams, chart: ChartTag, tol: Tolerances):
    """Normalizer level values (row1, row2) and the unnormalized chart
    matrix; raises on vanishing denominators."""
    (r1, q1, _), (r2, q2, _) = admissible_denominators(p, chart, tol)
    d = p.dim
    sq = _ladder(d)
    if chart is ChartTag.I:
        core = _sectors(d, q1, -sq, sq, q2)
    else:
        # [[a, -(R1 - theta)], [R(N) - theta, a+]]
        core = BlockOperator.from_diagonals(d, (({1: sq}, {0: -q1}), ({0: q2}, {-1: sq})))
    return 1.0 / (np.sqrt(2.0 * r1) * np.sqrt(q1)), 1.0 / (np.sqrt(2.0 * r2) * np.sqrt(q2)), core


def _normalize(chart: ChartTag, normalizer: str, f1, f2, core) -> BlockOperator:
    if normalizer == "left":
        return block_diag(f1, f2) @ core
    if chart is ChartTag.I:
        return core @ block_diag(f1, f2)
    return core @ block_diag(f2, f1)


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
    return _normalize(chart, normalizer, *_chart_pieces(p, chart, tol))


def chart_diagonal(p: JCParams, chart: ChartTag) -> BlockOperator:
    """Eigenvalue factor: diag(R1, -R(N)) for chart I and diag(R(N), -R1)
    for chart II, R1 the row 1 radius of :func:`row_radii` (R(N+1) below
    the top level, |theta| at it).  Together the two carry the truncated
    spectrum {+-R(n) : n = 0 .. d-1} exactly, +-theta included."""
    r1, r2 = row_radii(p)
    if chart is ChartTag.I:
        return block_diag(r1, -r2)
    return block_diag(r2, -r1)


def chart_decompose(p: JCParams, chart: ChartTag, tol: Tolerances = DEFAULT) -> ChartDecomposition:
    """Chart unitary V and diagonal factor D with H = V D V+ exactly on the
    whole truncated space, the one-level sectors |g,0> and |e,d-1>
    included; the conditioning is the largest normalizer."""
    f1, f2, core = _chart_pieces(p, chart, tol)
    cond = float(max(np.max(f1), np.max(f2)))
    return ChartDecomposition(_normalize(chart, "left", f1, f2, core), chart_diagonal(p, chart), chart, cond)


def transition_operator(d: int) -> BlockOperator:
    """diag((1/sqrt(N+1)) a, a+ (1/sqrt(N+1))) -- the exact unit shifts.

    A partial isometry: Phi+ Phi = diag(1 - |0><0|, 1 - |d-1><d-1|)
    exactly, the ground deficiency being the string's footprint and the
    top one the truncation's.
    The kernel-convention forms a (1/sqrt(N)) and (1/sqrt(N)) a+ agree
    exactly (see :func:`hjc.fock.pseudo_diag_inverse`).
    """
    if d < 2:
        raise ValueError(f"Fock truncation needs d >= 2, got {d}")
    return BlockOperator.from_diagonals(d, (({1: np.ones(d - 1)}, {}), ({}, {-1: np.ones(d - 1)})))


def projector(p: JCParams, normalizer: str = "left", tol: Tolerances = DEFAULT) -> BlockOperator:
    """Globally defined spectral projector

        diag(1/2R1, 1/2R(N)) [[R1 + theta, a], [a+, R(N) - theta]]

    with the row radii R1, R(N) of :func:`row_radii`, so its top-level
    entry is [theta > 0].  Defined for every theta: a factor 1/2R with
    2R at most ``tol.singular_threshold`` (at resonance, the ground and
    the top level) is taken with the kernel convention (the entries it
    scales vanish anyway).  Agrees with V diag(1, 0) V+ for whichever
    charts exist.
    """
    if normalizer not in ("left", "right"):
        raise ValueError("normalizer must be 'left' or 'right'")
    d, th = p.dim, p.theta
    m1, m2 = _row_levels(d)
    (r1, q1), (r2, q2) = _radius_sum(m1, th, 1.0), _radius_sum(m2, th, -1.0)
    p1, p2 = (np.divide(0.5, r, out=np.zeros(d), where=r > 0.5 * tol.singular_threshold) for r in (r1, r2))
    sq = _ladder(d)
    core = _sectors(d, q1, sq, sq, q2)
    norm = block_diag(p1, p2)
    return norm @ core if normalizer == "left" else core @ norm


def spectral_decomposition(p: JCParams, tol: Tolerances = DEFAULT):
    """Operator-eigenvalue split (Lambda P, -Lambda (1 - P)) with
    Lambda = diag(R1, R(N)), the row radii of :func:`row_radii`; the parts
    sum back to the Hamiltonian and Lambda commutes with P."""
    lam = block_diag(*row_radii(p))
    proj = projector(p, tol=tol)
    return lam @ proj, lam @ (proj - BlockOperator.identity(p.dim))


# ---------------------------------------------------------------------------
# Propagators


def propagator(p: JCParams, t: float) -> BlockOperator:
    """Closed form of exp(-i g t H) built from level functions:

        [[cos(tg R1) - i theta sin(tg R1)/R1,   -i sin(tg R1)/R1 a],
         [-i sin(tg R(N))/R(N) a+,   cos(tg R(N)) + i theta sin(tg R(N))/R(N)]]

    with the row radii R1, R(N) of :func:`row_radii`, so the top-level
    entry is exp(-i g t theta).  Where a radius vanishes (at resonance)
    the ratio sin(tg R)/R is taken in the limit, tg.
    """
    tg = p.g * t
    r1, r0 = row_radii(p)
    s1, s0 = (np.divide(np.sin(tg * r), r, out=np.full_like(r, tg), where=r != 0.0) for r in (r1, r0))
    sq = _ladder(p.dim)
    return _sectors(
        p.dim,
        np.cos(tg * r1) - 1j * p.theta * s1,
        -1j * (s1[:-1] * sq),
        -1j * (s0[1:] * sq),
        np.cos(tg * r0) + 1j * p.theta * s0,
    )


def full_propagator(p: JCParams, t: float) -> BlockOperator:
    """exp(-i t H_full) as the product of the diagonal free part and the
    closed-form interaction propagator (the two parts commute)."""
    upper, lower = _free_levels(p)
    return block_diag(np.exp(-1j * t * upper), np.exp(-1j * t * lower)) @ propagator(p, t)
