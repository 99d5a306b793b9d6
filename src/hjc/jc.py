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

Coupling: H = [[theta, W+], [W, -theta]] with the coupling W = a+ (and
W = sqrt(N+1) for the two-step middle matrix), stated once, in
:func:`_jc` (:func:`_middle`).  H^2 = theta^2 + diag(W+ W, W W+) is
diagonal, so with the row radii R = sqrt(H^2) and sigma_z = diag(1, -1)
every closed form is one formula over (theta, W): the projector
(1 + R^-1 H)/2, the propagator cos(gtR) - i sin(gtR) R^-1 H and the chart
unitary N (R + s H sigma_z)/2, s = +1 for chart I and -1 for chart II, N
twice the normalizer diag(2 R (R + s theta))^-1/2 (:func:`chart_unitary`).

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
never decides which chart exists.  R = hypot(sqrt(m), theta), m the level
number, and the half sums (R +- theta)/2 are formed once per block row,
by :func:`_radius`: from halves, and as m / (2 (R -+ theta)) where the
sum would cancel, so no other level turns singular and nothing overflows
up to the largest |theta|.

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
real dense (2d, m) array in O(d m).  An operator is built from its level
vectors alone, each float64 or complex128 by its type, never its values:
its ``dtype`` is float64 when every vector is real (the Hamiltonians, the
projector, the chart unitaries and diagonals at real theta and g) and
complex128 otherwise, and :meth:`BlockOperator.full`, the only dense
export, and :meth:`BlockOperator.apply` return it.  Products, sums and
adjoints build their result from vectors they made themselves, without
checking them again.

Stacks: a level vector may carry leading batch axes, shape
``batch + (d - |k|,)``, so one operator holds a stack of operators (the
batch shapes of its vectors broadcast against each other).  Products,
sums, adjoints, :meth:`BlockOperator.apply` and
:meth:`BlockOperator.max_abs` act slice by slice, with the same arithmetic
as on each slice alone; :func:`propagator` over an array of times returns
such a stack.  The dense export is unbatched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .berry import ChartTag
from .config import ILL_CONDITIONED, SINGULAR_THRESHOLD

__all__ = [
    "JCParams",
    "BlockOperator",
    "SECTOR_STATUSES",
    "SectorReport",
    "SingularSectorError",
    "ChartDecomposition",
    "block_diag",
    "block_residual",
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
    "eigenbasis_residuals",
]

# Elements of the (2, rows, 2d) buffer of :func:`eigenbasis_residuals`: 512
# KB of doubles, so the buffer and the rows of V it reads stay in a core's
# L2 cache across the steps.  Smaller chunks pay more per-call overhead;
# larger ones spill (on a 2 MB L2, 10 and 50 steps, d = 48 to 320: 2**16
# was fastest or within 5% of it, 2**13 up to 80% slower and 2**18 up to
# 40% slower at d = 300).
RESIDUAL_CHUNK = 2**16


@dataclass(frozen=True)
class JCParams:
    """Model parameters: the detuning ratio ``theta`` = (Delta - omega)/2g,
    the Fock truncation ``dim`` and the coupling ``g``.  The free frequency
    omega enters only the full (unscaled) model, as an argument of
    :func:`full_hamiltonian` and :func:`full_propagator`.
    """

    theta: float
    dim: int
    g: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"need dim >= 2, got {self.dim}")


def _block_product(d: int, batch: tuple, dtype, x: dict, y: dict, out: dict) -> None:
    """Accumulate the product of blocks ``x`` and ``y`` into ``out``, whose
    level vectors have the batch shape ``batch`` and the dtype ``dtype``.

    Offsets add: row i of the product's diagonal p + q is row i of x's
    diagonal p times row i + p of y's diagonal q.  Both factors are
    broadcast to ``batch`` first: numpy's complex product of arrays of
    unequal rank may take a loop that rounds differently (without FMA), and
    a slice of a stack must equal the product of the slices bit for bit.
    """
    if batch:
        x, y = ({k: v if v.ndim > len(batch) else np.broadcast_to(v, batch + v.shape) for k, v in z.items()} for z in (x, y))
    # Row i is entry i - sa of x's diagonal p and entry i - sc of the
    # product's diagonal k; row i + p is entry i - sb of y's diagonal q.  The
    # rows lo .. hi - 1 have i, i + p and i + p + q in range (conditional
    # expressions: this loop runs for every pair of diagonals of a product).
    for p, a in x.items():
        sa = -p if p < 0 else 0
        for q, b in y.items():
            k = p + q
            sc = -k if k < 0 else 0
            lo = sa if sa > sc else sc
            hi = d - (p if p > k else k) if p > 0 or k > 0 else d
            if lo < hi:
                c = out.get(k)
                if c is None:
                    c = out[k] = np.zeros(batch + (d - abs(k),), dtype=dtype)
                sb = (-q if q < 0 else 0) - p
                c[..., lo - sc : hi - sc] += a[..., lo - sa : hi - sa] * b[..., lo - sb : hi - sb]


def _stack_shape(*shapes) -> tuple:
    """The broadcast of stack shapes (the common case, all equal, without
    numpy's general rule)."""
    first = shapes[0]
    return first if all(s == first for s in shapes) else np.broadcast_shapes(*shapes)


class BlockOperator:
    """2x2 block operator on C^2 (x) F_d, each block a sum of shifted
    level diagonals, or a stack of such operators (see the module
    docstring).

    ``diags`` is a 2x2 layout of {offset k: level vector} maps; a vector of
    shape ``batch + (d - |k|,)`` makes a stack.  The stack shape
    ``batch`` is broadcast with the vectors' own, so an operator with no
    stored diagonal keeps it too; () is a single operator.  ``dtype`` is
    the vectors' common type (float64 for none).
    """

    __slots__ = ("dim", "diags", "batch", "dtype")

    def __init__(self, d: int, diags, batch: tuple = ()):
        self.dim = d
        level = lambda v: np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
        self.diags = tuple(tuple({k: level(v) for k, v in b.items()} for b in row) for row in diags)
        shapes, self.dtype = {tuple(batch)}, np.dtype(float)
        for row in self.diags:
            for b in row:
                for k, v in b.items():
                    s = v.shape
                    if not s or s[-1] != d - abs(k):
                        raise ValueError("the level vector on offset k needs length d - |k|")
                    if len(s) > 1:
                        shapes.add(s[:-1])
                    self.dtype = np.promote_types(self.dtype, v.dtype)
        self.batch = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)

    @classmethod
    def _of(cls, d: int, diags, batch: tuple, dtype) -> "BlockOperator":
        """An operator from level vectors that operators made themselves, of
        the right lengths, of batch shapes that broadcast to ``batch`` and of
        the common type ``dtype``, the :func:`numpy.result_type` of the
        operands' (and a scalar's) types: nothing is converted or checked."""
        op = object.__new__(cls)
        op.dim, op.diags, op.batch, op.dtype = d, diags, batch, dtype
        return op

    @classmethod
    def identity(cls, d: int) -> "BlockOperator":
        return block_diag(np.ones(d), np.ones(d))

    def full(self) -> np.ndarray:
        """Flatten to a 2d x 2d matrix of the operator's dtype, atom index
        major (a single operator only)."""
        if self.batch:
            raise ValueError(f"a stack of shape {self.batch} has no single dense form")
        d = self.dim
        out = np.zeros((2 * d, 2 * d), dtype=self.dtype)
        flat = out.reshape(-1)
        for i, row in enumerate(self.diags):
            for j, block in enumerate(row):
                for k, v in block.items():
                    start = (i * d + max(0, -k)) * 2 * d + j * d + max(0, k)
                    flat[start : start + v.size * (2 * d + 1) : 2 * d + 1] = v
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product with a real dense array ``x`` of 2d rows (a vector or
        a (2d, m) matrix) in O(d m), shaped ``batch + x.shape`` and of the
        operator's dtype: every stored diagonal scales a shifted slice of
        the rows of ``x``."""
        d = self.dim
        x = np.asarray(x)
        if x.shape[:1] != (2 * d,) or np.iscomplexobj(x):
            raise ValueError(f"expected a real array of {2 * d} rows, got {x.dtype} {x.shape}")
        out = np.zeros(self.batch + x.shape, dtype=self.dtype)
        stack, tail = (slice(None),) * len(self.batch), (1,) * (x.ndim - 1)
        for i, row in enumerate(self.diags):
            for j, block in enumerate(row):
                for k, v in block.items():
                    lo, hi = max(0, -k), d - max(0, k)  # rows n with n + k in range
                    xs = x[j * d + lo + k : j * d + hi + k]
                    out[stack + (slice(i * d + lo, i * d + hi),)] += v.reshape(v.shape + tail) * xs
        return out

    def _check_dim(self, other: "BlockOperator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def dagger(self) -> "BlockOperator":
        b = self.diags
        adj = tuple(tuple({-k: v.conj() for k, v in b[j][i].items()} for j in range(2)) for i in range(2))
        return BlockOperator._of(self.dim, adj, self.batch, self.dtype)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        self._check_dim(other)
        d, a, b = self.dim, self.diags, other.diags
        batch, dtype = _stack_shape(self.batch, other.batch), np.result_type(self.dtype, other.dtype)
        out = (({}, {}), ({}, {}))
        for i in range(2):
            for j in range(2):
                for m in range(2):
                    _block_product(d, batch, dtype, a[i][m], b[m][j], out[i][j])
        return BlockOperator._of(d, out, batch, dtype)

    def _combine(self, other: "BlockOperator", ufunc) -> "BlockOperator":
        self._check_dim(other)
        out = tuple(tuple(dict(x) for x in row) for row in self.diags)
        for row_out, row_b in zip(out, other.diags):
            for block, y in zip(row_out, row_b):
                for k, v in y.items():
                    block[k] = ufunc(block.get(k, 0.0), v)
        return BlockOperator._of(self.dim, out, _stack_shape(self.batch, other.batch), np.result_type(self.dtype, other.dtype))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self._combine(other, np.subtract)

    def __mul__(self, c):
        if isinstance(c, (int, float, complex)):
            scaled = tuple(tuple({k: v * c for k, v in b.items()} for b in row) for row in self.diags)
            return BlockOperator._of(self.dim, scaled, self.batch, np.result_type(self.dtype, type(c)))
        return NotImplemented

    __rmul__ = __mul__

    def max_abs(self):
        """Largest entry modulus: a float for a single operator, an array
        of shape ``batch`` (one value per slice) for a stack."""
        out = np.zeros(self.batch)
        for row in self.diags:
            for b in row:
                for v in b.values():
                    np.maximum(out, np.abs(v).max(axis=-1, initial=0.0), out=out)
        return float(out) if not self.batch else out


def block_diag(b00, b11) -> BlockOperator:
    """diag(B00, B11) from the level vectors of their main diagonals."""
    return BlockOperator(np.shape(b00)[-1], (({0: b00}, {}), ({}, {0: b11})))


def block_residual(a: BlockOperator, b: BlockOperator):
    """max |a - b| over the entries, as ``(a - b).max_abs()`` gives it (one
    value per slice for stacks), taken offset by offset over the union of
    stored diagonals without forming the difference operator."""
    a._check_dim(b)
    out = np.zeros(_stack_shape(a.batch, b.batch))
    for row_a, row_b in zip(a.diags, b.diags):
        for x, y in zip(row_a, row_b):
            for k in x.keys() | y.keys():
                v = x[k] - y[k] if k in x and k in y else x.get(k, y.get(k))
                np.maximum(out, np.abs(v).max(axis=-1, initial=0.0), out=out)
    return float(out) if not out.shape else out


# ---------------------------------------------------------------------------
# The coupling and the row radii


@dataclass(frozen=True)
class _Coupling:
    """The coupling W of H = [[theta, W+], [W, -theta]] on C^2 (x) F_d: a
    real, non-negative diagonal on the offset ``k`` of the lower-left block
    (W+ holds it on offset -k of the upper-right one).  ``levels(0)`` and
    ``levels(1)`` are the diagonals of W+ W and W W+, made afresh on each
    call: :func:`_rows` evaluates the radius of the upper and the lower block
    row on them (H^2 = theta^2 + diag(W+ W, W W+)), and W's level vector
    ``w`` is the square root of W W+ on W's rows."""

    dim: int
    k: int
    levels: Callable[[int], np.ndarray]

    @property
    def w(self) -> np.ndarray:
        return np.sqrt(self.levels(1)[max(0, -self.k) : self.dim - max(0, self.k)])


def _jc(d: int) -> _Coupling:
    """The Jaynes-Cummings coupling W = a+ on offset -1: W+ W = a a+ = N + 1,
    0 at the top level, which a+ annihilates, and W W+ = a+ a = N."""
    return _Coupling(d, -1, lambda row: np.arange(d, dtype=float) if row else np.append(np.arange(1.0, d), 0.0))


def _middle(d: int) -> _Coupling:
    """The coupling W = sqrt(N + 1) of the two-step middle matrix M, on
    offset 0: W+ W = W W+ = N + 1 up to the top level."""
    return _Coupling(d, 0, lambda row: np.arange(1.0, d + 1))


def _radius(m: np.ndarray, theta: float, *signs: float):
    """R = hypot(sqrt(m), theta) on the level numbers m of one block row
    and, per sign s, the half sum (R + s theta)/2: the one place either is
    formed.  The half sum is h0 = (R + |theta|)/2, from the halves above
    |theta| = 2**1022 so that it never overflows, where s theta >= 0, else
    (m/4) / h0 = m / (2 (R + |theta|)), formed in place and zero only at
    m = 0: exactly half the rounded sum or quotient where it is normal."""
    r = np.hypot(np.sqrt(m), theta)
    a = abs(theta)
    h0 = 0.5 * r + 0.5 * a if a > 2.0**1022 else 0.5 * (r + a)
    return (r, *(h0 if s * theta >= 0.0 else np.divide(q := 0.25 * m, h0, out=q) for s in signs))


def _rows(p: JCParams, *signs: float, coupling: Optional[_Coupling] = None):
    """:func:`_radius` of each block row, on the levels of W+ W and W W+ of
    ``coupling`` (the Jaynes-Cummings one of :func:`_jc` by default)."""
    c = _jc(p.dim) if coupling is None else coupling
    for row in range(2):
        yield _radius(c.levels(row), p.theta, *signs)


def _denominator(r: np.ndarray, h: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """2 R (R + s theta) as 2 (R (2h)), into ``out`` if given; inf beyond the double range."""
    with np.errstate(over="ignore"):
        return np.multiply(np.multiply(np.multiply(h, 2.0, out=out), r, out=out), 2.0, out=out)


def _normalizer(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Twice the chart normalizer 1/(sqrt(2R) sqrt(2h)) of radius R and half
    sum h, formed as 0.5/(sqrt(R/2) sqrt(h/2)): the same value (the halvings
    are exact) without forming 2R or 2h, which can exceed the double range."""
    return 0.5 / (np.sqrt(0.5 * r) * np.sqrt(0.5 * h))


def row_radii(p: JCParams):
    """Level values of the radius sqrt(H^2) in each block row:
    sqrt(a a+ + theta^2), which is R(N+1) below the top level and |theta|
    at it, and sqrt(a+ a + theta^2) = R(N)."""
    return tuple(r for r, in _rows(p))


def chart_denominators(p: JCParams, chart: ChartTag):
    """Per block row of a chart, the level values of the radius R, of the
    half sum h = (R + s theta)/2 and of the denominator 2 R (R + s theta),
    s = +1 for chart I and -1 for chart II.  Where the sum cancels,
    R (2h) = m R / (R + |theta|) <= m, so only the other side can exceed the
    double range, and there the denominator reads inf (never singular)."""
    return [(r, h, _denominator(r, h)) for r, h in _rows(p, 1.0 if chart is ChartTag.I else -1.0)]


# ---------------------------------------------------------------------------
# Closed forms over the coupling


def _form(c: _Coupling, upper, lower, up, lo) -> BlockOperator:
    """[[diag(upper), up W+], [lo W, diag(lower)]] for the coupling ``c``:
    ``up`` and ``lo`` are scalars or the level values of the block rows
    they scale (batch axes leading)."""
    d, k, w = c.dim, c.k, c.w

    def on(v, k):  # v on the rows of the diagonal at offset k
        return v[..., max(0, -k) : d - max(0, k)] if np.ndim(v) else v

    return BlockOperator(d, (({0: upper}, {-k: on(up, -k) * w}), ({k: on(lo, k) * w}, {0: lower})))


def _chart(c: _Coupling, rows, chart: ChartTag) -> BlockOperator:
    """The chart unitary N (R + s H sigma_z) / 2 of the coupling ``c``, s =
    +1 for chart I and -1 for chart II, from the radius R and the half sum
    h = (R + s theta)/2 that lead each block row of ``rows``: the core
    (R + s H sigma_z)/2 = [[h1, -s W+/2], [s W/2, h2]] and N, twice the
    normalizer 1/(sqrt(2R) sqrt(2h)) of :func:`_normalizer`, so that no
    entry exceeds the double range (the products are the entries exactly).
    Chart II swaps its column blocks and negates the new second one, which
    keeps V_I Phi = V_II for the transition operator Phi."""
    (r1, h1, *_), (r2, h2, *_) = rows
    s = 1.0 if chart is ChartTag.I else -1.0
    core = _form(c, h1, h2, -0.5 * s, 0.5 * s)
    if chart is ChartTag.II:
        swapped = tuple((b, {k: -v for k, v in a.items()}) for a, b in core.diags)
        core = BlockOperator._of(c.dim, swapped, core.batch, core.dtype)
    return block_diag(_normalizer(r1, h1), _normalizer(r2, h2)) @ core


# ---------------------------------------------------------------------------
# Hamiltonians


def hamiltonian(p: JCParams) -> BlockOperator:
    """The scaled interaction Hamiltonian [[theta, W+], [W, -theta]] of the
    coupling W = a+, i.e. [[theta, a], [a+, -theta]]."""
    return _form(_jc(p.dim), np.full(p.dim, p.theta), np.full(p.dim, -p.theta), 1.0, 1.0)


def full_hamiltonian(p: JCParams, omega: float):
    """Split the full model Hamiltonian into commuting parts (H1, H2).

    H1 = omega (1 (x) N) + (omega/2) (sigma3 (x) 1) is block diagonal;
    H2 = g * [[theta, a], [a+, -theta]].
    """
    return block_diag(*_free_levels(p.dim, omega)), p.g * hamiltonian(p)


def _free_levels(d: int, omega: float):
    """Level energies of H1 in the excited and the ground block."""
    n = np.arange(d, dtype=float)
    return omega * n + omega / 2.0, omega * n - omega / 2.0


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
    left = BlockOperator(d, (({0: np.ones(d)}, {}), ({}, {-1: np.ones(d - 1)})))
    mid = _form(_middle(d), np.full(d, p.theta), np.full(d, -p.theta), 1.0, 1.0)
    return left, mid, left.dagger()


def middle_unitary(p: JCParams, chart: ChartTag) -> BlockOperator:
    """Diagonalizing unitary of the middle matrix M: the chart unitary of
    its coupling W = sqrt(N+1) (see :func:`_chart`).

    Both charts use R(N+1) throughout, so for every theta the denominators
    2 R(n+1) (R(n+1) +- theta) are at least n + 1 and both charts exist.
    M = U diag(R(N+1), -R(N+1)) U+ exactly on the full space (everything
    is diagonal per level, and M keeps sqrt(N+1) up to the top level, so
    its radius is the untruncated R(N+1)).
    """
    c = _middle(p.dim)
    return _chart(c, _rows(p, 1.0 if chart is ChartTag.I else -1.0, coupling=c), chart)


# ---------------------------------------------------------------------------
# Singular sector analysis


# The ``status`` values of a :class:`SectorReport`, indexed by status code
SECTOR_STATUSES = ("regular", "ill_conditioned", "singular", "truncation")


def _singular(den: np.ndarray) -> np.ndarray:
    """The singular rule on denominators of shape (..., 2 rows, d levels): a
    denominator at most :data:`hjc.config.SINGULAR_THRESHOLD` is singular,
    except that of the top level of row 1.  That one belongs to the
    one-level truncation sector |e,d-1> and always equals the ground entry
    of row 2, so it never decides whether a chart exists."""
    mask = den <= SINGULAR_THRESHOLD
    mask[..., 0, -1] = False
    return mask


@dataclass(frozen=True)
class SectorReport:
    """Every chart denominator 2 R (R + s theta) of
    :func:`chart_denominators` and its status code, an index into
    :data:`SECTOR_STATUSES`, as arrays of shape (chart, block row, level);
    :meth:`take` gives the entries at a flat index of them as columns."""

    denominators: np.ndarray
    codes: np.ndarray

    def take(self, index) -> dict:
        """The columns ``chart`` ("I" or "II"), ``row``, ``level``,
        ``denominator`` and ``status`` of the entries at a flat ``index``."""
        chart, row, level = np.unravel_index(index, self.codes.shape)
        return {
            "chart": np.array([c.value for c in ChartTag], dtype=object)[chart],
            "row": row + 1,
            "level": level,
            "denominator": self.denominators.reshape(-1)[index],
            "status": np.array(SECTOR_STATUSES, dtype=object)[self.codes.reshape(-1)[index]],
        }


class SingularSectorError(Exception):
    """A chart operator was requested for a theta whose denominator chain
    vanishes somewhere (the quantum Dirac string); ``sectors`` holds the
    (row, level) pairs of the singular denominators, ``levels`` their
    sorted distinct levels."""

    def __init__(self, chart: ChartTag, sectors):
        self.chart = chart
        self.sectors = tuple(sectors)
        self.levels = sorted({level for _, level in self.sectors})
        where = ", ".join(f"(row {row}, level {level})" for row, level in self.sectors) or "?"
        super().__init__(f"chart {chart.value} singular at {where}")


def singular_sectors(p: JCParams) -> SectorReport:
    """Classify every chart denominator per block row and level.

    For theta > 0 the singular set is exactly {chart II, row 2, level 0};
    for theta < 0 it is {chart I, row 2, level 0}; at resonance both
    charts are singular at the ground level.  The row 1 entry of the top
    level has the status ``truncation`` (see :func:`_singular`); the others
    not singular are ``ill_conditioned`` below
    :data:`hjc.config.ILL_CONDITIONED` and ``regular`` otherwise.
    """
    den = np.empty((2, 2, p.dim))  # (chart, block row, level)
    rows = _rows(p, 1.0, -1.0)
    for row in range(2):
        r, h1, h2 = next(rows)
        _denominator(r, h1, out=den[0, row])
        _denominator(r, h2, out=den[1, row])
        del r, h1, h2  # the next row is evaluated without this one's vectors
    codes = (den < ILL_CONDITIONED).view(np.int8)  # 1 ill-conditioned, 0 regular
    codes[_singular(den)] = 2
    codes[:, 0, -1] = 3
    return SectorReport(den, codes)


# ---------------------------------------------------------------------------
# Chart operators


def admissible_denominators(p: JCParams, chart: ChartTag):
    """The chart's :func:`chart_denominators`; raises
    :class:`SingularSectorError` naming every singular entry."""
    rows = chart_denominators(p, chart)
    bad = _singular(np.array((rows[0][2], rows[1][2])))
    if bad.any():
        row, level = np.nonzero(bad)
        raise SingularSectorError(chart, zip((row + 1).tolist(), level.tolist()))
    return rows


def chart_unitary(p: JCParams, chart: ChartTag) -> BlockOperator:
    """Operator-valued chart unitary V = N (R + s H sigma_z)/2 of
    :func:`_chart`: the normalizer diag(1/(sqrt(2R) sqrt(2h))) of the row
    radii on the left of the unnormalized chart matrix, held at twice and
    half their values so that no entry exceeds the double range (the
    products are V's entries exactly).  The normalizer on the right (its
    two rows swapped for chart II) gives the same level values by the
    ordering identity (R(N) + theta)^-1 a+ = a+ (R(N+1) + theta)^-1, so
    only this form is built.  Raises :class:`SingularSectorError` for the theta sign whose
    ground-level denominator vanishes.
    """
    return _chart(_jc(p.dim), admissible_denominators(p, chart), chart)


def chart_diagonal(p: JCParams, chart: ChartTag) -> BlockOperator:
    """Eigenvalue factor: diag(R1, -R(N)) for chart I and diag(R(N), -R1)
    for chart II, R1 the row 1 radius of :func:`row_radii` (R(N+1) below
    the top level, |theta| at it).  Together the two carry the truncated
    spectrum {+-R(n) : n = 0 .. d-1} exactly, +-theta included."""
    r1, r2 = row_radii(p)
    return block_diag(r1, -r2) if chart is ChartTag.I else block_diag(r2, -r1)


@dataclass(frozen=True)
class ChartDecomposition:
    """Unitary and diagonal factor of a chart."""

    unitary: BlockOperator
    diagonal: BlockOperator


def chart_decompose(p: JCParams, chart: ChartTag) -> ChartDecomposition:
    """Chart unitary V and diagonal factor D with H = V D V+ exactly on the
    whole truncated space, the one-level sectors |g,0> and |e,d-1>
    included."""
    return ChartDecomposition(chart_unitary(p, chart), chart_diagonal(p, chart))


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
    return BlockOperator(d, (({1: np.ones(d - 1)}, {}), ({}, {-1: np.ones(d - 1)})))


def projector(p: JCParams) -> BlockOperator:
    """Globally defined spectral projector (1 + R^-1 H)/2,

        diag(1/2R1, 1/2R(N)) [[R1 + theta, a], [a+, R(N) - theta]]

    with the row radii R1, R(N) of :func:`row_radii`, so its top-level
    entry is [theta > 0].  Defined for every theta: a factor 1/2R with
    2R at most :data:`hjc.config.SINGULAR_THRESHOLD` (at resonance, the
    ground and the top level) is taken with the kernel convention (the
    entries it scales vanish anyway).  Agrees with V diag(1, 0) V+ for
    whichever charts exist.  It is Hermitian by construction, both
    off-diagonal blocks carrying sqrt(n)/2R(n) at level n from the same
    level values, and the form with diag(1/2R1, 1/2R(N)) on the right is
    the same operator, so only this form is built.
    """
    d = p.dim
    (r1, h1, _), (r2, _, h2) = _rows(p, 1.0, -1.0)  # (R1 + theta)/2 and (R(N) - theta)/2
    # 1/R on the halved core: the products are the entries exactly
    p1, p2 = (np.divide(1.0, r, out=np.zeros(d), where=r > 0.5 * SINGULAR_THRESHOLD) for r in (r1, r2))
    return block_diag(p1, p2) @ _form(_jc(d), h1, h2, 0.5, 0.5)


def spectral_decomposition(p: JCParams, proj: BlockOperator):
    """Operator-eigenvalue split (Lambda P, -Lambda (1 - P)) of P = ``proj``,
    the :func:`projector` of ``p``, with Lambda = diag(R1, R(N)), the row
    radii of :func:`row_radii`; the parts sum back to the Hamiltonian and
    Lambda commutes with P."""
    lam = block_diag(*row_radii(p))
    return lam @ proj, lam @ (proj - BlockOperator.identity(p.dim))


# ---------------------------------------------------------------------------
# Propagators


def propagator(p: JCParams, t) -> BlockOperator:
    """Closed form of exp(-i g t H) = cos(tg R) - i sin(tg R) R^-1 H built
    from level functions:

        [[cos(tg R1) - i theta sin(tg R1)/R1,   -i sin(tg R1)/R1 a],
         [-i sin(tg R(N))/R(N) a+,   cos(tg R(N)) + i theta sin(tg R(N))/R(N)]]

    with the row radii R1, R(N) of :func:`row_radii`, so the top-level
    entry is exp(-i g t theta).  Where a radius vanishes (at resonance)
    the ratio sin(tg R)/R is taken in the limit, tg.  A 1-D array of times
    gives the stack of their propagators, batch shape ``t.shape``.  A
    phase tg R beyond the double range has a NaN sine and cosine, and a tg
    beyond it an infinite limit, without a warning: its entries are NaN,
    and a check of them fails.
    """
    c = _jc(p.dim)
    r1, r0 = (r for r, in _rows(p, coupling=c))
    with np.errstate(over="ignore", invalid="ignore"):
        tg = p.g * np.asarray(t, dtype=float)[..., None]
        (c1, s1), (c0, s0) = ((np.cos(tg * r), np.sin(tg * r)) for r in (r1, r0))
        s1, s0 = (np.divide(s, r, out=tg * np.ones_like(r), where=r != 0.0) for s, r in ((s1, r1), (s0, r0)))
        return _form(c, c1 - 1j * p.theta * s1, c0 + 1j * p.theta * s0, -1j * s1, -1j * s0)


def full_propagator(p: JCParams, omega: float, t) -> BlockOperator:
    """exp(-i t H_full), H_full the :func:`full_hamiltonian` at free
    frequency ``omega``, as the product of the diagonal free part and the
    closed-form interaction propagator (the two parts commute); over an
    array of times, the stack as for :func:`propagator`.  A free phase
    t omega (n +- 1/2) beyond the double range is NaN, as there."""
    upper, lower = _free_levels(p.dim, omega)
    t = np.asarray(t, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        free = (({0: np.exp(-1j * t * upper)}, {}), ({}, {0: np.exp(-1j * t * lower)}))
    return BlockOperator(p.dim, free) @ propagator(p, t[..., 0])


def eigenbasis_residuals(u: BlockOperator, evals: np.ndarray, evecs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """For each time t of the 1-D array ``ts``, the largest row 2-norm of
    U(t) V - V exp(-itW) for a real eigendecomposition H = V W V^T (``evals``
    W, ``evecs`` V); ``u`` is the stack of the U(t), one per time.

    With V orthogonal, row i of (U - V exp(-itW) V^T) V has the 2-norm of
    row i of U - exp(-itH): this bounds every entry of that row, so it
    checks a closed-form propagator against an independent solver.  With U
    holding at most two entries per row the cost is O(d^2) per step.

    The difference is formed conjugated, conj(U) V - V exp(itW), both real
    planes at once in a (2, rows, 2d) buffer of at most ``RESIDUAL_CHUNK``
    elements: a chunk of V's rows stays in cache while every step reads
    it.  U's main diagonal u0 enters with the oracle phases as
    (Re u0 - cos tW) V and (-Im u0 - sin tW) V.  Each difference is the
    product of [part of conj(u0), 1] and [1, -phase], one matmul per step
    for both planes: both terms are exact, so it is the one rounding of
    the difference, and BLAS writes it faster than a broadcast subtraction.
    A real or imaginary part of another stored diagonal that is zero
    throughout is skipped.  An oracle phase t W beyond the double range is
    NaN, without a warning, and so is the residual of its step.
    """
    ts, evecs = np.asarray(ts, dtype=float), np.asarray(evecs)
    if ts.ndim != 1 or u.batch != ts.shape or np.iscomplexobj(evecs):
        raise ValueError(f"expected a stack of shape {ts.shape} over 1-D times and real V, got {u.batch}, {evecs.dtype}")
    d, n = u.dim, 2 * u.dim
    lhs = np.zeros(u.batch + (2, n, 2))  # per step, plane and row: [part of conj(u0), 1]
    lhs[..., 1] = 1.0
    off = []  # (first row, end row, row shift into V, part, plane) of the other diagonals
    for i, row in enumerate(u.diags):
        for j, block in enumerate(row):
            for k, v in block.items():
                v = np.broadcast_to(v.conj(), u.batch + v.shape[-1:])
                lo = i * d + max(0, -k)
                if i == j and k == 0:
                    lhs[:, 0, lo : lo + d, 0], lhs[:, 1, lo : lo + d, 0] = v.real, v.imag
                    continue
                parts = enumerate((v.real, v.imag))
                off += [(lo, lo + v.shape[-1], (j - i) * d + k, part, p) for p, part in parts if np.any(part)]
    with np.errstate(over="ignore", invalid="ignore"):
        tw = ts[:, None] * evals
        rhs = np.ones(ts.shape + (2, 2, n))  # per step and plane: [1, -cos tW] and [1, -sin tW]
        rhs[:, 0, 1], rhs[:, 1, 1] = -np.cos(tw), -np.sin(tw)
    rows = min(n, max(1, RESIDUAL_CHUNK // (2 * n)))
    buf = np.empty((2, rows, n))
    norms = np.zeros((ts.size, n))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        planes, vr = buf[:, : r1 - r0], evecs[r0:r1]
        terms = []  # (first row, end row in the chunk, part, rows of V, plane) of the diagonals it meets
        for lo, hi, shift, part, q in off:
            a, b = max(lo, r0), min(hi, r1)
            if a < b:
                terms.append((a - r0, b - r0, part[:, a - lo : b - lo, None], evecs[a + shift : b + shift], q))
        for t in range(ts.size):
            np.matmul(lhs[t, :, r0:r1], rhs[t], out=planes)
            planes *= vr
            for a, b, part, vs, q in terms:
                planes[q, a:b] += part[t] * vs
            sq = np.einsum("pij,pij->pi", planes, planes)
            norms[t, r0:r1] += sq[0]
            norms[t, r0:r1] += sq[1]
    return np.sqrt(np.max(norms, axis=1))
