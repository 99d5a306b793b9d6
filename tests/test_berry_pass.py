"""The dense berry pass against the chart-by-chart pass it replaced.

``reference_pass`` is that earlier berry pass, kept here as it was: it
selects the rows where each chart (the projector, the cocycle) is defined,
builds every array only there, and scatters the residuals back into NaN
columns.  ``berry.check_points`` evaluates every check of both charts at
every point and nulls what is not defined; ``dense_pass`` names its
arrays as the ``hjc berry`` columns.  On any chunk the two must give
bitwise-equal columns, or raise the same exception.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjc import algebra, berry, cli
from hjc.algebra import AlgebraTag


def _stacked(fn, *pairs) -> list:
    """``fn(a, b)`` of every pair, from one call on the pairs stacked along
    the first axis."""
    out = fn(np.concatenate([a for a, _ in pairs]), np.concatenate([b for _, b in pairs]))
    ends = list(itertools.accumulate(len(a) for a, _ in pairs))
    return [out[i:j] for i, j in zip([0] + ends, ends)]


def _scatter(n: int, where, values) -> np.ndarray:
    col = np.full(n, np.nan)
    col[where] = values
    return col


def _units(tag: AlgebraTag) -> tuple:
    """The coefficients of the identity and of diag(1, 0)."""
    return berry.Matrix2K.identity(tag).coeffs, np.diag([1.0, 0.0])[:, :, None] * algebra.one(tag).coeffs


def reference_pass(pts: berry.Points) -> dict:
    tag, n = pts.tag, pts.z.shape[0]
    mm = functools.partial(berry.matmul_coeffs, tag)
    codes = berry.classify(pts)
    regular = codes == berry.POINT_CLASSES.index(berry.PointClass.REGULAR)
    away = codes != berry.POINT_CLASSES.index(berry.PointClass.ORIGIN)
    masks = [berry.admissible(codes, chart) for chart in berry.ChartTag]
    rows = [np.flatnonzero(m) for m in masks]
    at = np.concatenate(rows)  # the point of each row of the chart stack
    u = np.concatenate([berry.chart_coeffs(pts.take(r), chart) for r, chart in zip(rows, berry.ChartTag)])
    ud = berry.dagger_coeffs(u)
    k = len(rows[0])
    u_i, u_ii = u[:k], u[k:]
    proj = berry.projector_coeffs(pts.take(away))
    ident, p0 = _units(tag)
    udiag, up0, unit, cocycle, idem = _stacked(
        mm,
        (u, berry.eigenvalue_coeffs(pts.take(at))),
        (u, np.broadcast_to(p0, u.shape)),
        (ud, u),
        (u_i[regular[masks[0]]], berry.transition_coeffs(pts.take(regular))),
        (proj, proj),
    )
    recon, agree = _stacked(mm, (udiag, ud), (up0, ud))
    res = _stacked(
        berry.residual_coeffs,
        (recon, berry.hamiltonian_coeffs(pts)[at]),
        (unit, np.broadcast_to(ident, u.shape)),
        (cocycle, u_ii[regular[masks[1]]]),
        (idem, proj),
        (agree, proj[(np.cumsum(away) - 1)[at]]),  # chart rows lie away from the origin
    )
    res = dict(zip(("reconstruction", "unitarity", "cocycle", "idempotency", "agreement"), res))
    cols = {
        "class": cli._CLASS_NAMES[codes],
        "cocycle": _scatter(n, regular, res["cocycle"]),
        "projector": away,
        "projector.idempotency": _scatter(n, away, res["idempotency"]),
    }
    agreement = np.full(n, np.nan)
    for chart, mask, r, part in zip(berry.ChartTag, masks, rows, (slice(0, k), slice(k, None))):
        cond = berry.conditionings(pts.take(r), chart)
        cond[cond == np.inf] = np.nan  # no tolerance bounds it: null
        name = f"charts.{chart.value}"
        cols[name] = mask
        cols[name + ".reconstruction"] = _scatter(n, r, res["reconstruction"][part])
        cols[name + ".unitarity"] = _scatter(n, r, res["unitarity"][part])
        cols[name + ".conditioning"] = _scatter(n, r, cond)
        agreement[r] = np.fmax(agreement[r], res["agreement"][part])
    cols["projector.chart_agreement"] = agreement
    return cols


def dense_pass(pts: berry.Points) -> dict:
    """The columns of ``berry.check_points``, as ``hjc berry`` names them."""
    return cli._berry_columns(berry.check_points(pts))


def _outcome(fn, pts):
    try:
        return fn(pts)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.keys() == want.keys()
    for key, col in want.items():
        have = got[key]
        assert have.shape == col.shape and have.dtype == col.dtype, key
        if col.dtype.kind == "O":
            assert have.tolist() == col.tolist(), key
        else:
            assert have.tobytes() == col.tobytes(), key


# ||w|| and |z|: 0, subnormals, and 1e-300 .. 1e300
_MAGNITUDES = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-320, 2.2e-308, 1e-14, 1.5e-14]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)


@st.composite
def chunks(draw):
    tag = draw(st.sampled_from(list(AlgebraTag)))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, z = np.zeros((n, tag.dim)), np.zeros(n)
    for i in range(n):
        kind = draw(st.sampled_from(["any", "any", "lower_string", "upper_string", "origin"]))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        z[i] = sign * draw(_MAGNITUDES)
        norm_w = draw(_MAGNITUDES)
        if kind.endswith("string"):
            z[i] = (1.0 if kind == "upper_string" else -1.0) * draw(st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
            norm_w = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-15]))
        elif kind == "origin":
            z[i] = sign * draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-15]))
            norm_w = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-15]))
        u = rng.standard_normal(tag.dim)
        w[i] = u * (norm_w / np.linalg.norm(u))
    return tag, w, z


@settings(max_examples=300, deadline=None)
@given(chunks())
def test_the_dense_pass_equals_the_chart_by_chart_pass(chunk):
    tag, w, z = chunk
    pts = berry.Points.of(tag, w, z)
    _assert_same_outcome(_outcome(dense_pass, pts), _outcome(reference_pass, pts))


@pytest.mark.parametrize("tag", list(AlgebraTag))
@pytest.mark.parametrize(
    "z, w0, raises",
    [(np.nan, 1.0, True), (-np.inf, 0.0, True), (0.5, np.inf, True), (-2.0, np.nan, True), (-1.2e308, 1e308, False)],
)
def test_the_dense_pass_raises_where_the_reference_raises(tag, z, w0, raises):
    # one bad (or top-of-range) point among a regular point, a lower string
    # point and the origin, whose masked values are not finite either
    w = np.zeros((4, tag.dim))
    w[0, -1], w[1, 0] = w0, 1.0
    with np.errstate(all="ignore"):
        pts = berry.Points.of(tag, w, np.array([z, 0.5, -2.0, 0.0]))
        want = _outcome(reference_pass, pts)
    assert isinstance(want, tuple) == raises
    _assert_same_outcome(_outcome(dense_pass, pts), want)


@pytest.mark.parametrize("tag", list(AlgebraTag))
def test_one_chunk_evaluates_each_half_angle_once(tag, monkeypatch):
    # both charts' half angles come from one fused evaluation per chunk,
    # and the per-chart selection is never taken
    calls = []
    half_angles = berry._half_angles
    monkeypatch.setattr(berry, "_half_angles", lambda pts: calls.append(len(pts.z)) or half_angles(pts))
    monkeypatch.setattr(berry, "_half_angle", lambda pts, chart: pytest.fail(f"chart {chart.value} alone"))
    rng = np.random.default_rng(3)
    w = rng.standard_normal((9, tag.dim))
    w[:3] = 0.0  # a lower string point, the origin and an upper string point
    dense_pass(berry.Points.of(tag, w, np.r_[-1.0, 0.0, 1.0, rng.standard_normal(6)]))
    assert calls == [9]
