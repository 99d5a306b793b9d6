"""The batched ``hjc berry`` pass against a per-point reference.

``_berry_point_record`` builds one berry record from the scalar API
(``BasePoint``, ``Matrix2K``, ``chart_decompose`` ...), one point at a time,
and ``_judge`` gives it its ``pass`` by walking the record.  The report
that ``cli.berry_chunk``, ``cli.judge`` and ``cli.render_json`` write from
one column chunk must parse back to the same records for any batch of
points.
"""

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjc import algebra, berry, cli
from hjc.algebra import AlgebraTag
from hjc.config import DEFAULT

RESIDUALS = {"reconstruction", "unitarity", "cocycle", "idempotency", "hermiticity", "chart_agreement"}


def _finite(x: float) -> float:
    return float(x) if math.isfinite(x) else None


def _berry_point_record(index, kind, point, tol):
    tag = point.tag
    cls = berry.classify_point(point, tol)
    rec = {
        "index": index,
        "kind": kind,
        "point": {"w": point.w.to_json(), "z": point.z},
        "class": cls.value,
        "charts": {"I": None, "II": None},
        "cocycle": None,
        "projector": None,
    }
    ham = berry.hamiltonian(point)
    ident = berry.Matrix2K.identity(tag)
    units = {}
    for chart in (berry.ChartTag.I, berry.ChartTag.II):
        try:
            dec = berry.chart_decompose(point, chart, tol)
        except berry.DiracStringError:
            continue
        u, d = dec.unitary, dec.diagonal
        rec["charts"][chart.value] = {
            "reconstruction": berry.residual((u @ d) @ u.dagger(), ham),
            "unitarity": berry.residual(u.dagger() @ u, ident),
            "conditioning": _finite(dec.conditioning),
        }
        units[chart] = u
    if cls is berry.PointClass.REGULAR:
        phi = berry.transition_function(point, tol)
        rec["cocycle"] = berry.residual(units[berry.ChartTag.I] @ phi, units[berry.ChartTag.II])
    if cls is not berry.PointClass.ORIGIN:
        proj = berry.projector(point, tol)
        rec["projector"] = {
            "idempotency": berry.residual(proj @ proj, proj),
            "hermiticity": berry.residual(proj.dagger(), proj),
            "chart_agreement": None,
        }
        if units:
            p0 = berry.Matrix2K.diag(algebra.one(tag), algebra.zero(tag))
            rec["projector"]["chart_agreement"] = max(
                berry.residual((u @ p0) @ u.dagger(), proj) for u in units.values()
            )
    return rec


def _norm(rec) -> float:
    # ||H|| = max(1, r), r = hypot(w, z)
    return max(1.0, math.hypot(*rec["point"]["w"]["coeffs"], rec["point"]["z"]))


def _judge(decl, obj, tol, norm):
    """Whether every non-null residual of the record ``obj`` is within its
    tolerance (times ``norm`` where declared ``rel``) and every verdict and
    nested record passes; stores the answer in ``obj["pass"]`` where the
    record declares one."""
    ok = True
    for f in decl.fields:
        v = obj.get(f.name)
        if v is None:
            continue
        if f.tol is not None:
            ok &= bool(v <= getattr(tol, f.tol) * (norm if f.rel else 1.0))
        if f.ok is not None:
            ok &= bool(f.ok(v))
        if isinstance(f.kind, cli.Record):
            ok &= _judge(f.kind, v, tol, norm)
    if decl.has_pass:
        obj["pass"] = ok
    return ok


def _reference(tag, w, z, kinds, tol=DEFAULT):
    records = [
        _berry_point_record(i, kind, berry.BasePoint(algebra.AlgebraElement(tag, wi), zi), tol)
        for i, (wi, zi, kind) in enumerate(zip(w, z, kinds))
    ]
    for rec in records:
        _judge(cli.RECORDS["berry"], rec, tol, _norm(rec))
    return records


def _batch(tag, w, z, kinds, tol=DEFAULT):
    """The records of the points as the berry report writes them."""
    if not len(z):
        return []
    cols = cli.berry_chunk(berry.Points.of(tag, w, z), 0, kinds.count("grid"), tol)
    cli.judge(cli.RECORDS["berry"], cols, tol)
    text = cli.render_json(cli.Report("berry", 0, {}), cols) + cli.render_json(cli.Report("berry", 0, {}, len(z)))
    return json.loads(text)["records"]


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, obj


def _assert_same_record(got, ref):
    """Same class, null pattern and pass; residuals within 1e-14 (times
    ||H|| for a reconstruction, which is judged relative to it), every
    other float within 4 ulp."""
    norm = _norm(ref)
    got_leaves, ref_leaves = dict(_leaves(got)), dict(_leaves(ref))
    assert got_leaves.keys() == ref_leaves.keys()
    for path, want in ref_leaves.items():
        have = got_leaves[path]
        if not isinstance(want, float) or not isinstance(have, float):
            assert have == want, path
        elif path[-1] in RESIDUALS:
            assert abs(have - want) <= 1e-14 * (norm if path[-1] == "reconstruction" else 1.0), path
        else:
            assert abs(have - want) <= 4 * np.spacing(max(abs(have), abs(want))), path


def _finite_record(rec):
    return all(v is None or not isinstance(v, float) or math.isfinite(v) for _, v in _leaves(rec))


@st.composite
def point_batches(draw):
    tag = draw(st.sampled_from(list(AlgebraTag)))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, z = np.zeros((n, tag.dim)), np.zeros(n)
    for i in range(n):
        kind = draw(st.sampled_from(["regular", "regular", "string", "origin"]))
        if kind != "origin":
            z[i] = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 300.0))
        if kind == "regular":
            u = rng.standard_normal(tag.dim)
            w[i] = u * (10.0 ** draw(st.floats(-300.0, 300.0)) / np.linalg.norm(u))
    return tag, w, z


@settings(max_examples=120, deadline=None)
@given(point_batches())
def test_batch_records_equal_the_per_point_reference(batch):
    tag, w, z = batch
    kinds = ["grid"] * len(z)
    ref = _reference(tag, w, z, kinds)
    got = _batch(tag, w, z, kinds)
    assert len(got) == len(ref)
    for have, want in zip(got, ref):
        assert json.loads(json.dumps(have)) == have  # plain JSON values only
        if _finite_record(want):
            _assert_same_record(have, want)
        else:
            assert have["class"] == want["class"]


@pytest.mark.parametrize(
    "tag, grid, empty",
    [
        ("R", "z=-2:-1:2,w=0:0:1", {"I", "cocycle"}),  # lower string only
        ("C", "z=1:2:2,w=0:0:1", {"II", "cocycle"}),  # upper string only
        ("H", "z=0:0:1,w=0:0:1", {"I", "II", "cocycle", "projector"}),  # the origin
        ("O", "z=-1:1:3,w=0:0:1", {"cocycle"}),
    ],
)
def test_string_grids_leave_chart_selections_empty(tag, grid, empty, capsys):
    code = cli.main(["berry", f"--algebra={tag}", f"--grid={grid}", "--samples=0"])
    records = json.loads(capsys.readouterr().out)["records"]
    assert code == 0 and all(r["pass"] for r in records)
    for key in ("I", "II", "cocycle", "projector"):
        values = [r["charts"][key] if key in ("I", "II") else r[key] for r in records]
        assert all(v is None for v in values) == (key in empty), key
    w = np.array([r["point"]["w"]["coeffs"] for r in records])
    z = np.array([r["point"]["z"] for r in records])
    for have, want in zip(records, _reference(AlgebraTag[tag], w, z, ["grid"] * len(z))):
        _assert_same_record(have, want)


def _berry(capsys, algebra_name, z, w):
    code = cli.main(["berry", f"--algebra={algebra_name}", f"--grid=z={z}:{z}:1,w={w}:{w}:1", "--samples=0"])
    return code, json.loads(capsys.readouterr().out)["records"][0]


def test_regular_point_far_below_a_string_keeps_its_charts(capsys):
    # 2r(r + z) underflowed to 0 here: ZeroDivisionError at a regular point
    code, rec = _berry(capsys, "H", -1e300, 1e-13)
    assert code == 0 and rec["class"] == "regular" and rec["pass"]
    assert rec["charts"]["I"]["conditioning"] == pytest.approx(1e13, rel=1e-14)
    assert rec["charts"]["I"]["unitarity"] <= 1e-15


def test_chart_conditioning_does_not_underflow(capsys):
    # 2r(r + z) = 4e320 overflowed: conditioning 0 and unitarity 1
    code, rec = _berry(capsys, "C", 1e160, 1)
    assert code == 0 and rec["pass"]
    assert rec["charts"]["I"]["conditioning"] == pytest.approx(5e-161, rel=1e-14)
    assert rec["charts"]["I"]["unitarity"] <= 1e-15


def test_residual_norms_do_not_overflow(capsys):
    # the squared entries of a 1e200 reconstruction residual overflowed to inf
    code, rec = _berry(capsys, "O", -1e200, 1)
    assert code == 0 and rec["pass"]
    assert all(math.isfinite(rec["charts"][c]["reconstruction"]) for c in ("I", "II"))


def test_csv_norm_w_does_not_overflow(capsys):
    code = cli.main(["berry", "--algebra=C", "--grid=z=0:0:1,w=1e200:1e200:1", "--samples=0", "--format=csv"])
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert code == 0 and float(row["norm_w"]) == pytest.approx(1e200, rel=1e-15)


def test_reconstruction_is_judged_relative_to_the_hamiltonian(capsys, columns_of):
    # a residual of 1.8e-12 at r = 1e4 is 2e-16 relative: it passes, and
    # the report keeps the unscaled value
    code, rec = _berry(capsys, "H", 1e4, 0.7)
    assert code == 0 and rec["pass"]
    assert max(rec["charts"][c]["reconstruction"] for c in ("I", "II")) > DEFAULT.algebraic
    rec["charts"]["II"]["reconstruction"] = 1.01e-12 * math.hypot(0.7, 1e4)
    assert cli.judge(cli.RECORDS["berry"], columns_of(cli.RECORDS["berry"], [rec]), DEFAULT).tolist() == [False]


def test_charts_hold_at_the_top_of_the_double_range(capsys):
    code, rec = _berry(capsys, "O", -1.7e308, 1e-10)
    assert code == 0 and rec["pass"]
    assert rec["charts"]["II"]["conditioning"] == pytest.approx(1 / 3.4e308, rel=1e-12)


def test_array_pass_memory_is_bounded_by_the_chunk():
    # the whole sweep, array pass and report text, is computed and written
    # a chunk at a time: 3e4 octonion points held at once would need
    # ~300 MB as records, ~50 MB as product intermediates
    tracemalloc.start()
    try:
        code = cli.main(["berry", "--algebra=O", "--samples=30000", "--seed=5", "--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20, peak


def _declared(decl, prefix=""):
    """Every column path of a record: its fields, nested records' presence
    and fields; ``pass`` is the judge's."""
    for f in decl.fields:
        path = prefix + f.name
        if isinstance(f.kind, cli.Record):
            if f.null:
                yield path
            yield from _declared(f.kind, path + ".")
        elif f.name != "pass":
            yield path


@pytest.mark.parametrize("tag", list(AlgebraTag))
def test_the_pass_fills_every_declared_column(tag):
    # at regular points every check applies: a field declared in the berry
    # record that the array pass does not compute would be missing or NaN
    rng = np.random.default_rng(11)
    pts = berry.Points.of(tag, rng.standard_normal((7, tag.dim)), rng.standard_normal(7))
    cols = cli.berry_chunk(pts, 0, 7, DEFAULT)
    assert set(cols) == set(_declared(cli.RECORDS["berry"]))
    for col in cols.values():
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            assert np.isfinite(col).all()
    assert all(cols[path].all() for path in ("charts.I", "charts.II", "projector"))


@pytest.mark.parametrize("tag", list(AlgebraTag))
def test_subnormal_norm_w_raises_no_warning(tag, capsys):
    # the discarded branch of the chart factor divided by a subnormal
    # ||w||: "overflow encountered in divide"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["berry", f"--algebra={tag.name}", "--grid=z=-1:1:3,w=1e-320:1e-320:1", "--samples=0"])
        records = json.loads(capsys.readouterr().out)["records"]
        w = algebra.AlgebraElement(tag, np.full(tag.dim, 1e-320))
        on_string = berry.BasePoint(w, -1.0)
        assert berry.conditioning(on_string, berry.ChartTag.I) == math.inf
    assert code == 0 and [r["class"] for r in records] == ["lower_string", "origin", "upper_string"]
    assert records[0]["charts"]["I"] is None and records[0]["charts"]["II"]["conditioning"] == 0.5
