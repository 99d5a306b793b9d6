"""The names of ``hjc`` that the benchmark harness in ``perfbench/`` reaches.

Its tracer looks up the layer modules, ``AlgebraElement``, ``Matrix2K`` and
``BlockOperator`` by name, and its scaling probe multiplies two random
algebra elements with ``*``.  Tier-1 does not run the traced benchmark, so
these tests keep a deletion in the package from breaking it unnoticed, and
keep the berry pass where the tracer counts it as ``berry`` time.
"""

import sys
from pathlib import Path

import numpy as np

import hjc.cli  # noqa: F401  (the tracer reads every layer from sys.modules)
from hjc import algebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer(monkeypatch):
    """A fresh ``perfbench`` tracer, its module not left importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer

        return tracer.Tracer()
    finally:
        sys.modules.pop("tracer", None)


def test_the_tracer_builds_its_wrappers(monkeypatch):
    names = set(_tracer(monkeypatch).names)
    # the class operators its per-layer metrics count
    assert {"algebra.AlgebraElement.mul", "berry.Matrix2K.matmul", "jc.BlockOperator.matmul"} <= names
    assert "cli.main" in names


def test_the_probe_product_is_an_algebra_element():
    rng = np.random.default_rng(0)
    for tag in algebra.AlgebraTag:
        x, y = algebra.random_element(tag, rng), algebra.random_element(tag, rng)
        product = x * y
        assert isinstance(product, algebra.AlgebraElement) and product.tag is tag


def test_a_traced_berry_request_spends_its_pass_in_the_berry_layer(monkeypatch, capsys):
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        assert tracer.main(["berry", "--algebra=H", "--samples=3", "--format=csv"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary()
    assert summary["calls"]["berry.check_points"] == 1
    assert summary["self"]["berry.check_points"] > 0.0
    assert summary["layers"]["berry"] >= summary["self"]["berry.check_points"]
