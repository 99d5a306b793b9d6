"""The names of ``hjc`` that the benchmark harness in ``perfbench/`` reaches.

Its tracer looks up the layer modules, ``AlgebraElement``, ``Matrix2K`` and
``BlockOperator`` by name, and its scaling probe multiplies two random
algebra elements with ``*``.  Tier-1 does not run the traced benchmark, so
these tests keep a deletion in the package from breaking it unnoticed.
"""

import sys
from pathlib import Path

import numpy as np

import hjc.cli  # noqa: F401  (the tracer reads every layer from sys.modules)
from hjc import algebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_tracer_builds_its_wrappers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer

        names = set(tracer.Tracer().names)
    finally:
        sys.modules.pop("tracer", None)
    # the class operators its per-layer metrics count
    assert {"algebra.AlgebraElement.mul", "berry.Matrix2K.matmul", "jc.BlockOperator.matmul"} <= names
    assert "cli.main" in names


def test_the_probe_product_is_an_algebra_element():
    rng = np.random.default_rng(0)
    for tag in algebra.AlgebraTag:
        x, y = algebra.random_element(tag, rng), algebra.random_element(tag, rng)
        product = x * y
        assert isinstance(product, algebra.AlgebraElement) and product.tag is tag
