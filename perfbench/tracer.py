"""Spans around calls into hjc's public functions, for the traced run.

The tracer measures every layer from outside: it replaces the public
functions of each module (in every hjc module that imported them by name),
the public methods and arithmetic operators of ``AlgebraElement``,
``Matrix2K`` and ``BlockOperator``, and ``cli.render_json`` /
``cli.render_csv`` with wrappers that record one span per call.  A span is
(name, start, end, parent span, request id, returned); spans stay in
memory until ``save``.  A layer's self time is its spans' durations minus
the time their child spans cover.  ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("algebra", "berry", "fock", "jc", "grassmann", "oracle", "cli.render", "cli.other")
MODULE_LAYERS = ("algebra", "berry", "fock", "jc", "grassmann", "oracle")
CLASSES = {"algebra": "AlgebraElement", "berry": "Matrix2K", "jc": "BlockOperator"}
OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__matmul__", "__neg__", "__truediv__"}
# fock functions that build a d x d ladder, shift, number or identity matrix
FOCK_BUILDERS = ("annihilation", "creation", "number", "identity", "unit_lowering", "unit_raising")
ROOT = "cli.main"


class Tracer:
    """Builds the wrappers once; ``install`` / ``uninstall`` swap them in
    and out, so traced and untraced calls can alternate in one process."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.spans = []
        self.stack = []
        self.request = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        self._prepare()

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.request, ok)

        return functools.update_wrapper(traced, fn)

    def _prepare(self) -> None:
        mods = {name: sys.modules[f"hjc.{name}"] for name in MODULE_LAYERS}
        cli = sys.modules["hjc.cli"]
        wrapped = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", layer, fn)
            if layer in CLASSES:
                self._prepare_class(layer, getattr(mod, CLASSES[layer]))
        for name in ("render_json", "render_csv"):
            fn = getattr(cli, name)
            wrapped[fn] = self._wrap(f"cli.{name}", "cli.render", fn)
        # rebind every name that refers to a wrapped function, including
        # `from .jc import radius_diag` style imports in other modules
        targets = [m for n, m in sys.modules.items() if n == "hjc" or n.startswith("hjc.")]
        for mod in targets:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((mod, attr, value, wrapped[value]))
        self.main = self._wrap(ROOT, "cli.other", cli.main)
        """The wrapped ``cli.main``: call it as the root of each request."""

    def _prepare_class(self, layer: str, cls) -> None:
        for attr, value in vars(cls).items():
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            label = f"{layer}.{cls.__name__}.{attr.strip('_')}"
            if isinstance(value, classmethod):
                wrapper = classmethod(self._wrap(label, layer, value.__func__))
            elif inspect.isfunction(value):
                wrapper = self._wrap(label, layer, value)
            else:
                continue
            self._patches.append((cls, attr, value, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: duration minus its children's."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict:
        """Per-name and per-layer totals: calls, returned calls, self time."""
        own = self.self_times()
        calls, returned, name_self = Counter(), Counter(), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            name = self.names[s[0]]
            calls[name] += 1
            returned[name] += s[5]
            name_self[name] += t
            layer_self[self.layer_of[s[0]]] += t
        return {"calls": calls, "returned": returned, "self": name_self, "layers": layer_self}

    def save(self, path) -> None:
        """Write the spans as compressed numpy arrays."""
        import numpy as np

        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(cols[0], dtype=np.int32),
            start=np.array(cols[1], dtype=float),
            end=np.array(cols[2], dtype=float),
            parent=np.array(cols[3], dtype=np.int64),
            request=np.array(cols[4], dtype=np.int32),
            returned=np.array(cols[5], dtype=bool),
        )


def layer_metrics(summary: dict, requests: int, records: int, render_bytes: int) -> dict:
    """The per-layer metrics of one traced pass (totals over its requests)."""
    calls, returned, own = summary["calls"], summary["returned"], summary["self"]

    def ok_ratio(name):
        # returned / attempted; 1.0 when the workload never calls it
        return returned[name] / calls[name] if calls[name] else 1.0

    out = {f"{layer}.self_s": summary["layers"][layer] for layer in LAYERS}
    out.update(
        {
            "algebra.mul.calls": calls["algebra.AlgebraElement.mul"],
            "algebra.mul.per_record": calls["algebra.AlgebraElement.mul"] / max(records, 1),
            "berry.Matrix2K.matmul.calls": calls["berry.Matrix2K.matmul"],
            "berry.chart_decompose.ok_ratio": ok_ratio("berry.chart_decompose"),
            "jc.BlockOperator.matmul.calls": calls["jc.BlockOperator.matmul"],
            "jc.BlockOperator.matmul.self_s": own["jc.BlockOperator.matmul"],
            "jc.propagator.self_s": own["jc.propagator"],
            "jc.singular_sectors.self_s": own["jc.singular_sectors"],
            "jc.chart_decompose.ok_ratio": ok_ratio("jc.chart_decompose"),
            "fock.builds_per_request": sum(calls[f"fock.{n}"] for n in FOCK_BUILDERS) / max(requests, 1),
            "grassmann.projector_from_coordinate.self_s": own["grassmann.projector_from_coordinate"],
            "oracle.eig_hermitian.calls": calls["oracle.eig_hermitian"],
            "oracle.eig_hermitian.self_s": own["oracle.eig_hermitian"],
            "cli.render.bytes": render_bytes,
        }
    )
    return out
