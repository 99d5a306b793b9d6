import os
from pathlib import Path

import numpy as np
import pytest

import hjc


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def _radius(d, theta, shift=0):
    """R(n + shift) = sqrt(n + shift + theta^2) for n = 0 .. d - 1: the
    tests' one reference for the radius of the JC model, formed without
    ``hjc.jc``."""
    return np.hypot(np.sqrt(np.arange(d, dtype=float) + shift), theta)


@pytest.fixture(scope="session")
def radius():
    return _radius


@pytest.fixture(autouse=True, scope="session")
def child_processes_import_this_hjc():
    # CLI tests run ``python -m hjc.cli`` in child processes; point them at
    # the package this test run imports, installed or not.
    src = str(Path(hjc.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


def _columns(decl, objs, prefix=""):
    """The columns of parsed JSON records, keyed by declared path as
    ``hjc.report.judge`` reads them; a nullable nested record gets its
    presence column.  ``pass`` is left out: the judge writes it."""
    from hjc.report import Record

    cols = {}
    for f in decl.fields:
        if not f.json or f.name == "pass":
            continue
        path = prefix + f.name
        values = [None if obj is None else obj[f.name] for obj in objs]
        if isinstance(f.kind, Record):
            if f.null:
                cols[path] = [v is not None for v in values]
            cols.update(_columns(f.kind, values, path + "."))
        else:
            cols[path] = values
    return cols


@pytest.fixture
def columns_of():
    return _columns
