import os
from pathlib import Path

import numpy as np
import pytest

import hjc


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(autouse=True, scope="session")
def child_processes_import_this_hjc():
    # CLI tests run ``python -m hjc.cli`` in child processes; point them at
    # the package this test run imports, installed or not.
    src = str(Path(hjc.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield
