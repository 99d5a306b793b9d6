"""The README's Layout table names only what exists.

Each ``hjc.<module>`` row names functions, classes and constants in
backticks.  Every backticked identifier (a dotted name, call arguments
stripped) must be an attribute of the row's module, an attribute of a
class the same row names (``take`` of ``SectorReport``), or, when it
starts with ``hjc``, a module or attribute reached from the package.
Single-letter math symbols (``Z``) and spans that are no identifier
(``(n, dim)``, ``hjc evolve``, ``--theta``) are not names.
"""

import importlib
import re
from pathlib import Path

import hjc

README = Path(__file__).resolve().parent.parent / "README.md"
_ROW = re.compile(r"^\| `(hjc\.\w+)` \| (.*) \|$")
_NAME = re.compile(r"^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$")
_MISSING = object()


def _resolve(root, path):
    """The attribute chain ``path`` of ``root``, or ``_MISSING``."""
    for part in path:
        root = getattr(root, part, _MISSING)
        if root is _MISSING:
            break
    return root


def _reach(dotted):
    """``hjc.<...>`` as a module or an attribute reached from the package."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _resolve(module, parts[cut:])
    return _MISSING


def stale_names(rows):
    """``module: name`` for every backticked name of the Layout rows
    ``rows`` (``| `hjc.<module>` | contents |`` lines) that does not exist."""
    found = []
    for line in rows:
        match = _ROW.match(line)
        if match is None:
            continue
        module = importlib.import_module(match.group(1))
        names = [m.group(1) for span in re.findall(r"`([^`]+)`", match.group(2)) if (m := _NAME.match(span))]
        classes = [obj for name in names if isinstance(obj := _resolve(module, name.split(".")), type)]
        for name in names:
            if len(name) == 1:
                continue
            if name.split(".")[0] == hjc.__name__:
                ok = _reach(name) is not _MISSING
            else:
                path = name.split(".")
                ok = any(_resolve(owner, path) is not _MISSING for owner in [module, *classes])
            if not ok:
                found.append(f"{match.group(1)}: {name}")
    return found


def _layout_rows():
    return [line for line in README.read_text().splitlines() if _ROW.match(line)]


def test_the_check_flags_a_stale_name_and_passes_the_rest():
    rows = [
        "| `hjc.jc` | `chart_decompose` returns `(V, D)`; `two_step_factors`; `SectorReport` with `take`; `Z`; `hjc evolve` |",
        "| `hjc.grassmann` | `local_coordinate`, `hjc.jc.row_radii`, `hjc.jc.middle_unitary`, `Points.of(tag, w, z)` |",
    ]
    assert stale_names(rows) == ["hjc.jc: two_step_factors", "hjc.grassmann: hjc.jc.middle_unitary", "hjc.grassmann: Points.of"]


def test_every_hjc_module_has_a_row():
    assert {_ROW.match(line).group(1) for line in _layout_rows()} >= {
        f"hjc.{name}" for name in ("algebra", "berry", "fock", "jc", "grassmann", "config", "oracle", "report", "cli")
    }


def test_the_layout_table_names_only_what_exists():
    assert stale_names(_layout_rows()) == []
