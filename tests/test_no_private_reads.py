"""No module of the package reads another module's private name.

A decision a module keeps private (a leading underscore) has one owner:
a second module that reads it states the decision again, out of the
owner's sight.  The walk flags ``mod._name`` where ``mod`` was imported
with ``from . import mod`` (``as`` aliases included), and
``from .mod import _name``.  Dunder names are no one's private decision.
"""

import ast
from pathlib import Path

import hjc

SRC = Path(hjc.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, filename: str = "<source>") -> list:
    """``file:line module._name`` for every read of another module's
    private name in ``source``."""
    tree = ast.parse(source, filename)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update({alias.asname or alias.name: alias.name for alias in node.names})
            else:
                found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr):
                found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"{filename}:{line} {name}" for line, name in sorted(found)]


def test_the_walk_finds_both_forms():
    source = "\n".join(
        ["from . import jc", "from . import berry as b", "from .jc import _rows, row_radii", "x = jc._rows, b._half_sums, jc.__doc__"]
    )
    assert private_reads(source) == ["<source>:3 jc._rows", "<source>:4 berry._half_sums", "<source>:4 jc._rows"]


def test_no_module_reads_another_modules_private_name():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_reads(path.read_text(), path.name)]
    assert found == []
