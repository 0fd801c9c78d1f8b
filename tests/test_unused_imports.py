"""Every imported name is used by the module that imports it.

No linter ships with the project, so this reads each module's syntax tree: a
name counts as used when some expression in the module names it (a name
used only inside a string annotation does not count).
``src/pondroute/__init__.py`` re-exports the public names and is skipped;
elsewhere a deliberate re-export carries ``# noqa: F401`` on its import line.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pondroute"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name that ``path`` imports and never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in bound:
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_no_unused_imports():
    modules = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(modules)
        if path != PACKAGE / "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert found == []


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import (\n"
        "    Any,\n"
        "    Sequence,\n"
        ")\n"
        "from json import dumps  # noqa: F401\n"
        "import math as m\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(path) == [(4, "Any"), (8, "m")]
