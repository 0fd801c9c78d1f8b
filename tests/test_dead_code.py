"""Every private module-level function and class of the package is used.

No linter ships with the project, so this reads each module's syntax tree,
as ``test_unused_imports.py`` does. A private name (one leading underscore)
defined at the top level of a module in ``src/pondroute`` counts as used
when some expression in ``src/`` outside its own definition names it, as a
bare name or as an attribute. Tests do not count: code that only tests
call is not part of the program.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pondroute"


def unused_private_names(package: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) of each private top-level function or class of
    ``package`` that no code of the package uses outside its definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    unused = []
    for file, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        used = any(
            id(node) not in own
            and (
                (isinstance(node, ast.Name) and node.id == definition.name)
                or (isinstance(node, ast.Attribute) and node.attr == definition.name)
            )
            for tree in trees.values()
            for node in ast.walk(tree)
        )
        if not used:
            unused.append((file, definition.lineno, definition.name))
    return unused


def test_no_unused_private_names():
    assert unused_private_names(PACKAGE) == []


def test_unused_private_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _helper():\n"
        "    return _helper()\n"  # a call from its own body is no use
        "class _Used:\n"
        "    pass\n"
        "def _method_target():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def public():\n"
        "    return _Used\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def _unused():\n"
        "    pass\n"
        "def f():\n"
        "    return a._method_target\n"
    )
    assert unused_private_names(tmp_path) == [("a.py", 1, "_helper"), ("b.py", 2, "_unused")]
