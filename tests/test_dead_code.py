"""Every private name the package defines is used, and so is every oracle.

No linter ships with the project, so this reads each module's syntax tree,
as ``test_unused_imports.py`` does. A private name (one leading underscore)
counts when a module in ``src/pondroute`` defines it as a top-level
function or class, a method of a top-level class, or a module-level
constant. It counts as used when some expression in ``src/`` outside its
own definition names it, as a bare name or as an attribute. Tests do not
count: code that only tests call is not part of the program.

Likewise every top-level function of ``tests/_oracles.py`` must be named by
some expression of a test module (``_oracles.py`` included) outside its own
definition; importing it is not a use.
"""

import ast
from pathlib import Path
from typing import Iterator

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pondroute"
TESTS = Path(__file__).resolve().parent


def definitions(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    """(name, defining statement) of every top-level function, class and
    assigned name of a module, and of every method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unused_private_names(package: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) of each private top-level function, class or
    constant, or private method, of ``package`` that no code of the package
    uses outside its definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = [
        (file, name, node)
        for file, tree in trees.items()
        for name, node in definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    return not_named(trees, defined)


def unused_oracles(tests: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) of each top-level function of ``tests/_oracles.py``
    that no test module names outside its definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(tests.glob("*.py"))}
    defined = [
        ("_oracles.py", node.name, node)
        for node in trees["_oracles.py"].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return not_named(trees, defined)


def not_named(
    trees: dict[str, ast.Module], defined: list[tuple[str, str, ast.stmt]]
) -> list[tuple[str, int, str]]:
    """(file, line, name) of each (file, name, definition) of ``defined``
    that no tree of ``trees`` names outside that definition."""
    unused = []
    for file, name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        used = any(
            id(node) not in own
            and (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
            )
            for tree in trees.values()
            for node in ast.walk(tree)
        )
        if not used:
            unused.append((file, definition.lineno, name))
    return unused


def test_no_unused_private_names():
    assert unused_private_names(PACKAGE) == []


def test_no_unused_oracles():
    assert unused_oracles(TESTS) == []


def test_unused_oracle_is_reported(tmp_path):
    (tmp_path / "_oracles.py").write_text(
        "def helper_oracle():\n"
        "    return helper_oracle()\n"  # a call from its own body is no use
        "def _helper():\n"
        "    pass\n"
        "def used_oracle():\n"
        "    return _helper()\n"  # a use inside _oracles.py counts
        "def attribute_oracle():\n"
        "    pass\n"
        "def imported_oracle():\n"
        "    pass\n"
        "class Unread:\n"  # only functions are checked
        "    pass\n"
    )
    (tmp_path / "test_a.py").write_text(
        "import _oracles\n"
        "from _oracles import imported_oracle, used_oracle\n"
        "def test_a():\n"
        "    assert used_oracle() == _oracles.attribute_oracle()\n"
    )
    assert unused_oracles(tmp_path) == [
        ("_oracles.py", 1, "helper_oracle"),
        ("_oracles.py", 9, "imported_oracle"),
    ]


def test_unused_private_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _helper():\n"
        "    return _helper()\n"  # a call from its own body is no use
        "class _Used:\n"
        "    def _called(self):\n"
        "        return self._named\n"  # naming a method is a use
        "    def _named(self):\n"
        "        pass\n"
        "    def _dead(self):\n"
        "        return self._dead()\n"
        "def _method_target():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "_LIMIT = 3\n"
        "_UNREAD: int = 4\n"
        "_SELF = _SELF_TOO = _LIMIT\n"
        "def public():\n"
        "    return _Used()._called()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def _unused():\n"
        "    pass\n"
        "def f():\n"
        "    return a._method_target, a._SELF\n"
    )
    assert unused_private_names(tmp_path) == [
        ("a.py", 1, "_helper"),
        ("a.py", 8, "_dead"),
        ("a.py", 15, "_UNREAD"),
        ("a.py", 16, "_SELF_TOO"),
        ("b.py", 2, "_unused"),
    ]
