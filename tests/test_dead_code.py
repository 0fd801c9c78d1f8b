"""Every private name the package defines is used, and so is every oracle.

No linter ships with the project, so this reads each module's syntax tree,
as ``test_unused_imports.py`` does. A private name (one leading underscore)
counts when a module in ``src/pondroute`` defines it as a top-level
function or class, a method of a top-level class, or a module-level
constant. Tests do not count: code that only tests call is not part of the
program.

A top-level name of module M is resolved to its binding. It counts as used
when, outside its own definition, an expression in M names it, a module
that imports it from M names it, or an expression names it as an attribute
of a name bound to M; a same-named definition in another module is no use.
A method counts as used when any expression in ``src/`` outside its
definition names it, as a bare name or as an attribute, since the type of
an attribute's receiver is not known without running the code.

A public top-level function or module constant of the package must be
used by the package by the same rule, re-exporting it from ``__init__`` not
being a use, unless a fixed client names it: the acceptance suite
(``tests/test_acceptance.py``), or the benchmark (``perfbench/harness.py``
and the targets it traces, ``perfbench/tracing.py``'s ``TARGETS``).

Likewise every top-level function of ``tests/_oracles.py`` must be used, by
the rule for top-level names, by a test module or ``_oracles.py`` itself;
importing it is not a use.
"""

import ast
from pathlib import Path
from typing import Iterator

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pondroute"
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


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
    return not_named(trees, defined, package.name)


def unused_public_names(package: Path, pinned: set[str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of each public top-level function or module
    constant of ``package`` that no code of the package uses outside its
    definition and that ``pinned`` does not hold."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = [
        (file, name, node)
        for file, tree in trees.items()
        for name, node in definitions(tree)
        if node in tree.body and not isinstance(node, ast.ClassDef)
        and not name.startswith("_") and name not in pinned
    ]
    return not_named(trees, defined, package.name)


def named(path: Path) -> set[str]:
    """Every name a file reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def traced(path: Path) -> set[str]:
    """Each dotted part of the strings in ``path``'s ``TARGETS`` assignment."""
    [targets] = [
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    ]
    return {
        part
        for node in ast.walk(targets)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }


def unused_oracles(tests: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) of each top-level function of ``tests/_oracles.py``
    that no test module uses outside its definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(tests.glob("*.py"))}
    defined = [
        ("_oracles.py", node.name, node)
        for node in trees["_oracles.py"].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return not_named(trees, defined, tests.name)


def module_file(dotted: str, level: int, files: set[str], package: str) -> str | None:
    """The file of ``files`` that an import of module ``dotted`` (``level``
    dots before it) names, or None for a module from elsewhere."""
    parts = dotted.split(".")
    if level == 0 and parts[:1] == [package]:
        parts = parts[1:]
    file = f"{parts[0]}.py" if len(parts) == 1 else None
    return file if file in files else None


def bindings(
    tree: ast.Module, files: set[str], package: str
) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """What a module's imports bind: each name imported from a module of
    ``files`` to that (file, name), and each name bound to a module of
    ``files`` to its file."""
    imported: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if file := module_file(alias.name, 0, files, package):
                    modules[alias.asname or alias.name] = file
        elif isinstance(node, ast.ImportFrom):
            source = module_file(node.module or "", node.level, files, package)
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    imported[local] = (source, alias.name)
                else:
                    dotted = f"{node.module}.{alias.name}" if node.module else alias.name
                    if file := module_file(dotted, node.level, files, package):
                        modules[local] = file
    return imported, modules


def references(
    trees: dict[str, ast.Module], package: str
) -> list[tuple[str | None, str, ast.AST]]:
    """(file, name, node) of each bare name or attribute in ``trees``, the
    file being the module whose top-level binding it reads: a bare name its
    own module's, unless the module imports it from a module of ``trees``;
    an attribute that of the module of ``trees`` its bare-name receiver is
    bound to, and None for any other receiver."""
    refs = []
    for file, tree in trees.items():
        imported, modules = bindings(tree, set(trees), package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((*imported.get(node.id, (file, node.id)), node))
            elif isinstance(node, ast.Attribute):
                receiver = node.value.id if isinstance(node.value, ast.Name) else None
                refs.append((modules.get(receiver), node.attr, node))
    return refs


def not_named(
    trees: dict[str, ast.Module], defined: list[tuple[str, str, ast.stmt]], package: str
) -> list[tuple[str, int, str]]:
    """(file, line, name) of each (file, name, definition) of ``defined``
    that no tree of ``trees`` uses outside that definition: a top-level
    name through its binding, a method through any name or attribute."""
    refs = references(trees, package)
    unused = []
    for file, name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        top_level = definition in trees[file].body
        used = any(
            id(node) not in own and ref == name and (target == file or not top_level)
            for target, ref, node in refs
        )
        if not used:
            unused.append((file, definition.lineno, name))
    return unused


def test_no_unused_private_names():
    assert unused_private_names(PACKAGE) == []


def test_no_unused_public_names():
    pinned = named(TESTS / "test_acceptance.py") | named(PERFBENCH / "harness.py")
    assert unused_public_names(PACKAGE, pinned | traced(PERFBENCH / "tracing.py")) == []


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
        "def _route_cost():\n"
        "    pass\n"
    )
    (tmp_path / "test_a.py").write_text(
        "import _oracles\n"
        "from _oracles import imported_oracle, used_oracle\n"
        "from library import _route_cost\n"  # a same-named library function
        "def test_a():\n"
        "    assert used_oracle() == _oracles.attribute_oracle() == _route_cost()\n"
    )
    assert unused_oracles(tmp_path) == [
        ("_oracles.py", 1, "helper_oracle"),
        ("_oracles.py", 9, "imported_oracle"),
        ("_oracles.py", 13, "_route_cost"),
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
        "def _shared():\n"
        "    pass\n"
        "def _imported():\n"
        "    pass\n"
        "_ON_OTHER = 5\n"  # b reads the name only on a value, not on module a
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import _imported as _alias\n"
        "def _unused():\n"
        "    pass\n"
        "def _shared():\n"  # b's use of its own _shared leaves a's unused
        "    pass\n"
        "def f(other):\n"
        "    return a._method_target, a._SELF, _alias, _shared, other._ON_OTHER\n"
    )
    assert unused_private_names(tmp_path) == [
        ("a.py", 1, "_helper"),
        ("a.py", 8, "_dead"),
        ("a.py", 15, "_UNREAD"),
        ("a.py", 16, "_SELF_TOO"),
        ("a.py", 19, "_shared"),
        ("a.py", 23, "_ON_OTHER"),
        ("b.py", 3, "_unused"),
    ]


def test_unused_public_name_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")  # no use
    (tmp_path / "a.py").write_text(
        "VERSION = 1\n"
        "LIMIT = 2\n"
        "def exported():\n"
        "    return exported()\n"  # a call from its own body is no use
        "def pinned():\n"
        "    pass\n"
        "def used():\n"
        "    return LIMIT\n"
        "class Unread:\n"  # classes are not checked
        "    def method(self):\n"
        "        pass\n"
        "def _private():\n"  # the private rule covers it
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nX = used()\n")
    assert unused_public_names(tmp_path, {"pinned"}) == [
        ("a.py", 1, "VERSION"),
        ("a.py", 3, "exported"),
        ("b.py", 2, "X"),
    ]


def test_pinned_names_are_the_fixed_clients_names(tmp_path):
    (tmp_path / "tracing.py").write_text(
        "TARGETS = (Target('hpp', 'route_cluster', 'hpp.span'),)\nOTHER = ('ignored',)\n"
    )
    (tmp_path / "harness.py").write_text(
        "from pondroute import hpp\nfrom pondroute.instances import load\nhpp.save_solution\n"
    )
    assert traced(tmp_path / "tracing.py") == {"hpp", "route_cluster", "span"}
    assert {"hpp", "load", "save_solution"} <= named(tmp_path / "harness.py")
