"""No float matrix product in ``src/``.

A float ``@``, ``dot``, ``matmul``, ``einsum``, ``tensordot``, ``inner`` or
``vdot``, or any ``np.linalg`` routine, adds in an order that depends on the
BLAS kernel, the SIMD level and the thread count, so on an output path it
could give other plans on another machine. Every output bit rests instead
on single IEEE operations and on the library calls that the ``geometry``
module docstring lists.

No linter ships with the project, so this reads each module's syntax tree,
as ``test_unused_imports.py`` does, and reports every such use with the
function it sits in. A use on integers is exact whatever the kernel; each
is listed in ``INTEGER`` by module and function.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pondroute"
PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
INTEGER = {
    ("baseline.py", "_partitions"),  # (labels == b) @ bit: booleans times powers of two
}


def products(path: Path) -> list[tuple[int, str, str]]:
    """(line, enclosing function, construct) of each matrix product or
    ``linalg`` use in ``path``; module-level code has function ``""``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        construct = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            construct = "@"
        elif isinstance(node, ast.Call):
            called = node.func
            name = getattr(called, "attr", getattr(called, "id", None))
            if name in PRODUCTS:
                construct = name
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            construct = "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in module.split(".") for module in modules):
                construct = "linalg"
        if construct:
            found.append((node.lineno, scope, construct))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_no_float_matrix_products():
    uses = [
        f"{path.name}:{line}: {construct} in {scope or 'module code'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, scope, construct in products(path)
        if (path.name, scope) not in INTEGER
    ]
    assert uses == []


def test_listed_integer_uses_exist():
    listed = {
        (path.name, scope)
        for path in PACKAGE.glob("*.py")
        for _, scope, _ in products(path)
    }
    assert INTEGER <= listed


def test_products_are_reported(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    return np.dot(a, b) + a.dot(b) + np.einsum('i,i', a, b)\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        return np.linalg.norm(a) + np.vdot(a, a) + np.add(a, a).sum()\n"
    )
    assert products(path) == [
        (2, "", "linalg"),
        (4, "f", "@"),
        (5, "f", "@"),
        (6, "f", "dot"),
        (6, "f", "dot"),
        (6, "f", "einsum"),
        (9, "C.g", "linalg"),
        (9, "C.g", "vdot"),
    ]
