"""hyperwell's linear algebra runs on one library: the LAPACK that
oracle._lapack() loads. numpy bundles a second BLAS/LAPACK, reached through
np.linalg, np.dot/matmul/tensordot/inner/vdot, ndarray.dot, the @ operator
and an einsum given `optimize` (which hands contractions to tensordot);
a process that takes any of those routes pages in that second library too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperwell"
_NUMPY = {"np", "numpy"}
_PRODUCTS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def numpy_blas_routes(source):
    """(line, route) of every route into numpy's own BLAS/LAPACK in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and node.value.id in _NUMPY
            if (on_numpy and node.attr in _PRODUCTS | {"linalg"}) or node.attr == "dot":
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")
            if module[:2] == ["numpy", "linalg"] or (
                    module == ["numpy"] and {a.name for a in node.names} & (_PRODUCTS | {"linalg"})):
                found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("numpy.linalg")]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_blas_in_src(path):
    assert numpy_blas_routes(path.read_text()) == []


def test_every_route_is_caught():
    source = "\n".join([
        "import numpy as np",
        "import numpy.linalg",
        "from numpy.linalg import eigh",
        "from numpy import dot",
        "w = np.linalg.eigh(g)",
        "x = a @ b",
        "a @= b",
        "y = np.dot(a, b) + np.matmul(a, b) + np.tensordot(a, b) + np.inner(a, b)",
        "z = numpy.vdot(a, b) + a.dot(b)",
        "e = np.einsum('ij,jk->ik', a, b, optimize=True)",
        "f = np.einsum('ij,jk->ik', a, b)",
    ])
    assert numpy_blas_routes(source) == [
        (2, "numpy.linalg"), (3, "from numpy.linalg import"), (4, "from numpy import"),
        (5, "linalg"), (6, "@"), (7, "@"), (8, "dot"), (8, "inner"), (8, "matmul"),
        (8, "tensordot"), (9, "dot"), (9, "vdot"), (10, "einsum(optimize=...)")]
