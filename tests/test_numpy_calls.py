"""Per-call numpy wrappers stay out of the package: 3-vector cross products and
norms go through ``geometry.cross3`` and ``geometry.norm``, reductions use
the array methods (``x.all()``, ``x.any()``), tolerance tests are written
out as comparisons, small inverses are written in closed form (a linear
system goes to ``np.linalg.solve``) and 3x3 determinants go through
``geometry.det3``, the cofactor expansion, so no module uses LAPACK's
determinant; read from each module's source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "floorref"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
FORBIDDEN = {"np.cross", "np.all", "np.any", "np.allclose", "np.isclose", "np.linalg.inv"}
NORM = "np.linalg.norm"
DET = "np.linalg.det"


def _dotted(node: ast.expr) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _wrapper_calls(source: str) -> list[str]:
    """Each forbidden call in a module's source, as "name:line"; a vector norm
    is allowed along an ``axis=``, where there is no single-vector form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func).replace("numpy.", "np.", 1)
        if name in FORBIDDEN or (name == NORM and not any(k.arg == "axis" for k in node.keywords)):
            found.append(f"{name}:{node.lineno}")
    return found


def _det_uses(source: str) -> list[str]:
    """Each use of ``np.linalg.det`` in a module's source, called or not, as
    "function:line" with the innermost enclosing function ("" at module level)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and _dotted(child).replace("numpy.", "np.", 1) == DET:
                found.append(f"{function}:{child.lineno}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_lapack_determinant_only_in_det3():
    # det3 is the closed form, so no function, det3 included, uses LAPACK's determinant
    uses = {m: _det_uses((SRC / f"{m}.py").read_text(encoding="utf-8")) for m in MODULES}
    assert {m: found for m, found in uses.items() if found} == {}


@pytest.mark.parametrize("module", MODULES)
def test_no_per_call_numpy_wrappers(module):
    assert _wrapper_calls((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_reader_sees_every_form():
    source = (
        "np.cross(a, b)\nnumpy.all(x)\nnp.any(x > 0)\nnp.linalg.norm(v)\n"
        "np.linalg.norm(m, axis=1)\nx.all()\ncross3(a, b)\n"
        "np.allclose(a, b, atol=1e-12)\nnumpy.isclose(a, b)\nnp.linalg.inv(t)\n"
        "numpy.linalg.inv(t) @ h\nnp.linalg.solve(a, b)\n"
    )
    assert _wrapper_calls(source) == [
        "np.cross:1", "np.all:2", "np.any:3", "np.linalg.norm:4", "np.allclose:8", "np.isclose:9",
        "np.linalg.inv:10", "np.linalg.inv:11",
    ]
    assert _det_uses(
        "np.linalg.det(a)\n"
        "def det3(r):\n    return numpy.linalg.det(r)\n"
        "def f(r):\n    lu = np.linalg.det\n    def g():\n        return np.linalg.det(r)\n"
        "    return det3(r) + lu(r)\n"
    ) == [":1", "det3:3", "f:5", "g:7"]
    assert len(MODULES) >= 12
