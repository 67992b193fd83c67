"""Per-call numpy wrappers stay out of the package: 3-vector cross products and
norms go through ``geometry.cross3`` and ``geometry.norm`` (norms along an
axis are written out, with no ``np.linalg.norm`` call), reductions use
the array methods (``x.all()``, ``x.any()``), tolerance tests are written
out as comparisons, small inverses are written in closed form (a linear
system goes to ``np.linalg.solve``) and 3x3 determinants go through
``geometry.det3``, the cofactor expansion, so no module uses LAPACK's
determinant; and every random generator is a Philox substream made by
``simulate.rng_substream``, for per-seed determinism: no ``default_rng`` and
no draw from numpy's legacy global state; read from each module's source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "floorref"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
FORBIDDEN = {"np.cross", "np.all", "np.any", "np.allclose", "np.isclose", "np.linalg.inv", "np.linalg.norm"}
DET = "np.linalg.det"
# the only uses of np.random: the generator of rng_substream, and the seed
# derivation of the cli's per-trial seeds
RANDOM_HOMES = {
    "np.random.Generator": {"simulate.rng_substream"},
    "np.random.Philox": {"simulate.rng_substream"},
    "np.random.SeedSequence": {"simulate.rng_substream", "cli._derived_seed"},
}


def _dotted(node: ast.expr) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _wrapper_calls(source: str) -> list[str]:
    """Each forbidden call in a module's source, as "name:line"; a norm along
    an ``axis=`` is written out as the square root of summed squares."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func).replace("numpy.", "np.", 1)
        if name in FORBIDDEN:
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
        "np.cross:1", "np.all:2", "np.any:3", "np.linalg.norm:4", "np.linalg.norm:5", "np.allclose:8",
        "np.isclose:9", "np.linalg.inv:10", "np.linalg.inv:11",
    ]
    assert _det_uses(
        "np.linalg.det(a)\n"
        "def det3(r):\n    return numpy.linalg.det(r)\n"
        "def f(r):\n    lu = np.linalg.det\n    def g():\n        return np.linalg.det(r)\n"
        "    return det3(r) + lu(r)\n"
    ) == [":1", "det3:3", "f:5", "g:7"]
    assert len(MODULES) >= 12


def _random_uses(source: str) -> list[tuple[str, str, int]]:
    """Each use of ``np.random`` in a module's source, called or not and
    imported or not, as (``np.random.<name>`` or ``np.random``, innermost
    enclosing function ("" at module level), line)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                name = _dotted(child).replace("numpy.", "np.", 1)
                if name == "np.random" or name.startswith("np.random."):
                    found.append((".".join(name.split(".")[:3]), function, child.lineno))
                    continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                module = f"{child.module}." if isinstance(child, ast.ImportFrom) else ""
                for alias in child.names:
                    name = f"{module}{alias.name}".replace("numpy.", "np.", 1)
                    if name == "np.random" or name.startswith("np.random."):
                        found.append((name, function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_generators_come_from_rng_substream():
    uses = {
        (name, f"{m}.{function}")
        for m in MODULES
        for name, function, _ in _random_uses((SRC / f"{m}.py").read_text(encoding="utf-8"))
    }
    homes = {(name, home) for name, homes in RANDOM_HOMES.items() for home in homes}
    assert homes <= uses  # the reader sees the allowed uses
    assert sorted(use for use in uses if use[1] not in RANDOM_HOMES.get(use[0], ())) == []


def test_random_reader_sees_every_form():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "from numpy import random, linalg\n"
        "def rng_substream(seed):\n"
        "    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))\n"
        "def f():\n"
        "    x = np.random.normal(0.0, 1.0)\n"
        "    def g():\n"
        "        return numpy.random.default_rng(1).normal()\n"
        "    return np.random\n"
        "rng: np.random.Generator = rng_substream(1)\n"
        "import numpy.random\n"
        "y = rng.standard_normal() + np.linalg.norm(x)\n"
    )
    assert _random_uses(source) == [
        ("np.random.default_rng", "", 2),
        ("np.random", "", 3),
        ("np.random.Generator", "rng_substream", 5),
        ("np.random.Philox", "rng_substream", 5),
        ("np.random.SeedSequence", "rng_substream", 5),
        ("np.random.normal", "f", 7),
        ("np.random.default_rng", "g", 9),
        ("np.random", "f", 10),
        ("np.random.Generator", "", 11),
        ("np.random", "", 12),
    ]
