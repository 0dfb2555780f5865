"""The lint step: every ``def`` and ``class`` of the package is referenced by
name somewhere in the package, as a name or an attribute, except the
entries of ALLOWED, each with the reason it stays. Dunder methods are called
by the language and exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src/phaselab").glob("*.py"))

# module.qualified name -> why it stays without a reference in the package
ALLOWED = {
    "operators.DensityOperator.apply": "benchmarks/tracer.OPERATOR_METHODS looks it up by name",
    "operators.DensityOperator.adjoint": "benchmarks/tracer.OPERATOR_METHODS looks it up by name",
    "coherent.coherent_overlap": "tests/test_acceptance.py imports it",
    "remainder.weyl_vlasov_residual": "tests/test_acceptance.py imports it",
    "stability.powers_stormer_check": "tests/test_acceptance.py imports it",
    "io.load_raw_array": "it reads the raw dumps that run writes",
}


def unreferenced_defs(sources: dict[str, str]) -> list[str]:
    """``module.qualname`` of every def and class in the given modules (name
    -> source) whose name no expression of any of them reads."""
    defs, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        stack = [(tree, "")]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((child.name, f"{module}.{scope}{child.name}"))
                inner = f"{scope}{child.name}." if isinstance(child, ast.ClassDef) else scope
                stack.append((child, inner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(qualname for name, qualname in defs
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


def test_check_finds_an_unreferenced_def():
    sources = {"a": "class A:\n    def __init__(self):\n        pass\n"
                    "    def used(self):\n        pass\n"
                    "    def unused(self):\n        pass\n"
                    "def helper():\n    return A().used()\n",
               "b": "from a import helper\nhelper()\n"}
    assert unreferenced_defs(sources) == ["a.A.unused"]


def test_every_def_has_a_reference():
    found = unreferenced_defs({p.stem: p.read_text() for p in MODULES})
    assert [name for name in found if name not in ALLOWED] == []
    # an allowed name that is gone or has gained a reference leaves the list
    assert sorted(ALLOWED) == [name for name in found if name in ALLOWED]
