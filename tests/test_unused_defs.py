"""The lint step: every ``def``, ``class`` and module-level UPPER_CASE
constant of the package is referenced by name somewhere in the package,
except the entries of ALLOWED, each with the reason it stays. A function,
class or constant is referenced by a name read or an attribute read, a
method only by an attribute read (``x.name``); an attribute read on a plain
``import`` alias (``np.trace``) names the imported module's member and
references nothing here. Dunder methods are called by the language and
exempt. The test references in ``tests/oracles.py`` are held to the same
rule over the test sources, with no exceptions."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src/phaselab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# module.qualified name -> why it stays without a reference in the package
ALLOWED = {
    "operators.DensityOperator.apply": "benchmarks/tracer.OPERATOR_METHODS looks it up by name",
    "operators.DensityOperator.adjoint": "benchmarks/tracer.OPERATOR_METHODS looks it up by name",
    "coherent.coherent_overlap": "tests/test_acceptance.py imports it",
    "remainder.weyl_vlasov_residual": "tests/test_acceptance.py imports it",
    "stability.powers_stormer_check": "tests/test_acceptance.py imports it",
    "io.load_raw_array": "it reads the raw dumps that run writes",
    # masked under the old rule by the local `integral` of sweeps.py
    "grids.PhaseField.integral": "tests/test_acceptance.py calls it",
    # masked under the old rule by `np.trace`
    "operators.DensityOperator.trace": "tests/test_acceptance.py calls it",
}


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unreferenced_defs(sources: dict[str, str]) -> list[str]:
    """``module.qualname`` of every def, class and module-level UPPER_CASE
    constant in the given modules (name -> source) that no expression of any
    of them reads: a method by an attribute read, any other def and a
    constant by a name or an attribute read."""
    defs, names, attrs = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                            and CONSTANT.fullmatch(name.id)):
                        defs.append((name.id, f"{module}.{name.id}", False))
        stack = [(tree, "", False)]
        while stack:
            node, scope, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((child.name, f"{module}.{scope}{child.name}",
                                 in_class and not isinstance(child, ast.ClassDef)))
                is_class = isinstance(child, ast.ClassDef)
                stack.append((child, f"{scope}{child.name}." if is_class else scope, is_class))
        aliases = {(a.asname or a.name).split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in aliases):
                attrs.add(node.attr)
    return sorted(qualname for name, qualname, method in defs
                  if name not in attrs and (method or name not in names)
                  and not (name.startswith("__") and name.endswith("__")))


def test_check_finds_an_unreferenced_def():
    # a method is not referenced by a local name (``total``), nor by an
    # attribute of a plain import alias (``np.trace``)
    sources = {"a": "class A:\n    def __init__(self):\n        pass\n"
                    "    def used(self):\n        pass\n"
                    "    def unused(self):\n        pass\n"
                    "    def total(self):\n        pass\n"
                    "    def trace(self):\n        pass\n"
                    "def helper():\n    return A().used()\n",
               "b": "import numpy as np\nfrom a import helper\n"
                    "total = helper()\nnp.trace(total)\n"}
    assert unreferenced_defs(sources) == ["a.A.total", "a.A.trace", "a.A.unused"]


def test_check_finds_an_unread_constant():
    # a module-level UPPER_CASE name that is only stored, or only imported,
    # is unread; a lower-case one and a class attribute are not constants
    sources = {"a": "A, B = 1, 2\nC: int = 3\nREAD = A\nlower = 4\n"
                    "class K:\n    SLOT = 5\n",
               "b": "from a import B, READ\nfrom a import K\nprint(READ, K)\n"}
    assert unreferenced_defs(sources) == ["a.B", "a.C"]


def test_every_def_has_a_reference():
    found = unreferenced_defs({p.stem: p.read_text() for p in MODULES})
    assert [name for name in found if name not in ALLOWED] == []
    # an allowed name that is gone or has gained a reference leaves the list
    assert sorted(ALLOWED) == [name for name in found if name in ALLOWED]


def test_every_oracle_has_a_test():
    # a test reference leaves with the last test that reads it
    found = unreferenced_defs({p.stem: p.read_text() for p in TESTS})
    assert [name for name in found if name.startswith("oracles.")] == []
