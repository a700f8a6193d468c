"""Static checks on the source of `ayrep`, by the standard library's `ast`
and, for signatures, `inspect`."""

import ast
import inspect
from pathlib import Path

import pytest

from ayrep import cells, groups, induction, linalg, reps, verify

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ayrep"
# __init__ imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# an oracle checks `ayrep` from outside, so it takes only public names from it
ORACLES = sorted(TESTS.glob("*_oracles.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_definitions(sources: dict) -> list:
    """Private functions, methods and classes that no module reads outside
    their own definition; `sources` maps a module name to its text."""
    defined, used = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                defined.add((module, node.name))
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for module, source in sources.items():
        visit(ast.parse(source), frozenset())
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def private_ayrep_names(source: str) -> list:
    """Private names the module takes from `ayrep`: imported by name, or read
    as an attribute of a name it imported from `ayrep`."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ayrep":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] == "ayrep")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append(ast.unparse(node))
    return sorted(found)


def test_source_modules_are_found():
    assert {p.name for p in MODULES} >= {"cells.py", "induction.py", "reps.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .cells import Functional, descent_cell\n"
        "def build(f: Functional):\n"
        "    return os.path.join(f)\n"
    )
    assert unused_imports(source) == ["descent_cell"]


def test_every_private_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def test_private_definition_check_sees_an_unreferenced_name():
    sources = {
        "a": (
            "def _used(x):\n"
            "    return _used(x - 1) if x else 0\n"  # a self-reference does not count
            "def _recursive_only(x):\n"
            "    return _recursive_only(x)\n"
            "class _Box:\n"
            "    def _method(self):\n"
            "        return self._other()\n"
            "    def _other(self):\n"
            "        return 1\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "b": "from .a import _used\nVALUE = _used(2)\n",
    }
    assert unreferenced_private_definitions(sources) == ["a._Box", "a._method", "a._recursive_only"]


def unread_imports(init_source: str, sources: list) -> list:
    """Names the package's `__init__` imports that no module in `sources` reads,
    as a name or as an attribute."""
    imported = {alias.asname or alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = {node.attr if isinstance(node, ast.Attribute) else node.id
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_export_but_the_named_entry_point_is_read_by_the_library():
    # an export that no module reads serves only its own tests; the README
    # names cell_tableau_bijection as an entry point for users
    unread = unread_imports((SRC / "__init__.py").read_text(), [p.read_text() for p in MODULES])
    assert unread == ["cell_tableau_bijection"]


def test_unread_import_check_sees_names_and_attributes():
    init = "from .a import f, g, h, k\n"
    sources = ["from . import a\nx = f(1) + a.g\nh = 2\n", "def k():\n    return x\n"]
    # h and k are only bound, never read
    assert unread_imports(init, sources) == ["h", "k"]


def test_oracle_modules_are_found():
    assert {p.name for p in ORACLES} >= {"group_oracles.py", "tableau_oracles.py"}


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.stem)
def test_no_oracle_takes_a_private_name_from_ayrep(path):
    assert private_ayrep_names(path.read_text()) == []


def test_private_name_check_sees_imports_and_attributes():
    source = (
        "import ayrep.tableaux\n"
        "from ayrep import tableaux as tab\n"
        "from ayrep.tableaux import SkewShape, _join_components\n"
        "from collections import _private\n"  # not from ayrep
        "def _local():\n"
        "    return _private\n"
        "X = ayrep.tableaux._stack(tab._rows, SkewShape.__name__, _local())\n"
    )
    assert private_ayrep_names(source) == [
        "ayrep.tableaux._join_components", "ayrep.tableaux._stack", "tab._rows"]


def test_suites_take_only_the_size_bound_and_seed():
    # Every other value a suite or relation check uses is a constant, pinned by
    # the detail lines in test_acceptance.py; a parameter no caller sets would
    # be one more configuration to cover.
    extra = {name: sorted(set(inspect.signature(fn).parameters) - {"n_max", "seed"})
             for name, fn in verify.SUITES.items()}
    assert {name: params for name, params in extra.items() if params} == {}
    assert list(inspect.signature(reps.verify_coxeter).parameters) == ["rep"]


# No parameter whose value another argument of the same call already fixes:
# n is the size of the functional, the representation or the two shapes, the
# tableau gives its contents, and a walk checks the cap and builds its members.
SIGNATURES = {
    cells.cell_tableau_bijection: ["q"],
    cells.flat_partition: ["flat"],
    cells._walk_cell: ["A", "start", "gens"],
    induction.induce: ["psi"],
    induction.classical_induced_character: ["psi"],
    induction.signed_pair_basis: ["lam", "mu"],
    reps.build_parabolic: ["f", "J", "normalization"],
    linalg.word_is_identity: ["matrices", "closed_under"],
    linalg.power_is_identity: ["m", "k"],
    linalg.SquareMatrix.equals: ["self", "other"],
    reps.Representation: ["n", "basis", "matrices", "normalization"],
    groups.braid_order: ["g", "h"],
}


def test_no_parameter_repeats_what_another_argument_fixes():
    found = {fn.__name__: list(inspect.signature(fn).parameters) for fn in SIGNATURES}
    assert found == {fn.__name__: params for fn, params in SIGNATURES.items()}


def assigned_names(source: str) -> set:
    """Names the module binds by assignment anywhere; an import binds none."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_one_module_sets_the_float_tolerance():
    # every float comparison of matrices reads linalg.FLOAT_TOL; no caller picks one
    setters = [p.stem for p in SRC.glob("*.py") if "FLOAT_TOL" in assigned_names(p.read_text())]
    assert setters == ["linalg"]


def test_assignment_check_sees_every_binding_but_an_import():
    source = ("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\nfrom x import F\n"
              "def g():\n    H = 6\n    for K in A:\n        pass\n")
    assert assigned_names(source) == {"A", "B", "C", "D", "E", "H", "K"}
