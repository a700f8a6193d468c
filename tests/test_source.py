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


def call_graph(sources: dict) -> dict:
    """Each module-level function or class of `sources` (module name -> text)
    -> the others its body reads, as a name or an attribute; names are unique
    across `ayrep`'s modules."""
    bodies = {node.name: node for source in sources.values() for node in ast.parse(source).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return {name: {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(body)
                   if isinstance(n, (ast.Name, ast.Attribute))} & bodies.keys() - {name}
            for name, body in bodies.items()}


def reached(graph: dict, start: str) -> set:
    """Every name that `start` reaches along `graph`, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        new = graph[todo.pop()] - seen
        seen |= new
        todo += new
    return seen


# The classical forms on tableaux are the oracles that the cell builders are
# checked against, so neither side may reach the other's coefficient code.
CLASSICAL = ("build_orthogonal_skew", "bn_classical", "_young_matrices")
CELL_CODE = ("_step_coefficients", "_two_term_matrices", "_cell_rep", "induce", "extend_to_bn")
CELL_BUILDERS = ("build_from_functional", "build_parabolic", "build_parabolic_from_shapes",
                 "_cell_rep", "induce", "extend_to_bn")


def oracle_breaches(sources: dict) -> list:
    graph = call_graph(sources)
    assert set(CLASSICAL + CELL_CODE + CELL_BUILDERS) <= graph.keys()
    return sorted([f"{form} reaches {name}" for form in CLASSICAL
                   for name in reached(graph, form) & set(CELL_CODE)]
                  + [f"{builder} reaches _young_matrices" for builder in CELL_BUILDERS
                     if "_young_matrices" in reached(graph, builder)])


def test_classical_forms_and_cell_builders_share_no_coefficient_code():
    assert oracle_breaches({p.stem: p.read_text() for p in MODULES}) == []


def test_oracle_check_sees_a_planted_reference():
    sources = {p.stem: p.read_text() for p in MODULES}
    writer = "def _young_matrices(words: list, normalization: str) -> dict:\n"
    assert sources["reps"].count(writer) == 1
    reps = sources["reps"].replace(writer, writer + "    _step_coefficients\n")
    assert oracle_breaches(dict(sources, reps=reps)) == [
        f"{form} reaches _step_coefficients"
        for form in ("_young_matrices", "bn_classical", "build_orthogonal_skew")]
    # through a module-level helper of another module, read as an attribute
    helper = "def _letters(t: Optional[Tableau]) -> set:\n"
    induction = sources["induction"].replace(helper, helper + "    reps._young_matrices\n")
    assert oracle_breaches(dict(sources, induction=induction)) == [
        "extend_to_bn reaches _young_matrices"]


def walk_reached_by_the_guard(sources: dict) -> list:
    """The functions and classes of `cells` that `reps.verify_axiom_B` reaches.
    The guard vouches for every cell builder's columns, so it finds each
    neighbour on its own, never with the walk that built the cell."""
    cells = {node.name for node in ast.parse(sources["cells"]).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return sorted(reached(call_graph(sources), "verify_axiom_B") & cells)


def test_the_guard_reaches_nothing_in_cells():
    assert walk_reached_by_the_guard({p.stem: p.read_text() for p in MODULES}) == []


def test_guard_check_sees_a_planted_walk():
    sources = {p.stem: p.read_text() for p in MODULES}
    helper = "def _on_permutations(rep: Representation) -> bool:\n"
    assert sources["reps"].count(helper) == 1
    reps = sources["reps"].replace(helper, helper + "    _walk_cell\n")
    walk = ["Cell", "Functional", "_walk", "_walk_cell", "boundary_reflections"]
    assert walk_reached_by_the_guard(dict(sources, reps=reps)) == walk
    # through a helper of another module, read as an attribute
    helper = "def reflection(i: int, j: int) -> Reflection:\n"
    assert sources["groups"].count(helper) == 1
    groups = sources["groups"].replace(helper, helper + "    cells.genericity_violation\n")
    assert walk_reached_by_the_guard(dict(sources, groups=groups)) == [
        "Cell", "Functional", "genericity_violation"]


def test_reached_follows_chains_and_cycles():
    graph = call_graph({"a": "def f():\n    return g()\ndef g():\n    return f() + h\n",
                        "b": "from . import a\ndef h():\n    return 1\nclass K:\n    x = a.g\n"})
    assert graph == {"f": {"g"}, "g": {"f", "h"}, "h": set(), "K": {"g"}}
    assert reached(graph, "K") == {"f", "g", "h"}
    assert reached(graph, "h") == set()


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


def imported_modules(source: str) -> set:
    """Top-level names of the absolute imports anywhere in the module, as
    `import a.b` or `from a.b import c` name a."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses_or_inspect(path):
    # each CLI run starts a fresh interpreter, which would import `dataclasses` and with it
    # `inspect`, `ast`, `dis` and `tokenize` for nothing else; records are NamedTuples
    assert imported_modules(path.read_text()) & {"dataclasses", "inspect"} == set()


def test_import_check_sees_a_planted_import():
    source = (
        "import os.path, json as j\n"
        "from .cells import Cell\n"  # a relative import names a module of the package
        "from dataclasses import dataclass\n"
        "def late():\n"
        "    import inspect\n"
    )
    assert imported_modules(source) == {"os", "json", "dataclasses", "inspect"}


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


def _is_record(node: ast.ClassDef) -> bool:
    """A NamedTuple subclass, or a class under @dataclass or @dataclass(...)."""
    names = {ast.unparse(base) for base in node.bases} | {
        ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
    return bool(names & {"NamedTuple", "dataclass"})


def unread_fields(sources: list) -> list:
    """Fields of the NamedTuples and dataclasses in `sources`, and properties of any class
    there, that no module in `sources` reads as an attribute of that name."""
    fields, read = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if _is_record(node):
                        fields.append((node.name, item.target.id))
                elif isinstance(item, ast.FunctionDef) and any(
                        ast.unparse(d) == "property" for d in item.decorator_list):
                    fields.append((node.name, item.name))
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_every_field_and_property_is_read_by_the_library():
    # a field that only its tests read is computed for nobody; reads in tests
    # and in perfbench do not count
    assert unread_fields([p.read_text() for p in MODULES]) == []


def test_unread_field_check_sees_a_planted_field():
    sources = [
        "from typing import NamedTuple\n"
        "from dataclasses import dataclass, field\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n"
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    tag: str = field(default='')\n"
        "    @property\n    def area(self):\n        return self.size ** 2\n"
        "class Plain:\n    note: str\n"  # not a record, so not a field
        "    @property\n    def shown(self):\n        return 1\n",
        "def use(p, b):\n    p.left = b.size\n    return p.left + b.area\n",
    ]
    assert unread_fields(sources) == ["Box.tag", "Pair.right", "Plain.shown"]
    # a read anywhere in the sources counts, an assignment does not
    assert unread_fields(sources + ["x = y.right + y.shown\nz.tag = 1\n"]) == ["Box.tag"]


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
    linalg.word_is_identity: ["matrices"],
    linalg.power_is_identity: ["m", "k"],
    linalg.relation_holds: ["s", "t", "m"],
    linalg.SquareMatrix.equals: ["self", "other"],
    reps.Representation: ["n", "basis", "matrices", "normalization"],
    groups.braid_order: ["g", "h"],
}


def test_no_parameter_repeats_what_another_argument_fixes():
    found = {fn.__name__: list(inspect.signature(fn).parameters) for fn in SIGNATURES}
    assert found == {fn.__name__: params for fn, params in SIGNATURES.items()}


# How a relation is checked (which vectors are pushed, and the block table)
# is `linalg`'s to decide: every other module asks `relation_holds`.
RELATION_INTERNALS = {"word_is_identity", "power_is_identity", "_push", "_block_holds"}


def relation_internals_used(sources: dict) -> list:
    """'module.name' for each name of RELATION_INTERNALS that a module of
    `sources` (module name -> text) but `linalg` imports or reads, as a name
    or as an attribute."""
    found = set()
    for module, source in sources.items():
        if module == "linalg":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = {node.id if isinstance(node, ast.Name) else node.attr}
            else:
                continue
            found.update(f"{module}.{name}" for name in names & RELATION_INTERNALS)
    return sorted(found)


def test_only_linalg_knows_how_a_relation_is_checked():
    assert relation_internals_used({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_relation_check_sees_a_planted_import_and_call():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert "def _push(" in sources["linalg"]  # linalg's own uses do not count
    planted = "from .linalg import SquareMatrix, _push, relation_holds, word_trace"
    reps = sources["reps"].replace("from .linalg import SquareMatrix, relation_holds, word_trace",
                                   planted)
    assert planted in reps
    verify = sources["verify"] + "\ndef _late(s):\n    return linalg.power_is_identity(s, 2)\n"
    assert relation_internals_used(dict(sources, reps=reps, verify=verify)) == [
        "reps._push", "verify.power_is_identity"]


def assigned_names(source: str) -> set:
    """Names the module binds by assignment anywhere; an import binds none."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_one_module_sets_the_float_tolerance():
    # every float comparison of matrices reads linalg.FLOAT_TOL; no caller picks one
    setters = [p.stem for p in SRC.glob("*.py") if "FLOAT_TOL" in assigned_names(p.read_text())]
    assert setters == ["linalg"]


NORMALIZATION_NAMES = {"SEMINORMAL", "ORTHOGONAL", reps.SEMINORMAL, reps.ORTHOGONAL}


def normalization_comparisons(source: str) -> list:
    """Comparisons of a value with a normalization name, by its constant or its
    text, alone or in a tuple, list or set: what a name means is `reps`'s table's."""
    def names(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names, node.elts))
        field = {ast.Name: "id", ast.Attribute: "attr", ast.Constant: "value"}.get(type(node))
        return field is not None and getattr(node, field) in NORMALIZATION_NAMES
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and any(map(names, [node.left, *node.comparators]))]


def test_only_the_table_says_what_a_normalization_means():
    found = {p.stem: normalization_comparisons(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {module: sites for module, sites in found.items() if sites} == {}


def test_normalization_check_sees_a_planted_comparison():
    source = (
        "exact = normalization == SEMINORMAL\n"
        "if rep.normalization != reps.ORTHOGONAL:\n    pass\n"
        "known = form in ('seminormal', 'orthogonal-float')\n"
        "listed = ['orthogonal-float'] == forms\n"
        # a table, a loop over the names and a test against a tuple of them are no comparison
        "TABLE = {SEMINORMAL: (True, 1), ORTHOGONAL: (False, 1.0)}\n"
        "for form in (SEMINORMAL, ORTHOGONAL):\n    pass\n"
        "known = form in NAMES\n"
    )
    assert normalization_comparisons(source) == [
        "normalization == SEMINORMAL", "rep.normalization != reps.ORTHOGONAL",
        "form in ('seminormal', 'orthogonal-float')", "['orthogonal-float'] == forms"]


def test_the_cli_states_form_once():
    # one parent parser gives rep, induce and bn their --form
    tree = ast.parse((SRC / "cli.py").read_text())
    declared = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add_argument"
                and any(getattr(arg, "value", None) == "--form" for arg in node.args)]
    assert len(declared) == 1


def test_assignment_check_sees_every_binding_but_an_import():
    source = ("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\nfrom x import F\n"
              "def g():\n    H = 6\n    for K in A:\n        pass\n")
    assert assigned_names(source) == {"A", "B", "C", "D", "E", "H", "K"}
