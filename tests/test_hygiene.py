"""Lint-style checks that need no linter: the public names resolve, no
module imports a name it never uses and no class defines a method nothing
calls, no invariant rests on ``assert`` (which ``python -O`` strips),
polynomials stay over Z, values hold no fact the ADE type already fixes, the
Molien route stays off the other group-side routes, and each check is named
in one place."""
from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import adeweights
from adeweights.graphs import DirectedGraph
from adeweights.groups import (CharTable, ConjClass, FiniteSubgroup, MolienSet,
                               decompose)
from adeweights.verify import CHECKS
from adeweights.weights import QNumerators, TWeights

SRC = Path(adeweights.__file__).parent


def test_public_names_resolve():
    for name in adeweights.__all__:
        assert hasattr(adeweights, name), name


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":  # its imports are the re-exports
            unused += _unused_imports(path)
    assert unused == []


def test_no_assert_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_poly_imports_nothing_from_fractions():
    """Polynomials stay over Z, and the graph side (marks included) solves
    its integer systems over Z."""
    found = [f"{name}:{node.lineno}" for name in ("poly.py", "graphs.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import)
             and any(a.name == "fractions" for a in node.names)]
    assert found == []


def test_src_imports_no_dataclasses():
    """The value records are ``NamedTuple``s: importing ``dataclasses``
    pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
    decoration execs its generated methods, which took most of a cold
    start's import of the CLI."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"
             or isinstance(node, ast.Import)
             and any(a.name == "dataclasses" for a in node.names)]
    assert found == []


def test_cli_import_leaves_dataclasses_unloaded():
    """A fresh interpreter, without ``site`` so that nothing else loads it,
    imports the CLI and has not loaded ``dataclasses``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, adeweights.cli; "
         "print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_matrix_class_or_matrix_product_in_src():
    """A generator is its top row (a, b) over Q(zeta_N), and the closure
    runs on its 2x2 image mod p, ``cyclo.su2_mod_p``: zeta -> omega of
    order exactly N in F_p^*, p the least prime = 1 (mod N) dividing no
    generator denominator, faithful on every finite subgroup since p is odd
    and unramified in Q(zeta_N) (Minkowski 1887; Serre, "Bounds for the
    orders of the finite subgroups of G(k)", 2007), given the one premise
    that the generators generate a finite group. So src/ has no 2x2 matrix
    class over Q(zeta_N) and no ``@``; the exact elements and full matrices
    live in tests/oracles.py as the oracle, whose exact closure checks that
    premise for the tested types."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if "Matrix2" in text:
            found.append(f"{path.name}: Matrix2")
        found += [f"{path.name}:{node.lineno} @"
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
    assert found == []


def _function(path: Path, name: str) -> ast.FunctionDef:
    """The top-level function ``name`` of the module at ``path``."""
    tree = ast.parse(path.read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _names_in_function(path: Path, name: str) -> set[str]:
    """Every name and attribute the top-level function ``name`` reads."""
    body = _function(path, name)
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(body)
                    if isinstance(node, ast.Attribute)}


def test_molien_series_stays_off_the_other_group_routes():
    """The Molien class sum shares the ``trace_sums`` sweep with
    ``decompose`` and the symmetric-power oracle, never their intermediate
    results."""
    names = _names_in_function(SRC / "groups.py", "molien_series")
    assert names & {"weighted", "decompose", "sym_power_values",
                    "sym_power_multiplicities"} == set()


def test_sym_powers_stay_off_the_molien_route():
    names = _names_in_function(SRC / "groups.py", "sym_power_multiplicities")
    assert names & {"numerators", "molien_series", "_class_cofactor",
                    "_cofactor_lifts", "MolienSet", "coefficients"} == set()


def test_mckay_and_molien_read_no_class_trace():
    """The McKay matrix and the Molien cofactors take tau_C = zeta^e_C +
    zeta^-e_C as two rotations by ``eigen_exp``, so neither reads a class
    trace to multiply by."""
    for name in ("mckay_matrix", "molien_series", "_cofactor_lifts"):
        assert "trace" not in _names_in_function(SRC / "groups.py", name), \
            name


def test_trace_products_go_through_one_helper():
    """tau_C = zeta^e_C + zeta^-e_C multiplies through ``_tau_times`` alone:
    ``decompose`` takes no tensor mode."""
    assert list(inspect.signature(decompose).parameters) == [
        "G", "values", "rows"]
    for name in ("mckay_matrix", "sym_power_multiplicities",
                 "_cofactor_lifts", "_e_type_table"):
        assert "_tau_times" in _names_in_function(SRC / "groups.py", name), \
            name


def test_affine_matching_is_one_pass():
    """``_match_affine`` places each row once, in breadth-first order: it
    defines no nested function and calls nothing of its own, so it cannot
    backtrack."""
    body = _function(SRC / "groups.py", "_match_affine")
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert not any(isinstance(node, nested) for node in ast.walk(body)
                   if node is not body)
    assert "_match_affine" not in _names_in_function(SRC / "groups.py",
                                                     "_match_affine")


def test_trace_polynomials_are_read_only_for_json():
    """A class's ``trace_min_poly`` is ``poly.cos_polynomial`` at the
    class's order, named in groups.py only where ``classes_to_json`` prints
    it; no group-side computation or check reads it, and groups.py never
    names ``cox``, the graph side's denominator."""
    tree = ast.parse((SRC / "groups.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name == "FiniteSubgroup")
    method = next(node for node in cls.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "classes_to_json")
    inside = {id(node) for node in ast.walk(method)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "cos_polynomial"]
    assert uses and all(id(node) in inside for node in uses)
    assert "cox" not in _named(SRC / "groups.py")


def test_inverse_columns_are_read_not_rebuilt():
    """Inner products read conj(f) as a reversed lift at the orbit reps and
    the table check reads each orbit's stored stabiliser, so neither builds
    a lookup of classes per call."""
    dicts = (ast.Dict, ast.DictComp)
    for name in ("decompose", "table_violation"):
        body = _function(SRC / "groups.py", name)
        assert not any(isinstance(node, dicts) for node in ast.walk(body)), \
            name
        assert "dict" not in _names_in_function(SRC / "groups.py", name), \
            name


def test_only_printing_writes_a_row_at_every_class():
    """A table holds its rows at the Galois orbit reps, one format that
    groups.py alone knows: ``FiniteSubgroup.expand``, which writes a row at
    every class, is called in src/ only by ``CharTable.to_json``, and no
    module names ``at_reps``, a picker of the reps out of rows held at
    every class."""
    tree = ast.parse((SRC / "groups.py").read_text())
    table = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "CharTable")
    method = next(node for node in table.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "to_json")
    inside = {id(node) for node in ast.walk(method)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "expand"]
    assert uses and all(id(node) in inside for node in uses)
    others = [path for path in sorted(SRC.glob("*.py"))
              if path.name != "groups.py"]
    assert [path.name for path in others if "expand" in _named(path)] == []
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "at_reps" in _named(path)] == []


def test_power_sums_are_a_list():
    """The symmetric-power oracle holds its power sums in a list indexed by
    min(m mod N, -m mod N): it defines no nested memo function."""
    body = _function(SRC / "groups.py", "sym_power_multiplicities")
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert not any(isinstance(node, nested) for node in ast.walk(body)
                   if node is not body)


def test_degree_one_rows_come_from_one_search():
    """In groups.py a root of unity is built only for a generator and by
    ``_linear_characters``, so every character table takes its degree-1
    rows from that one homomorphism search."""
    tree = ast.parse((SRC / "groups.py").read_text())
    callers = {getattr(node, "name", type(node).__name__)
               for node in tree.body for sub in ast.walk(node)
               if isinstance(sub, ast.Attribute)
               and sub.attr == "root_of_unity"}
    assert callers == {"quaternion", "generators", "_linear_characters"}


def _product_loops(node: ast.AST) -> bool:
    """Whether ``node`` holds a ``for`` nested in a ``for`` whose body adds
    a product into a target by ``+=``."""
    return any(isinstance(outer, ast.For) and any(
        isinstance(inner, ast.For) and any(
            isinstance(step, ast.AugAssign) and isinstance(step.op, ast.Add)
            and isinstance(step.value, ast.BinOp)
            and isinstance(step.value.op, ast.Mult)
            for step in ast.walk(inner))
        for body in outer.body for inner in ast.walk(body))
        for outer in ast.walk(node))


def test_cyclo_has_one_product_loop():
    """``cyclo`` imports nothing from ``poly``: no cyclotomic value
    becomes a polynomial there, and it builds its own Phi_N, so the group
    side runs none of the graph side's division. The one product loop is
    ``CycNumber.__mul__``'s: no function of cyclo but it nests a ``for``
    in a ``for`` around a ``+=`` of a product, except ``_Field.reduce``,
    which adds integer multiples of its fixed reduction rows. The sum of
    products ``dot``, its ``_accumulate`` buffer and its ``Split`` rows are
    gone: every caller took one product or an integer combination. Sums
    of traces are swept off a trace matrix, so ``trace_dot`` and
    ``rational_dot`` are gone, and only ``trace_rows`` reads the Ramanujan
    sums ``_Field.traces``."""
    tree = ast.parse((SRC / "cyclo.py").read_text())
    assert [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "poly"
            for alias in node.names] == []
    assert "poly" not in _named(SRC / "cyclo.py")
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "CycNumber")
    mul = next(node for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__mul__")
    assert _product_loops(mul)

    def looping(fn):
        return any(_product_loops(node) for node in fn.body)

    assert {fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and looping(fn)} \
        == {"__mul__", "reduce"}
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"dot", "_accumulate", "Split", "trace_dot",
                      "rational_dot"} == set()
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "traces"}
    assert readers == {"trace_rows"}


def _trial_divisions(tree: ast.AST) -> set[str]:
    """Names of the functions holding a loop that divides by its own
    variable: ``x % v`` in a comprehension over v, in the body of a ``for``
    over v, or in the body of a ``while`` that steps v by ``+=``."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, comprehensions):
                names = {gen.target for gen in loop.generators}
                body = [loop]
            elif isinstance(loop, ast.For):
                names, body = {loop.target}, loop.body
            elif isinstance(loop, ast.While):
                names = {step.target for stmt in loop.body
                         for step in ast.walk(stmt)
                         if isinstance(step, ast.AugAssign)
                         and isinstance(step.op, ast.Add)}
                body = loop.body
            else:
                continue
            ids = {n.id for n in names if isinstance(n, ast.Name)}
            if any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                   and isinstance(node.right, ast.Name)
                   and node.right.id in ids
                   for stmt in body for node in ast.walk(stmt)):
                out.add(fn.name)
    return out


def test_cyclo_factors_by_one_kernel():
    """``cyclo._primes`` is the one trial division of cyclo: phi, the
    Moebius values mu(N / d) over the divisors d, Phi_N, the Ramanujan sums
    and ``residue_field``'s primes and primality test all come from it.
    Before, ``euler_phi``, ``_Field.traces`` and ``residue_field`` each
    divided by a running candidate, and ``isqrt`` bounded one of them."""
    tree = ast.parse((SRC / "cyclo.py").read_text())
    assert _trial_divisions(tree) == {"_primes"}
    assert "isqrt" not in _named(SRC / "cyclo.py")


def test_galois_action_is_written_once():
    """groups.py walks each Galois orbit rep's powers once, inside
    ``enumerate_subgroup`` by ``_sl2_times``, the one group product, so it
    defines no ``powers``, ``mul``, ``conjugate``, ``_galois_orbits`` or
    ``order_and_inverse``. In cyclo.py one function writes the index map of
    sigma_a, x^i -> x^(ia mod N) (a ``%`` of a product or of a negation),
    and ``CycNumber.galois`` and ``is_fixed`` alone call it. No sweep reads
    a conjugate: ``trace_rows`` builds the matrix of the conjugate rows, so
    cyclo defines no ``split``, ``trace_sums`` takes exactly
    (N, xs, matrix, factors), dividing by phi(N) times the factors' sum
    itself, and groups imports neither ``split`` nor ``euler_phi``."""
    tree = ast.parse((SRC / "groups.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "_sl2_times" in defined
    assert defined & {"powers", "mul", "conjugate", "_galois_orbits",
                      "order_and_inverse"} == set()
    functions = [node for node in ast.walk(ast.parse(
        (SRC / "cyclo.py").read_text())) if isinstance(node, ast.FunctionDef)]
    moves = (ast.Mult, ast.USub)
    writers = {fn.name for fn in functions for node in ast.walk(fn)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
               and isinstance(getattr(node.left, "op", None), moves)}
    assert writers == {"_galois_lift"}
    callers = {fn.name for fn in functions for node in ast.walk(fn)
               if isinstance(node, ast.Name) and node.id == "_galois_lift"}
    assert callers == {"galois", "is_fixed"}
    assert "split" not in {fn.name for fn in functions}
    sums = next(fn for fn in functions if fn.name == "trace_sums")
    assert [arg.arg for arg in sums.args.args] == ["N", "xs", "matrix",
                                                   "factors"]
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "cyclo"
                for alias in node.names}
    assert "trace_sums" in imported
    assert imported & {"split", "euler_phi"} == set()


def test_table_builders_read_no_coordinates():
    """The character tables read the group through its classes, traces
    and right-multiplication tables, never an element's coordinates, so no
    row depends on which generators G was given."""
    for name in ("_linear_characters", "_binary_dihedral_table",
                 "_e_type_table"):
        assert "elements" not in _names_in_function(SRC / "groups.py",
                                                    name), name


def _named(path: Path) -> set[str]:
    """Every name a module binds, loads or imports, and every attribute it
    reads."""
    tree = ast.parse(path.read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    names |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    return names


def test_group_side_shares_no_graph_identity_code():
    """The McKay matching reads the affine graph and marks it is handed, and
    the Molien recurrence keeps its own loop over the McKay matrix; the
    weight identities read the graphs they are handed."""
    assert _named(SRC / "groups.py") & {"build_graph", "graph_marks",
                                        "neighbor_sums"} == set()
    assert "build_graph" not in _named(SRC / "weights.py")


def test_tables_keep_no_weighted_rows():
    assert not hasattr(CharTable, "weighted")
    assert "_weigh" not in _named(SRC / "groups.py")


def test_molien_set_stores_no_series():
    hints = get_type_hints(MolienSet)
    for name in MolienSet._fields:
        assert "series" not in name
        assert "RationalFunction" not in str(hints[name])


def test_series_expansion_lives_in_one_place():
    """The long division stays in tests/oracles.py as the reference the
    prefix-sum expansion is compared against; src/ neither defines it nor
    imports the oracles."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.FunctionDef)
                       and node.name == "series_coefficients"
                       for node in ast.walk(tree)), path.name
        modules = {node.module or "" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        modules |= {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        assert "oracles" not in {m.rsplit(".", 1)[-1] for m in modules}, \
            path.name


def test_tweights_hold_only_the_cramer_vector():
    """The solver keeps y = det(tI - A_fin) * n unreduced; a weight is
    reduced only when ``TWeights.values`` is read."""
    assert list(TWeights._fields) == ["dynkin", "y"]
    assert "RationalFunction" not in _names_in_function(SRC / "weights.py",
                                                        "solve_semiaffine")


def test_solver_det_takes_its_own_route():
    """STRUCTURAL_CHARPOLY holds LeVerrier against the solver's det, so the
    solver must not reach LeVerrier."""
    assert _named(SRC / "weights.py") & {"char_poly", "charpoly_report"} \
        == set()


def test_poly_defines_no_lcm():
    tree = ast.parse((SRC / "poly.py").read_text())
    assert "poly_lcm" not in {node.name for node in ast.walk(tree)
                              if isinstance(node, ast.FunctionDef)}


def test_no_dead_module_level_helpers():
    """Every top-level function and class in src/ is read (as a name, an
    attribute or an import) somewhere in src/, or exported in ``__all__``;
    ``cli.run`` is the console entry point."""
    paths = sorted(SRC.glob("*.py"))
    read = set(adeweights.__all__).union(*(_named(path) for path in paths))
    unread = [f"{path.name}:{node.name}" for path in paths
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in read]
    assert [name for name in unread if name != "cli.py:run"] == []


def _reads_outside_namesakes(tree: ast.AST) -> set[str]:
    """Every name and attribute ``tree`` reads, except a read inside a
    function of the same name: a method that only a namesake calls (a
    ``to_json`` delegating to its parts, a recursion) is not kept alive."""
    out: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name is not None and name not in enclosing:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def test_no_dead_methods():
    """Every method and property a class in src/ defines, dunders aside, is
    read somewhere in src/. The program writes JSON and reads none, so no
    class keeps a ``from_json``. Dunders, and methods that share a name with
    something read, are covered by test_reachability.py, which runs the
    CLI and lists what no call enters."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = set().union(*(_reads_outside_namesakes(tree) for tree in trees))
    unread = [f"{cls.name}.{node.name}" for tree in trees
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in read]
    assert unread == []


def test_values_hold_no_copied_type_facts():
    """h, a, b, |G| and the conductor are functions of the ADE type, a
    graph's size and affine node follow from its matrix and form, and a
    character table's columns are its group's Galois-orbit reps, the
    identity first, so its degrees are column 0, which a Molien set reads
    instead of keeping a copy. A group's order is the length of its
    right-multiplication tables, and a class's trace is the group's
    ``traces`` at its eigen-exponent. Each value keeps only what cannot be
    derived, and nothing in src/ reads a table's classes."""
    assert list(QNumerators._fields) == ["dynkin", "N"]
    assert list(MolienSet._fields) == ["dynkin", "numerators"]
    assert list(CharTable._fields) == ["values"]
    assert list(FiniteSubgroup._fields) == [
        "dynkin", "conductor", "generators", "right", "classes", "orbits",
        "traces"]
    assert "trace" not in ConjClass._fields
    assert [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "classes"
            and "table" in ast.unparse(node.value)] == []
    assert list(DirectedGraph._fields) == ["mult", "dynkin", "form"]


def test_no_product_by_a_one_plus_q_factor():
    """Multiplying by 1 + c*q^k is a shift and an add, so no ``*`` in src/
    has a ``one_plus_q(...)`` call as an operand."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and any(isinstance(side, ast.Call)
                     and isinstance(side.func, ast.Name)
                     and side.func.id == "one_plus_q"
                     for side in (node.left, node.right))]
    assert found == []


def test_each_check_is_named_once():
    """``verify.CHECKS`` is the one list of checks: each check's name is one
    string literal in src/, and no check body names itself."""
    literals = Counter(node.value for path in sorted(SRC.glob("*.py"))
                       for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Constant))
    names = tuple(c.name for c in CHECKS)
    assert len(names) == 13
    assert {name: literals[name] for name in names} == dict.fromkeys(names, 1)


def test_type_checks_calls_every_check_the_same_way():
    """``_type_checks`` runs each registry entry as ``run(bundle, fault)``:
    it wraps no check in a lambda, a ``partial`` or a cache."""
    body = _function(SRC / "verify.py", "_type_checks")
    assert not any(isinstance(node, ast.Lambda) for node in ast.walk(body))
    assert _names_in_function(SRC / "verify.py", "_type_checks") & {
        "partial", "cache", "lru_cache", "cached_property"} == set()


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    """``tests/code_lines.py`` counts a line when it holds code outside a
    module, class or function docstring: a comment, a blank line and a
    docstring count 0, a string assigned to a name and each line of a
    bracketed expression count."""
    from code_lines import code_lines
    text = ('"""Module\ndocstring."""\nimport os  # a comment\n\n'
            '# only a comment\nclass C:\n    """Class docstring."""\n\n'
            '    def f(self, x):\n        """Function\n        docstring."""\n'
            '        s = """a string,\n        not a docstring"""\n'
            '        return (x +\n                1)\n')
    assert code_lines(text) == 7
