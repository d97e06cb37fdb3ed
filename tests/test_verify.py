from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache, partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adeweights import cli, graphs, verify, weights
from adeweights.cyclo import CycNumber
from adeweights.errors import InvalidParameter, ValidationFailed
from adeweights.graphs import DynkinType, char_poly, charpoly_report
from adeweights.groups import molien_series, recurrence_check
from adeweights.poly import Polynomial, cos_polynomial, cox
from adeweights.verify import (CHECKS, DEFAULT_SUITE, FaultSpec, json_text,
                               report_text, run_suite)
from adeweights.weights import (finite_reduction_check,
                                specialization_identity, to_q_numerators)
from golden_outputs import GOLDEN, HEAVY_PATH, load, mismatches
from oracles import lcd_law

# the types whose reduced common denominator strictly exceeds cox(h); the
# LCD_COX check honestly fails there (see "Verification suite" in the README)
LCD_EXCEPTIONS = {"A5", "A8", "A9", "A11", "D7", "D10", "D11"}


def dt(name):
    return DynkinType.parse(name)


class TestRunSuite:
    def test_d4_all_noninformational_pass(self):
        rep = run_suite([dt("D4")])
        assert all(c.status == "pass" for c in rep.checks
                   if c.status != "informational")
        assert rep.ok()

    def test_empty_suite(self):
        rep = run_suite([])
        assert rep.summary == {"pass": 0, "fail": 0, "info": 0}
        assert rep.checks == ()

    def test_every_check_name_present_per_type(self):
        rep = run_suite([dt("E6")])
        assert tuple(c.name for c in rep.checks) == tuple(
            c.name for c in CHECKS)

    def test_full_suite_failures_are_exactly_lcd_exceptions(self):
        rep = run_suite(DEFAULT_SUITE)
        fails = {(c.type_name, c.name) for c in rep.checks if c.status == "fail"}
        assert fails == {(t, "LCD_COX") for t in LCD_EXCEPTIONS}

    def test_charpoly_claim_is_informational_with_payload(self):
        rep = run_suite([dt("E6"), dt("D4")])
        claims = [c for c in rep.checks if c.name == "CHARPOLY_CLAIM"]
        assert all(c.status == "informational" for c in claims)
        for c in claims:
            assert set(c.payload) == {"d", "cofactor", "cox", "claim_holds"}

    def test_failed_bundle_names_the_exception(self, monkeypatch):
        def broken(dt, group):
            raise ValidationFailed("row orthogonality fails at (0,1): 1/2")
        # A13 is outside the default suite, so no cached bundle hides the patch
        monkeypatch.setattr(verify, "char_table", broken)
        rep = run_suite([dt("A13")])
        assert [c.name for c in rep.checks] == [c.name for c in CHECKS]
        for c in rep.checks:
            assert (c.type_name, c.status) == ("A13", "fail")
            assert c.detail == ("bundle construction failed at table: "
                                "ValidationFailed: row orthogonality fails at "
                                "(0,1): 1/2")

    def test_types_deduplicated_and_sorted(self):
        rep = run_suite([dt("E6"), dt("A2"), dt("E6")])
        types = [c.type_name for c in rep.checks]
        assert types == ["A2"] * len(CHECKS) + ["E6"] * len(CHECKS)


def _replaced(b, **part):
    """A bundle with every part of ``b``, each read from ``b`` first, and
    then the one part given set: the parts built from it, the q-numerators
    from the t-weights say, stay as ``b`` built them. Its charpoly report is
    built on its own first read, from the copy's parts."""
    out = verify.TypeBundle(b.dynkin)
    vars(out).update({name: getattr(b, name) for name in verify.PARTS}, **part)
    return out


def _t_weight_bumped(b, monkeypatch=None, index=-1):
    """One Cramer entry y_i raised by 1, the last node's unless ``index``
    says otherwise; y_0 is the solver's det. The q-numerators stay as they
    were solved."""
    y = list(b.tweights.y)
    y[index] = y[index] + 1
    return _replaced(b, tweights=b.tweights._replace(y=tuple(y)))


def _molien_numerator_bumped(b, monkeypatch=None):
    """The last Molien numerator plus q."""
    nums = list(b.molien.numerators)
    nums[-1] = nums[-1] + Polynomial.monomial("q", 1)
    return _replaced(b, molien=b.molien._replace(numerators=tuple(nums)))


def _q_numerator_bumped(b, monkeypatch=None, node=1):
    """2q^e added to one graph-side numerator, node 1's unless ``node`` says
    otherwise, at its lowest exponent e: that keeps every N_i(1) even and the
    exponent chain and parities intact, so SMITH_EIGEN reaches its
    eigen-equation and NOTES123 fails on the doubling count alone."""
    nums = list(b.numerators.N)
    p = nums[node]
    nums[node] = p + Polynomial.monomial("q", p.min_exponent(), 2)
    return _replaced(b, numerators=b.numerators._replace(N=tuple(nums)))


class TestIdentityGates:
    """CLOSED_FORM re-substitutes the t-weights into the semi-affine
    equations and MCKAY_ADJ checks the Molien recurrence on the McKay
    matrix; either identity failing turns its check red on its own.
    STRUCTURAL_CHARPOLY holds the solver's det against LeVerrier."""

    def _statuses(self, b):
        return {c.name: (c.status, c.detail)
                for c in verify._type_checks(b, None)}

    def test_clean_bundles_pass_both(self, bundle):
        for name in ("A1", "D4", "E8"):
            got = self._statuses(bundle(name))
            assert got["CLOSED_FORM"][0] == got["MCKAY_ADJ"][0] == "pass"

    def test_perturbed_t_weight_fails_closed_form(self, bundle):
        for name in ("A1", "D4", "E8"):
            got = self._statuses(_t_weight_bumped(bundle(name)))
            assert got["CLOSED_FORM"] == (
                "fail", "solved t-weights do not satisfy the semi-affine "
                "equations")
            assert got["MCKAY_ADJ"][0] == "pass"

    def test_perturbed_det_fails_structural(self, bundle):
        for name in ("A1", "D4", "E8"):
            got = self._statuses(_t_weight_bumped(bundle(name), index=0))
            assert got["STRUCTURAL_CHARPOLY"] == (
                "fail", "structural characteristic-polynomial identity fails")
            assert got["CROSS_MATCH"][0] == "pass"

    def test_perturbed_molien_numerator_fails_mckay(self, bundle):
        for name in ("A1", "D4", "E8"):
            got = self._statuses(_molien_numerator_bumped(bundle(name)))
            assert got["MCKAY_ADJ"] == (
                "fail", "Molien numerators fail (q + 1/q) m_i = sum_j A_ij m_j "
                "on the McKay matrix")
            assert got["CLOSED_FORM"][0] == "pass"

    def _assert_graph_side_red(self, got):
        assert got["FINITE_REDUCTION"] == (
            "fail", "finite-type reduction fails modulo 1+q^h")
        assert got["NOTES123"] == (
            "fail", "notes violated: chain=True parity=True count=False")
        assert got["SMITH_EIGEN"] == (
            "fail", "marks vector is not the eigenvalue-2 eigenvector")

    def test_perturbed_q_numerator_fails_graph_identities(self, bundle):
        for name in ("D4", "E8"):
            # node 1 neighbors node 0
            got = self._statuses(_q_numerator_bumped(bundle(name)))
            assert got["SPECIALIZATION"] == (
                "fail", "specialization identity fails")
            self._assert_graph_side_red(got)

    def test_specialization_reads_only_the_affine_node_row(self, bundle):
        for name in ("D4", "E8"):
            b = bundle(name)
            assert b.affine.mult[0][-1] == 0
            got = self._statuses(_q_numerator_bumped(b, node=b.affine.n - 1))
            assert got["SPECIALIZATION"][0] == "pass"
            self._assert_graph_side_red(got)


def _numerator_times_q(b, monkeypatch, node=-1):
    """One graph-side numerator times q, the last node's unless ``node``
    says otherwise: its coefficients run from q^1 to q^(h+1), so it is not
    self-reciprocal over span h. The last node is no neighbour of the affine
    node on D4 and E8, so SPECIALIZATION does not read it. On A1 the affine
    node's 1 + q^2 becomes q + q^3, whose coefficients up to q^h still pair
    up: only its degree, above h, shows it."""
    nums = list(b.numerators.N)
    nums[node] = nums[node].shifted(1)
    return _replaced(b, numerators=b.numerators._replace(N=tuple(nums)))


def _sym_multiplicity_bumped(b, monkeypatch):
    """One Sym^m multiplicity raised at m = 2h+1, the top of the range that
    SYM_ORACLE compares with the Molien series."""
    original = verify.sym_power_multiplicities

    def bumped(G, table, mmax):
        rows = [list(row) for row in original(G, table, mmax)]
        rows[mmax][-1] += 1
        return tuple(tuple(row) for row in rows)
    monkeypatch.setattr(verify, "sym_power_multiplicities", bumped)
    return b


def _group_order_doubled(b, monkeypatch):
    """Every right-multiplication table listed twice, so ``order`` reads
    2|G|, and every class size doubled: each inner product, so every Sym^m
    multiplicity, is unchanged, and only a*b = 2|G| can see the order."""
    G = b.group
    return _replaced(b, group=G._replace(
        right=tuple(r * 2 for r in G.right),
        classes=tuple(c._replace(size=2 * c.size) for c in G.classes)))


# the checks a bumped Molien numerator, a bumped det and a bumped graph-side
# numerator at a node off the affine node's row turn red on D4 and E8
MOLIEN_RED = {"CROSS_MATCH", "MCKAY_ADJ", "SYM_ORACLE"}
DET_RED = {"CLOSED_FORM", "LCD_COX", "STRUCTURAL_CHARPOLY"}
Q_RED = {"CROSS_MATCH", "CLOSED_FORM", "FINITE_REDUCTION", "PALINDROME",
         "NOTES123", "SMITH_EIGEN"}

# per gate and type, a perturbation of a clean bundle and the exact set of
# checks it turns red
RED_WITNESSES = {
    **{(gate, name): witness for name in ("D4", "E8") for gate, witness in {
        "CROSS_MATCH": (_molien_numerator_bumped, MOLIEN_RED),
        "AB_RELATIONS": (_group_order_doubled, {"AB_RELATIONS"}),
        "SPECIALIZATION": (_q_numerator_bumped, Q_RED | {"SPECIALIZATION"}),
        **dict.fromkeys(("FINITE_REDUCTION", "NOTES123", "SMITH_EIGEN"),
                        (partial(_q_numerator_bumped, node=-1), Q_RED)),
        "PALINDROME": (_numerator_times_q,
                       {"CROSS_MATCH", "CLOSED_FORM", "FINITE_REDUCTION",
                        "PALINDROME", "NOTES123"}),
        "LCD_COX": (partial(_t_weight_bumped, index=0), DET_RED),
        "MCKAY_ADJ": (_molien_numerator_bumped, MOLIEN_RED),
        "SYM_ORACLE": (_sym_multiplicity_bumped, {"SYM_ORACLE"}),
        "STRUCTURAL_CHARPOLY": (partial(_t_weight_bumped, index=0), DET_RED),
    }.items()},
    # on D4 the bumped last y_i also moves the common denominator
    ("CLOSED_FORM", "D4"): (_t_weight_bumped, {"CLOSED_FORM", "LCD_COX"}),
    ("CLOSED_FORM", "E8"): (_t_weight_bumped, {"CLOSED_FORM"}),
    ("PALINDROME", "A1"): (partial(_numerator_times_q, node=0),
                           {"CROSS_MATCH", "CLOSED_FORM", "SPECIALIZATION",
                            "PALINDROME", "NOTES123"}),
}


@pytest.mark.parametrize("gate, name", sorted(RED_WITNESSES))
def test_hard_gate_has_a_red_witness(gate, name, bundle, monkeypatch):
    perturb, red = RED_WITNESSES[gate, name]
    b = bundle(name)
    assert all(c.status != "fail" for c in verify._type_checks(b, None))
    got = {c.name for c in verify._type_checks(perturb(b, monkeypatch), None)
           if c.status == "fail"}
    assert got == red


def test_every_hard_check_has_a_red_witness():
    """An informational check never turns red, so it has no witness."""
    assert {gate for gate, _ in RED_WITNESSES} == {
        c.name for c in CHECKS if c.kind == "hard"}


def test_a_check_that_raises_is_that_checks_failure(bundle, monkeypatch,
                                                     capsys):
    """An exception inside one check becomes that check's fail record, in
    its place; every other record and the rest of the report stay as they
    are, and the CLI exits 1 for a failing check, not 3 for a crash."""
    clean = run_suite([dt("D4")])

    def raising(G, table, mmax):
        raise ValidationFailed(f"{G.dynkin}: Sym^1 has multiplicity 1/2")
    monkeypatch.setattr(verify, "sym_power_multiplicities", raising)
    want = tuple(verify.CheckResult(
        "SYM_ORACLE", "D4", "fail", "check raised ValidationFailed: "
        "D4: Sym^1 has multiplicity 1/2") if c.name == "SYM_ORACLE" else c
        for c in clean.checks)
    assert run_suite([dt("D4")]).checks == want
    assert cli.main(["verify", "--types", "D4"]) == 1
    assert "check raised ValidationFailed" in capsys.readouterr().out
    monkeypatch.undo()
    # the group's right tables listed twice with its class sizes kept:
    # SYM_ORACLE takes |G| as sum_C |C|, as ``decompose`` does, so only
    # a*b = 2|G| sees it
    b = bundle("D4")
    doubled = _replaced(b, group=b.group._replace(
        right=tuple(r * 2 for r in b.group.right)))
    assert {c.name for c in verify._type_checks(doubled, None)
            if c.status == "fail"} == {"AB_RELATIONS"}


def test_a_raising_charpoly_report_fails_only_its_two_readers(monkeypatch,
                                                              capsys):
    """CHARPOLY_CLAIM and STRUCTURAL_CHARPOLY read the bundle's one charpoly
    report: a raise there fails those two records alone, on that type alone,
    and the CLI exits 1. Each run builds bundles of its own, so every
    report is built under the patch."""
    clean = run_suite([dt("D4"), dt("E6")])
    original = verify.charpoly_report

    def raising(g, det):
        if str(g.dynkin) == "D4":
            raise ValidationFailed("D4: LeVerrier trace 1/2 is not integral")
        return original(g, det)
    monkeypatch.setattr(verify, "charpoly_report", raising)
    readers = {"CHARPOLY_CLAIM", "STRUCTURAL_CHARPOLY"}
    want = tuple(verify.CheckResult(
        c.name, "D4", "fail", "check raised ValidationFailed: D4: LeVerrier "
        "trace 1/2 is not integral")
        if c.type_name == "D4" and c.name in readers else c
        for c in clean.checks)
    assert run_suite([dt("D4"), dt("E6")]).checks == want
    assert cli.main(["verify", "--types", "D4"]) == 1
    assert capsys.readouterr().out.count("check raised ValidationFailed") == 2


class TestDeterminism:
    def test_byte_identical_reports(self):
        types = [dt("A3"), dt("D4"), dt("E6")]
        assert (json_text(run_suite(types).to_json())
                == json_text(run_suite(types).to_json()))

    def test_json_schema(self):
        obj = json.loads(json_text(run_suite([dt("A2")]).to_json()))
        assert set(obj) == {"suite", "checks", "summary"}
        assert set(obj["summary"]) == {"pass", "fail", "info"}
        for check in obj["checks"]:
            assert {"name", "type", "status", "detail"} <= set(check)


_TEXT = st.one_of(st.text(), st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f\n\t\r", "é ü ∑ 😀", "\u2028\ud800"]))
_JSON_VALUES = st.recursive(
    st.one_of(_TEXT, st.integers(), st.booleans(), st.none()),
    lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple),
                           st.dictionaries(_TEXT, kids)),
    max_leaves=20)


_SHARED_DICT = {"N": 5, "coeffs": ["1", "-1/2", "0", "3"]}
_SHARED_LIST = ["1", {"k": None}, [True, -2]]
_NESTING = {"v": _SHARED_DICT, "w": [_SHARED_DICT, _SHARED_LIST]}


class TestJsonText:
    """``json_text`` is the one emitter of the commands' JSON."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_JSON_VALUES)
    @example("")
    @example([10 ** 40, -(10 ** 300)])
    @example(-7)
    @example(True)
    @example(None)
    @example([])
    @example(())
    @example({})
    @example({"a": [[], {}, ()], "b": [{"c": (1, -2, False)}]})
    def test_equals_json_dumps_indent_2(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        [_SHARED_DICT, _SHARED_DICT, "x", _SHARED_DICT],
        {"a": _SHARED_DICT, "b": [_SHARED_DICT, {"c": _SHARED_DICT}],
         "d": _SHARED_DICT},
        [_SHARED_LIST, _SHARED_LIST, {"a": _SHARED_LIST}],
        {"a": [_SHARED_LIST, [_SHARED_LIST]], "b": _SHARED_LIST},
        [_NESTING, _NESTING, [_NESTING, {"n": _NESTING}], _SHARED_DICT]])
    def test_shared_objects_equal_json_dumps_indent_2(self, obj):
        """One dict or list object at several places of the payload, at
        the same depth and at two depths, as ``CharTable.to_json`` shares
        one object among equal entries; Hypothesis builds no shared
        objects."""
        assert json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        1.5, {1, 2}, {1: "a"}, {None: 0}, CycNumber.one(3), [0, 0.5],
        {"a": ({"b": frozenset()},)}, {"a": {(1, 2): 3}}])
    def test_refuses_what_no_command_prints(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)


class TestFaultInjection:
    def test_single_cross_match_failure(self):
        types = [dt(n) for n in ("A1", "A2", "A3", "D4", "E6")]
        fault = FaultSpec("D4", 1, 3)
        rep = run_suite(types, fault=fault)
        cross_fails = [c for c in rep.checks
                       if c.name == "CROSS_MATCH" and c.status == "fail"]
        assert len(cross_fails) == 1
        assert cross_fails[0].type_name == "D4"
        other_fails = [c for c in rep.checks
                       if c.status == "fail" and c.name != "CROSS_MATCH"]
        assert not other_fails
        assert not rep.ok()

    def test_fault_at_any_node_and_exponent(self):
        types = [dt("A4"), dt("D5")]
        for fault in (FaultSpec("A4", 0, 0), FaultSpec("A4", 4, 5),
                      FaultSpec("D5", 3, 8), FaultSpec("D5", 2, 0)):
            rep = run_suite(types, fault=fault)
            fails = [c for c in rep.checks if c.status == "fail"]
            assert [(c.type_name, c.name) for c in fails] == \
                [(fault.type_name, "CROSS_MATCH")]

    def test_fault_outside_the_run_is_refused(self, monkeypatch):
        """A fault names a type in the run, a node 0..rank and an exponent
        0..h, the ranges ``from_seed`` draws from; any other is refused
        before a bundle is built."""
        monkeypatch.setattr(verify, "TypeBundle", lambda dt: pytest.fail(
            f"bundle {dt} built for a refused fault"))
        for fault in (FaultSpec("D4", 1, -1), FaultSpec("D4", 1, 7),
                      FaultSpec("D4", -1, 1), FaultSpec("D4", 9, 1),
                      FaultSpec("D4", 5, 1), FaultSpec("E6", 1, 1)):
            with pytest.raises(InvalidParameter):
                run_suite([dt("D4")], fault=fault)
        monkeypatch.undo()
        rep = run_suite([dt("D4")], fault=FaultSpec("D4", 4, 6))
        assert [c.name for c in rep.checks if c.status == "fail"] == [
            "CROSS_MATCH"]

    def test_seeded_fault_deterministic(self):
        types = sorted(set(DEFAULT_SUITE))
        f1 = FaultSpec.from_seed(12345, types)
        f2 = FaultSpec.from_seed(12345, types)
        assert f1 == f2

    def test_unfaulted_type_unaffected(self):
        fault = FaultSpec("A2", 1, 1)
        rep = run_suite([dt("A2"), dt("A3")], fault=fault)
        a3 = [c for c in rep.checks if c.type_name == "A3"]
        assert all(c.status != "fail" for c in a3)


class TestTextReport:
    def test_contains_summary_line(self):
        text = report_text(run_suite([dt("D4")]))
        assert text.splitlines()[-1].startswith("summary:")
        assert "CROSS_MATCH" in text


class TestBundle:
    def test_bundle_is_frozen(self, bundle):
        with pytest.raises(AttributeError):
            bundle("D4").marks = (1,) * 5

    def test_solver_det_is_the_finite_char_poly(self, bundle, suite_types):
        for t in suite_types:
            b = bundle(str(t))
            assert b.tweights.det == char_poly(b.finite), t

    def test_one_leverrier_per_type(self, monkeypatch):
        forms = []
        leverrier = graphs.char_poly

        def counted(g):
            forms.append(g.form)
            return leverrier(g)
        monkeypatch.setattr(graphs, "char_poly", counted)
        run_suite([dt("E8")])
        assert forms == ["semiaffine"]

    def test_charpoly_query_runs_one_leverrier(self, monkeypatch, capsys):
        """The ``charpoly`` query reads the bundle's report, LeVerrier on
        the semi-affine graph held against the solver's det: over a fresh
        bundle cache a lone ``charpoly --type E8`` builds the semi-affine
        graph alone and calls ``char_poly`` once, on it, where LeVerrier on
        the finite graph made it twice, and prints the pinned bytes."""
        forms = {"build_graph": [], "char_poly": []}
        for name, calls in forms.items():
            def counted(*args, original=getattr(graphs, name), calls=calls):
                # build_graph takes (dynkin, form), char_poly a graph
                calls.append(getattr(args[0], "form", args[-1]))
                return original(*args)
            for module in (graphs, verify, cli):  # wherever a caller looks
                monkeypatch.setattr(module, name, counted, raising=False)
        monkeypatch.setattr(cli, "build_bundle", lru_cache(maxsize=None)(
            verify.build_bundle.__wrapped__))
        argv = "charpoly --type E8 --format json"
        assert cli.main(argv.split()) == 0
        assert forms == {"build_graph": ["semiaffine"],
                         "char_poly": ["semiaffine"]}
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == GOLDEN[argv]["sha256"]

    @pytest.mark.parametrize("name", ["A1", "E8"])
    def test_charpoly_query_reads_the_det_alone(self, name, monkeypatch,
                                                capsys):
        """The ``charpoly`` query reads its det from the bundle's one solve
        alone, the solve ``weights --basis t`` prints: over a fresh bundle
        cache the two queries of a type, in either order, build the
        semi-affine graph once and call ``finite_det``,
        ``solve_semiaffine`` and LeVerrier (``char_poly``) once each, on
        that graph, and print the pinned bytes."""
        watched = {"build_graph": (graphs, verify, cli),
                   "finite_det": (weights, cli),
                   "solve_semiaffine": (weights, verify, cli),
                   "char_poly": (graphs, verify, cli)}
        forms = {key: [] for key in watched}
        for key, modules in watched.items():
            def counted(*args, original=getattr(modules[0], key),
                        calls=forms[key]):
                # build_graph takes (dynkin, form), the others a graph
                calls.append(getattr(args[0], "form", args[-1]))
                return original(*args)
            for module in modules:  # wherever a caller may look it up
                monkeypatch.setattr(module, key, counted, raising=False)
        queries = [f"weights --type {name} --basis t --format json",
                   f"charpoly --type {name} --format json"]
        for order in (queries, queries[::-1]):
            monkeypatch.setattr(cli, "build_bundle", lru_cache(maxsize=None)(
                verify.build_bundle.__wrapped__))
            for calls in forms.values():
                calls.clear()
            for argv in order:
                assert cli.main(argv.split()) == 0
                out = capsys.readouterr().out.encode()
                assert hashlib.sha256(out).hexdigest() == \
                    GOLDEN[argv]["sha256"], argv
            assert forms == {key: ["semiaffine"] for key in watched}, order


# per query: the golden key of its bytes (its own when None; the JSON of
# --basis molien is that of --basis q) and the builders it must not call
LAZY_QUERIES = [
    (f"weights --type {t} --basis {basis} --format json",
     f"weights --type {t} --basis q --format json",
     ("build_group", "char_table", "mckay_matrix", "molien_series"))
    for t in ("A13", "D13") for basis in ("q", "molien")] + [
    (f"group --type {t} --format json", None,
     ("mckay_matrix", "molien_series")) for t in ("A13", "D13")] + [
    (f"molien --type {t} --series-terms 8 --format json", None,
     ("mckay_matrix",)) for t in ("A13", "D13")] + [
    (f"{query.format(t)} --format json", None,
     ("build_group", "char_table", "mckay_matrix", "molien_series"))
    for query in ("graph --type {}", "weights --type {} --basis t",
                  "charpoly --type {}") for t in ("A13", "D13")]


class TestLazyParts:
    """A query builds only the bundle parts it prints, and prints the bytes
    the benchmark pins for it. A13 and D13 lie outside the default suite,
    and each query gets a bundle cache of its own, so every part it reads
    is built under the patch."""

    @pytest.mark.parametrize("argv, key, unbuilt", LAZY_QUERIES,
                             ids=[argv for argv, _, _ in LAZY_QUERIES])
    def test_query_builds_only_what_it_prints(self, argv, key, unbuilt,
                                              monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_bundle", lru_cache(maxsize=None)(
            verify.build_bundle.__wrapped__))
        called = []
        for name in unbuilt:
            monkeypatch.setattr(verify, name, lambda *args, name=name:
                                called.append(name))
        assert cli.main(argv.split()) == 0
        assert called == []
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == GOLDEN[key or argv]["sha256"]


class TestGoldenOutputs:
    """Every call ``perfbench/golden.json`` pins exits with its pinned
    status and prints its pinned bytes: in this process, and in a
    ``python -O`` child under another hash seed, since no invariant may rest
    on ``assert`` and no output on the iteration order of a set of str. A
    change that alters outputs on purpose recaptures golden.json with
    ``perfbench/golden.py``, and ``tests/heavy_golden.json`` with
    ``tests/golden_outputs.py --capture``, which reruns the calls the file
    already pins; there is no list of calls to edit."""

    def test_every_pinned_output(self, monkeypatch):
        """Each call reads bundles from a cache of this test's own, so
        every bundle is built under this run."""
        monkeypatch.setattr(cli, "build_bundle", lru_cache(maxsize=None)(
            verify.build_bundle.__wrapped__))
        bad = mismatches()
        assert not bad, f"{len(bad)} of {len(GOLDEN)} outputs differ:\n" + \
            "\n".join(bad)

    def test_every_heavy_pin(self, monkeypatch):
        """The heavy end, which no workload runs, prints the bytes
        ``tests/heavy_golden.json`` pins: the extended set, D128 and A128
        verified, D128's group, and one multi-type call of each query
        command in JSON and one in text. The extended run reads 1,005
        pass, 51 fail and 88 informational, each failure an LCD_COX, and
        its failing types are exactly those whose common denominator by
        the per-family law, ``oracles.lcd_law``, is not cox(h)."""
        monkeypatch.setattr(cli, "build_bundle", lru_cache(maxsize=None)(
            verify.build_bundle.__wrapped__))
        heavy, texts = load(HEAVY_PATH), {}
        bad = mismatches(heavy, texts)
        assert not bad, f"{len(bad)} of {len(heavy)} outputs differ:\n" + \
            "\n".join(bad)
        selector = "A1..A48,D4..D40,E6..E8"
        report = json.loads(texts[f"verify --types {selector} --format json"])
        assert report["summary"] == {"pass": 1005, "fail": 51, "info": 88}
        failing = [(c["type"], c["name"]) for c in report["checks"]
                   if c["status"] == "fail"]
        assert sorted(failing) == sorted(
            (str(t), "LCD_COX") for t in graphs.parse_type_selector(selector)
            if lcd_law(t) != cox(t.coxeter_number))

    def test_every_pinned_output_under_optimize(self):
        seed = "124" if os.environ.get("PYTHONHASHSEED") == "123" else "123"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-O", str(Path(__file__).with_name(
                "golden_outputs.py"))],
            env=env, capture_output=True, text=True, timeout=600)
        assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (
            0, [f"0 of {len(GOLDEN)} outputs differ (optimize 1)"]), \
            proc.stdout + proc.stderr


# A child spawned from a large process starts with that process's peak RSS
# as its own (Linux keeps the high-water mark of the image it replaces). So
# a bare launcher spawns the verify child and prints its exit status and
# its peak RSS in KiB, from RUSAGE_CHILDREN.
_PEAK_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "status = subprocess.run([sys.executable, '-m', 'adeweights.cli', "
    "'verify', '--types', sys.argv[1]], stdout=subprocess.DEVNULL)"
    ".returncode\n"
    "print(status, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


class TestMemory:
    def test_verify_holds_one_bundle_at_a_time(self):
        """``verify`` drops each type's bundle once its checks have run, so
        a cold run over the 40 types D20..D59 peaks within 8 MB of D59, its
        largest type, run alone. Keeping every bundle to the end of the run
        put it 33.8 MB above."""
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))

        def peak_mb(selector):
            proc = subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER,
                                   selector], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            status, kib = proc.stdout.split()
            assert status in ("0", "1"), (selector, proc.stderr)
            return int(kib) / 1024

        alone, run = peak_mb("D59"), peak_mb("D20..D59")
        assert run - alone <= 8, (alone, run)


class TestSmithMarks:
    def test_halving_stays_exact(self):
        numerators = [Polynomial("q", (2,)), Polynomial("q", (0, 1, 0, 1)),
                      Polynomial("q", (1, 0, 0, 0, 0, 0, 1)),
                      Polynomial("q", (0, 3, 0, 3))]
        marks = verify._halved_values_at_one(numerators)
        assert marks == [1, 1, 1, 3]
        assert all(type(v) is int for v in marks)
        assert verify._halved_values_at_one([Polynomial("q", (3,))]) is None



class TestIntegerCoefficients:
    def test_every_polynomial_is_in_z(self, bundle, suite_types):
        for t in suite_types:
            b = bundle(str(t))
            rep = charpoly_report(b.semiaffine, b.tweights.det)
            polys = list(b.tweights.y)
            polys += [p for v in b.tweights.values for p in (v.num, v.den)]
            polys += list(b.numerators.N) + list(b.molien.numerators)
            polys += [p for s in b.molien.series for p in (s.num, s.den)]
            polys += [rep.cofactor, rep.cox, rep.char_semiaffine, rep.char_finite]
            polys += [cos_polynomial(c.order) for c in b.group.classes]
            for p in polys:
                assert all(type(c) is int for c in p.coeffs), (t, p)


@pytest.mark.parametrize("name", ["A1", "D4", "E8"])
def test_q_side_identities_build_no_product(name, bundle, monkeypatch):
    """The standard form and every factor 1 + q^h and q^2 + 1 are a shift
    and an add, so no q-side identity calls ``Polynomial.__mul__``."""
    b = bundle(name)
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda p, other:
                        products.append(1) or mul(p, other))
    assert to_q_numerators(b.tweights) == b.numerators
    assert specialization_identity(b.numerators, b.affine)
    assert finite_reduction_check(b.numerators, b.finite)
    assert recurrence_check(b.molien, b.mckay.matrix)
    assert molien_series(b.group, b.table) == b.molien
    assert len(b.molien.series) == len(b.table.degrees)
    assert products == []
