"""Acceptance criteria, one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 11 asserts the exact common-denominator invariant: the LCD of the
reduced t-weights is the minimal polynomial of A_fin relative to b (b = the
edges into the affine node), computed independently by the Krylov oracle,
and cox(h) divides it. The paper's stronger claim LCD = cox(h) is false for
seven suite types (smallest case A5: by symmetry n_1 = n_5, n_2 = n_4, and
the middle node solves to n_3 = 2/(t^3-3t), so the LCD is t(t^2-3), not
cox(6) = t^2-3); the criterion pins exactly that exception set. The
LCD_COX check of `adeweights verify` still reports the claim as stated.
"""
from __future__ import annotations

from fractions import Fraction

from adeweights.cli import main as cli_main
from adeweights.graphs import DynkinType, build_graph, charpoly_report, char_poly
from adeweights.poly import Polynomial, RationalFunction, cox
from adeweights.verify import (DEFAULT_SUITE, FaultSpec, build_bundle,
                               run_suite)
from adeweights.weights import (check_notes, common_denominator,
                                finite_reduction_check, intermediate_q_weights,
                                specialization_identity)
from oracles import krylov_minpoly, remainder, series_coefficients

Q = lambda *cs: Polynomial("q", cs)
T = lambda *cs: Polynomial("t", cs)
SUITE = list(DEFAULT_SUITE)
# suite types whose reduced t-weight LCD strictly contains cox(h)
LCD_EXCEPTIONS = {"A5", "A8", "A9", "A11", "D7", "D10", "D11"}


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {text}")


def bundles():
    return [build_bundle(dt) for dt in SUITE]


def test_criterion_01_d4_end_to_end():
    b = build_bundle(DynkinType.parse("D4"))
    den = T(-3, 0, 1)
    t_ok = (b.tweights.values[0] == 1
            and b.tweights.values[1] == RationalFunction(T(0, 1), den)
            and all(b.tweights.values[i] == RationalFunction(T(1), den)
                    for i in (2, 3, 4)))
    inter = list(intermediate_q_weights(b.tweights))
    i_ok = inter == [Q(1, 0, -1, 0, 1), Q(0, 1, 0, 1),
                     Q(0, 0, 1), Q(0, 0, 1), Q(0, 0, 1)]
    n_ok = list(b.numerators.N) == [
        Q(1, 0, 0, 0, 0, 0, 1), Q(0, 1, 0, 2, 0, 1),
        Q(0, 0, 1, 0, 1), Q(0, 0, 1, 0, 1), Q(0, 0, 1, 0, 1)]
    ok = t_ok and i_ok and n_ok
    report(1, ok, "D4 end-to-end: t-weights, intermediate q-weights, numerators")
    assert ok


def test_criterion_02_closed_forms_a_and_d():
    problems = []
    for m in range(1, 13):
        b = build_bundle(DynkinType("A", m))
        h = m + 1
        for k, p in enumerate(b.numerators.N):
            expected = [0] * (h + 1)
            expected[k] += 1
            expected[h - k] += 1
            if p != Q(*expected):
                problems.append(f"A{m} node {k}")
    for m in range(4, 13):
        b = build_bundle(DynkinType("D", m))
        h = 2 * m - 2
        n = b.numerators.N
        if n[0] != Q(*([1] + [0] * (h - 1) + [1])):
            problems.append(f"D{m} affine tip")
        if n[m - 1] != Q(*([0, 0, 1] + [0] * (h - 5) + [1])):
            problems.append(f"D{m} near tip")
        far = Q(*([0] * (m - 2) + [1, 0, 1]))
        if n[m - 2] != far or n[m] != far:
            problems.append(f"D{m} far tips")
    ok = not problems
    report(2, ok, "closed forms: A1..A12 q^k+q^(h-k); D4..D12 tip formulas")
    assert ok, problems


E6_LISTS = [(0, 12), (1, 5, 7, 11), (2, 4, 6, 6, 8, 10), (3, 5, 7, 9), (4, 8),
            (3, 5, 7, 9), (4, 8)]
E7_LISTS = [(0, 18), (1, 7, 11, 17), (2, 6, 8, 10, 12, 16),
            (3, 5, 7, 9, 9, 11, 13, 15), (4, 6, 8, 10, 12, 14),
            (5, 7, 11, 13), (6, 12), (4, 8, 10, 14)]
E8_LISTS = [(0, 30), (1, 11, 19, 29), (2, 10, 12, 18, 20, 28),
            (3, 9, 11, 13, 17, 19, 21, 27),
            (4, 8, 10, 12, 14, 16, 18, 20, 22, 26),
            (5, 7, 9, 11, 13, 15, 15, 17, 19, 21, 23, 25),
            (6, 8, 12, 14, 16, 18, 22, 24), (7, 13, 17, 23),
            (6, 10, 14, 16, 20, 24)]


def test_criterion_03_e_type_tables():
    ok = True
    for name, lists in (("E6", E6_LISTS), ("E7", E7_LISTS), ("E8", E8_LISTS)):
        b = build_bundle(DynkinType.parse(name))
        h = b.dynkin.coxeter_number
        expected = []
        for exps in lists:
            coeffs = [0] * (h + 1)
            for e in exps:
                coeffs[e] += 1
            expected.append(Q(*coeffs))
        ok = ok and sorted(b.numerators.N, key=lambda p: p.coeffs) == \
            sorted(expected, key=lambda p: p.coeffs)
    b7 = build_bundle(DynkinType.parse("E7"))
    b8 = build_bundle(DynkinType.parse("E8"))
    ok = ok and b7.numerators.N[3].coefficient(9) == 2   # the "2x9" entry
    ok = ok and b8.numerators.N[5].coefficient(15) == 2  # the "2x15" entry
    report(3, ok, "E6/E7/E8 exponent multisets incl. multiplicity-2 entries")
    assert ok


def test_criterion_04_group_enumeration():
    ok = all(b.group.order == b.dynkin.group_order
             and len(b.group.classes) == b.dynkin.rank + 1
             for b in bundles())
    report(4, ok, "closure orders m+1 / 4(m-2) / 24 / 48 / 120; classes = rank+1")
    assert ok


def test_criterion_05_central_cross_check():
    bad = []
    for b in bundles():
        for i, num in enumerate(b.molien.numerators):
            if num != b.numerators.N[b.mckay.bijection[i]]:
                bad.append((str(b.dynkin), i))
    ok = not bad
    report(5, ok, "group-side numerators equal graph-side under the McKay bijection")
    assert ok, bad


def test_criterion_06_standard_form_relations():
    ok = True
    for b in bundles():
        a, bb = b.dynkin.standard_ab
        ok = ok and a * bb == 2 * b.group.order
        ok = ok and a + bb == b.dynkin.coxeter_number + 2
    report(6, ok, "a*b = 2|G| and a+b = h+2 for every suite type")
    assert ok


def test_criterion_07_specialization_identities():
    ok = all(specialization_identity(b.numerators, b.affine) for b in bundles())
    report(7, ok, "q[(q+1/q)N_0 - neighbors] = (1-q^a)(1-q^b) per family row")
    assert ok


def test_criterion_08_mckay_adjacency():
    ok = True
    for b in bundles():
        g = b.affine
        k = g.n
        ok = ok and all(
            b.mckay.matrix[i][j] == g.mult[b.mckay.bijection[i]][b.mckay.bijection[j]]
            for i in range(k) for j in range(k))
    report(8, ok, "McKay matrix equals the affine ADE adjacency matrix")
    assert ok


def test_criterion_09_smith_eigen_identity():
    ok = True
    for b in bundles():
        ones = [p.evaluate(Fraction(1)) for p in b.numerators.N]
        marks = [v / 2 for v in ones]
        g = b.affine
        ok = ok and all(
            sum(g.mult[i][j] * marks[j] for j in range(g.n)) == 2 * marks[i]
            for i in range(g.n))
    report(9, ok, "affine adjacency * (N(1)/2) = 2 * (N(1)/2)")
    assert ok


def test_criterion_10_sym_power_oracle():
    from adeweights.groups import sym_power_multiplicities
    ok = True
    for b in bundles():
        h = b.dynkin.coxeter_number
        sym = sym_power_multiplicities(b.group, b.table, 2 * h + 1)
        for i, s in enumerate(b.molien.series):
            coeffs = series_coefficients(s, 2 * h + 2)
            ok = ok and [int(c) for c in coeffs] == [row[i] for row in sym]
    report(10, ok, "Sym^m multiplicities match Molien coefficients to degree 2h+1")
    assert ok


def test_criterion_11_property_suite():
    failures = []
    beyond_cox = set()
    for b in bundles():
        name = str(b.dynkin)
        h = b.dynkin.coxeter_number
        for i, p in enumerate(b.numerators.N):
            if not all(p.coefficient(k) == p.coefficient(h - k)
                       for k in range(h + 1)):
                failures.append(f"{name}: palindrome at node {i}")
        if not check_notes(b.numerators, b.affine).all_ok():
            failures.append(f"{name}: notes 1-3")
        if not finite_reduction_check(b.numerators, b.finite):
            failures.append(f"{name}: finite reduction mod 1+q^h")
        lcd = common_denominator(b.tweights)
        if lcd != krylov_minpoly(b.semiaffine.mult):
            failures.append(f"{name}: LCD != Krylov minimal polynomial")
        if not remainder(lcd, cox(h)).is_zero():
            failures.append(f"{name}: cox(h) does not divide LCD")
        if lcd != cox(h):
            beyond_cox.add(name)
        if char_poly(b.semiaffine) != char_poly(b.finite).shifted(1):
            failures.append(f"{name}: structural charpoly")
        if b.semiaffine.mult == tuple(zip(*b.semiaffine.mult)):
            failures.append(f"{name}: semiaffine matrix is symmetric")
        # informational claim, always attached
        rep = charpoly_report(b.semiaffine, char_poly(b.finite))
        if rep.d + rep.cofactor.degree != b.dynkin.rank + 1:
            failures.append(f"{name}: charpoly report inconsistent")
    if beyond_cox != LCD_EXCEPTIONS:
        failures.append(f"LCD != cox(h) for {sorted(beyond_cox)}, "
                        f"expected {sorted(LCD_EXCEPTIONS)}")
    ok = not failures
    report(11, ok, "property suite (palindromes, notes, reduction, charpoly; "
                   "LCD = Krylov minimal polynomial of A_fin relative to b, "
                   "cox(h) | LCD, LCD > cox(h) exactly for A5 A8 A9 A11 D7 "
                   "D10 D11, e.g. A5: 2/(t^3-3t))")
    assert ok, failures


def test_criterion_12_fault_injection():
    ok = True
    samples = [FaultSpec("A1", 1, 2), FaultSpec("A7", 4, 4),
               FaultSpec("D4", 1, 3), FaultSpec("D9", 8, 0),
               FaultSpec("E6", 2, 6), FaultSpec("E8", 8, 30)]
    samples += [FaultSpec.from_seed(s, SUITE) for s in (0, 1, 42)]
    for fault in samples:
        types = [DynkinType.parse(fault.type_name)]
        rep = run_suite(types, fault=fault)
        cross_fails = [c for c in rep.checks
                       if c.name == "CROSS_MATCH" and c.status == "fail"]
        other_fails = [c for c in rep.checks
                       if c.status == "fail" and c.name != "CROSS_MATCH"
                       and c.name != "LCD_COX"]
        ok = ok and len(cross_fails) == 1 and not other_fails and not rep.ok()
    exit_code = cli_main(["verify", "--types", "D4", "--inject-fault", "3",
                          "--format", "json", "--out", "/dev/null"])
    ok = ok and exit_code == 1
    report(12, ok, "any single flipped coefficient => exactly one CROSS_MATCH "
                   "failure and nonzero exit")
    assert ok
