from __future__ import annotations

import random
from fractions import Fraction

import pytest

from adeweights import weights
from adeweights.errors import NonPolynomialResult, ValidationFailed
from adeweights.graphs import DirectedGraph, DynkinType, build_graph, char_poly
from adeweights.poly import (Polynomial, RationalFunction, cox, one_plus_q,
                             poly_gcd, substitute_t)
from adeweights.weights import (_mod_one_plus_q, check_notes, closed_form,
                                common_denominator, exponent_sum_latex,
                                finite_reduction_check, intermediate_q_weights,
                                numerators_latex, solve_semiaffine,
                                specialization_identity, to_q_numerators,
                                weights_satisfy)
from oracles import char_poly_bareiss, krylov_minpoly, lcd_law, remainder

Q = lambda *cs: Polynomial("q", cs)
T = lambda *cs: Polynomial("t", cs)
SUITE_NAMES = [f"A{m}" for m in range(1, 13)] + \
              [f"D{m}" for m in range(4, 13)] + ["E6", "E7", "E8"]

# the suite types whose reduced weight denominators pick up eigenvalue
# factors beyond cox(h) (see "Verification suite" in the README); the others
# stay inside cox(h)
LCD_EXCEPTIONS = {"A5", "A8", "A9", "A11", "D7", "D10", "D11"}
COX_CLEARING = [n for n in SUITE_NAMES if n not in LCD_EXCEPTIONS]


def dt(name):
    return DynkinType.parse(name)


def solve(name):
    return solve_semiaffine(build_graph(dt(name), "semiaffine"))


def affine(name):
    return build_graph(dt(name), "affine")


def semiaffine_graph(fin, b):
    """A semi-affine graph on a sink and the finite matrix ``fin``, with
    b_i edges from finite node i into the sink."""
    r = len(fin)
    rows = [(0,) * (r + 1)] + [(b[i], *fin[i]) for i in range(r)]
    return DirectedGraph(tuple(rows), None, "semiaffine")


class TestSolver:
    def test_d4_t_weights(self):
        w = solve("D4")
        den = T(-3, 0, 1)
        assert w.values[0] == 1
        assert w.values[1] == RationalFunction(T(0, 1), den)
        for tip in (2, 3, 4):
            assert w.values[tip] == RationalFunction(T(1), den)

    def test_a1(self):
        assert solve("A1").values[1] == RationalFunction(T(2), T(0, 1))

    def test_a2(self):
        w = solve("A2")
        expected = RationalFunction(T(1), T(-1, 1))
        assert w.values[1] == expected and w.values[2] == expected

    def test_equations_hold_suite_wide(self):
        for name in SUITE_NAMES:
            g = build_graph(DynkinType.parse(name), "semiaffine")
            w = solve_semiaffine(g)
            assert weights_satisfy(g, w)

    def test_ladder_in_integer_polynomials(self):
        # every weight is y_i / det(tI - A_fin) reduced in Z[t]: integer
        # coefficients, the equations hold, and the LCD is the Krylov
        # minimal polynomial
        for name in ("A24", "D24", "A48", "D40"):
            g = build_graph(DynkinType.parse(name), "semiaffine")
            w = solve_semiaffine(g)
            assert all(type(c) is int
                       for v in w.values for c in v.num.coeffs + v.den.coeffs)
            assert weights_satisfy(g, w)
            assert common_denominator(w) == krylov_minpoly(g.mult)

    def test_det_is_the_finite_characteristic_polynomial(self):
        """The solver's y_0, det(tI - A_fin) from the tree recurrence, is
        the LeVerrier characteristic polynomial of the finite graph."""
        for name in [f"A{m}" for m in range(1, 49)] + \
                    [f"D{m}" for m in range(4, 41)]:
            w = solve(name)
            assert w.det == char_poly(build_graph(dt(name), "finite")), name

    def test_perturbed_weight_fails_equations(self):
        for name in ("A1", "D4", "E8"):
            g = build_graph(DynkinType.parse(name), "semiaffine")
            w = solve_semiaffine(g)
            for i, yi in enumerate(w.y):
                y = list(w.y)
                y[i] = yi + 1
                assert not weights_satisfy(g, w._replace(y=tuple(y)))

    def test_rejects_non_semiaffine(self):
        with pytest.raises(ValueError):
            solve_semiaffine(build_graph(DynkinType.parse("D4"), "affine"))

    def test_random_trees_against_bareiss(self):
        """Trees of rank up to 12 with each parent before its children, and
        random edges into the sink: det is the Bareiss determinant of the
        oracle, and y solves the equations."""
        rng = random.Random(27)
        for _ in range(200):
            r = rng.randint(1, 12)
            fin = [[0] * r for _ in range(r)]
            for i in range(1, r):
                p = rng.randrange(i)
                fin[i][p] = fin[p][i] = 1
            b = [rng.randint(0, 2) for _ in range(r)]
            g = semiaffine_graph(fin, b)
            w = solve_semiaffine(g)
            assert w.det == char_poly_bareiss(fin), fin
            assert weights.finite_det(g) == w.det, fin
            assert weights_satisfy(g, w), (fin, b)

    @pytest.mark.parametrize("fin", [
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
        [[0, 0], [0, 0]],
        [[0, 2], [2, 0]],
        [[1, 1], [1, 0]],
        [[0, 0], [0, 1]],
        [[0, 0], [1, 0]],
    ], ids=["cycle", "child_before_parent", "two_components", "double_edge",
            "loop", "loop_on_a_second_root", "one_way_edge"])
    def test_rejects_a_finite_part_that_is_no_ordered_tree(self, fin):
        """With b only at the first node, a loop on a second root would
        leave v_r zero and pass the Cayley-Hamilton check, so the input
        check is what refuses it."""
        r = len(fin)
        for b in ([1] * r, [1] + [0] * (r - 1)):
            with pytest.raises(ValueError, match="not a tree"):
                solve_semiaffine(semiaffine_graph(fin, b))
            with pytest.raises(ValueError, match="not a tree"):
                weights.finite_det(semiaffine_graph(fin, b))

    def test_cayley_hamilton_catches_a_wrong_det(self, monkeypatch):
        """v_r = p(A_fin) b for the det p the solver was given; it is zero
        when the Krylov minimal polynomial of b divides p, so it catches a
        det that does not annihilate b, such as det + 1. STRUCTURAL_CHARPOLY
        in verify is what pins det itself."""
        original = weights._tree_det
        monkeypatch.setattr(weights, "_tree_det",
                            lambda children: original(children) + 1)
        for name in ("A1", "D4", "E8"):
            with pytest.raises(ValidationFailed, match="v_r"):
                solve(name)


class TestCommonDenominator:
    def test_examples(self):
        assert common_denominator(solve("D4")) == T(-3, 0, 1)
        assert common_denominator(solve("A1")) == T(0, 1)
        assert common_denominator(solve("A2")) == T(-1, 1)

    def test_equals_cox_where_it_clears(self):
        for name in COX_CLEARING:
            h = DynkinType.parse(name).coxeter_number
            assert common_denominator(solve(name)) == cox(h)

    def test_always_divisible_by_cox(self):
        # the honest general statement: cox(h) divides the denominator,
        # sometimes strictly (A5 being the smallest counterexample)
        for name in SUITE_NAMES:
            h = DynkinType.parse(name).coxeter_number
            lcd = common_denominator(solve(name))
            assert remainder(lcd, cox(h)).is_zero()
        assert common_denominator(solve("A5")) == T(0, -3, 0, 1)  # t(t^2-3)

    def test_family_law(self):
        # the cox-product law, which uses no solver, against the solver's
        # LCD det / gcd(det, y) up to rank 24
        names = [f"A{m}" for m in range(1, 25)] + \
            [f"D{m}" for m in range(4, 25)] + ["E6", "E7", "E8"]
        for name in names:
            assert common_denominator(solve(name)) == lcd_law(dt(name)), name
        off_cox = {n for n in SUITE_NAMES
                   if lcd_law(dt(n)) != cox(dt(n).coxeter_number)}
        assert off_cox == LCD_EXCEPTIONS

    def test_krylov_oracle_hand_values(self):
        # A5: n_1 = n_5, n_2 = n_4 by symmetry, so x = n_3 solves
        # x(t^3-3t)/2 = 1; D4: the criterion 1 denominator t^2-3
        semi = lambda name: build_graph(DynkinType.parse(name), "semiaffine")
        assert krylov_minpoly(semi("A5").mult) == T(0, -3, 0, 1)
        assert krylov_minpoly(semi("D4").mult) == T(-3, 0, 1)


class TestQNormalizations:
    def test_d4_final_numerators(self):
        nq = to_q_numerators(solve("D4"))
        assert list(nq.N) == [Q(1, 0, 0, 0, 0, 0, 1), Q(0, 1, 0, 2, 0, 1),
                              Q(0, 0, 1, 0, 1), Q(0, 0, 1, 0, 1), Q(0, 0, 1, 0, 1)]
        assert (nq.dynkin.coxeter_number, nq.dynkin.standard_ab) == (6, (4, 4))

    def test_a2_final_numerators(self):
        nq = to_q_numerators(solve("A2"))
        assert list(nq.N) == [Q(1, 0, 0, 1), Q(0, 1, 1), Q(0, 1, 1)]

    def test_a1_final_numerators(self):
        nq = to_q_numerators(solve("A1"))
        assert list(nq.N) == [Q(1, 0, 1), Q(0, 2)]

    def test_d4_intermediate(self):
        v = intermediate_q_weights(solve("D4"))
        assert list(v) == [Q(1, 0, -1, 0, 1), Q(0, 1, 0, 1),
                           Q(0, 0, 1), Q(0, 0, 1), Q(0, 0, 1)]

    def test_a1_intermediate(self):
        assert list(intermediate_q_weights(solve("A1"))) == [Q(1, 0, 1), Q(0, 2)]

    def test_intermediate_rescales_to_final(self):
        # multiplying the first normalization by (1+q^h)/v_0 gives the final one
        for name in COX_CLEARING:
            w = solve(name)
            h = w.dynkin.coxeter_number
            v = intermediate_q_weights(w)
            nq = to_q_numerators(w)
            scale = Q(1, *([0] * (h - 1)), 1)
            for vi, ni in zip(v, nq.N):
                assert vi * scale == ni * v[0]

    def test_intermediate_has_no_common_factor(self):
        for name in COX_CLEARING:
            v = intermediate_q_weights(solve(name))
            acc = v[0]
            for p in v[1:]:
                acc = poly_gcd(acc, p)
            assert acc.degree == 0

    def test_intermediate_raises_when_cox_does_not_clear(self):
        with pytest.raises(NonPolynomialResult):
            intermediate_q_weights(solve("A5"))

    def test_final_raises_when_affine_scale_does_not_clear(self):
        # t^2 - 5 becomes q^4 - 3q^2 + 1, which does not divide q^k (1 + q^6);
        # n_1 = 1/(t^2 - 5) over the common denominator det * (t^2 - 5)
        w = solve("D4")
        y = [yi * T(-5, 0, 1) for yi in w.y]
        y[1] = w.det
        with pytest.raises(NonPolynomialResult,
                           match=r"^1/\(t\^2-5\) does not clear"):
            to_q_numerators(w._replace(y=tuple(y)))


class TestClosedForm:
    def test_e6_node2(self):
        assert closed_form(DynkinType.parse("E6")).N[2] == \
            Q(0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1)

    def test_e8_node1(self):
        p = closed_form(DynkinType.parse("E8")).N[1]
        assert p.support() == (1, 11, 19, 29)
        assert all(p.coefficient(e) == 1 for e in p.support())

    def test_d5_far_tips(self):
        nq = closed_form(DynkinType.parse("D5"))
        assert nq.N[3] == Q(0, 0, 0, 1, 0, 1)
        assert nq.N[5] == Q(0, 0, 0, 1, 0, 1)

    def test_multiplicity_two_entries(self):
        e7 = closed_form(DynkinType.parse("E7"))
        assert e7.N[3].coefficient(9) == 2
        e8 = closed_form(DynkinType.parse("E8"))
        assert e8.N[5].coefficient(15) == 2

    def test_matches_solver_suite_wide(self):
        for name in SUITE_NAMES:
            dt = DynkinType.parse(name)
            assert to_q_numerators(solve(name)).N == closed_form(dt).N


class TestIdentities:
    def test_specialization_all_types(self):
        for name in SUITE_NAMES:
            assert specialization_identity(to_q_numerators(solve(name)),
                                           affine(name))

    def test_specialization_row_shapes(self):
        # the neighbor sums match the per-family rows of the table
        for name, exps in (("A7", (1, 7)), ("D6", (1, 3, 7, 9)),
                           ("E7", (1, 7, 11, 17))):
            nq = to_q_numerators(solve(name))
            g = build_graph(nq.dynkin, "affine")
            acc = Polynomial.zero("q")
            for j in range(1, g.n):
                if g.mult[0][j]:
                    acc = acc + nq.N[j].scaled(g.mult[0][j])
            assert acc.support() == exps

    def test_finite_reduction_all_types(self):
        for name in SUITE_NAMES:
            assert finite_reduction_check(to_q_numerators(solve(name)),
                                          build_graph(dt(name), "finite"))

    def test_finite_reduction_folds_without_division(self, monkeypatch):
        """The check reduces modulo 1 + q^h by folding q^h = -1, with no
        polynomial division, and a numerator moved by q fails it."""
        original = Polynomial._divide
        calls = [0]

        def counting(self, other):
            calls[0] += 1
            return original(self, other)

        for name in ("A5", "D7", "E8"):
            nq = to_q_numerators(solve(name))
            finite = build_graph(nq.dynkin, "finite")
            moved = list(nq.N)
            moved[1] = moved[1] + Q(0, 1)
            monkeypatch.setattr(Polynomial, "_divide", counting)
            assert finite_reduction_check(nq, finite), name
            assert not finite_reduction_check(nq._replace(N=tuple(moved)),
                                              finite), name
            monkeypatch.undo()
        assert calls[0] == 0

    def test_fold_equals_the_remainder(self):
        rng = random.Random(15)
        for h in (1, 2, 5, 12, 30):
            for _ in range(20):
                p = Polynomial("q", [rng.randint(-5, 5)
                                     for _ in range(rng.randint(0, 3 * h + 2))])
                assert Polynomial("q", _mod_one_plus_q(p, h)) \
                    == remainder(p, one_plus_q(h)), (h, p)

    def test_d4_center_reduction_by_hand(self):
        # q(q+1/q)(q+2q^3+q^5) - 3q(q^2+q^4) = (1+q^2)(1+q^6) - (1+q^2) ... = 0 mod 1+q^6
        lhs = Q(1, 0, 1) * Q(0, 1, 0, 2, 0, 1) - Q(0, 0, 0, 3, 0, 3)
        assert remainder(lhs, Q(1, 0, 0, 0, 0, 0, 1)).is_zero()

    def test_notes_all_types(self):
        for name in SUITE_NAMES:
            rep = check_notes(to_q_numerators(solve(name)), affine(name))
            assert rep.all_ok(), f"{name}: {rep}"

    def test_odd_h_parity_is_the_pairing(self):
        """For odd h the parity note is coefficient(e) = coefficient(h - e)
        on every numerator: doubling the lowest coefficient of one numerator
        breaks that pairing (e != h - e as h is odd) and keeps its lowest
        and highest exponents, so only the parity note fails."""
        for name in ("A2", "A4"):
            nq = to_q_numerators(solve(name))
            assert check_notes(nq, affine(name)).parity_ok, name
            p = nq.N[1]
            e = p.min_exponent()
            bumped = p + Polynomial.monomial("q", e, p.coefficient(e))
            rep = check_notes(nq._replace(N=(nq.N[0], bumped) + nq.N[2:]),
                              affine(name))
            assert rep.h_parity == "odd", name
            assert (rep.chain_ok, rep.parity_ok) == (True, False), name

    def test_e6_chain_minima(self):
        nq = to_q_numerators(solve("E6"))
        assert [p.min_exponent() for p in nq.N[:5]] == [0, 1, 2, 3, 4]

    def test_d4_center_count(self):
        nq = to_q_numerators(solve("D4"))
        assert nq.N[1].evaluate(Fraction(1)) == 4

    def test_numerator_invariants(self):
        for name in SUITE_NAMES:
            nq = to_q_numerators(solve(name))
            h = nq.dynkin.coxeter_number
            for p in nq.N:
                assert p.degree <= h
                assert all(c.denominator == 1 and c >= 0 for c in p.coeffs)
                assert p.evaluate(Fraction(1)) % 2 == 0
                assert all(p.coefficient(k) == p.coefficient(h - k)
                           for k in range(h + 1))


class TestProducts:
    """Upper bounds on ``Polynomial.__mul__`` calls, and on
    ``Polynomial.exact_div`` calls. The solver multiplies only at the
    branch nodes of the tree recurrence, works the adjugate on int vectors,
    and divides nowhere, and t = q + 1/q is substituted by binomial
    coefficients, with no product at all."""

    @pytest.fixture
    def products(self, monkeypatch):
        """[products, exact divisions] since the last reset."""
        mul, exact_div = Polynomial.__mul__, Polynomial.exact_div
        count = [0, 0]

        def counting(self, other):
            count[0] += 1
            return mul(self, other)

        def dividing(self, other):
            count[1] += 1
            return exact_div(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        monkeypatch.setattr(Polynomial, "exact_div", dividing)
        return count

    def test_solver(self, products):
        """Bareiss elimination over Z[t] with every row rescaled at each
        step was held to 920 and 1,040 products on A24 and D24."""
        for name, limit in (("A24", 24), ("D24", 28)):
            g = build_graph(dt(name), "semiaffine")
            products[:] = [0, 0]
            w = solve_semiaffine(g)
            assert products[0] <= limit, (name, products[0])
            assert products[1] == 0, (name, products[1])
            assert weights_satisfy(g, w)

    def test_solver_products_stay_below_the_rank(self, products):
        """At most one product per node. The Bareiss solver with lazily
        scaled rows took A24, D24, A48 and A96 to 139, 302, 283 and 571
        products and 92, 185, 188 and 380 exact divisions (its limits were
        170, 380, 340 and 700 products); rescaling every row took them to
        920, 1,040, 3,572 and 14,060 products."""
        for name, limit in (("A24", 24), ("D24", 28), ("A48", 48),
                            ("A96", 96)):
            g = build_graph(dt(name), "semiaffine")
            products[:] = [0, 0]
            w = solve_semiaffine(g)
            assert products[0] <= limit, (name, products[0])
            assert products[1] == 0, (name, products[1])
            assert weights_satisfy(g, w)

    def test_q_normalization(self, products):
        for name in ("A24", "D24"):
            w = solve(name)
            products[0] = 0
            for y in w.y:
                substitute_t(y)
            assert products[0] == 0, name
            to_q_numerators(w)
            assert products[0] <= 25, (name, products[0])


class TestSerialization:
    def test_values_equal_the_per_node_reduction(self):
        """``TWeights.values`` reduces each distinct y_i once and hands
        that one value to every node with that numerator; each value equals
        ``RationalFunction(y_i, det)`` built node by node, on A1..A48,
        D4..D40 and E6..E8."""
        names = ([f"A{m}" for m in range(1, 49)]
                 + [f"D{m}" for m in range(4, 41)] + ["E6", "E7", "E8"])
        for name in names:
            w = solve(name)
            values = w.values
            assert list(values) == [RationalFunction(yi, w.det)
                                    for yi in w.y], name
            assert len({id(v) for v in values}) == \
                len({yi.coeffs for yi in w.y}), name

    def test_tweights_json_encodes_each_distinct_value_once(self,
                                                           monkeypatch):
        """``TWeights.to_json`` builds one JSON object per distinct value
        and hands it to every node that shares the value: over the
        graph_queries types, A1..A24, D4..D24 and E6..E8, 495
        ``RationalFunction.to_json`` calls for 663 nodes, where one object
        per node made 663. Each node's object equals its value's."""
        names = ([f"A{m}" for m in range(1, 25)]
                 + [f"D{m}" for m in range(4, 25)] + ["E6", "E7", "E8"])
        encode = RationalFunction.to_json
        calls = []
        monkeypatch.setattr(RationalFunction, "to_json",
                            lambda v: calls.append(v) or encode(v))
        nodes = 0
        for name in names:
            w = solve(name)
            assert w.to_json() == {"type": name, "values": [
                encode(v) for v in w.values]}, name
            nodes += len(w.y)
        assert (len(calls), nodes) == (495, 663)

    def test_qnumerators_json_round_trip(self):
        # h, a and b are written from the type, in this key order
        obj = to_q_numerators(solve("D4")).to_json()
        assert list(obj) == ["type", "h", "a", "b", "N"]
        assert obj == {"type": "D4", "h": 6, "a": 4, "b": 4,
                       "N": [["1", "0", "0", "0", "0", "0", "1"],
                             ["0", "1", "0", "2", "0", "1"],
                             ["0", "0", "1", "0", "1"],
                             ["0", "0", "1", "0", "1"],
                             ["0", "0", "1", "0", "1"]]}

    def test_latex_exponent_sums(self):
        assert exponent_sum_latex(Q(0, 1, 0, 2, 0, 1)) == "(1+2\\times 3+5)"
        assert exponent_sum_latex(Q(1, 0, 0, 0, 0, 0, 1)) == "(0+6)"

    def test_latex_whole_type(self):
        text = numerators_latex(to_q_numerators(solve("D4")))
        assert text == "(0+6),(1+2\\times 3+5),(2+4),(2+4),(2+4)"
