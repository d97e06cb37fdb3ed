from __future__ import annotations

import json
import random

import pytest

from adeweights.errors import InvalidParameter, SingularSystem, ValidationFailed
from adeweights.graphs import (MAX_RANK, DirectedGraph, DynkinType,
                               build_graph, char_poly, charpoly_report,
                               graph_marks, parse_type_selector)
from adeweights.poly import Polynomial, cox, one_plus_q
from oracles import char_poly_bareiss, remainder

T = lambda *cs: Polynomial("t", cs)
Q = lambda *cs: Polynomial("q", cs)
SUITE_NAMES = [f"A{m}" for m in range(1, 13)] + \
              [f"D{m}" for m in range(4, 13)] + ["E6", "E7", "E8"]


def dt(name):
    return DynkinType.parse(name)


def report(name):
    t = dt(name)
    return charpoly_report(build_graph(t, "semiaffine"),
                           char_poly(build_graph(t, "finite")))


class TestDynkinType:
    def test_derived_quantities(self):
        cases = {
            "A1": (2, 2, (2, 2), 2), "A5": (6, 6, (2, 6), 6),
            "D4": (6, 8, (4, 4), 4), "D7": (12, 20, (4, 10), 20),
            "E6": (12, 24, (6, 8), 12), "E7": (18, 48, (8, 12), 24),
            "E8": (30, 120, (12, 20), 60),
        }
        for name, (h, order, ab, cond) in cases.items():
            t = dt(name)
            assert t.coxeter_number == h
            assert t.group_order == order
            assert t.standard_ab == ab
            assert t.conductor == cond

    def test_ab_relations(self):
        for name in SUITE_NAMES:
            t = dt(name)
            a, b = t.standard_ab
            assert a * b == 2 * t.group_order
            assert a + b == t.coxeter_number + 2

    def test_standard_form_is_the_product_of_its_factors(self):
        names = [f"A{m}" for m in range(1, 25)] + \
                [f"D{m}" for m in range(4, 25)] + ["E6", "E7", "E8"]
        for name in names:
            a, b = dt(name).standard_ab
            assert dt(name).standard_form == \
                one_plus_q(a, -1) * one_plus_q(b, -1), name
        assert dt("A1").standard_form == Q(1, 0, -2, 0, 1)

    def test_invalid(self):
        for bad in ("D3", "E9", "E5", "A0", "B2", "banana", "A01", "A1\u0660"):
            with pytest.raises(InvalidParameter):
                dt(bad)

    def test_selector(self):
        out = parse_type_selector("A1..A3,D4,E6..E8")
        assert [str(t) for t in out] == ["A1", "A2", "A3", "D4", "E6", "E7", "E8"]
        with pytest.raises(InvalidParameter):
            parse_type_selector("D4..A7")
        with pytest.raises(InvalidParameter):
            parse_type_selector("A3..A1")
        with pytest.raises(InvalidParameter):
            parse_type_selector("A1,,A2")
        # every type is held to MAX_RANK, a range by its upper end before it
        # is expanded; DynkinType itself takes any rank
        assert parse_type_selector(f"D{MAX_RANK}")[0].rank == MAX_RANK
        for text in (f"A{MAX_RANK + 1}", f"E6,D4..D{MAX_RANK + 1}",
                     "A1..A99999999999999999999"):
            with pytest.raises(InvalidParameter, match="above the limit"):
                parse_type_selector(text)
        assert dt(f"A{MAX_RANK + 1}").rank == MAX_RANK + 1


class TestBuildGraph:
    def test_d4_semiaffine_star(self):
        g = build_graph(dt("D4"), "semiaffine")
        assert g.n == 5
        assert g.mult[0] == (0, 0, 0, 0, 0)          # affine node is a sink
        assert g.mult[1] == (1, 0, 1, 1, 1)          # center reaches everyone
        for tip in (2, 3, 4):
            assert g.mult[tip] == (0, 1, 0, 0, 0)    # tips keep center backedges

    def test_a2_affine_triangle(self):
        g = build_graph(dt("A2"), "affine")
        assert g.n == 3
        assert g.is_symmetric()
        assert sum(sum(r) for r in g.mult) == 6

    def test_a1_semiaffine_double_edge(self):
        g = build_graph(dt("A1"), "semiaffine")
        assert g.mult == ((0, 0), (2, 0))

    def test_semiaffine_is_affine_with_zeroed_row(self):
        for name in SUITE_NAMES:
            aff = build_graph(dt(name), "affine")
            semi = build_graph(dt(name), "semiaffine")
            assert semi.mult[0] == (0,) * semi.n
            for i in range(1, semi.n):
                assert semi.mult[i] == aff.mult[i]

    def test_symmetry_flags(self):
        for name in SUITE_NAMES:
            t = dt(name)
            assert build_graph(t, "finite").is_symmetric()
            assert build_graph(t, "affine").is_symmetric()
            semi = build_graph(t, "semiaffine")
            assert semi.mult != tuple(zip(*semi.mult))

    def test_node_counts(self):
        for name in SUITE_NAMES:
            t = dt(name)
            assert build_graph(t, "finite").n == t.rank
            assert build_graph(t, "affine").n == t.rank + 1

    def test_bad_form(self):
        with pytest.raises(InvalidParameter):
            build_graph(dt("D4"), "projective")

    def test_canonical_order_puts_each_parent_first(self):
        """The weight solver's tree recurrence reads A_fin as a 0/1
        symmetric tree with a zero diagonal in which every node after the
        first has exactly one neighbour before it, its parent."""
        names = [f"A{m}" for m in range(1, 49)] + \
                [f"D{m}" for m in range(4, 41)] + ["E6", "E7", "E8"]
        for name in names:
            mult = build_graph(dt(name), "finite").mult
            assert all(v in (0, 1) for row in mult for v in row), name
            assert mult == tuple(zip(*mult)), name
            assert not any(mult[i][i] for i in range(len(mult))), name
            assert [sum(mult[i][:i]) for i in range(len(mult))] == \
                [0] + [1] * (len(mult) - 1), name


class TestNeighborSums:
    def test_ints_follow_directed_rows(self):
        g = build_graph(dt("A2"), "semiaffine")
        sums = g.neighbor_sums([1, 10, 100])
        assert sums == [0, 101, 11]
        assert all(type(v) is int for v in sums)

    def test_polynomials_keep_their_variable(self):
        g = build_graph(dt("A1"), "affine")  # the double bond
        assert g.neighbor_sums([T(1), T(0, 1)]) == [T(0, 2), T(2)]
        sums = build_graph(dt("A1"), "semiaffine").neighbor_sums([Q(1), Q(0, 1)])
        assert sums == [Q(), Q(2)]
        assert all(p.var == "q" for p in sums)

    def test_edgeless_row_is_a_zero_polynomial(self):
        g = build_graph(dt("A1"), "finite")
        assert (g.n, g.mult) == (1, ((0,),))
        (s,) = g.neighbor_sums([Q(0, 1, 0, 1)])
        assert isinstance(s, Polynomial) and s.var == "q" and s.is_zero()


class TestCharPoly:
    def test_frozen_examples(self):
        assert char_poly(build_graph(dt("D4"), "semiaffine")) == T(0, 0, 0, -3, 0, 1)
        assert char_poly(build_graph(dt("A2"), "finite")) == T(-1, 0, 1)
        assert char_poly(build_graph(dt("A1"), "affine")) == T(-4, 0, 1)

    def test_against_bareiss_oracle(self):
        for name in SUITE_NAMES + ["A48", "D40"]:
            for form in ("finite", "affine", "semiaffine"):
                g = build_graph(dt(name), form)
                assert char_poly(g) == char_poly_bareiss(g.mult)

    def test_structural_identity(self):
        for name in SUITE_NAMES + ["A96", "D64"]:
            t = dt(name)
            semi = char_poly(build_graph(t, "semiaffine"))
            fin = char_poly(build_graph(t, "finite"))
            assert semi == fin.shifted(1)
            assert semi.degree == t.rank + 1

    def test_dense_asymmetric_matrices_against_bareiss(self):
        """Asymmetric, with row sums up to 24 where an ADE tree's reach 4,
        so the slots of the packed rows of M^k hold values no ADE graph
        gives; the all-3 8x8 matrix has the largest row sums."""
        rng = random.Random(25)
        mats = [tuple(tuple(rng.randint(0, 3) for _ in range(n))
                      for _ in range(n))
                for n in range(1, 9) for _ in range(37)]
        mats.append(((3,) * 8,) * 8)
        for mult in mats:
            g = DirectedGraph(mult, None, "affine")
            assert char_poly(g) == char_poly_bareiss(mult), mult

    def test_negative_multiplicity_is_refused(self):
        g = DirectedGraph(((0, -1), (1, 0)), None, "affine")
        with pytest.raises(ValueError, match="negative multiplicity"):
            char_poly(g)

    def test_path_recurrence_up_to_a96(self):
        """phi(A_m) = t phi(A_{m-1}) - phi(A_{m-2}), expanding det(tI - A)
        along the last node of the path, over plain coefficient lists."""
        prev, cur = [1], [0, 1]
        for m in range(1, 97):
            assert char_poly(build_graph(dt(f"A{m}"), "finite")) == \
                Polynomial("t", cur), m
            nxt = [0] + cur
            for i, c in enumerate(prev):
                nxt[i] -= c
            prev, cur = cur, nxt

    def test_builds_one_polynomial_and_no_product(self, monkeypatch):
        """LeVerrier runs on ints and builds the result once, so it shares
        no Polynomial arithmetic with the solver's tree-recurrence det."""
        counts = {"init": 0, "mul": 0, "exact_div": 0}
        init, mul, exact_div = (Polynomial.__init__, Polynomial.__mul__,
                                Polynomial.exact_div)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        graphs = [build_graph(dt(name), "semiaffine") for name in ("A48", "D40")]
        monkeypatch.setattr(Polynomial, "__init__", counted("init", init))
        monkeypatch.setattr(Polynomial, "__mul__", counted("mul", mul))
        monkeypatch.setattr(Polynomial, "__rmul__", counted("mul", mul))
        monkeypatch.setattr(Polynomial, "exact_div",
                            counted("exact_div", exact_div))
        for g in graphs:
            counts.update(init=0, mul=0, exact_div=0)
            assert char_poly(g).degree == g.n
            assert counts == {"init": 1, "mul": 0, "exact_div": 0}, g.dynkin


class TestCharpolyReport:
    def test_d4(self):
        rep = report("D4")
        assert (rep.d, rep.cofactor, rep.claim_holds) == (3, T(-3, 0, 1), True)

    def test_a3(self):
        rep = report("A3")
        assert (rep.d, rep.cofactor, rep.claim_holds) == (2, T(-2, 0, 1), True)

    def test_e6_consistency(self):
        # no expected boolean frozen here: assert internal consistency only
        rep = report("E6")
        assert rep.structural_ok
        assert rep.cofactor.coefficient(0) != 0
        assert rep.char_semiaffine == rep.cofactor.shifted(rep.d)
        assert rep.d + rep.cofactor.degree == 7
        assert rep.claim_holds == (rep.cofactor == cox(12) and rep.d == 7 - cox(12).degree)

    def test_cofactor_always_divisible_by_cox(self):
        for name in SUITE_NAMES:
            rep = report(name)
            t = dt(name)
            full = rep.cofactor.shifted(rep.d)
            assert remainder(full, cox(t.coxeter_number)).is_zero()


class TestMarks:
    def test_perron_property(self):
        for name in SUITE_NAMES:
            t = dt(name)
            g = build_graph(t, "affine")
            marks = graph_marks(g)
            assert marks[0] == 1
            assert all(v >= 1 for v in marks)
            for i in range(g.n):
                assert sum(g.mult[i][j] * marks[j] for j in range(g.n)) == 2 * marks[i]

    def test_known_vectors(self):
        marks = lambda name: graph_marks(build_graph(dt(name), "affine"))
        assert marks("E8") == (1, 2, 3, 4, 5, 6, 4, 2, 3)
        assert marks("D4") == (1, 2, 1, 1, 1)
        assert marks("A7") == (1,) * 8

    def test_affine_row_is_checked(self):
        # the finite row solves to x_1 = 1, which breaks the affine row
        g = DirectedGraph(((0, 1), (2, 0)), None, "affine")
        with pytest.raises(SingularSystem, match="inconsistent"):
            graph_marks(g)

    def test_singular_finite_system_raises(self):
        g = DirectedGraph(((0, 2), (2, 2)), None, "affine")
        with pytest.raises(SingularSystem, match="lost rank"):
            graph_marks(g)

    def test_fractional_marks_raise(self):
        # x_1 = 1/2, and x_1 = 3/2, which back substitution over Z must not
        # round down to 1
        for mult in (((0, 1), (1, 0)), ((0, 1), (3, 0))):
            g = DirectedGraph(mult, None, "affine")
            with pytest.raises(ValidationFailed, match="positive integers"):
                graph_marks(g)


class TestExport:
    def test_dot_semiaffine_a2(self):
        text = build_graph(dt("A2"), "semiaffine").to_dot("A2_semiaffine")
        edges = [ln for ln in text.splitlines() if "->" in ln]
        assert len(edges) == 4
        assert text.startswith('digraph "A2_semiaffine"')

    def test_dot_multiplicity_as_parallel_edges(self):
        text = build_graph(dt("A1"), "semiaffine").to_dot()
        assert [ln.strip() for ln in text.splitlines() if "->" in ln] == \
            ["1 -> 0;", "1 -> 0;"]

    def test_json_round_trip(self):
        g = build_graph(dt("D5"), "semiaffine")
        obj = g.to_json()
        assert list(obj) == ["nodes", "affine_index", "edges"]
        assert json.loads(json.dumps(obj)) == obj
        assert (obj["nodes"], obj["affine_index"]) == (6, 0)
        assert obj["edges"] == [{"from": i, "to": j, "mult": g.mult[i][j]}
                                for i in range(6) for j in range(6)
                                if g.mult[i][j]]
        assert len(obj["edges"]) == 2 * 5 - 1  # the affine row is zeroed
        assert build_graph(dt("D5"), "finite").to_json()["affine_index"] is None
