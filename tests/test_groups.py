from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from adeweights import cyclo, groups, verify
from adeweights.cli import main
from adeweights.cyclo import CycNumber
from adeweights.errors import (ClosureOverflow, NoIsomorphism,
                               NonPolynomialResult, ValidationFailed)
from adeweights.graphs import DynkinType, build_graph, graph_marks
from adeweights.groups import (CharTable, build_group, char_table,
                               decompose, enumerate_subgroup, generators,
                               mckay_matrix, molien_series, quaternion,
                               recurrence_check,
                               sym_power_multiplicities, table_violation,
                               _cofactor_lifts, _linear_characters,
                               _match_affine)
from adeweights.poly import Polynomial, cos_polynomial, cyclotomic
from adeweights.verify import DEFAULT_SUITE, run_suite
from oracles import (class_table, exact_classes, exact_closure,
                     exact_elements,
                     galois_orbit_count,
                     inner_product_by_classes,
                     matrix_inverse, matrix_order, matrix_product,
                     matrix_trace,
                     minimal_polynomial, molien_by_elements,
                     table_json_by_galois,
                     series_coefficients, su2_matrix,
                     sym_power_multiplicities_direct)

Q = lambda *cs: Polynomial("q", cs)
SUITE_NAMES = [f"A{m}" for m in range(1, 13)] + \
              [f"D{m}" for m in range(4, 13)] + ["E6", "E7", "E8"]
SESSION_NAMES = [f"A{m}" for m in range(1, 17)] + \
                [f"D{m}" for m in range(4, 17)] + ["E6", "E7", "E8"]
LADDER_NAMES = [f"A{m}" for m in range(1, 25)] + \
               [f"D{m}" for m in range(4, 25)] + ["E6", "E7", "E8"]
EXTENDED_NAMES = [f"A{m}" for m in range(1, 49)] + \
                 [f"D{m}" for m in range(4, 41)] + ["E6", "E7", "E8"]
# the class facts are read off one walk of powers per Galois orbit, so the
# class tests read every class, not only the orbit reps
CLASS_NAMES = SUITE_NAMES + ["A48", "D40"]


def dt(name):
    return DynkinType.parse(name)


def element_index(elements) -> dict:
    """Each element's full matrix -> its index in ``elements``."""
    return {su2_matrix(x): i for i, x in enumerate(elements)}


def is_special_unitary(m) -> bool:
    """m* m = I by CycNumber products; for a matrix
    [[a, b], [-conj(b), conj(a)]] this also gives det m = 1."""
    (p, q), (r, s) = matrix_product(matrix_inverse(m), m)
    return p == 1 and s == 1 and q.is_zero() and r.is_zero()


class TestEnumeration:
    def test_orders_and_class_counts(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            t = b.dynkin
            assert b.group.order == t.group_order
            assert len(b.group.classes) == t.rank + 1

    def test_galois_orbit_counts(self):
        """The orbits found from the powers of each orbit rep are the
        classes closed under x -> x^a over every element; each orbit's
        twists and stabiliser cover the units prime to N."""
        pinned = {"A24": 3, "A48": 3, "D24": 8, "D40": 8, "E6": 5, "E7": 7,
                  "E8": 7}
        for name in EXTENDED_NAMES:
            g = build_group(dt(name))
            N = g.conductor
            assert len(g.orbits) == galois_orbit_count(g), name
            assert pinned.get(name, len(g.orbits)) == len(g.orbits), name
            assert sorted(c for o in g.orbits
                          for c in (o.rep, *(cj for cj, _ in o.twists))) \
                == list(range(len(g.classes))), name
            for o in g.orbits:
                units = sum(gcd(a, N) == 1 for a in range(1, N + 1))
                fixed = {1}  # the subgroup the stabiliser generates
                while True:
                    grown = fixed | {f * s % N for f in fixed
                                     for s in o.stabiliser}
                    if grown == fixed:
                        break
                    fixed = grown
                assert len(fixed) * o.size == units, (name, o)

    def test_a1_is_plus_minus_identity(self, bundle):
        g = bundle("A1").group
        assert g.order == 2
        elements = exact_elements(g)
        m = su2_matrix(elements[1])
        assert matrix_product(m, m) == su2_matrix(elements[0])

    def test_a2_cyclic(self, bundle):
        assert bundle("A2").group.order == 3

    def test_d4_quaternion_traces(self, bundle):
        g = bundle("D4").group
        traces = sorted(g.traces[c.eigen_exp].to_rational()
                        for c in g.classes)
        assert traces == [-2, 0, 0, 0, 2]
        assert sorted(c.size for c in g.classes) == [1, 1, 2, 2, 2]

    def test_e7_e8_class_counts(self, bundle):
        assert (bundle("E7").group.order, len(bundle("E7").group.classes)) == (48, 8)
        assert (bundle("E8").group.order, len(bundle("E8").group.classes)) == (120, 9)

    def test_all_elements_special_unitary(self, bundle):
        for name in ("A3", "D5", "E6"):
            for x in exact_elements(bundle(name).group):
                assert is_special_unitary(su2_matrix(x))

    def test_class_traces_real_and_constant(self, bundle):
        for name in CLASS_NAMES:
            g = bundle(name).group
            elements = exact_elements(g)
            for c in g.classes:
                trace = g.traces[c.eigen_exp]
                assert trace.conj() == trace
                for member in c.members:
                    assert matrix_trace(su2_matrix(elements[member])) \
                        == trace, (name, member)

    def test_classes_partition_the_group(self, bundle):
        for name in ("A5", "D7", "E8"):
            g = bundle(name).group
            assert sum(c.size for c in g.classes) == g.order
            seen = sorted(i for c in g.classes for i in c.members)
            assert seen == list(range(g.order))

    def test_identity_and_minus_identity_classes(self, bundle):
        for name in SUITE_NAMES:
            g = bundle(name).group
            traces = [g.traces[c.eigen_exp] for c in g.classes]
            assert g.classes[0].size == 1 and traces[0] == 2
            minus = [c for c, t in zip(g.classes, traces) if t == -2]
            if g.order % 2 == 0:
                assert len(minus) == 1 and minus[0].size == 1
            else:
                assert not minus

    def test_trace_minimal_polynomial_matches_the_galois_orbit(self):
        """Each class's printed ``trace_min_poly`` equals the oracle's
        product of t - y over the Galois orbit of the trace, computed in
        Q(zeta_N)."""
        for name in LADDER_NAMES:
            g = build_group(dt(name))
            for c, data in zip(g.classes, g.classes_to_json(), strict=True):
                assert data["trace_min_poly"] == \
                    minimal_polynomial(g.traces[c.eigen_exp]).to_json(), \
                    (name, c.rep)

    def test_eigenvalue_order_is_the_element_order(self):
        """zeta_N^e is a primitive d-th root of unity, d = N / gcd(N, e),
        and an SU(2) element is diagonalizable with eigenvalues zeta^(+-e),
        so d is its order: ``classes_to_json`` keys the trace's minimal
        polynomial on ``c.order``."""
        for name in LADDER_NAMES:
            g = build_group(dt(name))
            N = g.conductor
            for c in g.classes:
                assert N // gcd(N, c.eigen_exp) == c.order, (name, c.rep)

    def test_closure_overflow_on_bad_generators(self):
        with pytest.raises(ClosureOverflow):
            enumerate_subgroup(generators(dt("D4")), dt("A1"))

    def test_short_closure_raises_validation_failed(self):
        # the rotation alone closes on 4 of the 8 quaternions
        with pytest.raises(ValidationFailed):
            enumerate_subgroup([generators(dt("D4"))[0]], dt("D4"))

    def test_rep_classes_follow_the_classes(self, bundle):
        """``rep_classes`` is read off ``classes`` at each call, so a group
        whose classes are replaced by ``_replace``, as
        ``_group_order_doubled`` in tests/test_verify.py replaces them,
        names the new classes at its orbit reps, not the old ones."""
        G = bundle("D4").group
        before = G.rep_classes
        doubled = G._replace(classes=tuple(c._replace(size=2 * c.size)
                                           for c in G.classes))
        assert doubled.rep_classes == [doubled.classes[o.rep]
                                       for o in G.orbits]
        assert [c.size for c in doubled.rep_classes] == \
            [2 * c.size for c in before]

    def test_eigen_exponent_is_least(self, bundle):
        """Each class's eigen-exponent is the least e with
        zeta^e + zeta^-e the exact trace of its rep."""
        for name in SUITE_NAMES:
            g = bundle(name).group
            N = g.conductor
            elements = exact_elements(g)
            for c in g.classes:
                trace = matrix_trace(su2_matrix(elements[c.rep]))
                least = next(e for e in range(N)
                             if CycNumber.root_of_unity(N, e)
                             + CycNumber.root_of_unity(N, -e) == trace)
                assert c.eigen_exp == least


def image_mod_p(x: CycNumber, p: int, w: int) -> int:
    """x at zeta = w mod p, read off its printed coordinates."""
    v = sum(Fraction(c) * pow(w, i, p)
            for i, c in enumerate(x.to_json()["coeffs"]) if c != "0")
    return v.numerator * pow(v.denominator, -1, p) % p


class TestReductionModP:
    """The closure runs over F_p through ``cyclo.su2_mod_p``; the exact
    closure of tests/oracles.py is its oracle."""

    ALL_NAMES = [f"A{m}" for m in range(1, 129)] + \
                [f"D{m}" for m in range(4, 129)] + ["E6", "E7", "E8"]

    def test_reduction_map_on_every_conductor(self):
        """For every type up to A128 and D128: p is prime, p = 1 (mod N)
        and divides no generator denominator, omega has order exactly N and
        is a root of Phi_N mod p, the images of zeta^r + zeta^-r,
        r <= N/2, are distinct, and each generator's 4-tuple is the image
        of [[a, b], [-conj(b), conj(a)]], conjugates built exactly."""
        for name in self.ALL_NAMES:
            gens = generators(dt(name))
            N = gens[0][0].N
            p, w, images = cyclo.su2_mod_p(N, gens)
            assert p % N == 1 and all(p % r for r in range(2, p)), name
            assert all(Fraction(c).denominator % p for row in gens
                       for x in row for c in x.to_json()["coeffs"]), name
            assert [k for k in range(1, N + 1) if pow(w, k, p) == 1] == [N]
            assert sum(c * w ** i for i, c in enumerate(
                cyclotomic(N).coeffs)) % p == 0, name
            assert len({(w ** r + pow(w, -r, p)) % p
                        for r in range(N // 2 + 1)}) == N // 2 + 1, name
            assert images == [tuple(image_mod_p(x, p, w) for x in (
                a, b, -b.conj(), a.conj())) for a, b in gens], name

    @pytest.mark.parametrize("name, match", [
        ("D4", "closure has 4 elements"), ("E6", "closure has 4 elements"),
        ("D5", "not of order 12")])
    def test_omega_of_half_order_is_refused(self, name, match, monkeypatch):
        """An omega of order N/2 is no root of Phi_N, so zeta -> omega is
        no ring map: the closure of D4 and of E6 falls short of |G|, and on
        D5 the images omega^r + omega^-r, r <= N/2, repeat, so no class
        could read its eigen-exponent off them."""
        original = cyclo.residue_field

        def squared(N, dens):
            p, w = original(N, dens)
            return p, w * w % p

        monkeypatch.setattr(cyclo, "residue_field", squared)
        with pytest.raises(ValidationFailed, match=match):
            build_group(dt(name))

    def test_fp_closure_equals_the_exact_closure(self):
        """On A1..A48, D4..D40 and E6..E8 the exact closure over
        Q(zeta_N), keyed on top rows, gives the same right tables, so the
        same element indices; each class's trace ``traces[eigen_exp]`` is
        a + conj(a) of its rep's exact top row (a, b)."""
        for name in EXTENDED_NAMES:
            g = build_group(dt(name))
            elements, _, right = exact_closure(list(g.generators))
            assert tuple(map(tuple, right)) == g.right, name
            for c in g.classes:
                a = elements[c.rep][0]
                assert a + a.conj() == g.traces[c.eigen_exp], (name, c.rep)


class TestIndexKernel:
    def test_right_tables_are_matrix_products(self, bundle):
        """The closure runs over F_p; the exact full 2x2 product by
        CycNumber products, bottom rows included, is the oracle, at every
        element and generator, not only the edge ``exact_elements`` first
        reaches each element by."""
        for name in SUITE_NAMES:
            g = bundle(name).group
            elements = exact_elements(g)
            for k, gen in enumerate(g.generators):
                for i, x in enumerate(elements):
                    assert matrix_product(su2_matrix(x), su2_matrix(gen)) \
                        == su2_matrix(elements[g.right[k][i]]), (name, k, i)

    def test_class_orders_match_matrix_powers(self, bundle):
        for name in CLASS_NAMES:
            g = bundle(name).group
            elements = exact_elements(g)
            for c in g.classes:
                assert c.order == matrix_order(su2_matrix(elements[c.rep])), \
                    (name, c.rep)

    def test_members_are_the_conjugacy_class_of_the_rep(self, bundle):
        """The class scan conjugates images mod p; each class's members are
        the exact conjugacy class of its rep, found by exact matrix
        products with each generator and its inverse."""
        for name in CLASS_NAMES:
            g = bundle(name).group
            assert [c.members for c in g.classes] == exact_classes(g), name

    def test_linear_character_counts(self, bundle):
        # |G / [G, G]|: m + 1 for the cyclic group of A_m, 4 for every
        # binary dihedral group, 3, 2, 1 for the binary tetrahedral,
        # octahedral and icosahedral groups
        for name in SUITE_NAMES:
            t = dt(name)
            want = (t.m + 1 if t.family == "A" else 4 if t.family == "D"
                    else {6: 3, 7: 2, 8: 1}[t.m])
            assert len(_linear_characters(bundle(name).group)) == want, name

    def test_linear_characters_are_multiplicative(self, bundle):
        """chi(xy) = chi(x) chi(y) for every linear row, with xy found by
        matrix products, not through the Cayley tables the search reads:
        every pair for |G| <= 48, seeded samples for E8."""
        rng = random.Random(23)
        for name in SUITE_NAMES:
            g = bundle(name).group
            n = g.order
            elements = exact_elements(g)
            index = element_index(elements)
            mats = [su2_matrix(x) for x in elements]
            col = {j: ci for ci, c in enumerate(g.classes) for j in c.members}
            pairs = ([(x, y) for x in range(n) for y in range(n)] if n <= 48
                     else [(rng.randrange(n), rng.randrange(n))
                           for _ in range(500)])
            products = [index[matrix_product(mats[x], mats[y])]
                        for x, y in pairs]
            for full in g.expand(_linear_characters(g)):
                chi = [full[col[i]] for i in range(n)]
                for (x, y), xy in zip(pairs, products):
                    assert chi[xy] == chi[x] * chi[y], (name, x, y)


class TestGeneratorIndependence:
    """No report byte depends on which generators of G the code is given.
    Conjugating every generator by one unit quaternion, or applying one
    Galois automorphism sigma_a to every entry, gives an isomorphic group
    with the same traces up to sigma_a, so ``verify --format json`` must be
    the same bytes. A D table that found its rotation classes by the
    coordinate test b = 0 failed every check of D5..D9 under conjugation."""

    TYPES = "A1..A8,D4..D9,E6..E8"

    @staticmethod
    def conjugated(gens, N):
        """u g u^-1 for each generator g, u = (1 + i + j + k)/2 when 4 | N,
        else u = j, by full matrix products."""
        half = Fraction(1, 2)
        u = su2_matrix(quaternion(N, half, half, half, half) if N % 4 == 0
                       else (CycNumber.zero(N), CycNumber.one(N)))
        return [matrix_product(matrix_product(u, su2_matrix(g)),
                               matrix_inverse(u))[0] for g in gens]

    @staticmethod
    def twisted(gens, N):
        """sigma_a of every entry, a the least unit above 1 (a = 1 at
        N = 2, where no other unit exists)."""
        a = next(a for a in range(2, N + 2) if gcd(a, N) == 1)
        return [(x.galois(a), y.galois(a)) for x, y in gens]

    def verify(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["verify", "--types", self.TYPES, "--format",
                           "json"])
        return status, out.getvalue()

    def test_reports_do_not_depend_on_the_generators(self, monkeypatch):
        status, plain = self.verify()
        assert status == 1 and plain
        for change in (self.conjugated, self.twisted):
            moved = set()

            def changed(t, change=change, moved=moved):
                gens = generators(t)
                new = change(gens, t.conductor)
                if new != gens:
                    moved.add(str(t))
                return new

            monkeypatch.setattr(groups, "generators", changed)
            got = self.verify()
            monkeypatch.undo()
            differ = sorted(
                {c["type"] for c, d in zip(json.loads(plain)["checks"],
                                           json.loads(got[1])["checks"])
                 if c != d})
            assert differ == [], change.__name__
            assert got == (status, plain), change.__name__
            assert {"D5", "D9", "E8"} <= moved, change.__name__


class TestCharTable:
    def test_all_tables_validate(self, bundle):
        """Every table passes its gate and holds each row at the orbit
        reps alone, one entry per Galois orbit."""
        for name in SUITE_NAMES:
            b = bundle(name)
            assert table_violation(b.table, b.group) is None
            assert {len(row) for row in b.table.values} == \
                {len(b.group.orbits)}, name

    def test_expand_equals_the_per_class_reference(self):
        """``expand`` writes a row at every class as sigma_a of its value
        at the orbit rep; the reference computes each class's value from
        that class's own label or trace, and sorts the E rows by their keys
        at every class. Every row agrees, in the same order, on A1..A48,
        D4..D40 and E6..E8."""
        for name in EXTENDED_NAMES:
            G = build_group(dt(name))
            table = char_table(dt(name), G)
            assert G.expand(table.values) == class_table(G), name

    def test_to_json_equals_the_entry_by_entry_galois_oracle(self):
        """``CharTable.to_json`` expands the rows once per table, mapping
        each distinct (value, a) once and keeping a rational value, and
        builds one JSON object per distinct value. It equals the oracle that
        maps and encodes every entry on its own, on A1..A16, D4..D16 and
        E6..E8, and its entries hold exactly one object per distinct
        value."""
        for name in SESSION_NAMES:
            G = build_group(dt(name))
            table = char_table(dt(name), G)
            got = table.to_json(G)
            assert got == table_json_by_galois(table, G), name
            entries = [obj for row in got["values"] for obj in row]
            assert len({id(obj) for obj in entries}) == \
                len({json.dumps(obj) for obj in entries}), name

    def test_e_rows_are_ordered_by_their_keys_at_the_reps(self):
        """The E walk sorts its rows after the trivial one by the
        ``sort_key``s of their entries at the orbit reps. On E6, E7 and E8
        those keys are pairwise distinct, and the keys at every class put
        the rows in the same order."""
        for name in ("E6", "E7", "E8"):
            G = build_group(dt(name))
            rows = char_table(dt(name), G).values[1:]
            for keyed in (rows, G.expand(rows)):
                keys = [tuple(v.sort_key() for v in row) for row in keyed]
                assert all(a < b for a, b in zip(keys, keys[1:])), name

    def test_d4_degrees(self, bundle):
        assert sorted(bundle("D4").table.degrees) == [1, 1, 1, 1, 2]

    def test_rotations_need_the_sign_character(self, bundle):
        """The D rotation classes are the kernel of the sign character,
        trivial on generator 0 and -1 on generator 1. With D5's two right
        tables swapped no such character extends, since j^2 = a^3 would go
        to 1 = -1, and ``char_table`` refuses instead of guessing."""
        G = bundle("D5").group
        with pytest.raises(ValidationFailed, match="no linear character"):
            char_table(dt("D5"), G._replace(right=G.right[::-1]))

    def test_e8_degree_identity(self, bundle):
        degrees = bundle("E8").table.degrees
        assert len(degrees) == 9
        assert sum(d * d for d in degrees) == 120

    def test_walk_short_of_k_rows_raises(self, bundle, monkeypatch):
        """The saturation guard has a red witness: with only the trivial row
        to start from, E6's walk reaches the three-dimensional character,
        whose V tensor chi leaves two new rows at once, and stops there."""
        G = bundle("E6").group
        linear = _linear_characters(G)
        monkeypatch.setattr(groups, "_linear_characters", lambda G: linear[:1])
        with pytest.raises(ValidationFailed,
                           match="irreducible search did not saturate"):
            char_table(dt("E6"), G)

    def test_walked_matrix_is_the_trace_matrix_of_the_rows(self):
        """The E walk hands its table the matrix it grew, one row per found
        row, reordered as the rows are: it equals ``trace_rows`` of the
        table's rows."""
        for name in ("E6", "E7", "E8"):
            G = build_group(dt(name))
            table = char_table(dt(name), G)
            kept = table.trace_matrix
            fresh = cyclo.trace_rows(G.conductor, table.values)
            assert (kept.height, kept.columns) == \
                (fresh.height, fresh.columns)

    def test_flipped_sign_fails_validation(self, bundle):
        # every entry moved by +-1, one at a time, is rejected: the clauses
        # that column orthogonality would add are implied by the others
        for name in ("D4", "E6"):
            b = bundle(name)
            k = len(b.group.classes)
            for i in range(k):
                for j in range(len(b.group.orbits)):
                    for delta in (1, -1):
                        values = [list(r) for r in b.table.values]
                        values[i][j] = values[i][j] + delta
                        bad = CharTable(tuple(tuple(r) for r in values))
                        assert table_violation(bad, b.group) is not None

    def test_degree_that_is_no_positive_integer_fails_validation(self,
                                                                bundle):
        # the degrees are column 0, the identity class, so each chi_i(1)
        # must be a positive integer; 0 and -1 also pass every check before
        # row orthonormality, which the degree check comes before
        for name in ("D4", "E8"):
            b = bundle(name)
            N, k = b.group.conductor, len(b.group.classes)
            for i in (1, k - 1):
                for d in (CycNumber.zero(N), CycNumber.from_rational(N, -1),
                          CycNumber.from_rational(N, Fraction(1, 2)),
                          CycNumber.root_of_unity(N, 1)):
                    values = [list(r) for r in b.table.values]
                    values[i][0] = d
                    bad = CharTable(tuple(tuple(r) for r in values))
                    assert table_violation(bad, b.group) == \
                        f"chi_{i}(1) = {d} is not a positive integer"

    def test_entry_that_is_no_algebraic_integer_fails_validation(self,
                                                                 bundle):
        """Character values are sums of roots of unity, algebraic integers
        (Serre 6.5), and the trace kernels take no other entries: an entry
        at a non-identity class moved by 1/2 is named by the integrality
        gate, which comes before equivariance and orthonormality, and names
        the class at the orbit's rep."""
        for name in ("D4", "E8"):
            b = bundle(name)
            orbits = b.group.orbits
            for i in range(1, len(b.group.classes)):
                for j in range(1, len(orbits)):
                    values = [list(r) for r in b.table.values]
                    v = values[i][j] = values[i][j] + Fraction(1, 2)
                    bad = CharTable(tuple(tuple(r) for r in values))
                    assert table_violation(bad, b.group) == (
                        f"chi_{i}(C_{orbits[j].rep}) = {v} is not an "
                        f"algebraic integer")

    def test_rows_of_the_wrong_length_fail_validation(self, bundle):
        # a sum that truncated to the shorter row passed a row with extra
        # entries
        b = bundle("D5")
        k, n = len(b.group.classes), len(b.group.orbits)
        one = CycNumber.one(b.group.conductor)
        for i in (0, 2, k - 1):
            for extra in (1, 3):
                for row in (b.table.values[i] + (one,) * extra,
                            b.table.values[i][:-extra]):
                    values = list(b.table.values)
                    values[i] = row
                    bad = CharTable(tuple(values))
                    assert table_violation(bad, b.group) == \
                        f"chi_{i} has {len(row)} entries for {n} orbits"

    def test_non_real_value_on_a_self_inverse_class_breaks_its_stabiliser(
            self, bundle):
        """A class that is its own inverse has -1 in its stabiliser, so its
        values are real. A +zeta at the rep of such an orbit passes every
        check before the stabiliser's, and the first stabiliser generator s
        that moves the new value is named, at C_O on both sides."""
        seen = 0
        for name in ("A5", "D5", "D7", "E6", "E7", "E8"):
            b = bundle(name)
            G = b.group
            zeta = CycNumber.root_of_unity(G.conductor, 1)
            for j, o in enumerate(G.orbits):
                c = G.classes[o.rep]
                if c.inverse != o.rep or c.order == 1:
                    continue
                seen += 1
                values = [list(r) for r in b.table.values]
                moved = values[1][j] = values[1][j] + zeta
                s = next(s for s in o.stabiliser if moved.galois(s) != moved)
                bad = CharTable(tuple(tuple(r) for r in values))
                assert table_violation(bad, G) == (
                    f"chi_1 is not Galois-equivariant: "
                    f"chi(C_{o.rep}) != sigma_{s}(chi(C_{o.rep}))"), name
        assert seen >= 6

    def test_every_perturbed_entry_is_rejected(self, bundle):
        """Every entry of seven tables, each at an orbit rep, moved by +zeta,
        +1 and -zeta, one at a time, 825 tables: each is rejected, by
        stabiliser invariance where the move breaks it and by row
        orthonormality where it does not."""
        tables = 0
        for name in ("A5", "A8", "D5", "D7", "E6", "E7", "E8"):
            b = bundle(name)
            G = b.group
            zeta = CycNumber.root_of_unity(G.conductor, 1)
            for i in range(len(G.classes)):
                for j in range(len(G.orbits)):
                    for delta in (zeta, 1, -zeta):
                        values = [list(r) for r in b.table.values]
                        values[i][j] = values[i][j] + delta
                        bad = CharTable(tuple(tuple(r) for r in values))
                        assert table_violation(bad, G) is not None, \
                            (name, i, j, delta)
                        tables += 1
        assert tables == 825

    def test_inverse_classes(self, bundle):
        for name in CLASS_NAMES:
            g = bundle(name).group
            elements = exact_elements(g)
            index = element_index(elements)
            column_of = {j: i for i, c in enumerate(g.classes)
                         for j in c.members}
            for c in g.classes:
                inv = index[matrix_inverse(su2_matrix(elements[c.rep]))]
                assert c.inverse == column_of[inv], (name, c.rep)
                assert g.classes[c.inverse].size == c.size

    def test_trivial_row_first(self, bundle):
        for name in ("A6", "D8", "E7"):
            assert all(v == 1 for v in bundle(name).table.values[0])

    def test_regular_character_decomposes_into_degrees(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            g, t = b.group, b.table
            regular = [CycNumber.from_rational(g.conductor,
                                               g.order if c.order == 1 else 0)
                       for c in g.rep_classes]
            assert decompose(g, regular, t.trace_matrix) == \
                list(t.degrees)

    def test_decompose_equals_the_sum_over_every_class(self, bundle):
        """On equivariant class functions with algebraic-integer values,
        the ones the trace kernel takes: integer combinations of the rows,
        and for f one more integer at the identity class, which makes the
        product a Fraction, ``decompose`` of the table's rows at the orbit
        reps equals the inner product of the same combinations of the
        reference rows, at every class, summed over every class by
        CycNumber products."""
        rng = random.Random(31)
        for name in ("A12", "D12", "E6", "E7", "E8", "A24", "D24"):
            b = bundle(name)
            g, held, full = b.group, b.table.values, class_table(b.group)
            zero = CycNumber.zero(g.conductor)
            for _ in range(4):
                pair = [[rng.randint(-4, 4) for _ in held] for _ in range(2)]
                bump = rng.randint(1, 5)
                (f, chi), (f_all, chi_all) = (
                    [[sum((v * n for v, n in zip(col, coeffs)), zero)
                      for col in zip(*rows)] for coeffs in pair]
                    for rows in (held, full))
                f[0], f_all[0] = f[0] + bump, f_all[0] + bump
                matrix = cyclo.trace_rows(g.conductor, [chi])
                assert decompose(g, f, matrix) == \
                    [inner_product_by_classes(g, f_all, chi_all)], name


class TestMcKay:
    def test_matrix_equals_affine_adjacency(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            g = build_graph(b.dynkin, "affine")
            k = g.n
            assert b.mckay.bijection[0] == 0
            for i in range(k):
                for j in range(k):
                    assert b.mckay.matrix[i][j] == \
                        g.mult[b.mckay.bijection[i]][b.mckay.bijection[j]]

    def test_a1_double_bond(self, bundle):
        assert bundle("A1").mckay.matrix == ((0, 2), (2, 0))

    def test_degrees_match_marks(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            marks = graph_marks(b.affine)
            assert b.marks == marks
            for row, node in enumerate(b.mckay.bijection):
                assert b.table.degrees[row] == marks[node]

    def test_halved_row_raises_validation_failed(self, bundle):
        b = bundle("D4")
        values = [list(r) for r in b.table.values]
        values[1] = [v * Fraction(1, 2) for v in values[1]]
        bad = CharTable(tuple(tuple(r) for r in values))
        with pytest.raises(ValidationFailed):
            mckay_matrix(b.group, bad, b.affine, b.marks)

    def test_asymmetric_matrix_raises(self, bundle, monkeypatch):
        """One off-diagonal multiplicity raised by one, row 0's at chi_1:
        the matrix is no longer symmetric, and the gate refuses it before
        any node is matched."""
        b = bundle("D4")
        original = groups.decompose
        calls = [0]

        def raised(*args):
            mults = original(*args)
            calls[0] += 1
            if calls[0] == 1:  # row 0, V tensor the trivial character
                mults[1] += 1
            return mults
        monkeypatch.setattr(groups, "decompose", raised)
        with pytest.raises(NoIsomorphism) as exc:
            mckay_matrix(b.group, b.table, b.affine, b.marks)
        assert str(exc.value) == "D4: McKay matrix is not symmetric"

    def test_no_isomorphism_raises(self, bundle):
        b = bundle("D4")
        a4 = build_graph(dt("A4"), "affine")
        with pytest.raises(NoIsomorphism):
            _match_affine(b.mckay.matrix, b.table.degrees,
                          a4, graph_marks(a4))

    def test_disconnected_graph_raises(self, bundle):
        """A leaf cut off D4's McKay graph: the pass places every row it
        reaches, each onto a node that fits, and never reaches the leaf."""
        b = bundle("D4")
        degrees = b.table.degrees
        centre, leaf = degrees.index(2), max(
            i for i, d in enumerate(degrees) if i and d == 1)
        cut = [list(r) for r in b.mckay.matrix]
        assert cut[centre][leaf] == cut[leaf][centre] == 1
        cut[centre][leaf] = cut[leaf][centre] = 0
        with pytest.raises(NoIsomorphism, match="McKay graph is disconnected"):
            _match_affine(cut, degrees, b.affine, b.marks)


class TestMolien:
    def test_d4_values(self, bundle):
        b = bundle("D4")
        assert b.molien.numerators[0] == Q(1, 0, 0, 0, 0, 0, 1)
        assert b.molien.dynkin.standard_ab == (4, 4)
        defining = [n for n, d in zip(b.molien.numerators, b.table.degrees)
                    if d == 2]
        assert defining == [Q(0, 1, 0, 2, 0, 1)]

    def test_a1_nontrivial(self, bundle):
        b = bundle("A1")
        assert b.molien.dynkin.standard_ab == (2, 2)
        assert b.molien.numerators[1] == Q(0, 2)

    def test_against_elementwise_oracle(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            assert list(b.molien.numerators) == \
                molien_by_elements(b.group, class_table(b.group))

    def test_cofactor_lifts_are_real(self):
        """Every coefficient of every class cofactor P_C is real,
        c[i] = c[-i mod N] on its lift: it is an integer polynomial in the
        real tau_C = zeta^e + zeta^-e. The Molien sweep rests on it, since
        the trace matrix holds the conjugate rows and
        Tr(P_C conj(chi)) = Tr(P_C chi) only for a real P_C. 2,402 lifts
        over the default suite, A48 and D40."""
        lifts = 0
        for dt in DEFAULT_SUITE + (DynkinType.parse("A48"),
                                   DynkinType.parse("D40")):
            G = build_group(dt)
            N, std = G.conductor, dt.standard_form.coeffs
            for c in G.rep_classes:
                for lift in _cofactor_lifts(std, c.eigen_exp, N, dt):
                    lifts += 1
                    assert all(lift[i] == lift[-i % N] for i in range(N)), \
                        (str(dt), c.rep)
        assert lifts == 2402

    def test_class_quadratic_must_divide_standard_form(self, bundle,
                                                       monkeypatch):
        # D4 has elements of order 4, so 1 + q^2 must divide the standard
        # form; it does not divide (1-q^2)(1-q^6)
        b = bundle("D4")
        monkeypatch.setattr(DynkinType, "standard_ab", property(lambda s: (2, 6)))
        with pytest.raises(NonPolynomialResult, match="does not divide"):
            molien_series(b.group, b.table)

    @staticmethod
    def molien_with(bundle, monkeypatch, row, value):
        """D4's Molien set with every coefficient of numerator ``row`` read
        as ``value``: each ``trace_sums`` sweep gives one coefficient of
        every numerator."""
        b = bundle("D4")
        original = groups.trace_sums

        def changed(*args):
            sums = original(*args)
            sums[row] = value
            return sums
        monkeypatch.setattr(groups, "trace_sums", changed)
        return molien_series(b.group, b.table)

    def test_numerator_coefficients_must_be_nonnegative_integers(
            self, bundle, monkeypatch):
        for value in (Fraction(1, 2), -1):
            with pytest.raises(NonPolynomialResult) as exc:
                self.molien_with(bundle, monkeypatch, 1, value)
            assert str(exc.value) == (f"D4: numerator coefficient {value} "
                                      "is not a nonnegative integer")

    def test_trivial_numerator_must_be_one_plus_q_h(self, bundle, monkeypatch):
        # 1 + q + ... + q^6 passes the coefficient gate
        with pytest.raises(NonPolynomialResult) as exc:
            self.molien_with(bundle, monkeypatch, 0, 1)
        assert str(exc.value) == "D4: trivial numerator is not 1 + q^6"

    def test_coefficients_equal_long_division(self, bundle):
        # the two strided prefix sums against the reference long division of
        # the reduced series, on either side of each stride
        for name in SUITE_NAMES:
            m = bundle(name).molien
            a, b = m.dynkin.standard_ab
            for n in (0, 1, a - 1, a, b, 2 * m.dynkin.coxeter_number + 2):
                for i, s in enumerate(m.series):
                    assert m.coefficients(i, n) == series_coefficients(s, n), \
                        (name, i, n)

    def test_series_is_built_on_each_read(self, bundle, monkeypatch):
        """``MolienSet.series`` keeps nothing: each ``to_json`` read builds
        each RationalFunction, a reduction over Z, once, k per read, and two
        reads write the same text."""
        original = groups.RationalFunction
        built = [0]

        def counting(*args):
            built[0] += 1
            return original(*args)

        for name in ("A5", "D7", "E8"):
            b = bundle(name)
            k = len(b.group.classes)
            monkeypatch.setattr(groups, "RationalFunction", counting)
            built[0] = 0
            first = json.dumps(b.molien.to_json(b.table.degrees))
            assert built[0] == k, (name, built[0])
            second = json.dumps(b.molien.to_json(b.table.degrees))
            assert built[0] == 2 * k, (name, built[0])
            monkeypatch.undo()
            assert first == second

    def test_series_coefficients_nonnegative_integers(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            for s in b.molien.series:
                for c in series_coefficients(s, 2 * b.dynkin.coxeter_number + 1):
                    assert c.denominator == 1 and c >= 0

    def test_recurrence(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            assert recurrence_check(b.molien, b.mckay.matrix)

    def test_recurrence_rejects_perturbed_inputs(self, bundle):
        for name in ("A1", "D4", "A5", "E8"):
            b = bundle(name)
            k = len(b.group.classes)
            for i in range(k):
                for j in range(k):
                    if i != j:
                        raised = [list(r) for r in b.mckay.matrix]
                        raised[i][j] += 1
                        assert not recurrence_check(b.molien, raised)
                nums = list(b.molien.numerators)
                nums[i] = nums[i] + Polynomial.monomial("q", 1)
                assert not recurrence_check(
                    b.molien._replace(numerators=tuple(nums)), b.mckay.matrix)


class TestOpCounts:
    """CycNumber constructions over one cold ``run_suite`` of a type, a
    count that does not jitter the way wall time does. With the closure and
    the class scan run on images mod p, every class sum one ``trace_sums``
    sweep over a trace matrix of the rows, with one term per Galois orbit of
    classes, that builds no value, the table checked for Galois
    equivariance by ``is_fixed``, which builds none either, each distinct
    Sym^m power sum summed once, the E table one walk of the McKay graph
    that builds only the rows it finds, and each zeta^r + zeta^-r built once
    per group, in ``FiniteSubgroup.traces``, E8 builds 112 values and D12
    27. The closure over exact top rows by sums of CycNumber products took
    them to 617 and 204; a conjugate-symmetry check by ``conj`` to 698 and
    373, a class trace built as a + conj(a), two values, to 707 and 386,
    building the traces apart for the eigen-exponent lookup, the D rows and
    the E Galois-conjugate rows to 725 and 397, the E-type queue of
    CycNumber tensor candidates, its Sym^m fallback and a
    regular-character completion took E8 to 1,184, discrete-log tables for
    the linear rows D12 to 439, a bottom row per element them to 1,575 and
    573, a CycNumber per class sum to 2,359 and 1,314, the closure by full
    matrix products to 4,551 and 2,323, and one power sum per m to 6,833
    and 4,975 before that. Building one per term and per partial sum took
    them to 27,326 and 27,595, and doing so in ``decompose`` alone, or in
    the Molien class sum alone, to 10,577-12,918. The class-sum counts
    below are of sweeps: one ``trace_sums`` per class function over the
    rows' trace matrix makes 209 on a cold ``verify --types A24,D24``, where
    one ``trace_dot`` per (class function, row) made 4,625 calls."""

    LIMITS = {"E8": 112, "D12": 27}

    def test_constructions_per_cold_verify(self):
        original = CycNumber.__init__
        count = [0]

        def counting(self, *args, **kwargs):
            count[0] += 1
            original(self, *args, **kwargs)

        for name, limit in self.LIMITS.items():
            count[0] = 0
            CycNumber.__init__ = counting
            try:
                run_suite([dt(name)])
            finally:
                CycNumber.__init__ = original
            assert count[0] <= limit, (name, count[0])

    def test_tables_hold_and_gate_the_orbit_reps_alone(self, monkeypatch):
        """A table holds each row at the Galois orbit reps, and its gate
        checks each rep's value against the orbit's stabiliser generators
        alone, one ``is_fixed`` call per row and generator. So a
        cold default ``verify`` holds 967 table entries and makes 1,588
        calls; rows held at every class took 1,801 entries, and checking
        chi(C) = sigma_a(chi(C_O)) at every class C = C_O^a off the reps
        took the calls to 2,422."""
        tables, calls = [], [0]
        original_table, original_fixed = verify.char_table, groups.is_fixed

        def recording(t, G):
            tables.append((original_table(t, G), G))
            return tables[-1][0]

        def counting(*args):
            calls[0] += 1
            return original_fixed(*args)

        monkeypatch.setattr(verify, "char_table", recording)
        monkeypatch.setattr(groups, "is_fixed", counting)
        run_suite(DEFAULT_SUITE)
        assert len(tables) == len(DEFAULT_SUITE)
        assert sum(len(row) for table, _ in tables
                   for row in table.values) == 967
        assert calls[0] == sum(len(G.classes) * len(o.stabiliser)
                               for _, G in tables for o in G.orbits) == 1588

    def test_class_facts_walk_each_orbit_rep_once(self, monkeypatch):
        """``build_group`` makes every group product by ``_sl2_times`` on
        images mod p: one per closure step, two per conjugation of the class
        scan, and one per step of the single power walk of each Galois
        orbit's rep, off which every class of the orbit takes its order,
        inverse and trace. A96, two orbits, makes 387 calls and the
        default suite 3,454; the word walker ``mul`` made 290 and
        2,428 walks besides the closure steps, and a walk per class for its
        order and inverse and a second walk per orbit rep made 9,506 and
        3,508 walks."""
        original = groups._sl2_times
        calls = [0]

        def counting(x, y, p):
            calls[0] += 1
            return original(x, y, p)

        monkeypatch.setattr(groups, "_sl2_times", counting)
        build_group(dt("A96"))
        assert calls[0] == 387, calls[0]
        calls[0] = 0
        for name in SUITE_NAMES:
            build_group(dt(name))
        assert calls[0] == 3454, calls[0]

    def test_class_json_makes_no_cyclotomic_product(self, monkeypatch):
        """``classes_to_json`` takes each ``trace_min_poly`` from
        ``cos_polynomial``, a fold of a cyclotomic polynomial in Z[q], so
        over A1..A16, D4..D16 and E6..E8 it makes no CycNumber product and
        builds no CycNumber; the product of t - y over the Galois orbit in
        Q(zeta_N) made 3,206 products and 14,675 constructions."""
        enumerated = [build_group(dt(name)) for name in SESSION_NAMES]
        original_mul, original_init = CycNumber.__mul__, CycNumber.__init__
        products, built = [0], [0]

        def counting_mul(self, other):
            products[0] += 1
            return original_mul(self, other)

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(CycNumber, "__mul__", counting_mul)
        monkeypatch.setattr(CycNumber, "__rmul__", counting_mul)
        monkeypatch.setattr(CycNumber, "__init__", counting_init)
        out = [g.classes_to_json() for g in enumerated]
        monkeypatch.undo()
        assert (products[0], built[0]) == (0, 0)
        assert sum(map(len, out)) == sum(dt(n).rank + 1 for n in SESSION_NAMES)

    def test_class_json_builds_one_polynomial_per_eigenvalue_order(self):
        """``classes_to_json`` asks ``cos_polynomial`` once per distinct
        order of a group's classes, and the answers are cached, so two
        sweeps over the 319 classes of the query session's types look up
        2 x 139 polynomials and compute one per distinct order, 23 of them;
        the classes of one order share one JSON object, and those of one
        eigen-exponent one trace object. A lookup per class made 2 x 319;
        keyed by (N, e) and uncached, each sweep computed 319."""
        enumerated = [build_group(dt(name)) for name in SESSION_NAMES]
        orders = {c.order for g in enumerated for c in g.classes}
        cos_polynomial.cache_clear()
        for _ in range(2):
            data = [g.classes_to_json() for g in enumerated]
            out = [c["trace_min_poly"] for cs in data for c in cs]
        info = cos_polynomial.cache_info()
        assert info.misses == len(orders) == 23
        assert info.hits + info.misses == 2 * 139
        for g, cs in zip(enumerated, data):
            for key, field in (("order", "trace_min_poly"),
                               ("eigen_exp", "trace")):
                shared = {getattr(c, key): id(d[field])
                          for c, d in zip(g.classes, cs)}
                assert len({id(d[field]) for d in cs}) == len(shared)
                assert all(id(d[field]) == shared[getattr(c, key)]
                           for c, d in zip(g.classes, cs))
        direct = cos_polynomial.__wrapped__
        assert out == [direct(c.order).to_json()
                       for g in enumerated for c in g.classes]

    def test_group_side_runs_no_polynomial_division(self, monkeypatch):
        """The group side of D7, cold (its group, table, McKay matrix,
        Molien numerators and Sym^m multiplicities), never enters
        ``Polynomial._divide``, the division of the graph side's
        ``exact_div``: ``cyclo._Field`` expands Phi_N as a product of
        1 - x^d and geometric series. Taking Phi_N from ``poly.cyclotomic``
        divided 12 times."""
        d7 = dt("D7")
        affine = build_graph(d7, "affine")
        marks = graph_marks(affine)
        cyclo._field.cache_clear()
        cyclotomic.cache_clear()
        original = Polynomial._divide
        calls = [0]

        def counting(self, other):
            calls[0] += 1
            return original(self, other)

        monkeypatch.setattr(Polynomial, "_divide", counting)
        G = build_group(d7)
        table = char_table(d7, G)
        mckay_matrix(G, table, affine, marks)
        molien_series(G, table).numerators
        sym_power_multiplicities(G, table, 2 * d7.coxeter_number + 1)
        assert calls[0] == 0

    def test_closure_makes_no_product_per_step(self, monkeypatch):
        """The closure checks each generator's a conj(a) + b conj(b) = 1 by
        two exact CycNumber products and takes every product x g as a 2x2
        product of ints
        mod p, the generators reduced by zeta -> omega of order exactly N,
        p the least prime = 1 (mod N) dividing no generator denominator:
        odd and unramified in Q(zeta_N), so the reduction is injective on
        every finite subgroup (Minkowski 1887; Serre, "Bounds for the
        orders of the finite subgroups of G(k)", 2007), given the one
        premise that the generated group is finite, which
        ``test_fp_closure_equals_the_exact_closure`` checks for the tested
        types. So it makes two CycNumber products per generator and none
        per step, whatever |G|. The exact closure made two two-term sums of
        products per element and generator, 2,052 over a cold default
        ``verify``; the 2x2 unitarity check took 10 products per generator,
        and full matrix products 8 per element and generator."""
        original_mul = CycNumber.__mul__
        products = [0]

        def counting_mul(self, other):
            products[0] += 1
            return original_mul(self, other)

        for name in ("A24", "D24", "E7", "E8"):
            gens = generators(dt(name))
            monkeypatch.setattr(CycNumber, "__mul__", counting_mul)
            monkeypatch.setattr(CycNumber, "__rmul__", counting_mul)
            products[0] = 0
            g = enumerate_subgroup(gens, dt(name))
            monkeypatch.undo()
            assert g.order == dt(name).group_order
            assert products[0] == 2 * len(gens), name

    def test_class_sums_build_no_cyclotomic_products(self, bundle,
                                                     monkeypatch):
        """On a freshly built table, validation builds no CycNumber product,
        and ``decompose``, the Sym^m oracle, the McKay matrix and the Molien
        numerators build no CycNumber at all: every sum is a ``trace_sums``
        sweep over the Galois orbits with |C_O| |O| an integer factor, read off
        the Ramanujan sums, the cofactor remainders are tested by
        ``vanishes``, conj(f) is read as the reversed lift, and
        tau_C = zeta^e + zeta^-e is two rotations by e. A CycNumber per
        class sum built k(k + h + 1) and more; a table that kept its rows
        weighted by conj(chi)*|C| paid k^2 products on first use;
        ``mckay_matrix`` paid k^2 products tau * chi_i, and the Molien
        cofactors one tau * c per step of their synthetic division."""
        original_mul, original_init = CycNumber.__mul__, CycNumber.__init__
        products, built = [0], [0]

        def counting_mul(self, other):
            products[0] += 1
            return original_mul(self, other)

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            original_init(self, *args, **kwargs)

        for name in ("A12", "D12", "E8", "A24", "D24"):
            b = bundle(name)
            G, table = b.group, b.table._replace()
            k = len(G.classes)
            n = 2 * b.dynkin.coxeter_number + 2
            products[0] = built[0] = 0
            monkeypatch.setattr(CycNumber, "__mul__", counting_mul)
            monkeypatch.setattr(CycNumber, "__rmul__", counting_mul)
            assert table_violation(table, G) is None
            monkeypatch.setattr(CycNumber, "__init__", counting_init)
            assert decompose(G, table.values[1], table.trace_matrix) \
                == [int(i == 1) for i in range(k)]
            sym = sym_power_multiplicities(G, table, n - 1)
            mckay = mckay_matrix(G, table, b.affine, b.marks)
            molien = molien_series(G, table)
            monkeypatch.undo()
            assert (products[0], built[0]) == (0, 0), name
            assert (mckay, molien) == (b.mckay, b.molien)
            assert [list(col) for col in zip(*sym)] == \
                [molien.coefficients(i, n) for i in range(k)]

    @staticmethod
    def _counting_sweeps(monkeypatch) -> list[tuple[int, int]]:
        """Wrap ``groups.trace_sums``; each sweep records its number of
        class-function entries and of trace-matrix entries per row."""
        original = groups.trace_sums
        sweeps = []

        def counting(N, xs, matrix, *args):
            sweeps.append((len(xs), len(matrix.columns)))
            return original(N, xs, matrix, *args)

        monkeypatch.setattr(groups, "trace_sums", counting)
        return sweeps

    def test_sym_powers_sum_each_power_once(self, bundle, monkeypatch):
        """lambda^m + lambda^-m reads m only modulo N and is unchanged by
        m -> N - m, so Sym^0..Sym^(2h+1) make min(2h + 1, floor(N/2)) + 1
        power-sum sweeps, each over all k characters at once, where one
        ``trace_dot`` per character and distinct power sum took up to
        (floor(N/2) + 2) k and one call per m 2h + 2 per character (52 on
        A24, 94 on D24)."""
        sweeps = self._counting_sweeps(monkeypatch)
        for name in ("A24", "D7", "D24", "E8"):
            b = bundle(name)
            N, mmax = b.group.conductor, 2 * b.dynkin.coxeter_number + 1
            sweeps.clear()
            sym_power_multiplicities(b.group, b.table, mmax)
            assert 0 < len(sweeps) <= N // 2 + 1, (name, len(sweeps))
            assert len(sweeps) == min(mmax, N // 2) + 1, (name, len(sweeps))

    def test_trace_sums_carry_one_term_per_orbit(self, bundle, monkeypatch):
        """Every class sum is one ``trace_sums`` sweep of a class function
        over the trace matrix of the rows, one term per Galois orbit of
        classes (8 on D24): ``mckay_matrix`` makes k sweeps, one per
        V tensor chi_i, and ``molien_series`` h + 1, one per cofactor
        coefficient, where one ``trace_dot`` per (class function, row) made
        k^2 and k(h + 1); before the orbits a sum took one term per class,
        25 on D24, and rows doubled for two rotations 50. A cold
        ``verify --types A24,D24`` makes 209 sweeps, where ``trace_dot``
        made 4,625 calls."""
        sweeps = self._counting_sweeps(monkeypatch)
        b = bundle("D24")
        k, h = len(b.group.classes), b.dynkin.coxeter_number
        mckay_matrix(b.group, b.table, b.affine, b.marks)
        assert len(sweeps) == k
        sweeps.clear()
        molien_series(b.group, b.table)
        assert len(sweeps) == h + 1
        sym_power_multiplicities(b.group, b.table, 2 * h + 1)
        assert set(sweeps) == {(8, 8)}
        sweeps.clear()
        run_suite([dt("A24"), dt("D24")])
        orbits = {len(build_group(dt(name)).orbits) for name in ("A24", "D24")}
        assert {n for n, _ in sweeps} <= orbits
        assert all(n == m for n, m in sweeps)
        assert len(sweeps) <= 220, len(sweeps)

    def test_table_rows_get_their_trace_forms_once(self, monkeypatch):
        """A table keeps its rows' trace matrix, which validation, the McKay
        matrix, the Molien numerators and the Sym^m oracle all sweep, and
        the E walk grows its matrix by each row it finds, reads each norm
        <V x chi, V x chi> off that matrix and hands it to the table. So
        over a ``verify`` run each table row gets its trace forms built
        once and no other row does: 195 rows on the default suite, 50 on
        A24,D24 and 9 on E8, where a one-row matrix per walked norm built
        219 and 18, and a matrix per reader and per walked row 943, 200
        and 99."""
        original = groups.trace_rows
        built = [0]

        def counting(N, rows):
            rows = list(rows)
            built[0] += len(rows)
            return original(N, rows)

        monkeypatch.setattr(groups, "trace_rows", counting)
        for types, limit in ((DEFAULT_SUITE, 195),
                             ((dt("A24"), dt("D24")), 50), ((dt("E8"),), 9)):
            built[0] = 0
            run_suite(types)
            assert built[0] <= limit, (types, built[0])

    def test_molien_series_reads_each_entry_once(self, bundle, monkeypatch):
        """``molien_series`` splits each table row once, into its trace
        matrix, and each cofactor column once, for its sweep: at most
        k^2 + k(h+1) entry reads, where reading both per sum took
        2k^2(h+1)."""
        original = cyclo._parts
        reads = [0]

        def counting(N, x):
            reads[0] += 1
            return original(N, x)

        monkeypatch.setattr(cyclo, "_parts", counting)
        for name in ("D24", "E8"):
            b = bundle(name)
            k, h = len(b.group.classes), b.dynkin.coxeter_number
            reads[0] = 0
            assert molien_series(b.group, b.table).numerators \
                == b.molien.numerators
            assert reads[0] <= k * k + k * (h + 1), (name, reads[0])


class TestSymPowers:
    def test_m0_is_trivial_module(self, bundle):
        for name in ("A5", "D6", "E6"):
            b = bundle(name)
            row = sym_power_multiplicities(b.group, b.table, 0)[0]
            assert row == (1,) + (0,) * (len(row) - 1)

    def test_m1_is_defining(self, bundle):
        for name in ("A2", "D5", "E7"):
            b = bundle(name)
            row = sym_power_multiplicities(b.group, b.table, 1)[1]
            trivial_node = b.mckay.bijection[0]
            g = build_graph(b.dynkin, "affine")
            expected = tuple(g.mult[trivial_node][b.mckay.bijection[j]]
                             for j in range(len(row)))
            assert row == expected

    def test_c3_sym2(self, bundle):
        b = bundle("A2")
        assert sym_power_multiplicities(b.group, b.table, 2)[2] == (1, 1, 1)

    def test_direct_power_sum_oracle(self, bundle):
        """Each Sym^m row against a per-m sum of roots of unity over the
        classes, through every m up to 2h+1, so the periods mod N (N = 4(m-2)
        on odd D) and the m -> N - m fold are all crossed."""
        for name in ("A1", "A5", "D5", "D7", "E6", "E7", "E8", "A24"):
            b = bundle(name)
            mmax = 2 * b.dynkin.coxeter_number + 1
            sym = sym_power_multiplicities(b.group, b.table, mmax)
            rows = class_table(b.group)
            for m in range(mmax + 1):
                assert list(sym[m]) == sym_power_multiplicities_direct(
                    b.group, rows, m), (name, m)

    def test_oracle_agreement(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            h = b.dynkin.coxeter_number
            sym = sym_power_multiplicities(b.group, b.table, 2 * h + 1)
            for i, s in enumerate(b.molien.series):
                coeffs = series_coefficients(s, 2 * h + 2)
                assert [int(c) for c in coeffs] == [row[i] for row in sym]


class TestCrossModule:
    def test_group_numerators_equal_graph_numerators(self, bundle):
        for name in SUITE_NAMES:
            b = bundle(name)
            for i, num in enumerate(b.molien.numerators):
                assert num == b.numerators.N[b.mckay.bijection[i]], \
                    f"{name}: character row {i}"

    def test_class_json_has_min_poly(self, bundle):
        b = bundle("E8")
        data = b.group.classes_to_json()
        assert len(data) == 9
        golden = [c for c in data if c["size"] == 12]
        # the four size-12 classes carry the golden-ratio traces of degree 2
        assert all(len(c["trace_min_poly"]["coeffs"]) == 3 for c in golden)


class TestGenerators:
    def test_non_unitary_generator_raises(self):
        half = CycNumber.from_rational(4, Fraction(1, 2))
        with pytest.raises(ValueError, match="not special unitary"):
            enumerate_subgroup([(half, CycNumber.zero(4))], dt("A3"))

    def test_generators_are_special_unitary(self):
        """|a|^2 + |b|^2 = 1 by CycNumber products, and the full matrix
        is special unitary."""
        for name in SUITE_NAMES:
            for a, b in generators(dt(name)):
                assert a * a.conj() + b * b.conj() == 1
                assert is_special_unitary(su2_matrix((a, b)))
