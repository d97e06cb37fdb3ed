from __future__ import annotations

import cmath
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adeweights.cyclo import (CycNumber, _Field, euler_phi, is_fixed,
                              trace_rows, trace_sums, vanishes)
from adeweights.errors import NotRational, ValidationFailed
from adeweights.groups import _tau_times
from adeweights.poly import (Polynomial, RationalFunction, cos_polynomial,
                             cox, cyclotomic, fold_palindromic, one_plus_q,
                             poly_gcd, substitute_t)
from oracles import (cyclotomic_moebius, euclid_gcd, minimal_polynomial,
                     moebius, series_coefficients)

Q = lambda *cs: Polynomial("q", cs)
T = lambda *cs: Polynomial("t", cs)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == Q(-1, 1)
        assert cyclotomic(4) == Q(1, 0, 1)
        assert cyclotomic(12) == Q(1, 0, -1, 0, 1)

    def test_against_moebius_oracle(self):
        for n in (2, 3, 6, 9, 10, 16, 18, 24, 30, 36, 60):
            assert cyclotomic(n) == cyclotomic_moebius(n)

    def test_degree_is_phi(self):
        for n in range(1, 61):
            assert cyclotomic(n).degree == euler_phi(n)

    def test_product_over_divisors(self):
        for n in range(1, 61):
            acc = Polynomial.one("q")
            for d in range(1, n + 1):
                if n % d == 0:
                    acc = acc * cyclotomic(d)
            assert acc == Q(*([-1] + [0] * (n - 1) + [1]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_field_builds_the_same_phi_n_as_poly(self):
        """The group side's Phi_N, the Moebius product ``_Field`` expands
        for itself, and the graph side's ``poly.cyclotomic``, built by
        exact division, are kept apart on purpose; they agree: the row of
        zeta^phi is minus the coefficients of Phi_N below degree phi."""
        for N in range(2, 401):
            fld = _Field(N)  # a fresh table, not the cached one
            row = dict(fld._rows[0])
            assert [row.get(i, 0) for i in range(fld.phi)] == \
                [-c for c in cyclotomic(N).coeffs[:fld.phi]], N


class TestFoldAndSubstitute:
    def test_paper_fold(self):
        assert fold_palindromic(Q(1, 0, -1, 0, 1)) == T(-3, 0, 1)

    def test_fold_examples(self):
        assert fold_palindromic(Q(1, 0, 1)) == T(0, 1)
        assert fold_palindromic(Q(1)) == T(1)

    def test_fold_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            fold_palindromic(Q(1, 1))

    def test_fold_rejects_non_palindromic(self):
        with pytest.raises(ValueError):
            fold_palindromic(Q(1, 0, 2))

    def test_substitute_examples(self):
        assert substitute_t(T(-3, 0, 1)) == (Q(1, 0, -1, 0, 1), 2)
        assert substitute_t(T(0, 1)) == (Q(1, 0, 1), 1)
        assert substitute_t(T(1)) == (Q(1), 0)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=13))
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, coeffs):
        p = Polynomial("t", coeffs)
        image, d = substitute_t(p)
        if p.is_zero():
            assert image.is_zero()
            return
        assert d == p.degree
        assert image.degree == 2 * d
        assert image.is_palindromic()
        assert fold_palindromic(image) == p
        # p(q + 1/q) = image(q) / q^d, evaluated at q = 2
        assert image.evaluate(Fraction(2)) == p.evaluate(Fraction(5, 2)) * 2 ** d

    def test_substitute_requires_t(self):
        with pytest.raises(ValueError):
            substitute_t(Q(1, 1))


class TestCox:
    def test_examples(self):
        assert cox(6) == T(-3, 0, 1)
        assert cox(2) == T(0, 1)
        assert cox(3) == T(-1, 1)

    def test_degree(self):
        for h in range(2, 31):
            assert cox(h).degree == euler_phi(2 * h) // 2

    def test_cos_polynomial_is_the_minimal_polynomial(self):
        """The fold of Phi_d (of Phi_d^2 for d <= 2) against the oracle's
        product of t - y over the Galois orbit of zeta_d + zeta_d^-1 in
        Q(zeta_d), with cox(h) the same polynomial at d = 2h."""
        for d in range(1, 61):
            tau = CycNumber.root_of_unity(d, 1) + CycNumber.root_of_unity(d, -1)
            p = cos_polynomial(d)
            assert p == minimal_polynomial(tau), d
            assert p.degree == max(1, euler_phi(d) // 2), d
        assert (cos_polynomial(1), cos_polynomial(2)) == (T(-2, 1), T(2, 1))
        for h in range(2, 31):
            assert cox(h) == cos_polynomial(2 * h), h


class TestCycNumber:
    CONDUCTORS = (4, 8, 12, 20, 24, 60)

    def _random_element(self, rng, N):
        phi = euler_phi(N)
        while True:
            nums = [rng.randint(-6, 6) for _ in range(phi)]
            if any(nums):
                return CycNumber(N, nums, rng.randint(1, 4))

    def test_zero_factor_skips_the_reduction(self, monkeypatch):
        x = self._random_element(random.Random(7), 12)
        zero = CycNumber.zero(12)
        reductions = []
        reduce = _Field.reduce
        monkeypatch.setattr(_Field, "reduce", lambda fld, nums:
                            reductions.append(1) or reduce(fld, nums))
        assert x * 0 == zero and 0 * x == zero and x * zero == zero
        assert reductions == []

    def test_inverse_and_conj(self):
        rng = random.Random(20240811)
        per_conductor = 100 // len(self.CONDUCTORS) + 1
        for N in self.CONDUCTORS:
            for _ in range(per_conductor):
                x = self._random_element(rng, N)
                assert x * x.inverse() == 1
                assert x.conj().conj() == x

    def test_conj_is_ring_hom(self):
        rng = random.Random(7)
        for N in self.CONDUCTORS:
            for _ in range(10):
                x = self._random_element(rng, N)
                y = self._random_element(rng, N)
                assert (x * y).conj() == x.conj() * y.conj()
                assert (x + y).conj() == x.conj() + y.conj()

    def test_rational_embedding(self):
        x = CycNumber.from_rational(12, Fraction(3, 2))
        assert x.to_rational() == Fraction(3, 2)

    def test_primitive_root_sum(self):
        total = CycNumber.zero(5)
        for e in range(1, 5):
            total = total + CycNumber.root_of_unity(5, e)
        assert total.to_rational() == -1

    def test_irrational_raises(self):
        with pytest.raises(NotRational):
            CycNumber.root_of_unity(8, 1).to_rational()

    def test_conductor_mixing_rejected(self):
        with pytest.raises(ValueError):
            CycNumber.one(8) + CycNumber.one(12)

    def test_root_of_unity_order(self):
        for N in (5, 8, 12):
            z = CycNumber.root_of_unity(N, 1)
            acc = CycNumber.one(N)
            for _ in range(N):
                acc = acc * z
            assert acc == 1

    def test_minimal_polynomial_of_real_value(self):
        tau = CycNumber.root_of_unity(12, 1) + CycNumber.root_of_unity(12, 11)
        assert minimal_polynomial(tau) == T(-3, 0, 1)
        with pytest.raises(ValidationFailed):
            minimal_polynomial(CycNumber.from_rational(12, Fraction(1, 2)))
        assert cos_polynomial(12) == T(-3, 0, 1)

    def test_json_round_trip(self):
        x = CycNumber(12, [1, -3, 0, 2], 2)
        assert x.to_json() == {"N": 12, "coeffs": ["1/2", "-3/2", "0", "1"]}
        y = CycNumber(12, [2, -6, 0, 4], 2)  # an algebraic integer
        assert y.to_json() == {"N": 12, "coeffs": ["1", "-3", "0", "2"]}


CONDUCTORS = (1, 2, 3, 4, 8, 12, 20, 24, 60)


def _cycnumbers(N, integral=False):
    """Sparse CycNumbers over mixed denominators (over 1 alone, algebraic
    integers, when ``integral``), zero included."""
    coord = st.one_of(st.just(0), st.integers(-6, 6))
    return st.builds(lambda nums, den: CycNumber(N, nums, den),
                     st.lists(coord, min_size=euler_phi(N),
                              max_size=euler_phi(N)),
                     st.just(1) if integral else st.integers(1, 6))


def _entries(N, integral=False):
    """Sweep entries: ``_cycnumbers`` and lifts, int tuples of length at
    most N, coefficients of powers of zeta, among them the one-element
    lifts of small ints."""
    lift = st.lists(st.one_of(st.just(0), st.integers(-6, 6)),
                    max_size=N).map(tuple)
    return st.one_of(_cycnumbers(N, integral),
                     st.integers(-5, 5).map(lambda n: (n,)), lift)


def _value(N, x):
    """An entry as a CycNumber; a lift is summed monomial by monomial
    from roots of unity."""
    if not isinstance(x, tuple):
        return x
    total = CycNumber.zero(N)
    for e, c in enumerate(x):
        total = total + CycNumber.root_of_unity(N, e) * c
    return total


def _sum_of_products(N, xs, ys, factors):
    """sum_k n_k x_k y_k by CycNumber ``*`` and ``+`` on the entries'
    ``_value``s."""
    total = CycNumber.zero(N)
    for x, y, n in zip(xs, ys, factors, strict=True):
        total = total + _value(N, x) * _value(N, y) * n
    return total


def _same(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def _embedding(x: CycNumber, a: int) -> complex:
    """x at zeta -> exp(2 pi i a / N), summed in floating point from its
    coordinates over its denominator."""
    zeta = cmath.exp(2j * cmath.pi * a / x.N)
    return sum(c * zeta ** k for k, c in enumerate(x._nums)) / x._den


# CONDUCTORS and four where a product's degree 2 phi(N) - 2 reaches N, so
# that the fold modulo x^N - 1 acts; in CONDUCTORS it never does
PRODUCT_CONDUCTORS = CONDUCTORS + (5, 7, 9, 25)


class TestProduct:
    """``CycNumber.__mul__``, the one product loop, against every complex
    embedding of Q(zeta_N), which shares no code with it."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_product_at_every_embedding(self, data):
        """x * y at zeta -> exp(2 pi i a / N), a prime to N, is x times y
        there, within 1e-9; and the product is in canonical form, its
        denominator positive and prime to its content (1 at zero), so it
        is the same value, hash and repr as y * x."""
        N = data.draw(st.sampled_from(PRODUCT_CONDUCTORS))
        x, y = data.draw(_cycnumbers(N)), data.draw(_cycnumbers(N))
        got = x * y
        for a in _units(N):
            assert cmath.isclose(_embedding(got, a),
                                 _embedding(x, a) * _embedding(y, a),
                                 rel_tol=1e-9, abs_tol=1e-9), (x, y, a)
        assert got._den > 0 and gcd(got._den, *got._nums) == 1
        _same(got, y * x)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_powers_equal_root_of_unity_products(self, data):
        """zeta^d zeta^e = zeta^(d+e), and zeta^e x for an algebraic integer
        x is the lift of x rotated by e places, x^i -> x^(i+e mod N),
        reduced."""
        N = data.draw(st.sampled_from(PRODUCT_CONDUCTORS))
        d, e = (data.draw(st.integers(-2 * N, 2 * N)) for _ in range(2))
        root = lambda k: CycNumber.root_of_unity(N, k)
        _same(root(d) * root(e), root(d + e))
        x = data.draw(_cycnumbers(N, integral=True))
        lift, e = x.to_lift(), e % N
        _same(x * root(e),
              CycNumber.from_lift(N, lift[N - e:] + lift[:N - e]))

    def test_lifts_wrap_modulo_x_to_the_n(self):
        """A product is read modulo x^N - 1, which Phi_N divides, so
        zeta^(N-1) zeta is 1 and zeta^(N-1) zeta^(N-1) is zeta^-2."""
        for N in PRODUCT_CONDUCTORS:
            top = CycNumber.root_of_unity(N, N - 1)
            _same(top * CycNumber.root_of_unity(N, 1), CycNumber.one(N))
            _same(top * top, CycNumber.root_of_unity(N, -2))

    def test_empty_and_all_zero(self):
        """A zero operand gives zero, in canonical form, on either side."""
        for N in PRODUCT_CONDUCTORS:
            zero, zeta = CycNumber.zero(N), CycNumber.root_of_unity(N, 1)
            for got in (zero * zeta, zeta * zero, zeta * 0, 0 * zeta,
                        zero * zero, zeta * Fraction(0)):
                _same(got, zero)

    def test_rejects_foreign_entries(self):
        with pytest.raises(ValueError, match="conductor mismatch"):
            CycNumber.one(8) * CycNumber.one(12)
        with pytest.raises(TypeError):
            CycNumber.one(8) * "1"
        _same(CycNumber.one(8) * Fraction(1, 2) * 2, CycNumber.one(8))


def _units(N):
    return [a for a in range(1, N + 1) if gcd(a, N) == 1]


def _trace(x: CycNumber):
    """Tr(x) as sum_a sigma_a(x) over the Galois group, by CycNumber sums,
    read with ``to_rational``."""
    total = CycNumber.zero(x.N)
    for a in _units(x.N):
        total = total + x.galois(a)
    return total.to_rational()


class TestTraceSums:
    """``trace_sums`` over a ``trace_rows`` matrix against the trace of the
    sum of products with the conjugate of each row, by CycNumber ``*`` and
    ``+``, the trace summed over the Galois group and divided by phi(N)
    times the factors' sum, on the algebraic integers the two kernels
    take."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_dot_over_the_divisor(self, data):
        """sum_k n_k Tr(x_k conj(row_k)) / (phi(N) sum_k n_k) for positive
        factors n_k, and doubling every factor changes no sum."""
        N = data.draw(st.sampled_from(CONDUCTORS))
        width = data.draw(st.integers(1, 6))
        entries = st.lists(_entries(N, integral=True), min_size=width,
                           max_size=width)
        xs = data.draw(entries)
        rows = data.draw(st.lists(entries, min_size=1, max_size=4))
        factors = data.draw(st.lists(st.integers(1, 5), min_size=width,
                                     max_size=width))
        matrix = trace_rows(N, rows)
        got = trace_sums(N, xs, matrix, factors)
        assert len(got) == len(rows)
        for row, v in zip(rows, got):
            conj = [_value(N, y).conj() for y in row]
            want = (_trace(_sum_of_products(N, xs, conj, factors))
                    / (euler_phi(N) * sum(factors)))
            assert v == want
            assert type(v) is (int if want.denominator == 1 else Fraction)
        assert trace_sums(N, xs, matrix, [2 * n for n in factors]) == got

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_galois_traces_are_read_exactly(self, data):
        """Rational sums of products, which random entries rarely give: the
        sum over the Galois group of sigma_a(x) sigma_a(conj(y)), with x and
        y drawn as algebraic integers, CycNumbers or lifts, is
        Tr(x conj(y)), and over phi(N) it is the one-term ``trace_sums``
        over the matrix of the one row (y), whatever its factor n > 0."""
        N = data.draw(st.sampled_from(CONDUCTORS))
        x, y = (_value(N, data.draw(_entries(N, integral=True)))
                for _ in range(2))
        units = _units(N)
        xs = [x.galois(a) for a in units]
        ys = [y.conj().galois(a) for a in units]
        n = data.draw(st.integers(1, 5))
        want = (_sum_of_products(N, xs, ys, [1] * len(units)).to_rational()
                / euler_phi(N))
        got = trace_sums(N, [x], trace_rows(N, [[y]]), [n])
        assert got == [want]
        assert type(got[0]) is (int if want.denominator == 1 else Fraction)

    def test_refuses_a_factor_that_is_not_positive(self):
        """The factors are weights of a mean: a zero or negative one, or
        none at all, raises ValueError before any entry is read."""
        zeta = CycNumber.root_of_unity(12, 1)
        matrix = trace_rows(12, [[(1,), zeta]])
        for factors in ([1, 0], [0, 1], [2, -1], [-3, -3]):
            with pytest.raises(ValueError):
                trace_sums(12, [(1,), zeta], matrix, factors)
        with pytest.raises(ValueError):
            trace_sums(12, [], trace_rows(12, [[]]), [])

    def test_refuse_an_entry_with_a_denominator(self):
        """Both kernels take algebraic integers only: an entry over 2 in a
        row raises ValueError from ``trace_rows`` and from ``trace_sums``,
        and its integral double does not."""
        for N in CONDUCTORS:
            half = CycNumber(N, [1] + [0] * (euler_phi(N) - 1), 2)
            zeta = CycNumber.root_of_unity(N, 1)
            for bad in (half, zeta * Fraction(1, 2), zeta + half):
                row = [(1,), zeta, bad]
                matrix = trace_rows(N, [[(3,), zeta, 2 * bad]])
                with pytest.raises(ValueError, match="not an algebraic"):
                    trace_rows(N, [[(1,)] * 3, row])
                with pytest.raises(ValueError, match="not an algebraic"):
                    trace_sums(N, row, matrix, [1] * 3)
                trace_sums(N, [(1,), zeta, 2 * bad], matrix, [1] * 3)

    def test_rejects_rows_of_different_lengths(self):
        """A row of another length than the matrix rows', or a factor list
        of another length, raises ValueError; zip used to truncate."""
        for xs, ys, factors in (([1, 2, 3], [1, 1], [1, 1, 1]),
                                ([1, 1], [1, 2, 3], [1, 1]),
                                ([1, 2], [1, 1], [1]),
                                ([1, 2], [1, 1], [1, 1, 1])):
            with pytest.raises(ValueError):
                trace_sums(8, [(x,) for x in xs],
                           trace_rows(8, [[(y,) for y in ys]]), factors)
        # and a trace matrix refuses rows of different lengths
        with pytest.raises(ValueError):
            trace_rows(8, [[(1,), (2,)], [(1,), (2,), (3,)]])

    def test_traces_of_powers_are_ramanujan_sums(self):
        """Tr(zeta^k) = c_N(k) = sum over d | gcd(k, N) of mu(N/d) d, the
        table ``trace_rows`` reads, against the Galois sum of zeta^k."""
        for N in CONDUCTORS + (25, 44, 49, 97):
            fld = _Field(N)
            want = [sum(moebius(N // d) * d for d in range(1, N + 1)
                        if N % d == 0 and k % d == 0) for k in range(N)]
            assert list(fld.traces) == want + want, N
            if N <= 60:
                assert want == [_trace(CycNumber.root_of_unity(N, k))
                                for k in range(N)]


class TestIsFixed:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_agrees_with_galois(self, data):
        """``is_fixed`` against ``CycNumber.galois``, on an entry x,
        on the sum of x's images under the powers of sigma_a, which sigma_a
        fixes, and on that sum moved by a root of unity or a rational."""
        N = data.draw(st.sampled_from(CONDUCTORS))
        x = data.draw(_entries(N))
        v = _value(N, x)
        a = data.draw(st.sampled_from(_units(N)))
        assert is_fixed(N, x, a) == (v.galois(a) == v)
        fixed, image = v, v.galois(a)
        while image != v:
            fixed, image = fixed + image, image.galois(a)
        assert is_fixed(N, fixed, a)
        for moved in (fixed + CycNumber.root_of_unity(N, 1),
                      fixed + Fraction(1, 2), fixed * 2):
            assert is_fixed(N, moved, a) == (moved.galois(a) == moved)


class TestVanishes:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_agrees_with_the_reduced_value(self, data):
        N = data.draw(st.sampled_from(CONDUCTORS))
        lift = data.draw(st.lists(st.integers(-3, 3), max_size=N))
        assert vanishes(N, lift) == CycNumber.from_lift(N, lift).is_zero()

    def test_multiples_of_phi_n_vanish(self):
        for N in CONDUCTORS[1:]:  # Phi_1 = x - 1 is no lift of length 1
            phi = list(cyclotomic(N).coeffs)
            phi += [0] * (N - len(phi))
            assert vanishes(N, phi) and vanishes(N, phi[-1:] + phi[:-1])
            assert vanishes(N, []) and not vanishes(N, [1])


def _integers(N):
    """Algebraic integers of conductor N, zero included."""
    phi = euler_phi(N)
    return st.lists(st.one_of(st.just(0), st.integers(-6, 6)), min_size=phi,
                    max_size=phi).map(lambda nums: CycNumber(N, nums))


class TestTauTimes:
    """``_tau_times`` is the one product by a class trace zeta^e + zeta^-e:
    two rotations of a lift, which ``to_lift`` and ``from_lift`` carry to
    and from Q(zeta_N)."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rotations_equal_the_trace_product(self, data):
        N = data.draw(st.sampled_from(CONDUCTORS))
        x = data.draw(_integers(N))
        e = data.draw(st.integers(-2 * N, 2 * N))
        tau = CycNumber.root_of_unity(N, e) + CycNumber.root_of_unity(N, -e)
        lift = x.to_lift()
        assert len(lift) == N and all(type(a) is int for a in lift)
        _same(CycNumber.from_lift(N, lift), x)
        _same(CycNumber.from_lift(N, _tau_times(lift, e)), x * tau)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_non_integral_value_has_no_lift(self, data):
        N = data.draw(st.sampled_from(CONDUCTORS))
        x = data.draw(_integers(N))
        den = data.draw(st.integers(2, 6))
        with pytest.raises(ValidationFailed):
            (x + Fraction(1, den)).to_lift()


class TestReduceTable:
    def test_reduce_only_indexes_the_table(self):
        """A field builds its N - phi rows zeta^e, phi <= e < N, when it is
        made; a reduce indexes them and changes none; no ``row`` lookup is
        left."""
        assert not hasattr(_Field, "row")
        N = 45
        fld = _Field(N)  # a fresh table, not the cached one
        rows = fld._rows
        assert len(rows) == N - fld.phi
        nums = [(e % 7) - 3 for e in range(N)]
        want = _value(N, tuple(nums))
        for _ in range(2):
            assert CycNumber(N, fld.reduce(list(nums))) == want
            assert fld._rows is rows and len(rows) == N - fld.phi

    def test_lift_longer_than_the_conductor_is_refused(self):
        """A lift has at most N entries: ``from_lift``, ``vanishes`` and
        ``trace_sums`` refuse one more instead of reducing it."""
        refused = "lift of length 13 at conductor 12"
        with pytest.raises(ValueError, match=refused):
            trace_sums(12, [(0,) * 12 + (1,)], trace_rows(12, [[(1,)]]), [1])
        with pytest.raises(ValueError, match=refused):
            CycNumber.from_lift(12, [0] * 12 + [1])
        with pytest.raises(ValueError, match=refused):
            vanishes(12, [1] + [0] * 12)


class TestPolynomial:
    def test_one_plus_q(self):
        assert one_plus_q(4, -1) == Q(1, 0, 0, 0, -1)
        assert one_plus_q(6) == Q(1, 0, 0, 0, 0, 0, 1)
        assert one_plus_q(2) == Q(1, 0, 1)

    def test_equal_to_ints_but_unhashable(self):
        """A hash could not agree with == against an int, so neither value
        type has one."""
        assert Polynomial.one("q") == 1 and Polynomial.zero("q") == 0
        assert RationalFunction(Q(2, 2), Q(1, 1)) == 2
        for value in (Q(1), RationalFunction(Q(1), Q(1, 1))):
            with pytest.raises(TypeError):
                hash(value)

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            Q(1, 1) + T(1, 1)
        with pytest.raises(ValueError):
            Q(1, 1) * T(1, 1)

    def test_divmod(self):
        num = Q(-1, 0, 0, 0, 0, 0, 1)  # q^6 - 1
        quo, rem = divmod(num, Q(-1, 1))
        assert rem.is_zero()
        assert quo * Q(-1, 1) == num

    def test_gcd(self):
        a = Q(-1, 0, 1)   # (q-1)(q+1)
        b = Q(1, 2, 1)    # (q+1)^2
        assert poly_gcd(a, b) == Q(1, 1)

    def test_str_matches_paper_conventions(self):
        assert str(Q(1, 0, 0, 0, 0, 0, 1)) == "1+q^6"
        assert str(Q(0, 1, 0, 2, 0, 1)) == "q+2q^3+q^5"
        assert str(T(-3, 0, 1)) == "t^2-3"

    def test_json_round_trip(self):
        p = Q(-2, -3, 0, 7)
        assert p.to_json() == {"var": "q", "coeffs": ["-2", "-3", "0", "7"]}
        assert json.loads(json.dumps(p.to_json())) == p.to_json()
        assert Polynomial.zero("t").to_json() == {"var": "t", "coeffs": []}

    def test_evaluate(self):
        assert Q(1, 2, 1).evaluate(Fraction(2)) == 9

    def test_shift_refuses_a_negative_exponent(self):
        """A negative shift would divide by q^k; it was silently ignored,
        turning q + 2q^2 shifted by -1 into q + 2q^2."""
        assert Q(0, 1, 2).shifted(2) == Q(0, 0, 0, 1, 2)
        assert Q(0, 1, 2).shifted(0) == Q(0, 1, 2)
        for p in (Q(0, 1, 2), Q()):
            with pytest.raises(ValueError, match="negative exponent"):
                p.shifted(-1)

    def test_int_coefficients_stay_int(self):
        a, b = Q(3, -1, 2), Q(-1, 0, 1)   # b is monic
        results = [a + b, a - b, a * b, b * b - a, (a * b).exact_div(b),
                   a.scaled(-4), divmod(a * b + 1, b)[0], -b, b * b * b]
        for p in results:
            assert p.coeffs and all(type(c) is int for c in p.coeffs), p
        assert (a * b).exact_div(b) == a
        assert divmod(a * b + 1, b)[1] == 1
        # leading coefficient -1 is a unit of Z as well
        assert (a * -b).exact_div(-b) == a
        assert all(type(c) is int for c in (a * -b).exact_div(-b).coeffs)
        # a non-unit leading coefficient divides in Z[x] when it can
        assert Q(2, 4).exact_div(Q(2)) == Q(1, 2)
        assert (a * Q(1, 2)).exact_div(Q(1, 2)) == a
        # and a quotient leaving Z raises, as does divmod
        with pytest.raises(ValueError):
            Q(1, 1).exact_div(Q(2))
        with pytest.raises(ValueError):
            divmod(Q(0, 0, 1), Q(1, 2))

    def test_monic_exact_div_with_remainder_raises(self):
        with pytest.raises(ValueError):
            Q(1, 0, 1).exact_div(Q(-1, 1))     # q^2 + 1 = (q + 1)(q - 1) + 2
        with pytest.raises(ValueError):
            T(5, 0, 0, 1).exact_div(T(1, 1, 1))

    def test_int_gcd_equals_fraction_euclid(self):
        rng = random.Random(20261018)

        def rand(max_deg):
            return Polynomial("q", [rng.randint(-6, 6)
                                    for _ in range(rng.randint(0, max_deg + 1))])

        pairs = [(Q(), Q()), (Q(), Q(0, 3)), (Q(4), Q()), (Q(6), Q(4)),
                 (Q(2, 4), Q(3, 6)), (Q(0, 0, 2), Q(0, 3))]
        for _ in range(150):
            f = rand(3)
            pairs.append((f * rand(4), f * rand(4)))
        for a, b in pairs:
            got = poly_gcd(a, b)
            # equal to Euclid over Q up to the leading coefficient
            assert [Fraction(c, got.leading()) for c in got.coeffs] \
                == euclid_gcd(a, b), (a, b)
            assert got == poly_gcd(b, a)
            if not got.is_zero():
                assert got.leading() > 0 and gcd(*got.coeffs) == 1


class TestRationalFunction:
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=9),
           st.lists(st.integers(-5, 5), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_reduction_canonical(self, ca, cb):
        a = Polynomial("q", ca)
        b = Polynomial("q", cb)
        if a.is_zero() or b.is_zero():
            return
        r = RationalFunction(a, b)
        assert r.den.leading() > 0
        assert poly_gcd(r.num, r.den) == 1
        assert gcd(*r.num.coeffs, *r.den.coeffs) == 1
        assert r == RationalFunction(a * Q(1, 7, 3), b * Q(1, 7, 3))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Q(1), Polynomial.zero("q"))

    def test_series(self):
        r = RationalFunction(Q(0, 2), Q(1, 0, -1) * Q(1, 0, -1))
        assert series_coefficients(r, 6) == [0, 2, 0, 4, 0, 6]
        assert series_coefficients(RationalFunction(Q(1), Q(-1, 1)), 3) \
            == [-1, -1, -1]
        for den in (Q(2, 1), Q(0, 1, 1)):
            with pytest.raises(ValueError):
                series_coefficients(RationalFunction(Q(1), den), 3)

    def test_json_round_trip(self):
        r = RationalFunction(T(0, 2), T(-6, 0, 2))  # reduced on construction
        assert r.to_json() == {"num": {"var": "t", "coeffs": ["0", "1"]},
                               "den": {"var": "t", "coeffs": ["-3", "0", "1"]}}
