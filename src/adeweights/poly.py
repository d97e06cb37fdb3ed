"""Dense univariate polynomials over Z and reduced quotients of them.

Coefficients are ``int``, and every operation stays in Z[x]: ``+``, ``-``,
``*``, scaling by an int, and ``exact_div`` or ``divmod``, which raise
``ValueError`` when a quotient coefficient is not an integer. By a divisor
whose leading coefficient is +-1 that cannot happen: the division is
synthetic division.

``poly_gcd`` runs a primitive polynomial remainder sequence over Z (Collins
1967; Knuth, TAOCP vol. 2, 4.6.1) and returns the primitive gcd with a
positive leading coefficient, which is monic whenever it divides a monic
polynomial (Gauss's lemma). So a rational function whose denominator is
monic reduces to a monic denominator without leaving Z.

Every polynomial carries a variable tag (``"t"`` or ``"q"``) and binary
operations refuse to mix tags.

``fold_palindromic`` and ``substitute_t`` move between palindromic
polynomials in q and polynomials in t = q + 1/q; ``cos_polynomial(d)``, the
fold of Phi_d, is the minimal polynomial of 2*cos(2*pi/d), and ``cox(h)``
is it at d = 2h.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, gcd


class Polynomial:
    """Dense univariate polynomial over Z; ``coeffs[k]`` multiplies ``var**k``.

    Trailing zero coefficients are stripped, so the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs=()):
        norm = list(coeffs)
        while norm and norm[-1] == 0:
            norm.pop()
        self.var = var
        self.coeffs = tuple(norm)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, var: str) -> Polynomial:
        return cls(var, ())

    @classmethod
    def one(cls, var: str) -> Polynomial:
        return cls(var, (1,))

    @classmethod
    def constant(cls, var: str, value) -> Polynomial:
        return cls(var, (value,))

    @classmethod
    def monomial(cls, var: str, exp: int, coeff=1) -> Polynomial:
        if exp < 0:
            raise ValueError("negative exponent")
        return cls(var, (0,) * exp + (coeff,))

    # -- inspection ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.coeffs) if c != 0)

    def min_exponent(self) -> int:
        """Smallest exponent with nonzero coefficient (-1 for zero)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return -1

    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_palindromic(self) -> bool:
        """True iff var**deg * p(1/var) == p."""
        if self.is_zero():
            return True
        d = self.degree
        return all(self.coefficient(k) == self.coefficient(d - k) for k in range(d + 1))

    def _check_var(self, other: Polynomial):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.var, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.var, other)
        return self + (-other)

    def __mul__(self, other: Polynomial):
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return Polynomial(self.var, out)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, c) -> Polynomial:
        return Polynomial(self.var, tuple(c * a for a in self.coeffs))

    def shifted(self, k: int) -> Polynomial:
        """Multiplication by var**k, k >= 0."""
        if k < 0:
            raise ValueError("negative exponent")
        if self.is_zero():
            return self
        return Polynomial(self.var, (0,) * k + self.coeffs)

    def __divmod__(self, other: Polynomial):
        quo, rem = self._divide(other)
        return Polynomial(self.var, quo), Polynomial(self.var, rem)

    def _divide(self, other: Polynomial):
        """Schoolbook division in Z[x]: (quotient, remainder) as coefficient
        lists, the remainder of at most deg(other) coefficients. Raises
        ``ValueError`` when a quotient coefficient is not an integer, which
        a leading coefficient of +-1 rules out (synthetic division)."""
        self._check_var(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        if len(rem) <= dq:
            return [], rem
        lead = other.leading()
        quo = [0] * (len(rem) - dq)
        low = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if b != 0]
        for k in range(len(rem) - 1, dq - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            f, r = divmod(c, lead)
            if r:
                raise ValueError(f"{self} / {other} leaves Z at {self.var}^{k - dq}")
            quo[k - dq] = f
            for j, b in low:
                rem[k - dq + j] = rem[k - dq + j] - f * b
        return quo, rem[:dq]

    def exact_div(self, other: Polynomial) -> Polynomial:
        """Quotient of a division in Z[x] that must leave no remainder."""
        quo, rem = self._divide(other)
        if any(c != 0 for c in rem):
            raise ValueError(f"{self} is not divisible by {other}")
        return Polynomial(self.var, quo)

    def evaluate(self, x):
        """Horner evaluation; x may be an int, a Fraction or a CycNumber."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparisons ------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.var == other.var and self.coeffs == other.coeffs
        if isinstance(other, int):
            if other == 0:
                return self.is_zero()
            return self.degree == 0 and self.coeffs[0] == other
        return NotImplemented

    # -- presentation ------------------------------------------------------
    def __str__(self):
        if self.is_zero():
            return "0"
        # q-polynomials read ascending (1+q^6), t-polynomials descending (t^2-3)
        order = enumerate(self.coeffs)
        if self.var == "t":
            order = reversed(list(order))
        parts = []
        for k, c in order:
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                unit = self.var if k == 1 else f"{self.var}^{k}"
                body = unit if mag == 1 else f"{mag}{unit}"
            parts.append(("-" if c < 0 else "+", body))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"Polynomial({self.var!r}, {self.coeffs!r})"

    # -- JSON ---------------------------------------------------------------
    def to_json(self) -> dict:
        return {"var": self.var, "coeffs": [str(c) for c in self.coeffs]}


def one_plus_q(k: int, c=1) -> Polynomial:
    """1 + c*q^k: the factors 1 - q^a of the standard form, the affine
    numerator and modulus 1 + q^h; multiplying by one is a shift and an add."""
    return Polynomial.monomial("q", k, c) + 1


def _primitive(coeffs: list[int]) -> list[int]:
    """Primitive part of an integer coefficient list, trailing zeros dropped."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd in Z[x] up to content, by the primitive PRS: pseudo-remainders
    lc(b)^(deg a - deg b + 1) * a mod b, each reduced to its primitive part."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        lb, db = b[-1], len(b) - 1
        r = a
        for k in range(len(r) - 1, db - 1, -1):
            c = r.pop()
            if lb != 1:
                r = [lb * x for x in r]
            if c:
                base = k - db
                for j in range(db):
                    r[base + j] -= c * b[j]
        a, b = b, _primitive(r)
    return a


def _positive(p: Polynomial) -> Polynomial:
    """p or -p, whichever has a positive leading coefficient (0 stays 0)."""
    return -p if p.coeffs and p.coeffs[-1] < 0 else p


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The primitive gcd with a positive leading coefficient (0 when both
    are 0), by the primitive PRS over Z."""
    a._check_var(b)
    return _positive(Polynomial(a.var, _int_gcd(a.coeffs, b.coeffs)))


class RationalFunction:
    """Reduced fraction of polynomials over Z: a value with no arithmetic.
    Numerator and denominator are coprime in Z[x], contents included, and
    the denominator has a positive leading coefficient, so a monic
    denominator stays monic. Identities are checked over a known
    denominator in Z[x]."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num._check_var(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.one(num.var)
        else:
            # exact in Z[x] by Gauss's lemma: g is the primitive gcd times
            # the gcd of the contents
            g = poly_gcd(num, den).scaled(gcd(*num.coeffs, *den.coeffs))
            if den.leading() < 0:
                g = -g
            if g != 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self.num = num
        self.den = den

    def is_polynomial(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        if isinstance(other, (Polynomial, int)):
            return self.is_polynomial() and self.num == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        num = str(self.num)
        if len(self.num.support()) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Polynomial:
    """The n-th cyclotomic polynomial in q, by dividing q**n - 1 by the
    cyclotomic polynomials of the proper divisors of n."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    p = -one_plus_q(n, -1)
    for d in range(1, n):
        if n % d == 0:
            p = p.exact_div(cyclotomic(d))
    return p


def fold_palindromic(p: Polynomial) -> Polynomial:
    """Write a palindromic p(q) of even degree 2k as q**k * F(q + 1/q).

    Works down from the top coefficient, subtracting multiples of
    q**(k-j) * (q^2+1)**j, the image of t**j.
    """
    if p.is_zero():
        return Polynomial.zero("t")
    d = p.degree
    if d % 2 != 0:
        raise ValueError(f"cannot fold odd degree {d}")
    if not p.is_palindromic():
        raise ValueError("cannot fold a non-palindromic polynomial")
    k = d // 2
    work = list(p.coeffs)
    out = [0] * (k + 1)
    for j in range(k, -1, -1):
        c = work[k + j]
        out[j] = c
        if c != 0:
            for i in range(j + 1):
                work[k - j + 2 * i] = work[k - j + 2 * i] - c * comb(j, i)
    if any(c != 0 for c in work):
        raise ValueError("fold left a nonzero remainder")
    return Polynomial("t", out)


def substitute_t(p: Polynomial) -> tuple[Polynomial, int]:
    """Substitute t = q + 1/q and clear: returns (P, d) with
    p(q + 1/q) = P(q) / q**d and d = deg p.

    t**i becomes q**(d-i) * (q^2+1)**i, so c * t**i spreads as
    c * C(i, k) into q**(d-i+2k) for k = 0..i."""
    if p.var != "t":
        raise ValueError(f"substitute_t expects a polynomial in t, got {p.var!r}")
    if p.is_zero():
        return Polynomial.zero("q"), 0
    d = p.degree
    out = [0] * (2 * d + 1)
    for i, c in enumerate(p.coeffs):
        if c != 0:
            for k in range(i + 1):
                out[d - i + 2 * k] += c * comb(i, k)
    return Polynomial("q", out), d


@lru_cache(maxsize=None)
def cos_polynomial(d: int) -> Polynomial:
    """Minimal polynomial of zeta_d + zeta_d^-1 = 2*cos(2*pi/d) in t: the
    fold of the d-th cyclotomic polynomial, degree max(1, phi(d)/2). For
    d <= 2, Phi_d = q -+ 1 has odd degree, so its square folds instead,
    to t - 2 and t + 2."""
    p = cyclotomic(d)
    return fold_palindromic(p * p if d <= 2 else p)


def cox(h: int) -> Polynomial:
    """Minimal polynomial of 2*cos(pi/h) in t: the fold of the (2h)-th
    cyclotomic polynomial. Degree phi(2h)/2."""
    if h < 2:
        raise ValueError("Coxeter number must be at least 2")
    return cos_polynomial(2 * h)
