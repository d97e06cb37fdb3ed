"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial, stored in the
power basis 1, zeta, ..., zeta^(phi(N)-1). Internally a value is a vector of
integers over one common denominator, which keeps products cheap, and
``to_json`` writes each coordinate over it, an algebraic integer's as a
plain int with no Fraction built. Arithmetic never mixes
conductors. A lift is an int sequence of at most N entries in
Z[x]/(x^N - 1) (``to_lift`` pads an algebraic integer to one, ``from_lift``
reduces one), on which a root of unity acts by rotation. Each conductor
builds its reduction rows, zeta^e in the power basis for phi(N) <= e < N,
once; a reduction only indexes them and refuses more than N entries.

There is one product loop, in ``CycNumber.__mul__``: after a zero
shortcut it adds the products of the two values' nonzero coordinates into
an integer buffer of 2N coefficients, folds it modulo x^N - 1 and reduces
it modulo Phi_N (a factor of x^N - 1) once, over the product of the two
denominators, and the constructor divides out the content. An entry, the
input of a sweep below, is a CycNumber or a lift. Rational sums of
field traces of algebraic integers, the elements of Z[zeta_N], are swept,
not built: ``trace_rows`` reads rows chi_j of entries into a trace matrix,
the integers Tr(zeta^k chi_j[o]) for each entry o and power k < N, each
entry's form over k a sum of shifted slices of the Ramanujan sums
c_N(k) = Tr(zeta^k), a table each conductor builds on first use; and
``trace_sums`` reads sum_o n_o Tr(x_o chi_j[o]) / divisor off that matrix
for every row at once, one vector add per nonzero coordinate of x, an int
where the quotient is integral and a Fraction otherwise, reducing nothing
modulo Phi_N and building no value. Both refuse an entry with a
denominator. The matrix is built once per set of rows and swept by every
class function x over them: a character table keeps its rows' matrix for
all its readers. ``vanishes`` likewise tests a lift for zero at zeta.
``trace_sums`` takes its row x as read by ``split``, a list of each
entry's denominator, coordinates and nonzero positions, built by the call
that sweeps it and dropped with that call. The Galois action
sigma_a: zeta -> zeta^a is written once, in ``_galois_lift``, an entry's
lift mapped x^i -> x^(ia mod N), unreduced: ``CycNumber.galois`` reduces
it, ``split(N, xs, conj=True)`` reads complex conjugates as the case
a = -1, and ``is_fixed`` compares sigma_a(x) with x by ``vanishes``.
The inverse is the product of the other Galois conjugates over the norm, a
rational number, so no polynomial division is needed.

``su2_mod_p`` is the one reduction to a finite field: zeta -> omega, an
element of order exactly N in F_p^* for the least prime p = 1 (mod N)
dividing no denominator of its entries. omega is a root of Phi_N mod p, so
the map is a ring homomorphism on the p-integral values of Q(zeta_N).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import compress, count
from math import gcd, isqrt
from operator import add

from .errors import NotRational, ValidationFailed
from .poly import cyclotomic


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi of a non-positive integer")
    out = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


class _Field:
    """Per-conductor context: reduction rows for zeta^e, phi(N) <= e < N,
    and, built on first use, the traces of the powers of zeta."""

    def __init__(self, N: int):
        self.N = N
        self.phi = phi = euler_phi(N)
        # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1})
        base = [-c for c in cyclotomic(N).coeffs[:phi]]
        last = [0] * (phi - 1) + [1]  # zeta^(phi-1)
        rows = []
        for _ in range(N - phi):
            top = last[-1]
            last = [0] + last[:-1]
            if top:
                last = [a + top * b for a, b in zip(last, base)]
            rows.append(tuple((i, a) for i, a in enumerate(last) if a))
        self._rows = tuple(rows)

    def reduce(self, nums: list[int]) -> list[int]:
        """nums, at most N of them, reduced in place by indexing rows[e - phi],
        the nonzero terms (i, c) of zeta^e."""
        phi, rows, N = self.phi, self._rows, self.N
        if len(nums) > N:
            raise ValueError(f"lift of length {len(nums)} at conductor {N}")
        for e in range(len(nums) - 1, phi - 1, -1):
            c = nums[e]
            if c:
                for i, r in rows[e - phi]:
                    nums[i] += c * r
        del nums[phi:]
        nums.extend([0] * (phi - len(nums)))
        return nums

    @cached_property
    def traces(self) -> list[int]:
        """Tr(zeta^k) for 0 <= k < 2N, the indices s + k, s, k < N, of the
        slices ``trace_rows`` takes: the Ramanujan sum c_N(k), by von
        Sterneck's formula mu(m) phi(N) / phi(m) at m = N / gcd(k, N),
        which for squarefree m is phi(N) times -1/(p - 1) per prime p | m,
        and 0 otherwise. A list, since a freed slice of a short tuple would
        stay on the interpreter's tuple free list."""
        N = self.N
        by_m: dict[int, int] = {}
        for m in range(1, N + 1):
            if N % m == 0:
                c, rest = self.phi, m
                for p in range(2, m + 1):  # each p dividing rest is prime
                    if rest % p == 0:
                        rest //= p
                        c = 0 if rest % p == 0 else -c // (p - 1)
                by_m[m] = c
        return [by_m[N // gcd(k, N)] for k in range(2 * N)]


@lru_cache(maxsize=None)
def _field(N: int) -> _Field:
    return _Field(N)


class CycNumber:
    """Element of Q(zeta_N): integer coordinate vector over one denominator."""

    __slots__ = ("N", "_den", "_nums", "_support")

    def __init__(self, N: int, nums, den: int = 1):
        if N < 1:
            raise ValueError("conductor must be positive")
        fld = _field(N)
        nums = list(nums)
        if len(nums) != fld.phi:
            raise ValueError(f"need phi({N}) = {fld.phi} coordinates, got {len(nums)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            nums = [-a for a in nums]
        g = reduce(gcd, nums, den)
        if g > 1:
            den //= g
            nums = [a // g for a in nums]
        if not any(nums):
            den = 1
        self.N = N
        self._den = den
        self._nums = tuple(nums)
        self._support = None  # positions of the nonzero nums, set by ``split``

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, N: int) -> CycNumber:
        return cls(N, [0] * _field(N).phi)

    @classmethod
    def one(cls, N: int) -> CycNumber:
        return cls.from_rational(N, 1)

    @classmethod
    def from_rational(cls, N: int, value) -> CycNumber:
        value = Fraction(value)
        nums = [0] * _field(N).phi
        nums[0] = value.numerator
        return cls(N, nums, value.denominator)

    @classmethod
    def root_of_unity(cls, N: int, e: int) -> CycNumber:
        return cls.from_lift(N, [0] * (e % N) + [1])

    @classmethod
    def from_lift(cls, N: int, lift) -> CycNumber:
        """The polynomial with coefficients ``lift`` at zeta_N."""
        return cls(N, _field(N).reduce(list(lift)))

    def to_lift(self) -> list[int]:
        """The coordinates padded to length N, which ``from_lift`` inverts."""
        if not self.is_integral():
            raise ValidationFailed(f"{self} is not an algebraic integer")
        return list(self._nums) + [0] * (self.N - len(self._nums))

    # -- inspection -------------------------------------------------------
    def is_integral(self) -> bool:
        """Whether this is in Z[zeta_N], the algebraic integers here."""
        return self._den == 1

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self} has irrational residue components")
        return Fraction(self._nums[0], self._den)

    def sort_key(self):
        return (self._den, self._nums)

    # -- coercion -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.N != self.N:
                raise ValueError(f"conductor mismatch: {self.N} vs {other.N}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(self.N, other)
        return None

    # -- ring operations ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        nums = [a * ma + b * mb for a, b in zip(self._nums, other._nums)]
        return CycNumber(self.N, nums, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.N, [-a for a in self._nums], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CycNumber.zero(self.N)
        N = self.N
        xd, xn, xt = _parts(N, self)
        yd, yn, yt = _parts(N, other)
        buf = [0] * (2 * N)  # i, j < phi(N) <= N
        for i in xt:
            a = xn[i]
            for j in yt:
                buf[i + j] += a * yn[j]
        folded = [a + b for a, b in zip(buf, buf[N:])]
        return CycNumber(N, _field(N).reduce(folded), xd * yd)

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        """The product of the other Galois conjugates divided by the norm,
        the product of all of them (a nonzero rational)."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        others = CycNumber.one(self.N)
        for a in range(2, self.N):
            if gcd(a, self.N) == 1:
                others = others * self.galois(a)
        return others * (1 / (self * others).to_rational())

    # -- Galois action -----------------------------------------------------------
    def galois(self, a: int) -> CycNumber:
        """Apply zeta -> zeta**a for a coprime to N (a ring automorphism)."""
        a %= self.N
        if gcd(a, self.N) != 1:
            raise ValueError(f"{a} is not coprime to {self.N}")
        den, lift, _ = _galois_lift(self.N, self, a)
        return CycNumber(self.N, _field(self.N).reduce(lift), den)

    def conj(self) -> CycNumber:
        """Complex conjugation zeta -> zeta**(-1)."""
        return self.galois(self.N - 1) if self.N > 1 else self

    # -- comparisons ----------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return (self.N == other.N and self._den == other._den
                    and self._nums == other._nums)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self._nums[0], self._den) == other
        return NotImplemented

    def __hash__(self):
        # rational values hash like their Fraction so cross-type eq stays sound
        if self.is_rational():
            return hash(Fraction(self._nums[0], self._den))
        return hash((self.N, self._den, self._nums))

    def __str__(self):
        if self.is_rational():
            return str(Fraction(self._nums[0], self._den))
        parts = []
        for i, c in enumerate(self._nums):
            if c:
                coeff = Fraction(c, self._den)
                parts.append(f"({coeff})*z{self.N}^{i}" if i else f"({coeff})")
        return " + ".join(parts)

    def __repr__(self):
        return f"CycNumber({self.N}, {self._nums!r}, {self._den})"

    # -- JSON ---------------------------------------------------------------------------
    def to_json(self) -> dict:
        """The coordinates as strings, an algebraic integer's (den 1) with
        no Fraction built."""
        den = self._den
        if den == 1:
            return {"N": self.N, "coeffs": [str(a) for a in self._nums]}
        return {"N": self.N,
                "coeffs": [str(Fraction(a, den)) for a in self._nums]}


def split(N: int, xs, conj: bool = False) -> list[tuple]:
    """Read each entry of ``xs`` once, so that every sum of a sweep over
    the same row reuses the reading instead of taking it apart per term.
    With ``conj`` each entry is read as its complex conjugate, the
    ``_galois_lift`` at a = -1: its lift reversed, x^i -> x^(N-i), a lift
    of length N."""
    if conj:
        return [_galois_lift(N, x, -1) for x in xs]
    return [_parts(N, x) for x in xs]


class TraceMatrix:
    """The traces Tr(zeta^k chi_j[o]) of ``height`` rows chi_j of integral
    entries, built by ``trace_rows``: ``columns[o][k]`` is the int
    vector over the rows at entry o and power k < N. Every sweep over a
    character table reads the one matrix the table keeps; a walk that finds
    rows one at a time grows its matrix by ``extend`` and puts the rows in
    their final order by ``reordered``."""

    __slots__ = ("height", "columns")

    def __init__(self, height: int, columns: list[list[list[int]]]):
        self.height = height
        self.columns = columns

    def extend(self, other: TraceMatrix) -> None:
        """Append the rows of ``other``, a matrix over the same entries and
        powers, below these; a different entry or power count raises
        ValueError."""
        self.height += other.height
        for column, more in zip(self.columns, other.columns, strict=True):
            for vec, tail in zip(column, more, strict=True):
                vec.extend(tail)

    def reordered(self, order) -> TraceMatrix:
        """The matrix of rows ``order[0]``, ``order[1]``, ..., in that
        order."""
        return TraceMatrix(len(order), [[[vec[j] for j in order] for vec in c]
                                        for c in self.columns])


def trace_rows(N: int, rows) -> TraceMatrix:
    """The trace matrix of ``rows``, rows of integral entries of one
    length, each read once by ``split``: for entry o and power k < N, the
    int vector over rows of Tr(zeta^k row[o]), Tr the trace to Q. An entry
    x = sum_s x_s zeta^s gives Tr(zeta^k x) = sum_s x_s c_N(k + s), so its
    form over k is the sum of |support| shifted slices of the Ramanujan
    sums ``_Field.traces``, each a C-level ``map``. Rows of different
    lengths, or an entry with a denominator, raise ValueError."""
    traces = _field(N).traces
    rows = [_integral(split(N, row)) for row in rows]
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != width:
            raise ValueError(f"rows of {width} and {len(row)} entries")
    columns = []
    for o in range(width):  # one entry's forms at a time, then transposed
        forms = []
        for row in rows:
            _, nums, support = row[o]
            form = [0] * N
            for s in support:
                form = list(map(add, form,
                                map(nums[s].__mul__, traces[s:s + N])))
            forms.append(form)
        # lists, not tuples: freed short tuples would stay on a free list
        columns.append(list(map(list, zip(*forms))))
    return TraceMatrix(len(rows), columns)


def trace_sums(N: int, xs, matrix: TraceMatrix, factors,
               divisor: int) -> list[int | Fraction]:
    """sum_o n_o Tr(x_o chi_j[o]) / divisor for every row chi_j of
    ``matrix`` at once, for a row of integral entries x_o read by ``split``
    into ``xs`` (read by ``split(N, row, conj=True)``, x_o is conj(x_o))
    and int ``factors`` n_o: one C-level vector add of column
    (o, k) per nonzero coordinate x_o[k], and no CycNumber built; an int
    where integral, else a Fraction. Lengths other than the matrix rows',
    or an entry with a denominator, raise ValueError."""
    acc = [0] * matrix.height
    for (_, xn, xt), n, column in zip(_integral(xs), factors, matrix.columns,
                                      strict=True):
        for k in xt:
            acc = list(map(add, acc, map((xn[k] * n).__mul__, column[k])))
    return [Fraction(t, divisor) if t % divisor else t // divisor
            for t in acc]


def vanishes(N: int, lift) -> bool:
    """Whether the lift is zero at x = zeta_N, read off its reduction modulo
    Phi_N with no CycNumber built."""
    return not any(_field(N).reduce(list(lift)))


def is_fixed(N: int, x, a: int) -> bool:
    """Whether sigma_a(x) = x, sigma_a: zeta -> zeta^a for a prime to N, for
    an entry x. An x with no coordinate past the constant one is
    rational and sigma_a fixes Q, so it is True with no lift built; else
    ``vanishes`` of x's sigma_a lift minus its own coordinates, which share
    its denominator, so no value is built."""
    _, nums, support = _parts(N, x)
    if not any(support):  # support () or (0,): x is rational
        return True
    _, lift, _ = _galois_lift(N, x, a)
    for j in support:
        lift[j] -= nums[j]
    return vanishes(N, lift)


def residue_field(N: int, dens) -> tuple[int, int]:
    """The least prime p = 1 (mod N) dividing none of the ints ``dens``,
    and an omega of order exactly N in F_p^*: g^((p-1)/N) for the least g
    for which that power has no order N/q, q a prime factor of N. F_p^* is
    cyclic of order divisible by N, so such a g exists. p is odd, as
    N >= 2: an even p = 1 (mod N) is 2 only when N = 1."""
    if N < 2:
        raise ValueError(f"conductor {N} has no odd prime p = 1 (mod N)")
    primes = [q for q in range(2, N + 1)
              if N % q == 0 and all(q % r for r in range(2, q))]
    p = N + 1
    while any(p % r == 0 for r in range(2, isqrt(p) + 1)) \
            or any(d % p == 0 for d in dens):
        p += N
    for g in range(2, p):
        w = pow(g, (p - 1) // N, p)
        if all(pow(w, N // q, p) != 1 for q in primes):
            return p, w


def su2_mod_p(N: int, rows) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """p, omega and each top row (a, b) of ``rows`` as its SU(2) matrix
    [[a, b], [-conj(b), conj(a)]] reduced by zeta -> omega: the 4-tuple
    (a(omega), b(omega), -conj(b)(omega), conj(a)(omega)) of ints mod p,
    with p and omega from ``residue_field`` over the entries' denominators.
    conj(x)(omega) is x read at omega^-1, so no conjugate is built."""
    parts = [_parts(N, x) for row in rows for x in row]
    p, w = residue_field(N, [den for den, _, _ in parts])
    parts = [(pow(den, -1, p), nums, support) for den, nums, support in parts]
    phi = _field(N).phi

    def at(u: int) -> list[int]:
        """Each entry c/den, c = sum_i c_i zeta^i, read at zeta = u."""
        powers = [pow(u, i, p) for i in range(phi)]
        return [sum(nums[i] * inv * powers[i] for i in support) % p
                for inv, nums, support in parts]

    top, conj = at(w), at(pow(w, -1, p))
    return p, w, [(top[k], top[k + 1], (p - conj[k + 1]) % p, conj[k])
                  for k in range(0, len(parts), 2)]


def _parts(N: int, x) -> tuple:
    """Denominator, coordinates and nonzero positions of an entry."""
    if isinstance(x, CycNumber):
        if x.N != N:
            raise ValueError(f"conductor mismatch: {x.N} vs {N}")
        if x._support is None:
            x._support = tuple(compress(count(), x._nums))
        return x._den, x._nums, x._support
    if isinstance(x, (tuple, list)):
        if len(x) > N:
            raise ValueError(f"lift of length {len(x)} at conductor {N}")
        # a list, not a tuple: a freed tuple stays on a free list
        return 1, x, list(compress(count(), x))
    raise TypeError(f"entry {x!r} is not a CycNumber or a lift")


def _integral(row: list[tuple]) -> list[tuple]:
    """``row``; an entry with a denominator raises ValidationFailed."""
    if any(den != 1 for den, _, _ in row):
        raise ValidationFailed("a trace entry is not an algebraic integer")
    return row


def _galois_lift(N: int, x, a: int) -> tuple[int, list[int], list[int]]:
    """Denominator, lift of length N and nonzero positions of sigma_a(x),
    sigma_a: zeta -> zeta^a for a prime to N, for an entry x: its
    lift mapped x^i -> x^(ia mod N), which permutes the positions, and left
    unreduced."""
    den, nums, support = _parts(N, x)
    lift = [0] * N
    for i in support:
        lift[i * a % N] += nums[i]
    return den, lift, [i * a % N for i in support]
