"""Finite subgroups of SU(2) attached to the ADE types.

Each group is enumerated by its image in SL_2(F_p), and everything after
the closure is computed exactly over a cyclotomic field whose conductor N
is the group exponent. Conjugacy classes, character tables, the McKay
matrix, generalized Molien series, and symmetric-power multiplicities are
all computed over that field and collapsed to Q where the theory says they
must be rational.

An element of SU(2) is [[a, b], [-conj(b), conj(a)]], so its top row (a, b)
determines it, and each generator is held as that pair alone: the
generators' unitarity check is exact, a * conj(a) + b * conj(b) = 1. The
closure runs over F_p: ``cyclo.su2_mod_p`` reduces each generator's matrix
by zeta -> omega, omega of order exactly N in F_p^*, p the least prime
= 1 (mod N) dividing no generator denominator, and each x g is one 2x2
product of ints mod p, keyed on its four entries. The reduction is
faithful on the finite group the generators generate, which is the one
premise: p does not divide N, so it is unramified in Q(zeta_N), and p > 2,
so reduction modulo a prime above p has a torsion-free kernel on GL_2 of
the p-integral ring (Minkowski 1887; Serre, "Bounds for the orders of the
finite subgroups of G(k)", 2007) and is injective on every finite
subgroup. The order and class-count gates catch an image that is not.
``_sl2_times`` is the one group product: the closure step, the class
scan's conjugates and the one walk of powers per Galois orbit rep all
multiply the images the call holds, and none is kept past it. The group
keeps each generator's right-multiplication table alone, and
``FiniteSubgroup`` is a record built once, at the end of the call. Each
zeta^r + zeta^-r, 0 <= r <= N/2, is built exactly once into
``FiniteSubgroup.traces``; a class's eigen-exponent e is the r whose image
omega^r + omega^-r, distinct over r <= N/2, is the trace of its rep's
image, and its trace is ``traces[e]``. The D and E tables read their
trace-valued rows there, and read no coordinates: the D rotation classes
are the kernel of the sign character, trivial on generator 0 and -1 on
generator 1, that ``_exponent_labels`` finds on the right tables.

Molien numerators come from one cofactor per orbit rep: the integer
standard form (1-q^a)(1-q^b) divided over Z[x]/(x^N - 1) by det(I - x q),
with no remainder at x = zeta, summed against the character values. They
read the table rows and no symmetric-power code, so the symmetric-power
oracle stays an independent route. The values, the group included, are
``NamedTuple`` records; ``CharTable`` subclasses its fields' tuple
without ``__slots__``, for the instance ``__dict__`` its trace matrix lives
in.

Character tables: a ``CharTable`` is its rows alone, each at the reps of
``G.orbits``, the Galois orbits of classes below, whose orbit 0 is the
identity, so column 0 holds the degrees. The builders compute the reps
alone; only printing writes a row at every class, by
``FiniteSubgroup.expand``. Every table starts from ``_linear_characters``,
the homomorphisms G -> <zeta_N> found by a search over generator images
that reads only the right-multiplication tables. They are the whole table
for A; D adds the characters induced from the rotations; E adds the Galois
conjugates of the defining character V and then walks the McKay graph,
V tensor chi = sum of the chi_j adjacent to chi. Every table must pass
``table_violation`` before use. The McKay matrix is matched onto the
affine graph in one breadth-first pass with no backtracking.

Class sums run over Galois orbits of classes: for a prime to N, C^a is the
class of g^a, g in C, and sigma_a is zeta -> zeta^a. Every summand the
group side sums (characters, Serre, Linear Representations of Finite
Groups, ch. 12; V tensor chi; lambda^m + lambda^-m; the Molien cofactors,
integer polynomials in tau_C) is Galois-equivariant,
f(C^a) = sigma_a(f(C)), so an orbit O adds (|O| / phi(N)) Tr(f(C_O)) at
its rep C_O, and Tr(zeta^k) is the Ramanujan sum c_N(k).
``FiniteSubgroup.orbits`` holds each orbit's rep, size, twists and
stabiliser generators, read off one walk of the powers of the rep x, which
also gives each class C_O^a its order, the class of its inverse and its
trace, read off x^a and x^-a. Every inner product of class functions is
``decompose``, one ``cyclo.trace_sums`` sweep of algebraic integers over
the trace matrix of a table's rows, ``CharTable.trace_matrix``, with no
CycNumber or Fraction built; the E walk grows its matrix row by row, and
the Molien class sums are sweeps of their own, one per cofactor
coefficient. ``table_violation`` checks integrality and then that each
orbit's stabiliser fixes its rep's value, which makes every row
equivariant, before any sum. Every product by a class trace
tau_C = zeta^e_C + zeta^-e_C (V tensor chi, det(I - x q),
lambda^m + lambda^-m) is ``_tau_times``, two rotations of a lift in
Z[x]/(x^N - 1), built at the orbit reps only. The symmetric-power oracle
sums each distinct power sum once, since lambda^m + lambda^-m depends on m
only modulo N and up to m -> N - m. A class of order d has
``trace_min_poly`` ``poly.cos_polynomial(d)``, the fold of Phi_d: zeta^e_C
has order d too.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import add, sub
from typing import NamedTuple

from .cyclo import (CycNumber, TraceMatrix, euler_phi, is_fixed, split,
                    su2_mod_p, trace_rows, trace_sums, vanishes)
from .errors import (ClosureOverflow, NoIsomorphism, NonPolynomialResult,
                     ValidationFailed)
from .graphs import DirectedGraph, DynkinType
from .poly import Polynomial, RationalFunction, cos_polynomial, one_plus_q


TopRow = tuple[CycNumber, CycNumber]


def quaternion(N: int, a, b, c, d) -> TopRow:
    """Unit quaternion a + b i + c j + d k as the top row (a + b i, c + d i)
    of its SU(2) matrix (4 | N)."""
    i = CycNumber.root_of_unity(N, N // 4)
    return a + b * i, c + d * i


def generators(dt: DynkinType) -> list[TopRow]:
    """Standard generators, as top rows: cyclic rotations for A, a rotation
    plus the quaternion j for D, Hurwitz units for E6, adding zeta_8 for E7,
    and an icosian pair for E8."""
    N = dt.conductor
    zero = CycNumber.zero(N)
    if dt.family == "A":
        return [(CycNumber.root_of_unity(N, 1), zero)]
    if dt.family == "D":
        z = CycNumber.root_of_unity(N, N // (2 * (dt.m - 2)))
        return [(z, zero), (zero, CycNumber.one(N))]
    half = Fraction(1, 2)
    if dt.m == 6:
        return [quaternion(N, 0, 1, 0, 0), quaternion(N, 0, 0, 1, 0),
                quaternion(N, -half, half, half, half)]
    if dt.m == 7:
        return [quaternion(N, 0, 1, 0, 0), quaternion(N, 0, 0, 1, 0),
                quaternion(N, -half, half, half, half),
                (CycNumber.root_of_unity(N, N // 8), zero)]
    # E8: golden ratio lives in Q(zeta_5) inside Q(zeta_60)
    phi = -(CycNumber.root_of_unity(N, 24) + CycNumber.root_of_unity(N, 36))
    return [quaternion(N, -half, half, half, half),
            quaternion(N, half * phi, half, 0, half * (phi - 1))]


class ConjClass(NamedTuple):
    rep: int
    members: tuple[int, ...]
    size: int
    order: int
    eigen_exp: int  # trace = zeta^e + zeta^(-e), ``traces[e]`` of the group
    inverse: int  # column in ``classes`` of the class of rep^-1


class GaloisOrbit(NamedTuple):
    """The classes C_O^a, a prime to N, of the class C_O at column ``rep``:
    C^a is the class of g^a for g in C. ``size`` is |O|, ``twists`` holds
    one (column of C, a) with C = C_O^a per other class C of O, and
    ``stabiliser`` generates {a : C_O^a = C_O} in (Z/N)^*."""

    rep: int
    size: int
    twists: tuple[tuple[int, int], ...]
    stabiliser: tuple[int, ...]


class FiniteSubgroup(NamedTuple):
    """Enumerated subgroup with its conjugacy class partition, built once
    by ``enumerate_subgroup``.

    ``right[g][i]`` is the index of element i times generator g, the one
    record of the group's multiplication the closure keeps; ``traces[r]``
    is zeta^r + zeta^-r for 0 <= r <= N/2, and a class's trace is
    ``traces[eigen_exp]``. The closure starts from the identity and the
    class scan from element 0, so element 0 is the identity and
    ``classes[0]`` is {1}.
    """

    dynkin: DynkinType
    conductor: int
    generators: tuple[TopRow, ...]
    right: tuple[tuple[int, ...], ...]
    classes: tuple[ConjClass, ...]
    orbits: tuple[GaloisOrbit, ...]
    traces: tuple[CycNumber, ...]

    @property
    def order(self) -> int:
        return len(self.right[0])

    @property
    def rep_classes(self) -> list[ConjClass]:
        """The class at each Galois orbit's rep, a table's columns, read off
        ``classes`` and ``orbits`` at each call."""
        return [self.classes[o.rep] for o in self.orbits]

    def expand(self, rows) -> list[list[CycNumber]]:
        """Rows held at the orbit reps, at every class: sigma_a(chi(C_O))
        at C = C_O^a for C's stored twist a. A rational value is its own
        image, since sigma_a fixes Q, and every other image is built once
        per distinct (value, a) of the call, keyed on ``sort_key``, which
        unlike the CycNumber's hash builds no Fraction."""
        images: dict[tuple, CycNumber] = {}
        out = []
        for row in rows:
            full = [None] * len(self.classes)
            for o, v in zip(self.orbits, row, strict=True):
                full[o.rep] = v
                if v.is_rational():
                    for cj, _ in o.twists:
                        full[cj] = v
                    continue
                key = v.sort_key()
                for cj, a in o.twists:
                    image = images.get((key, a))
                    if image is None:
                        image = images[key, a] = v.galois(a)
                    full[cj] = image
            out.append(full)
        return out

    def classes_to_json(self) -> list[dict]:
        """Each class's order d, size, trace and the trace's minimal
        polynomial, that of zeta_d + zeta_d^-1: the eigenvalue zeta^e has
        the element's order, so the trace is its Galois conjugate.
        ``cos_polynomial`` caches it, once per order in the process."""
        return [{"order": c.order, "size": c.size,
                 "trace": self.traces[c.eigen_exp].to_json(),
                 "trace_min_poly": cos_polynomial(c.order).to_json()}
                for c in self.classes]


def _sl2_times(x, y, p: int) -> tuple[int, int, int, int]:
    """The product x y mod p of 2x2 matrices held as their entries
    (a, b, c, d) = [[a, b], [c, d]]: the one group product, of the closure
    step, the class scan and the power walks."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def enumerate_subgroup(gens: list[TopRow], dt: DynkinType) -> FiniteSubgroup:
    """Breadth-first closure under right multiplication by the generators,
    recording each generator's right-multiplication table; then conjugacy
    classes as orbits of generator conjugation, and their Galois orbits in
    one pass: the powers of the rep x of each new orbit are walked once,
    and each a prime to N, in increasing order, places the class of x^a
    with x's order, the column of x^-a's class and the trace of x^a. The
    least a reaching a class is its twist; the a returning to x's class are
    its stabiliser, whose generators are taken greedily, each one outside
    the subgroup the earlier ones generate.

    Each generator is a top row (a, b), standing for the matrix
    [[a, b], [-conj(b), conj(a)]], which is special unitary exactly when
    a * conj(a) + b * conj(b) = 1, two exact CycNumber products; a
    generator failing that raises ``ValueError``. Everything until the
    record is built runs over F_p: ``cyclo.su2_mod_p`` maps each generator
    to its 2x2 matrix under zeta -> omega, omega of order exactly N in
    F_p^*, p the least prime = 1 (mod N) dividing no generator denominator,
    and every group product is ``_sl2_times`` of those images, each image
    keyed on its four ints: the closure step x g, the conjugate g x g^-1,
    g^-1 = (d, -b, -c, a) at determinant 1, and each power step. The
    images are dropped with the call. The image is faithful: p is prime to
    N, so unramified in Q(zeta_N), and odd, so reduction modulo a prime
    above p has a torsion-free kernel on GL_2 of the p-integral ring
    (Minkowski 1887; Serre, "Bounds for the orders of the finite subgroups
    of G(k)", 2007) and is injective on every finite subgroup. The one
    premise is that the generators generate a finite group; the closure
    must reach exactly the expected order and class count, or
    ``ValidationFailed`` is raised, which also catches a non-faithful image,
    and so does a power walk running past |G| steps.

    ``traces`` holds zeta^r + zeta^-r for 0 <= r <= N/2, each built
    exactly once from the lift x^r + x^-r, and a class's eigen-exponent is
    the r whose image omega^r + omega^-r is its rep's image trace. r and
    N - r give the same trace, and for omega of order N the images for
    r <= N/2 are distinct, or ``ValidationFailed`` is raised; an image
    trace among none of them raises ``ValueError``."""
    N = gens[0][0].N
    for a, b in gens:
        if a * a.conj() + b * b.conj() != 1:
            raise ValueError(f"generator is not special unitary: ({a}, {b})")
    p, w, steps = su2_mod_p(N, gens)
    limit = 2 * dt.group_order
    images = [(1, 0, 0, 1)]
    index = {images[0]: 0}
    right: list[list[int]] = [[] for _ in gens]
    for x in images:  # grows as elements are found
        for row, step in zip(right, steps):
            y = _sl2_times(x, step, p)
            j = index.get(y)
            if j is None:
                if len(images) >= limit:
                    raise ClosureOverflow(
                        f"closure of {dt} exceeded {limit} elements")
                j = index[y] = len(images)
                images.append(y)
            row.append(j)
    if len(images) != dt.group_order:
        raise ValidationFailed(f"{dt}: closure has {len(images)} elements, "
                               f"expected {dt.group_order}")

    inverses = [(h, -f % p, -g % p, e) for e, f, g, h in steps]
    class_of = [-1] * len(images)
    partition: list[tuple[int, ...]] = []  # each class's members, rep first
    for i in range(len(images)):
        if class_of[i] >= 0:
            continue
        orbit, stack = {i}, [i]
        while stack:
            x = images[stack.pop()]
            for step, inv in zip(steps, inverses):
                j = index[_sl2_times(_sl2_times(step, x, p), inv, p)]
                if j not in orbit:
                    orbit.add(j)
                    stack.append(j)
        for j in orbit:
            class_of[j] = len(partition)
        partition.append(tuple(sorted(orbit)))
    if len(partition) != dt.rank + 1:
        raise ValidationFailed(
            f"{dt}: {len(partition)} classes, expected {dt.rank + 1}")
    unit = [1] + [0] * (N - 1)
    traces = tuple(CycNumber.from_lift(N, _tau_times(unit, r))
                   for r in range(N // 2 + 1))
    exps = {(pow(w, r, p) + pow(w, -r, p)) % p: r for r in range(N // 2 + 1)}
    if len(exps) != N // 2 + 1:
        raise ValidationFailed(f"{dt}: omega = {w} mod {p} is not of order "
                               f"{N}: its traces omega^r + omega^-r repeat")
    units = [a for a in range(1, N + 1) if gcd(a, N) == 1]
    classes: list[ConjClass | None] = [None] * len(partition)
    orbits = []
    for ci in range(len(partition)):
        if classes[ci] is not None:
            continue
        rep = partition[ci][0]
        x = y = images[rep]
        powers = [0]  # x^a is element powers[a mod order]
        while y != images[0]:
            if len(powers) >= len(images):
                raise ValidationFailed(f"{dt}: element {rep} has no power "
                                       f"equal to the identity")
            powers.append(index[y])
            y = _sl2_times(y, x, p)
        order = len(powers)
        twists: dict[int, int] = {}
        stabiliser, fixed = [], {1}  # the subgroup stabiliser generates
        for a in units:
            xa, inv = powers[a % order], powers[-a % order]
            cj = class_of[xa]
            if classes[cj] is None:
                trace = (images[xa][0] + images[xa][3]) % p
                if trace not in exps:
                    raise ValueError(f"trace {trace} mod {p} is not a sum "
                                     f"omega^e + omega^-e")
                members = partition[cj]
                classes[cj] = ConjClass(members[0], members, len(members),
                                        order, exps[trace], class_of[inv])
            if cj != ci:
                twists.setdefault(cj, a)
            elif a not in fixed:
                stabiliser.append(a)
                grown, power = set(fixed), a
                while power not in fixed:
                    grown |= {f * power % N for f in fixed}
                    power = power * a % N
                fixed = grown
        orbits.append(GaloisOrbit(ci, 1 + len(twists), tuple(twists.items()),
                                  tuple(stabiliser)))
    return FiniteSubgroup(dt, N, tuple(gens), tuple(map(tuple, right)),
                          tuple(classes), tuple(orbits), traces)


def build_group(dt: DynkinType) -> FiniteSubgroup:
    return enumerate_subgroup(generators(dt), dt)


class CharTable(NamedTuple("CharTable", [
        ("values", tuple[tuple[CycNumber, ...], ...])])):
    """Rows are irreducible characters (row 0 trivial) at the reps of the
    group's Galois ``orbits``, so column 0, the identity, holds the
    degrees; ``to_json`` writes them at every class by ``G.expand``.

    ``trace_matrix`` is the one trace matrix of the rows that validation,
    the McKay matrix, the Molien numerators and the Sym^m oracle all sweep,
    kept in the instance ``__dict__`` this subclass of its fields' tuple
    has: built on the first read, or handed over by ``with_trace_matrix``
    from the E walk that grew it row by row. It is no field, so equality
    reads the rows alone."""

    @classmethod
    def with_trace_matrix(cls, values, matrix: TraceMatrix) -> CharTable:
        """The table of ``values`` keeping ``matrix``, the trace matrix of
        its rows, built by whoever found the rows."""
        table = cls(values)
        table.__dict__["trace_matrix"] = matrix
        return table

    @cached_property
    def trace_matrix(self) -> TraceMatrix:
        """The ``cyclo.trace_rows`` matrix of the rows, over their field."""
        return trace_rows(self.values[0][0].N, self.values)

    @property
    def degrees(self) -> tuple[int, ...]:
        """chi_i(1), column 0: a positive integer on a valid table."""
        return tuple(int(row[0].to_rational()) for row in self.values)

    def to_json(self, G: FiniteSubgroup) -> dict:
        """The degrees and every row at each of G's classes. Each distinct
        value's JSON object is built once, keyed on ``sort_key``, and every
        entry equal to it holds that one object, which ``json_text`` then
        writes once per indent."""
        objects: dict[tuple, dict] = {}
        values = []
        for row in G.expand(self.values):
            out = []
            for v in row:
                key = v.sort_key()
                obj = objects.get(key)
                if obj is None:
                    obj = objects[key] = v.to_json()
                out.append(obj)
            values.append(out)
        return {"degrees": list(self.degrees), "values": values}


def decompose(G: FiniteSubgroup, values, rows) -> list[int | Fraction]:
    """Hermitian inner products (1/|G|) sum_C |C| f(C) conj(chi(C)) of the
    class function f with each row chi, collapsed to Q: an int where the
    product is integral, else a Fraction. ``values`` are f's integral
    entries (CycNumbers or lifts) at G's orbit reps, the columns of a
    table, and ``rows`` the ``cyclo.trace_rows`` matrix of the rows there,
    one a table keeps (``CharTable.trace_matrix``) or the E walk grows.

    f and chi must be Galois-equivariant, f(C^a) = sigma_a(f(C)) for a
    prime to N, as characters are (Serre, Linear Representations of Finite
    Groups, ch. 12) and so are V tensor chi and lambda^m + lambda^-m. Then
    so is f conj(chi), and |C^a| = |C|, since x -> x^a permutes G and
    commutes with conjugation; each class of an orbit O is C_O^a for
    phi(N) / |O| of the a, so the orbit's share of the sum is
    |C_O| (|O| / phi(N)) Tr(f(C_O) conj(chi(C_O))), and Tr is unchanged
    by complex conjugation, so it is Tr(conj(f(C_O)) chi(C_O)). That is one
    ``trace_sums`` sweep of f, split conjugated, over the rows' trace matrix,
    each orbit weighted by |C_O| |O| and every sum divided by phi(N) times
    the total weight, sum_C |C| = |G|.
    """
    N = G.conductor
    weights, divisor = _orbit_weights(G)
    return trace_sums(N, split(N, values, conj=True), rows, weights, divisor)


def _orbit_weights(G: FiniteSubgroup) -> tuple[list[int], int]:
    """Per Galois orbit O the weight |C_O| |O| and the divisor
    phi(N) sum_O |C_O| |O| of an orbit trace sum."""
    weights = [c.size * o.size for c, o in zip(G.rep_classes, G.orbits)]
    return weights, euler_phi(G.conductor) * sum(weights)


def _tau_times(c, e: int) -> list[int]:
    """(x^e + x^-e) c for a lift c in Z[x]/(x^N - 1), N = len(c), as two
    rotations of c: at x = zeta_N, the product by a class trace tau_C."""
    e %= len(c)
    return list(map(add, c[-e:] + c[:-e], c[e:] + c[:e]))


def _multiplicities(mults, what: str) -> list[int]:
    """Multiplicities of ``what``, which must be nonnegative integers."""
    for m in mults:
        if m.denominator != 1 or m < 0:
            raise ValidationFailed(f"{what} has multiplicity {m}")
    return [int(m) for m in mults]


def char_table(dt: DynkinType, G: FiniteSubgroup) -> CharTable:
    if dt.family == "E":
        table = _e_type_table(dt, G)
    else:
        rows = (_linear_characters(G) if dt.family == "A"
                else _binary_dihedral_table(dt, G))
        table = CharTable(tuple(tuple(r) for r in rows))
    problem = table_violation(table, G)
    if problem is not None:
        raise ValidationFailed(problem)
    return table


def _exponent_labels(G: FiniteSubgroup, ks) -> list[int] | None:
    """The exponent e_i of zeta^e_i = chi(element i) for the assignment
    chi(generator g) = zeta^ks[g], or None when some Cayley edge
    i -> ``right[g][i]`` does not add ks[g], so no character extends it.
    Each element is reached in the closure from an earlier one, so one pass
    in index order labels every element before it is read."""
    N = G.conductor
    label: list[int | None] = [0] + [None] * (G.order - 1)
    for i in range(G.order):
        for step, k in zip(G.right, ks):
            e, j = (label[i] + k) % N, step[i]
            if label[j] is None:
                label[j] = e
            elif label[j] != e:
                return None
    return label


def _linear_characters(G: FiniteSubgroup) -> list[list[CycNumber]]:
    """Every degree-1 character, a homomorphism G -> <zeta_N>, as a row at
    G's orbit reps: each generator g is sent to a zeta^k_g whose order
    divides ord(g), the order of the class holding g, and the assignments
    that ``_exponent_labels`` extends are kept. The all-zero assignment
    comes first, so row 0 is trivial; each root of unity is built once."""
    N = G.conductor
    orders = [next(c.order for c in G.classes if step[0] in c.members)
              for step in G.right]
    roots: dict[int, CycNumber] = {}
    rows = []
    for ks in product(*(range(0, N, N // n) for n in orders)):
        label = _exponent_labels(G, ks)
        if label is None:
            continue
        exps = [label[c.rep] for c in G.rep_classes]
        for e in exps:
            if e not in roots:
                roots[e] = CycNumber.root_of_unity(N, e)
        rows.append([roots[e] for e in exps])
    return rows


def _binary_dihedral_table(dt: DynkinType, G: FiniteSubgroup):
    """The four linear characters, then for 1 <= l < k = m - 2 the character
    induced from the rotation subgroup: zeta^(l e_C) + zeta^-(l e_C) on a
    rotation class and 0 elsewhere, read from ``G.traces`` at
    min(l e_C mod N, -l e_C mod N). The rotations are the kernel of the
    linear character trivial on generator 0 and -1 on generator 1: the
    classes ``_exponent_labels`` labels 0 under (0, N/2), so no coordinate
    is read. No such character raises ``ValidationFailed``."""
    N = G.conductor
    zero = CycNumber.zero(N)
    sign = _exponent_labels(G, (0, N // 2))
    if sign is None:
        raise ValidationFailed(f"{dt}: no linear character is -1 on "
                               f"generator 1 and trivial on generator 0")
    return _linear_characters(G) + [
        [G.traces[min(ell * c.eigen_exp % N, -ell * c.eigen_exp % N)]
         if sign[c.rep] == 0 else zero for c in G.rep_classes]
        for ell in range(1, dt.m - 2)]


def _e_type_table(dt: DynkinType, G: FiniteSubgroup) -> CharTable:
    """One walk of the McKay graph, V tensor chi = sum of the chi_j adjacent
    to chi (McKay 1980), over a growing list of found rows, all at the
    orbit reps: the linear characters and the distinct Galois conjugates
    sigma_a V, 1 <= a <= N/2 prime to N (V is real), read from
    ``G.traces``. On E8 sigma_7 V is the second two-dimensional character,
    which no walk from the linear rows reaches: V tensor chi of the
    six-dimensional one leaves two new rows at once. For each found row chi,
    appended ones included, V tensor chi is one ``_tau_times`` lift per
    entry, and one ``decompose`` over the found rows' trace matrix gives
    its multiplicities m; the found rows are orthonormal, so
    V tensor chi - sum m_j chi_j is a new irreducible exactly when
    <V tensor chi, V tensor chi> - sum m_j^2 = 1, and its entry at o is
    one CycNumber, ``from_lift`` of the int lift
    t_o - sum m_j ``to_lift``(chi_j[o]) over the nonzero m, t_o the
    ``_tau_times`` lift. tau_C is real, so the norm is <tau^2 chi, chi>,
    entry chi of a ``decompose`` of tau V tensor chi over the same matrix,
    which grows by each new row's trace forms, so only table rows get them.
    Row 0 is trivial, the rest sorted by their entries' ``sort_key`` in
    turn, distinct on E6, E7 and E8: by degree first, a degree d in
    column 0 keying as (1, (d, 0, ...)). The table keeps the matrix, rows
    in that order."""
    N = G.conductor
    e_reps = [c.eigen_exp for c in G.rep_classes]
    rows = _linear_characters(G)
    conjugates = dict.fromkeys(
        tuple(min(a * e % N, -a * e % N) for e in e_reps)
        for a in range(1, N // 2 + 1) if gcd(a, N) == 1)
    rows += [[G.traces[r] for r in exps] for exps in conjugates]
    matrix = trace_rows(N, rows)
    for r, chi in enumerate(rows):
        tensor = [_tau_times(v.to_lift(), e) for v, e in zip(chi, e_reps)]
        mults = _multiplicities(decompose(G, tensor, matrix),
                                f"{dt}: V x chi")
        norm = decompose(G, list(map(_tau_times, tensor, e_reps)), matrix)[r]
        if norm - sum(m * m for m in mults) == 1:
            used = [(m, rows[j]) for j, m in enumerate(mults) if m]
            new = []
            for i, lift in enumerate(tensor):
                for m, row in used:
                    lift = list(map(sub, lift, map(m.__mul__,
                                                   row[i].to_lift())))
                new.append(CycNumber.from_lift(N, lift))
            rows.append(new)
            matrix.extend(trace_rows(N, [rows[-1]]))
    if len(rows) < len(G.classes):
        raise ValidationFailed(f"{dt}: irreducible search did not saturate")
    order = [0] + sorted(range(1, len(rows)), key=lambda j: tuple(
        v.sort_key() for v in rows[j]))
    return CharTable.with_trace_matrix(
        tuple(tuple(rows[j]) for j in order), matrix.reordered(order))


def table_violation(table: CharTable, G: FiniteSubgroup) -> str | None:
    """First violated relation, or None when the table is valid.

    The columns are the reps of ``G.orbits``, the identity first. Checked:
    k rows of one entry per orbit, the trivial row 0, each chi_i(1) a
    positive integer, entries in Z[zeta_N] (Serre 6.5), stabiliser
    invariance and row orthonormality.

    A row stands for the class function chi(C_O^a) = sigma_a(chi(C_O)), a
    prime to N, that ``FiniteSubgroup.expand`` writes out. It is well
    defined exactly when chi(C_O) = sigma_s(chi(C_O)) at each stabiliser
    generator s, by ``is_fixed``: if C_O^a = C_O^b, a/b fixes C_O. A
    rational value passes with no lift built, since sigma_s fixes Q.
    Then chi(C^a) = sigma_a(chi(C)) for every class C and a prime to N
    (a = -1 is conjugate symmetry), on which alone ``decompose``'s one
    field trace per orbit is exact, so this gate comes before it.

    Implied (Serre, Linear Representations of Finite Groups, 2.5): row
    orthonormality reads X W X* = |G| I with W = diag(|C|), so the square
    table X is invertible and X* X = |G| W^-1; that is column orthogonality,
    at the identity column sum_i chi_i(1)^2 = |G|, and every class function
    f equals sum_i <f, chi_i> chi_i. The defining character's multiplicities
    are checked once, as row 0 of ``mckay_matrix``, V tensor 1 = V, under the
    same nonnegative-integer gate.
    """
    k, n = len(G.classes), len(G.orbits)
    values = table.values
    if len(values) != k:
        return f"{len(values)} rows for {k} classes"
    for i, row in enumerate(values):
        if len(row) != n:
            return f"chi_{i} has {len(row)} entries for {n} orbits"
    if any(not v == 1 for v in values[0]):
        return "row 0 is not the trivial character"
    for i, row in enumerate(values):
        d = row[0]
        if not (d.is_rational() and d.to_rational().denominator == 1
                and d.to_rational() > 0):
            return f"chi_{i}(1) = {d} is not a positive integer"
        for o, v in zip(G.orbits, row):
            if not v.is_integral():
                return f"chi_{i}(C_{o.rep}) = {v} is not an algebraic integer"
    N = G.conductor
    for j, o in enumerate(G.orbits):
        for s in o.stabiliser:
            for i, row in enumerate(values):
                if not is_fixed(N, row[j], s):
                    return (f"chi_{i} is not Galois-equivariant: "
                            f"chi(C_{o.rep}) != sigma_{s}(chi(C_{o.rep}))")
    matrix = table.trace_matrix
    for i, row in enumerate(values):
        for j, got in enumerate(decompose(G, row, matrix)[i:], i):
            if got != (1 if i == j else 0):
                return f"row orthogonality fails at ({i},{j}): {got}"
    return None


class McKayResult(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]
    bijection: tuple[int, ...]  # table row -> affine node


def mckay_matrix(G: FiniteSubgroup, table: CharTable, affine: DirectedGraph,
                 marks: tuple[int, ...]) -> McKayResult:
    """Multiplicities of chi_j inside V tensor chi_i (``decompose`` of the
    lifts ``_tau_times``, built at the orbit reps only, one sweep per i over
    the table's trace matrix), plus the node bijection onto the affine graph
    (trivial character -> node 0), matching degrees against the marks."""
    k = len(G.classes)
    rows = table.trace_matrix
    matrix = tuple(
        tuple(_multiplicities(decompose(
            G, [_tau_times(v.to_lift(), c.eigen_exp)
                for v, c in zip(row, G.rep_classes)], rows),
            f"{G.dynkin}: V x chi_{i}"))
        for i, row in enumerate(table.values))
    if any(matrix[i][j] != matrix[j][i] for i in range(k) for j in range(i)):
        raise NoIsomorphism(f"{G.dynkin}: McKay matrix is not symmetric")
    bijection = _match_affine(matrix, table.degrees, affine, marks)
    return McKayResult(matrix, bijection)


def _match_affine(A, degrees, g: DirectedGraph, marks) -> tuple[int, ...]:
    """Rows onto the nodes of g, the trivial row onto node 0, in one
    breadth-first pass over the McKay graph A: each row, as it is reached,
    takes the first unused node whose mark is its degree and whose
    multiplicities to the nodes of every placed row are A's. There is no
    backtracking; a row no node fits raises ``NoIsomorphism``, and so does a
    row the pass never reaches."""
    k, mult = g.n, g.mult
    if degrees[0] != marks[0]:
        raise NoIsomorphism(f"no bijection onto affine {g.dynkin}")
    assign = {0: 0}  # row -> node
    used = {0}
    order = [0]
    for row in order:  # grows as rows are placed
        for j in range(k):
            if not A[row][j] or j in assign:
                continue
            for node in range(k):
                if node not in used and marks[node] == degrees[j] and all(
                        A[j][q] == mult[node][p] and A[q][j] == mult[p][node]
                        for q, p in assign.items()):
                    break
            else:
                raise NoIsomorphism(f"no bijection onto affine {g.dynkin}")
            assign[j] = node
            used.add(node)
            order.append(j)
    if len(order) != k:
        raise NoIsomorphism("McKay graph is disconnected")
    return tuple(assign[i] for i in range(k))


class MolienSet(NamedTuple):
    """Per irreducible character: the numerator N_i of its Molien series
    m_i = N_i / ((1-q^a)(1-q^b)), the standard form."""

    dynkin: DynkinType
    numerators: tuple[Polynomial, ...]

    @property
    def series(self) -> tuple[RationalFunction, ...]:
        """Each m_i reduced over Z, built anew on each read."""
        std = self.dynkin.standard_form
        return tuple(RationalFunction(n, std) for n in self.numerators)

    def coefficients(self, i: int, n: int) -> list[int]:
        """The first n Taylor coefficients of m_i: N_i's coefficients run
        through one strided prefix sum per factor, since 1/(1-q^s) adds in
        the coefficient s places below."""
        c = [self.numerators[i].coefficient(k) for k in range(n)]
        for s in self.dynkin.standard_ab:
            for k in range(s, n):
                c[k] += c[k - s]
        return c

    def to_json(self, degrees) -> dict:
        """The series per character, each with its degree from ``degrees``,
        column 0 of the character table the numerators were read from."""
        a, b = self.dynkin.standard_ab
        return {"type": str(self.dynkin), "h": self.dynkin.coxeter_number,
                "a": a, "b": b,
                "characters": [{"degree": d, "numerator": n.to_json(),
                                "molien": s.to_json()}
                               for d, n, s in zip(degrees, self.numerators,
                                                  self.series, strict=True)]}


def _cofactor_lifts(std: tuple[int, ...], e: int, N: int, dt: DynkinType):
    """std / (1 - (x^e + x^-e) q + q^2) by synthetic division over
    Z[x]/(x^N - 1), coefficients ascending, (x^e + x^-e) c by ``_tau_times``;
    a remainder nonzero at x = zeta_N raises NonPolynomialResult."""
    r = [[c] + [0] * (N - 1) for c in std]
    for k in range(len(r) - 1, 1, -1):
        c = r[k]
        r[k - 1] = list(map(add, r[k - 1], _tau_times(c, e)))
        r[k - 2] = list(map(sub, r[k - 2], c))
    if not all(vanishes(N, c) for c in r[:2]):
        raise NonPolynomialResult(
            f"{dt}: 1 - (z^{e} + z^-{e}) q + q^2 does not divide the standard form")
    return [tuple(c) for c in r[2:]]


def molien_series(G: FiniteSubgroup, table: CharTable) -> MolienSet:
    """Generalized Molien series m_i = (1/|G|) sum_x chi_i(x)/det(I - x q)
    in standard form N_i/((1-q^a)(1-q^b)).

    det(I - x q) = 1 - trace(x) q + q^2 is constant on a class C and divides
    the standard form, so each class has a cofactor P_C of degree h with
    (1 - tau_C q + q^2) P_C = (1-q^a)(1-q^b), and
    N_i = (1/|G|) sum_C |C| chi_i(C) P_C, collapsed to Q, with P_C's
    coefficients lifts in Z[x]/(x^N - 1), built with no cyclotomic product.
    P_C's coefficients are integer polynomials in tau_C, so
    sigma_a(P_C) = P_(C^a), and chi_i P_C is Galois-equivariant: the
    cofactors are built at the orbit reps only (the remainder at C^a is
    sigma_a of the one at C, so it vanishes with it). Coefficient j of
    every N_i is one ``trace_sums`` sweep of the column of coefficients j of
    the P_C, read by ``split``, over the table's trace matrix,
    Tr(chi_i P_C) with no conjugation, weighted as in ``decompose``, each
    read as an int: h + 1 sweeps.
    """
    dt = G.dynkin
    N = G.conductor
    h = dt.coxeter_number
    std = dt.standard_form.coeffs
    matrix = table.trace_matrix
    weights, divisor = _orbit_weights(G)
    # column j holds coefficient j of every orbit rep's P_C
    sums = [trace_sums(N, split(N, col), matrix, weights, divisor)
            for col in zip(*(_cofactor_lifts(std, c.eigen_exp, N, dt)
                             for c in G.rep_classes))]
    numerators = []
    for coeffs in zip(*sums):
        for v in coeffs:
            if v.denominator != 1 or v < 0:
                raise NonPolynomialResult(
                    f"{dt}: numerator coefficient {v} is not a nonnegative integer")
        numerators.append(Polynomial("q", list(coeffs)))
    if numerators[0] != one_plus_q(h):
        raise NonPolynomialResult(f"{dt}: trivial numerator is not 1 + q^{h}")
    return MolienSet(dt, tuple(numerators))


def sym_power_multiplicities(G: FiniteSubgroup, table: CharTable,
                             mmax: int) -> tuple[tuple[int, ...], ...]:
    """Row m lists the multiplicity of each irreducible inside Sym^m of the
    defining representation, via eigenvalue power sums per class:
    Sym^m = Sym^(m-2) + lambda^m + lambda^-m, where lambda^s is the class
    function zeta^(s e_C) and lambda^m + lambda^-m is the lift
    x^(m e_C) + x^-(m e_C), ``_tau_times`` of 1, handed to ``decompose``.
    The recurrence starts at Sym^-2 = -1 and Sym^-1 = 0, the Weyl character
    (lambda^(m+1) - lambda^-(m+1)) / (lambda - lambda^-1) at m = -2, -1, so
    Sym^0 needs no case of its own.

    lambda^m + lambda^-m reads m only modulo N and is unchanged by
    m -> N - m, so it is summed once, ``sums[r]``, per
    r = min(m mod N, -m mod N), and m = r reaches each r <= min(mmax, N/2):
    at most floor(N/2) + 1 ``decompose`` sweeps, each with one term per
    Galois orbit, over the table's trace matrix."""
    N = G.conductor
    k = len(table.values)
    rows = table.trace_matrix
    one = [1] + [0] * (N - 1)
    # <lambda^r + lambda^-r, chi_i> per row
    sums = [decompose(G, [_tau_times(one, r * c.eigen_exp)
                          for c in G.rep_classes], rows)
            for r in range(min(mmax, N // 2) + 1)]
    out = []
    # <Sym^-2, chi_i> and <Sym^-1, chi_i>; row 0 is the trivial one
    prev2 = [-1] + [0] * (k - 1)
    prev1 = [0] * k
    for m in range(mmax + 1):
        vals = [p + s for p, s in zip(prev2, sums[min(m % N, -m % N)])]
        out.append(tuple(_multiplicities(vals, f"{G.dynkin}: Sym^{m}")))
        prev2, prev1 = prev1, vals
    return tuple(out)


def recurrence_check(mset: MolienSet, matrix) -> bool:
    """(q + 1/q) m_i = sum over successors of m_j, cleared of the standard
    form: (q^2 + 1) N_i - q sum_j A_ij N_j = 0 in Z[q].

    Successor sums live on the semi-affine graph, so the identity binds every
    row except the trivial one (its node is a sink); there the defect of
    (q + 1/q) m_0 is forced to be exactly 1/q by the specialization identity,
    i.e. the cleared defect is the standard form (1 - q^a)(1 - q^b), and that
    is checked too. It reads only the numerators, the standard form of the
    type and the McKay matrix.
    """
    std = mset.dynkin.standard_form
    for i, ni in enumerate(mset.numerators):
        acc = Polynomial.zero("q")
        for j, nj in enumerate(mset.numerators):
            if matrix[i][j]:
                acc = acc + nj.scaled(matrix[i][j])
        defect = ni.shifted(2) + ni - acc.shifted(1)
        if defect != (std if i == 0 else 0):
            return False
    return True
