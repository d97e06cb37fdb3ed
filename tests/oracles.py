"""Independent reference implementations used only to generate or check
expected values in tests. These deliberately avoid the code paths they
are checking."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from adeweights.cyclo import CycNumber
from adeweights.errors import ValidationFailed
from adeweights.groups import _exponent_labels
from adeweights.poly import Polynomial, cox


def moebius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def cyclotomic_moebius(n: int) -> Polynomial:
    """Phi_n as the Moebius product of (q^d - 1)^(mu(n/d))."""
    num = Polynomial.one("q")
    den = Polynomial.one("q")
    for d in range(1, n + 1):
        if n % d == 0:
            mu = moebius(n // d)
            if mu == 0:
                continue
            factor = Polynomial("q", (-1,) + (0,) * (d - 1) + (1,))
            if mu == 1:
                num = num * factor
            else:
                den = den * factor
    return num.exact_div(den)


def det_bareiss(rows: list[list[Polynomial]]) -> Polynomial:
    """Fraction-free determinant of a polynomial matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    var = m[0][0].var
    sign = 1
    prev = Polynomial.one(var)
    for k in range(n - 1):
        if m[k][k].is_zero():
            sel = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if sel is None:
                return Polynomial.zero(var)
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = Polynomial.zero(var)
        prev = m[k][k]
    return m[n - 1][n - 1].scaled(sign)


def char_poly_bareiss(mult) -> Polynomial:
    """det(tI - M) via the Bareiss determinant over Z[t], independent of
    ``graphs.char_poly``, which runs LeVerrier's power traces on ints."""
    n = len(mult)
    t = Polynomial.monomial("t", 1)
    rows = [[(t if i == j else Polynomial.zero("t")) - mult[i][j]
             for j in range(n)] for i in range(n)]
    return det_bareiss(rows)


def krylov_minpoly(mult) -> Polynomial:
    """Minimal polynomial of A relative to b, as a monic Polynomial in t,
    for a semi-affine multiplicity matrix: A is ``mult`` restricted to the
    nodes 1..r and ``b_i = mult[i][0]`` (the edges into the affine node).

    The reduced t-weights solve (tI - A) n = b with A symmetric, so
    n = sum_lambda P_lambda b / (t - lambda) and their LCD is the product of
    (t - lambda) over the eigenvalues whose projection of b is nonzero: this
    polynomial. It is found from the Krylov sequence b, Ab, A^2 b, ...
    (Wiedemann 1986): integer matrix-vector products, with Fraction
    elimination stopping at the first vector in the span of the earlier ones.
    No solver or rational-function code is used.
    """
    r = len(mult) - 1
    A = [[mult[i][j] for j in range(1, r + 1)] for i in range(1, r + 1)]
    v = [mult[i][0] for i in range(1, r + 1)]
    # echelon rows: (pivot, vector, its coefficients over v_0..v_r)
    rows: list[tuple[int, list[Fraction], list[Fraction]]] = []
    for k in range(r + 1):
        w = [Fraction(x) for x in v]
        combo = [Fraction(int(j == k)) for j in range(r + 1)]
        for p, vec, cmb in rows:
            if w[p]:
                f = w[p] / vec[p]
                w = [x - f * y for x, y in zip(w, vec)]
                combo = [x - f * y for x, y in zip(combo, cmb)]
        if not any(w):
            return Polynomial("t", combo)
        pivot = next(i for i, x in enumerate(w) if x)
        rows.append((pivot, w, combo))
        v = [sum(a * x for a, x in zip(row, v)) for row in A]
    raise AssertionError("Krylov sequence exceeded the dimension")


def lcd_law(dt) -> Polynomial:
    """The least common denominator of the t-weights of type ``dt`` by the
    per-family law, from ``cox`` products alone:

    - A_m (h = m+1): the product of cox(d) over d | h with h/d odd, d >= 2;
    - D_m (h = 2m-2): the same product over d >= 3;
    - E6, E7, E8: cox(h).

    For A, b = e_1 + e_m is symmetric under the path's reflection, so it
    meets exactly the eigenvectors sin(jk pi/h) with k odd, of eigenvalue
    2cos(k pi/h); grouping the odd k by d = h/gcd(k, h) gives the roots of
    cox(d), the fold of Phi_2d. No solver or rational-function code is used.
    """
    h = dt.coxeter_number
    if dt.family == "E":
        return cox(h)
    least = 2 if dt.family == "A" else 3
    out = Polynomial.one("t")
    for d in range(least, h + 1):
        if h % d == 0 and (h // d) % 2 == 1:
            out = out * cox(d)
    return out


def euclid_gcd(a: Polynomial, b: Polynomial) -> list[Fraction]:
    """Monic gcd over Q as ascending Fraction coefficients ([] when both are
    zero), by Euclid's algorithm on coefficient lists; no PRS, content or
    Polynomial division is used."""
    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def remainder(p, d):
        p = list(p)
        while len(p) >= len(d):
            f = p[-1] / d[-1]
            shift = len(p) - len(d)
            for j, c in enumerate(d):
                p[shift + j] -= f * c
            strip(p)
        return p

    x = strip([Fraction(c) for c in a.coeffs])
    y = strip([Fraction(c) for c in b.coeffs])
    while y:
        x, y = y, remainder(x, y)
    return [c / x[-1] for c in x]


def series_coefficients(rf, nterms: int) -> list[int]:
    """First ``nterms`` Taylor coefficients of a reduced rational function
    ``rf`` at 0, in Z, by long division of its numerator by its denominator;
    raises ``ValueError`` unless den(0) = +-1."""
    den = rf.den
    d0 = den.coefficient(0)
    if d0 not in (1, -1):
        raise ValueError(f"denominator {den} is {d0} at 0, not a unit of Z")
    out = []
    for k in range(nterms):
        acc = rf.num.coefficient(k)
        for j in range(1, min(k, den.degree) + 1):
            acc = acc - den.coefficient(j) * out[k - j]
        out.append(acc * d0)
    return out


def _list_mul(p, r):
    out = [0] * (len(p) + len(r) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(r):
            out[i + j] = out[i + j] + x * y
    return out


def _list_divmod_monic(p, d):
    """Quotient and remainder of coefficient lists by a divisor with
    leading 1, by synthetic division."""
    p = list(p)
    quo = [0] * (len(p) - len(d) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = p[k + len(d) - 1]
        for j, y in enumerate(d):
            p[k + j] = p[k + j] - c * y
    return quo, p[:len(d) - 1]


def _list_div_monic(p, d):
    """Exact quotient of coefficient lists by a divisor with leading 1."""
    quo, rem = _list_divmod_monic(p, d)
    assert all(x == 0 for x in rem), "inexact division"
    return quo


def remainder(p: Polynomial, d: Polynomial) -> Polynomial:
    """p mod d in Z[x] for a divisor d with leading coefficient 1, on
    coefficient lists; no Polynomial division is used."""
    if d.coeffs[-1:] != (1,):
        raise ValueError(f"divisor {d} does not have leading coefficient 1")
    return Polynomial(p.var, _list_divmod_monic(p.coeffs, d.coeffs)[1])


def su2_matrix(row):
    """The full matrix [[a, b], [-conj(b), conj(a)]] of the SU(2) element
    whose top row is (a, b), as a tuple of rows."""
    a, b = row
    return (a, b), (-b.conj(), a.conj())


def matrix_product(x, y):
    """2x2 matrix product by CycNumber ``*`` and ``+``; x may be a tuple
    of its top row alone, which gives the top row of x y."""
    return tuple(tuple(r[0] * y[0][j] + r[1] * y[1][j] for j in range(2))
                 for r in x)


def matrix_trace(m):
    return m[0][0] + m[1][1]


def matrix_inverse(m):
    """The conjugate transpose, the inverse of a unitary matrix."""
    return ((m[0][0].conj(), m[1][0].conj()),
            (m[0][1].conj(), m[1][1].conj()))


def exact_closure(gens):
    """The breadth-first closure of the top rows ``gens`` under right
    multiplication, exact over Q(zeta_N) and keyed on each element's top
    row: the top row of x g is x's top row times g's ``su2_matrix`` by
    ``matrix_product``, four CycNumber products. Returns
    the elements' top rows, their generator words and each generator's
    right-multiplication table, in the order ``groups.enumerate_subgroup``
    gives, with no order limit: the generators must generate a finite
    group."""
    N = gens[0][0].N
    one, zero = CycNumber.one(N), CycNumber.zero(N)
    elements = [(one, zero)]
    index = {(one.sort_key(), zero.sort_key()): 0}
    matrices = [su2_matrix(g) for g in gens]
    words = [()]
    right = [[] for _ in gens]
    for pos, x in enumerate(elements):  # grows as elements are found
        for gi, m in enumerate(matrices):
            a, b = matrix_product((x,), m)[0]
            key = (a.sort_key(), b.sort_key())
            j = index.get(key)
            if j is None:
                j = index[key] = len(elements)
                elements.append((a, b))
                words.append(words[pos] + (gi,))
            right[gi].append(j)
    return elements, words, right


def exact_elements(G) -> list:
    """The exact top rows of G's elements, rebuilt along ``G.right`` in
    index order: element 0 is the identity, and each other element is
    first reached as x g from an earlier x, as the closure found it, by one
    ``matrix_product``."""
    N = G.conductor
    out = [(CycNumber.one(N), CycNumber.zero(N))] + [None] * (G.order - 1)
    for i in range(G.order):
        for step, gen in zip(G.right, G.generators):
            if out[step[i]] is None:
                out[step[i]] = matrix_product(su2_matrix(out[i]),
                                              su2_matrix(gen))[0]
    return out


def matrix_order(m) -> int:
    """The least k >= 1 with m^k = I, by ``matrix_product``."""
    power, k = m, 1
    while not (power[0][0] == 1 and power[1][1] == 1
               and power[0][1].is_zero() and power[1][0].is_zero()):
        power = matrix_product(power, m)
        k += 1
    return k


def exact_classes(G) -> list[tuple[int, ...]]:
    """The conjugacy class of each class rep of G, from ``exact_elements``:
    the orbit of the rep under x -> g x g^-1 for each generator's
    ``su2_matrix`` g, g^-1 its ``matrix_inverse``, by ``matrix_product``,
    each element looked up by its full matrix, as sorted indices."""
    elements = exact_elements(G)
    index = {su2_matrix(x): i for i, x in enumerate(elements)}
    conjugators = [(su2_matrix(g), matrix_inverse(su2_matrix(g)))
                   for g in G.generators]
    out = []
    for c in G.classes:
        orbit, stack = {c.rep}, [c.rep]
        while stack:
            x = su2_matrix(elements[stack.pop()])
            for g, inv in conjugators:
                j = index[matrix_product(matrix_product(g, x), inv)]
                if j not in orbit:
                    orbit.add(j)
                    stack.append(j)
        out.append(tuple(sorted(orbit)))
    return out


def class_table(G) -> list[list[CycNumber]]:
    """Every irreducible character of G at every class, each value computed
    from that class's own data, with no Galois orbit: the linear rows are
    zeta^e at the label e of the class rep under each generator assignment
    ``_exponent_labels`` extends, in the search's order, each generator's
    order found by ``matrix_order``; D adds
    zeta^(l e_C) + zeta^-(l e_C), 1 <= l < m - 2, on a rotation class (its
    rep's exact top row (a, b) has b = 0, a diagonal matrix) and 0
    elsewhere; E adds the distinct Galois conjugates of the defining
    character, zeta^(a e_C) + zeta^-(a e_C), and walks the McKay graph,
    V tensor chi by CycNumber products with the ``matrix_trace`` of each
    class rep, its multiplicities and norm by ``inner_product_by_classes``,
    keeping V tensor chi - sum m_j chi_j when the norm exceeds sum m_j^2 by
    1, and sorts the rows after the trivial one by the ``sort_key``s of
    their entries at every class."""
    N, dt = G.conductor, G.dynkin
    root = lambda e: CycNumber.root_of_unity(N, e)
    orders = [matrix_order(su2_matrix(g)) for g in G.generators]
    elements = exact_elements(G)
    reps = [elements[c.rep] for c in G.classes]
    rows = []
    for ks in product(*(range(0, N, N // n) for n in orders)):
        label = _exponent_labels(G, ks)
        if label is not None:
            rows.append([root(label[c.rep]) for c in G.classes])
    if dt.family == "D":
        rows += [[root(ell * c.eigen_exp) + root(-ell * c.eigen_exp)
                  if x[1].is_zero() else CycNumber.zero(N)
                  for c, x in zip(G.classes, reps)]
                 for ell in range(1, dt.m - 2)]
    if dt.family == "E":
        for a in range(1, N // 2 + 1):
            if gcd(a, N) == 1:
                row = [root(a * c.eigen_exp) + root(-a * c.eigen_exp)
                       for c in G.classes]
                if row not in rows:
                    rows.append(row)
        for chi in rows:  # grows as rows are found
            tensor = [v * matrix_trace(su2_matrix(x))
                      for v, x in zip(chi, reps)]
            mults = [inner_product_by_classes(G, tensor, row) for row in rows]
            if inner_product_by_classes(G, tensor, tensor) \
                    - sum(m * m for m in mults) == 1:
                rows.append([t - sum((row[i] * m for row, m in zip(rows, mults)
                                      if m), CycNumber.zero(N))
                             for i, t in enumerate(tensor)])
        rows[1:] = sorted(rows[1:], key=lambda row: tuple(
            v.sort_key() for v in row))
    return rows


def table_json_by_galois(table, G) -> dict:
    """``CharTable.to_json(G)`` written entry by entry with no memo: a row's
    value at each class C = C_O^a of a Galois orbit O is
    ``CycNumber.galois(a)`` of its value at the rep, and every entry gets
    its own ``to_json``."""
    values = []
    for row in table.values:
        full = [None] * len(G.classes)
        for o, v in zip(G.orbits, row, strict=True):
            full[o.rep] = v.to_json()
            for cj, a in o.twists:
                full[cj] = v.galois(a).to_json()
        values.append(full)
    return {"degrees": [int(row[0].to_rational()) for row in table.values],
            "values": values}


def molien_by_elements(G, rows):
    """Molien numerators summed element by element (not class by class),
    against (1-q^a)(1-q^b), for ``rows`` given at every class, as
    ``class_table`` gives them. The quadratics 1 - tr(x) q + q^2 and their
    product are ascending coefficient lists over Q(zeta_N); each numerator
    must come out integral and is returned as a Polynomial in q."""
    dt = G.dynkin
    a, b = dt.standard_ab
    one = CycNumber.one(G.conductor)
    quads = {}
    traces = [matrix_trace(su2_matrix(x)) for x in exact_elements(G)]
    for tr in traces:
        if tr not in quads:
            quads[tr] = [one, -tr, one]
    denom = [one]
    for quad in quads.values():
        denom = _list_mul(denom, quad)
    partial = {tr: _list_div_monic(denom, quad) for tr, quad in quads.items()}
    std = _list_mul([1] + [0] * (a - 1) + [-1], [1] + [0] * (b - 1) + [-1])
    class_of = {j: k for k, c in enumerate(G.classes) for j in c.members}
    out = []
    for row in rows:
        acc = [0] * (len(denom) - 2)
        for idx, tr in enumerate(traces):
            val = row[class_of[idx]]
            acc = [s + val * c for s, c in zip(acc, partial[tr])]
        coeffs = []
        for c in _list_div_monic(_list_mul(acc, std), denom):
            v = c.to_rational() / G.order
            assert v.denominator == 1, v
            coeffs.append(v.numerator)
        out.append(Polynomial("q", coeffs))
    return out


def sym_power_multiplicities_direct(G, rows, m: int) -> list[Fraction]:
    """Multiplicity of each irreducible, given at every class as
    ``class_table`` gives it, in Sym^m of the defining representation for
    one m, summed directly: the character of Sym^m at a
    class with eigenvalues zeta^(+-e) is sum_j zeta^((m-2j) e), built from
    ``CycNumber.root_of_unity`` alone, and each multiplicity is
    (1/|G|) sum_C |C| Sym^m(C) conj(chi(C)) by CycNumber products and sums.
    No trace sweep, no recurrence in m and no periodicity in m is used."""
    N = G.conductor
    chars = []
    for c in G.classes:
        s = CycNumber.zero(N)
        for j in range(m + 1):
            s = s + CycNumber.root_of_unity(N, (m - 2 * j) * c.eigen_exp)
        chars.append(s)
    out = []
    for row in rows:
        acc = CycNumber.zero(N)
        for c, x, chi in zip(G.classes, chars, row):
            acc = acc + x * chi.conj() * c.size
        out.append(acc.to_rational() / G.order)
    return out


def inner_product_by_classes(G, f, chi) -> Fraction:
    """(1/|G|) sum_C |C| f(C) conj(chi(C)) over every class, f and chi
    given over all of G's classes: a sum of CycNumber products with
    conj(chi(C)) built by ``CycNumber.conj``, read with ``to_rational``, no
    Galois orbit used."""
    value = sum((x * y.conj() * c.size for x, y, c in zip(f, chi, G.classes,
                                                          strict=True)),
                CycNumber.zero(G.conductor))
    return value.to_rational() / G.order


def galois_orbit_count(G) -> int:
    """The classes closed under x -> x^a, a prime to the conductor, over
    every element x: x^a power by power, each product walking a generator
    word of ``exact_closure`` through its right-multiplication tables,
    classes joined by union-find, and the number of blocks left."""
    N = G.conductor
    _, words, right = exact_closure(list(G.generators))
    units = [a for a in range(1, N + 1) if gcd(a, N) == 1]
    class_of = {j: k for k, c in enumerate(G.classes) for j in c.members}
    parent = list(range(len(G.classes)))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    def mul(i, j):
        for g in words[j]:
            i = right[g][i]
        return i

    for x in range(G.order):
        powers = [0]
        while len(powers) < 2 or powers[-1] != 0:
            powers.append(mul(powers[-1], x))
        order = len(powers) - 1
        for a in units:
            parent[find(class_of[powers[a % order]])] = find(class_of[x])
    return len({find(k) for k in range(len(G.classes))})


def minimal_polynomial(x: CycNumber) -> Polynomial:
    """Minimal polynomial over Q of an algebraic integer x: the product of
    t - y over the Galois orbit, multiplied as ascending coefficient lists
    over Q(zeta_N). A coefficient outside Z raises ``ValidationFailed``."""
    orbit = []
    zero = CycNumber.zero(x.N)
    acc = [CycNumber.one(x.N)]
    for a in range(1, x.N + 1):
        if gcd(a, x.N) == 1:
            y = x.galois(a)
            if y not in orbit:
                orbit.append(y)
                acc = [s - y * c for s, c in zip([zero] + acc, acc + [zero])]
    coeffs = [c.to_rational() for c in acc]
    if any(c.denominator != 1 for c in coeffs):
        raise ValidationFailed(f"minimal polynomial of {x} is not in Z[t]")
    return Polynomial("t", [c.numerator for c in coeffs])
