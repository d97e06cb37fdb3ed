"""Weight systems on semi-affine ADE graphs.

``solve_semiaffine`` imposes t*n_i = sum of the successors of i at every node
of positive out-degree (the affine node is a sink and is normalized to 1).
The finite part is a tree: Schwenk's recurrence gives det(tI - A_fin),
``finite_det``, and Faddeev's gives the Cramer vector
y_i = det(tI - A_fin) * n_i over the ints, checked by Cayley-Hamilton. A
weight is reduced in Q(t) only when read. The results are ``NamedTuple``
records.

Two renormalizations follow the substitution t = q + 1/q: clearing by cox(h)
gives the primitive q-weights (when cox(h) really is the common denominator;
for a handful of types it is a proper divisor of it and the clearing raises),
and rescaling the affine node to 1 + q^h gives the standard-form numerators
that the group side reproduces as Molien numerators.
"""
from __future__ import annotations

from functools import reduce
from operator import mul
from typing import NamedTuple

from .errors import NonPolynomialResult, ValidationFailed
from .graphs import DirectedGraph, DynkinType
from .poly import Polynomial, RationalFunction, cox, poly_gcd, substitute_t


class TWeights(NamedTuple):
    """Node weights n_i = y_i / det in canonical node order, held as the
    Cramer vector y in Z[t]; y_0 = det because n_0 = 1."""

    dynkin: DynkinType
    y: tuple[Polynomial, ...]

    @property
    def det(self) -> Polynomial:
        """det(tI - A_fin), from the tree recurrence."""
        return self.y[0]

    @property
    def values(self) -> tuple[RationalFunction, ...]:
        """Each weight y_i / det, reduced when read, once per distinct y_i:
        nodes that mirror each other share one reduced value."""
        reduced: dict[tuple[int, ...], RationalFunction] = {}
        out = []
        for yi in self.y:
            v = reduced.get(yi.coeffs)
            if v is None:
                v = reduced[yi.coeffs] = RationalFunction(yi, self.det)
            out.append(v)
        return tuple(out)

    def to_json(self) -> dict:
        """One JSON object per distinct value, keyed on ``id``: mirror nodes
        share one value, so they share its object, which ``json_text``
        writes once per indent."""
        values = self.values
        objs: dict[int, dict] = {}
        for v in values:
            if id(v) not in objs:
                objs[id(v)] = v.to_json()
        return {"type": str(self.dynkin),
                "values": [objs[id(v)] for v in values]}


class QNumerators(NamedTuple):
    """Standard-form numerators N_i(q), normalized to N_0 = 1 + q^h."""

    dynkin: DynkinType
    N: tuple[Polynomial, ...]

    def to_json(self) -> dict:
        a, b = self.dynkin.standard_ab
        return {"type": str(self.dynkin), "h": self.dynkin.coxeter_number,
                "a": a, "b": b,
                "N": [[str(c) for c in p.coeffs] for p in self.N]}


def _tree_det(children: list[list[int]]) -> Polynomial:
    """det(tI - A) of a tree whose node v has the children ``children[v]``,
    numbered after v, by Schwenk's recurrence (1974) on the subtree T_v at v:
    phi(T_v) = t*phi(T_v - v) - sum over the children u of phi(T_v - v - u).
    Removing v leaves the children's subtrees, and removing u too trades
    phi(T_u) for phi(T_u - u). Nodes go last first; node 0 is the root."""
    phi, rest = {}, {}  # phi(T_v), phi(T_v - v)
    for v in reversed(range(len(children))):
        kids = children[v]
        rest[v] = reduce(mul, [phi[u] for u in kids] or [Polynomial.one("t")])
        phi[v] = rest[v].shifted(1) - sum(
            (reduce(mul, (phi[w] for w in kids if w != u), rest[u])
             for u in kids), Polynomial.zero("t"))
    return phi[0]


def _finite_neighbours(g: DirectedGraph) -> list[list[int]]:
    """Per node of A_fin, the semi-affine graph g less its sink, the
    positions of its nonzero entries."""
    return [[j for j, v in enumerate(row[1:]) if v] for row in g.mult[1:]]


def finite_det(g: DirectedGraph) -> Polynomial:
    """det(tI - A_fin) of the semi-affine graph g, by ``_tree_det``.

    A_fin must be a 0/1 tree in which each node but the first has exactly
    one neighbour before it, its parent; else ``ValueError``. The solver
    is its one reader."""
    if g.form != "semiaffine":
        raise ValueError("solver expects a semi-affine graph")
    r = g.n - 1
    fin = [row[1:] for row in g.mult[1:]]
    nbrs = _finite_neighbours(g)
    if (r < 1 or any(v not in (0, 1) for row in fin for v in row)
            or fin != list(zip(*fin)) or any(fin[i][i] for i in range(r))
            or [sum(j < i for j in js) for i, js in enumerate(nbrs)]
            != [int(i > 0) for i in range(r)]):
        raise ValueError(f"{g.dynkin}: the finite graph is not a tree with "
                         "each parent before its children")
    return _tree_det([[j for j in js if j > i] for i, js in enumerate(nbrs)])


def solve_semiaffine(g: DirectedGraph) -> TWeights:
    """Solve (tI - A_fin) x = b, the weight equations with n_0 = 1 moved
    across (b_i = mult[i][0]), as y = det(tI - A_fin) x = adj(tI - A_fin) b.

    With det from ``finite_det``, which checks A_fin, as
    sum_k c_k t^(r-k), Faddeev's expansion
    adj(tI - A) = sum_k t^(r-1-k) B_k, B_0 = I, B_k = A B_(k-1) + c_k I,
    makes coefficient r-1-k of y the int vector v_k = A v_(k-1) + c_k b,
    v_0 = b. Cayley-Hamilton makes v_r zero, or ``ValidationFailed``.
    """
    det = finite_det(g)
    r = g.n - 1
    nbrs = _finite_neighbours(g)
    b = [row[0] for row in g.mult[1:]]
    vs = [b]
    for k in range(1, r + 1):
        c, last = det.coefficient(r - k), vs[-1]
        vs.append([sum([last[j] for j in js]) + c * bi
                   for js, bi in zip(nbrs, b)])
    if any(vs.pop()):
        raise ValidationFailed(f"{g.dynkin}: adj(tI - A_fin) b leaves "
                               "v_r != 0, so the tree det is wrong")
    y = [Polynomial("t", [v[i] for v in reversed(vs)]) for i in range(r)]
    return TWeights(g.dynkin, (det, *y))


def weights_satisfy(g: DirectedGraph, w: TWeights) -> bool:
    """Re-substitution check of the defining equations at all non-sink
    nodes, on the Cramer vector: y_j = det * n_j in Z[t], so
    t*y_i = sum_j mult[i][j]*y_j."""
    sums = g.neighbor_sums(w.y)
    return all(w.y[i].shifted(1) == sums[i] for i in range(1, g.n))


def common_denominator(w: TWeights) -> Polynomial:
    """det / gcd(det, y_1, ..., y_r): the least common denominator of the
    reduced weights y_i / det, monic because det is."""
    return w.det.exact_div(reduce(poly_gcd, w.y[1:], w.det))


def to_q_numerators(w: TWeights) -> QNumerators:
    """Substitute t = q + 1/q and normalize the affine node to 1 + q^h.

    With y_i(q + 1/q) = Y_i(q)/q^dy and det(q + 1/q) = D(q)/q^dd, the
    numerator is N_i = M (1 + q^h) / D with M = Y_i q^(dd - dy) (dd >= dy),
    a shift and an add over D, monic because det is, so the division is
    synthetic division over Z. det is substituted once, as y_0.
    """
    dt = w.dynkin
    h = dt.coxeter_number
    subs = [substitute_t(yi) for yi in w.y]
    pd, dd = subs[0]
    out = []
    for yi, (py, dy) in zip(w.y, subs):
        num = py.shifted(dd - dy)
        try:
            p = (num.shifted(h) + num).exact_div(pd)
        except ValueError:
            raise NonPolynomialResult(f"{RationalFunction(yi, w.det)} does "
                                      f"not clear modulo 1+q^{h}") from None
        out.append(p)
    return QNumerators(dt, tuple(out))


def intermediate_q_weights(w: TWeights) -> tuple[Polynomial, ...]:
    """First normalization: clear by cox(h), substitute t = q + 1/q, and
    homogenize with q^(deg cox); the resulting vector has no common factor."""
    c = cox(w.dynkin.coxeter_number)
    out = []
    for yi in w.y:
        try:
            cleared = (yi * c).exact_div(w.det)
        except ValueError:
            raise NonPolynomialResult(
                f"{RationalFunction(yi, w.det)} is not cleared by {c}") from None
        p, d = substitute_t(cleared)
        out.append(p.shifted(c.degree - d))
    return tuple(out)


def closed_form(dt: DynkinType) -> QNumerators:
    """Expected numerators assembled from the per-family exponent tables."""
    h = dt.coxeter_number
    rows = []
    for exps in _exponent_table(dt):
        coeffs = [0] * (h + 1)
        for e in exps:
            coeffs[e] += 1
        rows.append(Polynomial("q", coeffs))
    return QNumerators(dt, tuple(rows))


_E6_EXPONENTS = [
    (0, 12), (1, 5, 7, 11), (2, 4, 6, 6, 8, 10), (3, 5, 7, 9), (4, 8),
    (3, 5, 7, 9), (4, 8),
]
# The E7 chain entry at distance 2 needs the exponent 12 (its printed form
# drops it, breaking the e <-> h-e pairing and the neighbor-count rule), and
# the E8 branch entry cannot contain 18 (no 12 to pair with; the counts must
# halve the neighbor sum). Both rows are pinned by the solver and the Molien
# oracle agreeing.
_E7_EXPONENTS = [
    (0, 18), (1, 7, 11, 17), (2, 6, 8, 10, 12, 16), (3, 5, 7, 9, 9, 11, 13, 15),
    (4, 6, 8, 10, 12, 14), (5, 7, 11, 13), (6, 12),
    (4, 8, 10, 14),
]
_E8_EXPONENTS = [
    (0, 30), (1, 11, 19, 29), (2, 10, 12, 18, 20, 28),
    (3, 9, 11, 13, 17, 19, 21, 27), (4, 8, 10, 12, 14, 16, 18, 20, 22, 26),
    (5, 7, 9, 11, 13, 15, 15, 17, 19, 21, 23, 25), (6, 8, 12, 14, 16, 18, 22, 24),
    (7, 13, 17, 23),
    (6, 10, 14, 16, 20, 24),
]


def _exponent_table(dt: DynkinType) -> list[tuple[int, ...]]:
    h = dt.coxeter_number
    m = dt.m
    if dt.family == "A":
        return [(k, h - k) for k in range(m + 1)]
    if dt.family == "D":
        # chain: affine tip, m-3 central nodes, one far tip; then the near
        # tip and the second far tip. Central node k carries
        # {k, k+2, h-k-2, h-k}; the printed closed form with h-k+2 breaks the
        # palindrome at k=1, D4 pins the corrected variant.
        rows = [(0, h)]
        rows += [(k, k + 2, h - k - 2, h - k) for k in range(1, m - 2)]
        rows += [(m - 2, m), (2, h - 2), (m - 2, m)]
        return rows
    return {6: _E6_EXPONENTS, 7: _E7_EXPONENTS, 8: _E8_EXPONENTS}[dt.m]


def specialization_identity(nq: QNumerators, affine: DirectedGraph) -> bool:
    """q * [(q+1/q) N_0 - sum over the affine neighbors of node 0] must equal
    (1-q^a)(1-q^b)."""
    n0 = nq.N[0]
    lhs = n0.shifted(2) + n0 - affine.neighbor_sums(nq.N)[0].shifted(1)
    return lhs == nq.dynkin.standard_form


def finite_reduction_check(nq: QNumerators, finite: DirectedGraph) -> bool:
    """Modulo 1 + q^h the numerators satisfy the finite-type equations:
    weighting the affine node with zero recovers the finite constraints,
    which read the finite graph on N_1, ..., N_r."""
    h = nq.dynkin.coxeter_number
    nodes = nq.N[1:]
    return all(not any(_mod_one_plus_q(ni.shifted(2) + ni - si.shifted(1), h))
               for ni, si in zip(nodes, finite.neighbor_sums(nodes)))


def _mod_one_plus_q(p: Polynomial, h: int) -> list[int]:
    """Coefficients of p modulo 1 + q^h, by folding: q^h = -1, so from the
    top down coefficient k >= h moves to k - h with its sign flipped."""
    c = list(p.coeffs)
    for k in range(len(c) - 1, h - 1, -1):
        c[k - h] -= c[k]
    return c[:h]


class NotesReport(NamedTuple):
    """Outcome of the three structural observations on the exponents."""

    chain_ok: bool      # min exponent = distance from the affine node, max = h - distance
    parity_ok: bool     # even h: alternating support parity; odd h: coeff q^e = coeff q^(h-e)
    count_ok: bool      # N_i(1) doubled equals the neighbor sum of N_j(1)
    h_parity: str

    def all_ok(self) -> bool:
        return self.chain_ok and self.parity_ok and self.count_ok


def check_notes(nq: QNumerators, affine: DirectedGraph) -> NotesReport:
    h = nq.dynkin.coxeter_number
    dist = affine.distances_from(0)

    chain_ok = all(p.min_exponent() == dist[i] and p.degree == h - dist[i]
                   for i, p in enumerate(nq.N))

    if h % 2 == 0:
        def uniform(p, par):
            return all(e % 2 == par for e in p.support())
        parity_ok = all(uniform(p, dist[i] % 2) for i, p in enumerate(nq.N))
        parity_ok = parity_ok and all(
            dist[i] % 2 != dist[j] % 2
            for i in range(affine.n) for j in affine.undirected_neighbors(i))
    else:
        parity_ok = all(p.coefficient(e) == p.coefficient(h - e)
                        for p in nq.N for e in p.support())

    ones = [p.evaluate(1) for p in nq.N]
    count_ok = affine.neighbor_sums(ones) == [2 * v for v in ones]
    return NotesReport(chain_ok, parity_ok, count_ok,
                       "even" if h % 2 == 0 else "odd")


def exponent_sum_latex(p: Polynomial) -> str:
    """Exponent-sum rendering, e.g. q+2q^3+q^5 -> "(1+2\\times 3+5)"."""
    parts = []
    for e in p.support():
        c = p.coefficient(e)
        parts.append(str(e) if c == 1 else f"{c}\\times {e}")
    return "(" + "+".join(parts) + ")"


def numerators_latex(nq: QNumerators) -> str:
    return ",".join(exponent_sum_latex(p) for p in nq.N)
