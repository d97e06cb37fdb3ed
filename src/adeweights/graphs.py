"""ADE Coxeter-Dynkin graphs in finite, affine, and semi-affine form.

Undirected edges are stored as pairs of opposed directed edges in an integer
multiplicity matrix. The semi-affine form is the affine form with the row of
the affine node zeroed, which turns node 0 into a sink.

Canonical node order: node 0 is the affine node, nodes 1..k walk the longest
chain away from it, and the leftover branch/tip nodes come last (D: the near
tip then the second far tip; E6: the mirror arm; E7/E8: the branch node).
"""
from __future__ import annotations

import re
from math import gcd, lcm
from typing import NamedTuple

from .errors import InvalidParameter, SingularSystem, ValidationFailed
from .poly import Polynomial, cox, one_plus_q

_E_COXETER = {6: 12, 7: 18, 8: 30}
_E_ORDER = {6: 24, 7: 48, 8: 120}
_E_AB = {6: (6, 8), 7: (8, 12), 8: (12, 20)}
_E_CONDUCTOR = {6: 12, 7: 24, 8: 60}

_TYPE_RE = re.compile(r"^([ADE])(0|[1-9][0-9]*)$")  # ASCII, no leading zeros


class DynkinType(NamedTuple("DynkinType", [("family", str), ("m", int)])):
    """One of A_m (m>=1), D_m (m>=4), E_6, E_7, E_8; ordered by family,
    then m."""

    __slots__ = ()

    def __new__(cls, family: str, m: int):
        if family == "A":
            ok = m >= 1
        elif family == "D":
            ok = m >= 4
        elif family == "E":
            ok = m in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise InvalidParameter(f"no ADE type {family}{m}")
        return super().__new__(cls, family, m)

    @classmethod
    def parse(cls, text: str) -> DynkinType:
        found = _TYPE_RE.match(text.strip())
        try:
            m = int(found.group(2)) if found else -1
        except ValueError:  # more digits than int() converts
            m = -1
        if m < 0:
            raise InvalidParameter(f"cannot parse Dynkin type {text!r}")
        return cls(found.group(1), m)

    def __str__(self):
        return f"{self.family}{self.m}"

    @property
    def rank(self) -> int:
        return self.m

    @property
    def coxeter_number(self) -> int:
        if self.family == "A":
            return self.m + 1
        if self.family == "D":
            return 2 * self.m - 2
        return _E_COXETER[self.m]

    @property
    def group_order(self) -> int:
        if self.family == "A":
            return self.m + 1
        if self.family == "D":
            return 4 * (self.m - 2)
        return _E_ORDER[self.m]

    @property
    def standard_ab(self) -> tuple[int, int]:
        h = self.coxeter_number
        if self.family == "A":
            return (2, h)
        if self.family == "D":
            return (4, h - 2)
        return _E_AB[self.m]

    @property
    def standard_form(self) -> Polynomial:
        """(1-q^a)(1-q^b) as p - q^b p with p = 1 - q^a, built on every read."""
        a, b = self.standard_ab
        p = one_plus_q(a, -1)
        return p - p.shifted(b)

    @property
    def conductor(self) -> int:
        """Exponent of the attached SU(2) subgroup."""
        if self.family == "A":
            return self.m + 1
        if self.family == "D":
            return lcm(4, 2 * (self.m - 2))
        return _E_CONDUCTOR[self.m]


FORMS = ("finite", "affine", "semiaffine")


class DirectedGraph(NamedTuple):
    mult: tuple[tuple[int, ...], ...]
    dynkin: DynkinType | None
    form: str

    @property
    def n(self) -> int:
        return len(self.mult)

    @property
    def affine_index(self) -> int | None:
        """Node 0 is the affine node; the finite form has none."""
        return None if self.form == "finite" else 0

    def is_symmetric(self) -> bool:
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.n) for j in range(self.n))

    def neighbor_sums(self, values) -> list:
        """Row sums sum_j mult[i][j] * values[j] for every node i.

        Each sum starts at a zero of the values' own kind, so an empty row
        gives 0 for ints and the zero polynomial for polynomials."""
        zero = 0 * values[0]
        return [sum((c * v for c, v in zip(row, values) if c), zero)
                for row in self.mult]

    def undirected_neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.mult[i][j] or self.mult[j][i]]

    def distances_from(self, start: int) -> list[int]:
        """BFS distance treating every edge as undirected."""
        dist = [-1] * self.n
        dist[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in self.undirected_neighbors(i):
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        return dist

    def to_json(self) -> dict:
        edges = [{"from": i, "to": j, "mult": self.mult[i][j]}
                 for i in range(self.n) for j in range(self.n) if self.mult[i][j]]
        return {"nodes": self.n, "affine_index": self.affine_index, "edges": edges}

    def to_dot(self, name: str = "g") -> str:
        lines = [f'digraph "{name}" {{']
        for i in range(self.n):
            shape = ", shape=doublecircle" if i == self.affine_index else ""
            lines.append(f'  {i} [label="{i}"{shape}];')
        for i in range(self.n):
            for j in range(self.n):
                lines.extend([f"  {i} -> {j};"] * self.mult[i][j])
        lines.append("}")
        return "\n".join(lines) + "\n"


def _affine_edges(dt: DynkinType) -> list[tuple[int, int]]:
    """Undirected edges of the affine graph in canonical node order.

    The A1 double bond is returned as a repeated edge.
    """
    m = dt.m
    if dt.family == "A":
        if m == 1:
            return [(0, 1), (0, 1)]
        return [(i, i + 1) for i in range(m)] + [(m, 0)]
    if dt.family == "D":
        # 0 affine tip - c1 .. c_{m-3} - farA(m-2); near(m-1) on c1; farB(m) on c_{m-3}
        edges = [(0, 1)]
        edges += [(i, i + 1) for i in range(1, m - 2)]
        edges += [(1, m - 1), (m - 3, m)]
        return edges
    if m == 6:
        return [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    if m == 7:
        return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]
    return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]


def build_graph(dt: DynkinType, form: str) -> DirectedGraph:
    if form not in FORMS:
        raise InvalidParameter(f"unknown graph form {form!r}")
    n = dt.rank + 1
    mult = [[0] * n for _ in range(n)]
    for i, j in _affine_edges(dt):
        mult[i][j] += 1
        mult[j][i] += 1
    if form == "finite":
        mult = [row[1:] for row in mult[1:]]
    elif form == "semiaffine":
        mult[0] = [0] * n
    return DirectedGraph(tuple(tuple(r) for r in mult), dt, form)


def char_poly(g: DirectedGraph) -> Polynomial:
    """Characteristic polynomial det(tI - M) of M = g.mult by LeVerrier's
    method over exact integers: Newton's identities on the power traces
    p_k = tr(M^k), c_k = -(sum_{j<k} c_j p_{k-j}) / k with c_0 = 1, for
    k = 1..n. The sum divided by k is Faddeev's tr(M B_{k-1}), so a
    non-integral quotient raises.

    Row i of M^k is one int with entry j in the w-bit slot [j*w, (j+1)*w),
    and row i of M^(k+1) is sum_l M[i][l] * (row l of M^k) over the nonzero
    M[i][l] (at most 3 on an ADE tree). The packing is exact: the entries
    are nonnegative with row sums at most r, so every entry of M^k is at
    most r^k <= r^n < 2^w for w = n * r.bit_length() + 1, and no slot
    carries into the next. A negative entry would break that, so it is
    refused before anything is packed."""
    n = g.n
    if any(v < 0 for row in g.mult for v in row):
        raise ValueError(f"{g.dynkin}: negative multiplicity in char_poly")
    w = n * max(map(sum, g.mult), default=0).bit_length() + 1
    mask = (1 << w) - 1
    rows = [[(l, v) for l, v in enumerate(row) if v] for row in g.mult]
    P = [1 << (i * w) for i in range(n)]
    cs, ps = [1], []
    for k in range(1, n + 1):
        P = [sum(v * P[l] for l, v in nz) for nz in rows]
        ps.append(sum((P[i] >> (i * w)) & mask for i in range(n)))
        tr = sum(c * p for c, p in zip(cs, reversed(ps)))
        if tr % k:
            raise ValidationFailed(
                f"{g.dynkin}: trace {tr} at step {k} is not divisible by {k}")
        cs.append(-(tr // k))
    # char(t) = t^n + cs[1] t^(n-1) + ... + cs[n]
    return Polynomial("t", list(reversed(cs)))


def graph_marks(affine: DirectedGraph) -> tuple[int, ...]:
    """Integer eigenvector of the affine adjacency at eigenvalue 2,
    normalized so the affine node carries 1 (the marks).

    With x_0 = 1 pinned, the rows of the finite nodes form the square system
    (A_fin - 2I) x = -A_{.,0}, nonsingular because every eigenvalue of a
    finite ADE adjacency lies below 2. The whole eigen-equation, the affine
    row included, is then checked on the solution.

    Elimination runs over Z, forward only, then back-substitutes: A_fin is a
    tree in canonical node order, so the rows fill in little, where clearing
    above the pivots as well would fill the upper triangle. Each eliminated
    row is cross-multiplied by the pivot and divided by its content, and
    back substitution divides exactly or raises. No row swaps: 2I - A_fin is
    positive definite, so no pivot is zero, and a zero pivot means the
    system is not of finite ADE type."""
    r = affine.n - 1
    rows = [[affine.mult[i][j] - (2 if i == j else 0) for j in range(1, r + 1)]
            + [-affine.mult[i][0]] for i in range(1, r + 1)]
    for col in range(r):
        pivot = rows[col]
        p = pivot[col]
        if p == 0:
            raise SingularSystem(f"{affine.dynkin}: marks system lost rank")
        for k in range(col + 1, r):
            f = rows[k][col]
            if f:
                row = [p * v - f * w for v, w in zip(rows[k], pivot)]
                g = gcd(*row)
                rows[k] = [v // g for v in row] if g > 1 else row
    x = [0] * r
    for i in range(r - 1, -1, -1):
        row = rows[i]
        num = row[r] - sum(row[j] * x[j] for j in range(i + 1, r) if row[j])
        x[i], rem = divmod(num, row[i])
        if rem or x[i] <= 0:
            raise ValidationFailed(
                f"{affine.dynkin}: marks are not positive integers")
    marks = (1, *x)
    if affine.neighbor_sums(marks) != [2 * v for v in marks]:
        raise SingularSystem(f"{affine.dynkin}: marks system inconsistent")
    return marks


class CharPolyReport(NamedTuple):
    dynkin: DynkinType
    d: int
    cofactor: Polynomial
    cox: Polynomial
    claim_holds: bool
    char_semiaffine: Polynomial
    char_finite: Polynomial
    structural_ok: bool

    def to_json(self) -> dict:
        return {
            "type": str(self.dynkin),
            "d": self.d,
            "cofactor": self.cofactor.to_json(),
            "cox": self.cox.to_json(),
            "claim_holds": self.claim_holds,
            "char_semiaffine": self.char_semiaffine.to_json(),
            "char_finite": self.char_finite.to_json(),
            "structural_ok": self.structural_ok,
        }


def charpoly_report(semi: DirectedGraph, char_fin: Polynomial) -> CharPolyReport:
    """Factor the semi-affine characteristic polynomial as t^d * cofactor and
    compare the cofactor against cox(h); also record whether the structural
    identity char(semiaffine) = t * char_fin holds, where the caller brings
    char_fin = det(tI - A_fin) from its own route."""
    dt = semi.dynkin
    char_semi = char_poly(semi)
    structural_ok = char_semi == char_fin.shifted(1)
    d = char_semi.min_exponent()
    cofactor = Polynomial("t", char_semi.coeffs[d:])
    coxh = cox(dt.coxeter_number)
    claim = (cofactor == coxh) and (d == dt.rank + 1 - coxh.degree)
    return CharPolyReport(dt, d, cofactor, coxh, claim, char_semi, char_fin,
                          structural_ok)


# the rank cap on each type of a selector; at the cap `verify`,
# `weights --basis q` and `molien` on D128 take about 26 s each on a 2-core
# x86-64 host, and A20000 would exhaust memory in build_graph. It bounds
# each type, not the sum over a selector's types.
MAX_RANK = 128


def parse_type_selector(text: str) -> list[DynkinType]:
    """Expand a selector like "D4", "E6,E7", or "A1..A12" (inclusive ranges
    within one family). Invalid members, and members of rank above
    MAX_RANK, raise before any range is expanded. ``DynkinType`` and
    ``build_graph`` themselves take any rank."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InvalidParameter("empty type selector token")
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo = DynkinType.parse(lo_s)
            hi = DynkinType.parse(hi_s)
            if lo.family != hi.family or lo.m > hi.m:
                raise InvalidParameter(f"bad range {token!r}")
        else:
            lo = hi = DynkinType.parse(token)
        if hi.rank > MAX_RANK:
            raise InvalidParameter(
                f"{hi} has rank {hi.rank}, above the limit of {MAX_RANK}")
        out.extend(DynkinType(lo.family, m) for m in range(lo.m, hi.m + 1))
    return out
