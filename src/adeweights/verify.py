"""Cross-check orchestration: one machine-readable report over a type list.

Every identity the library computes twice (graph side vs group side, solver
vs closed form, characteristic polynomial factorizations, ...) is run per
type and recorded as a CheckResult, a ``NamedTuple`` like every value
record here but ``TypeBundle``; ``CHECKS`` is the one list of them.
Failures are data, not exceptions; the charpoly claim is informational by
design. A seeded fault-injection hook perturbs one numerator coefficient at
the cross-match boundary so the suite can prove it is not vacuous.
``json_text`` writes every JSON text the program prints, the report's and
the query commands'.
"""
from __future__ import annotations

import random
from collections.abc import Callable
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import InvalidParameter
from .graphs import (CharPolyReport, DirectedGraph, DynkinType, build_graph,
                     charpoly_report, graph_marks)
from .groups import (CharTable, FiniteSubgroup, McKayResult, MolienSet,
                     build_group, char_table, mckay_matrix, molien_series,
                     recurrence_check, sym_power_multiplicities)
from .poly import Polynomial, cox
from .weights import (QNumerators, TWeights, check_notes, closed_form,
                      common_denominator, finite_reduction_check,
                      solve_semiaffine, specialization_identity,
                      to_q_numerators, weights_satisfy)

DEFAULT_SUITE = tuple(
    [DynkinType("A", m) for m in range(1, 13)]
    + [DynkinType("D", m) for m in range(4, 13)]
    + [DynkinType("E", m) for m in (6, 7, 8)]
)

class CheckResult(NamedTuple):
    name: str
    type_name: str
    status: str  # pass | fail | informational
    detail: str
    payload: dict | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "type": self.type_name,
               "status": self.status, "detail": self.detail}
        if self.payload is not None:
            out["payload"] = self.payload
        return out


class VerificationReport(NamedTuple):
    suite: str
    checks: tuple[CheckResult, ...]
    summary: dict

    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "checks": [c.to_json() for c in self.checks],
                "summary": self.summary}


class FaultSpec(NamedTuple):
    """Coefficient perturbation applied to one graph-side numerator, only on
    the copy fed to the cross-match comparison."""

    type_name: str
    node: int
    exponent: int

    @classmethod
    def from_seed(cls, seed: int, types) -> FaultSpec:
        rng = random.Random(seed)
        dt = types[rng.randrange(len(types))]
        node = rng.randrange(dt.rank + 1)
        exponent = rng.randrange(dt.coxeter_number + 1)
        return cls(str(dt), node, exponent)


class TypeBundle:
    """Everything both sides compute for one type, as parts that are each
    built on their first read and kept. Every command reads a type's parts
    here, so a query pays for the parts it prints: ``graph`` reads one
    graph, ``weights --basis t`` the t-weights, ``charpoly`` those and its
    report, ``weights --basis q`` the graph parts, ``group`` the group and
    its table, ``molien`` those and the Molien series, and ``verify`` every
    part. Each part calls its builder through this module's globals, so a
    wrapper set on one of those names sees every build. ``PARTS`` lists the
    parts ``verify`` builds first, in build order; ``charpoly`` is one
    more, built on its first read.

    A bundle equals only itself. ``dynkin`` and the built parts live in
    the instance ``__dict__``, where ``cached_property`` writes them, and
    assigning any attribute raises AttributeError."""

    def __init__(self, dynkin: DynkinType):
        vars(self)["dynkin"] = dynkin

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"TypeBundle(dynkin={self.dynkin!r})"

    @cached_property
    def finite(self) -> DirectedGraph:
        return build_graph(self.dynkin, "finite")

    @cached_property
    def affine(self) -> DirectedGraph:
        return build_graph(self.dynkin, "affine")

    @cached_property
    def semiaffine(self) -> DirectedGraph:
        return build_graph(self.dynkin, "semiaffine")

    @cached_property
    def marks(self) -> tuple[int, ...]:
        return graph_marks(self.affine)

    @cached_property
    def tweights(self) -> TWeights:
        return solve_semiaffine(self.semiaffine)

    @cached_property
    def group(self) -> FiniteSubgroup:
        return build_group(self.dynkin)

    @cached_property
    def table(self) -> CharTable:
        return char_table(self.dynkin, self.group)

    @cached_property
    def numerators(self) -> QNumerators:
        return to_q_numerators(self.tweights)

    @cached_property
    def mckay(self) -> McKayResult:
        return mckay_matrix(self.group, self.table, self.affine, self.marks)

    @cached_property
    def molien(self) -> MolienSet:
        return molien_series(self.group, self.table)

    @cached_property
    def charpoly(self) -> CharPolyReport:
        """LeVerrier on the semi-affine graph held against the solver's det
        from the tree recurrence."""
        return charpoly_report(self.semiaffine, self.tweights.det)


PARTS = ("finite", "affine", "semiaffine", "marks", "tweights", "group",
         "table", "numerators", "mckay", "molien")


@lru_cache(maxsize=None)
def build_bundle(dt: DynkinType) -> TypeBundle:
    """The type's one bundle for the query commands in this process; no
    part is built yet. ``run_suite`` reads each type once and builds its
    own."""
    return TypeBundle(dt)


def _check_cross_match(b: TypeBundle, fault: FaultSpec | None) -> tuple:
    graph_side = list(b.numerators.N)
    noted = ""
    if fault is not None and fault.type_name == str(b.dynkin):
        p = graph_side[fault.node]
        coeffs = list(p.coeffs) + [0] * (fault.exponent + 1 - len(p.coeffs))
        coeffs[fault.exponent] += 1
        graph_side[fault.node] = Polynomial("q", coeffs)
        noted = f" (fault injected at node {fault.node}, q^{fault.exponent} +1)"
    mismatches = [i for i, num in enumerate(b.molien.numerators)
                  if num != graph_side[b.mckay.bijection[i]]]
    return (not mismatches,
            f"all {len(b.molien.numerators)} Molien numerators equal the "
            f"graph weights under the node bijection{noted}",
            f"numerator mismatch at character rows {mismatches}{noted}")


def _check_closed_form(b: TypeBundle, _fault) -> tuple:
    if not weights_satisfy(b.semiaffine, b.tweights):
        return (False, "",
                "solved t-weights do not satisfy the semi-affine equations")
    return (b.numerators.N == closed_form(b.dynkin).N,
            "solver numerators equal the tabulated exponent lists",
            "solver numerators differ from the tabulated exponent lists")


def _check_ab(b: TypeBundle, _fault) -> tuple:
    a, g_b = b.dynkin.standard_ab
    h = b.dynkin.coxeter_number
    return ((a * g_b == 2 * b.group.order) and (a + g_b == h + 2),
            f"a*b = 2|G| = {2 * b.group.order} and a+b = h+2 = {h + 2}",
            f"standard form broken: a={a} b={g_b} |G|={b.group.order} h={h}")


def _check_specialization(b: TypeBundle, _fault) -> tuple:
    return (specialization_identity(b.numerators, b.affine),
            "q[(q+1/q)N_0 - neighbor sum] = (1-q^a)(1-q^b)",
            "specialization identity fails")


def _check_finite_reduction(b: TypeBundle, _fault) -> tuple:
    return (finite_reduction_check(b.numerators, b.finite),
            "finite-type equations hold modulo 1+q^h",
            "finite-type reduction fails modulo 1+q^h")


def _check_palindrome(b: TypeBundle, _fault) -> tuple:
    h = b.dynkin.coxeter_number
    bad = [i for i, p in enumerate(b.numerators.N)
           if p.degree > h or not all(p.coefficient(k) == p.coefficient(h - k)
                                      for k in range(h + 1))]
    return (not bad, "q^h N(1/q) = N(q) at every node",
            f"nodes {bad} are not self-reciprocal over span h")


def _check_notes(b: TypeBundle, _fault) -> tuple:
    rep = check_notes(b.numerators, b.affine)
    return (rep.all_ok(),
            f"exponent chain, parity ({rep.h_parity} h), and doubling counts "
            "hold",
            f"notes violated: chain={rep.chain_ok} parity={rep.parity_ok} "
            f"count={rep.count_ok}")


def _check_lcd(b: TypeBundle, _fault) -> tuple:
    lcd = common_denominator(b.tweights)
    expected = cox(b.dynkin.coxeter_number)
    return (lcd == expected, f"common denominator is cox(h) = {expected}",
            f"common denominator {lcd} differs from cox(h) = {expected}")


def _check_mckay(b: TypeBundle, _fault) -> tuple:
    if not recurrence_check(b.molien, b.mckay.matrix):
        return (False, "", "Molien numerators fail (q + 1/q) m_i = "
                "sum_j A_ij m_j on the McKay matrix")
    k = b.affine.n
    return (all(b.mckay.matrix[i][j] ==
                b.affine.mult[b.mckay.bijection[i]][b.mckay.bijection[j]]
                for i in range(k) for j in range(k)),
            "McKay matrix equals the affine adjacency",
            "McKay matrix differs from the affine adjacency")


def _halved_values_at_one(numerators) -> list | None:
    """N_i(1) / 2 for every numerator, in exact arithmetic; None when some
    N_i(1) is odd."""
    ones = [p.evaluate(1) for p in numerators]
    if any(v % 2 for v in ones):
        return None
    return [v // 2 for v in ones]


def _check_smith(b: TypeBundle, _fault) -> tuple:
    marks = _halved_values_at_one(b.numerators.N)
    if marks is None:
        return False, "", "some N_i(1) is odd; marks are not integral"
    # graph_marks checked the eigen-equation for b.marks on the affine graph
    return (list(b.marks) == marks,
            "adjacency * (N(1)/2) = 2 * (N(1)/2), the Perron vector",
            "marks vector is not the eigenvalue-2 eigenvector")


def _check_sym_oracle(b: TypeBundle, _fault) -> tuple:
    mmax = 2 * b.dynkin.coxeter_number + 1
    sym = sym_power_multiplicities(b.group, b.table, mmax)
    return (all(b.molien.coefficients(i, mmax + 1) == [row[i] for row in sym]
                for i in range(len(b.group.classes))),
            f"symmetric-power multiplicities match the series to q^{mmax}",
            "symmetric-power multiplicities disagree with the series")


def _check_charpoly_claim(b: TypeBundle, _fault) -> tuple:
    rep = b.charpoly
    payload = {"d": rep.d, "cofactor": rep.cofactor.to_json(),
               "cox": rep.cox.to_json(), "claim_holds": rep.claim_holds}
    tail = f"cox(h) = {rep.cox}, d = {rep.d}"
    return (rep.claim_holds, f"cofactor {rep.cofactor} matches {tail}",
            f"cofactor {rep.cofactor} exceeds {tail}", payload)


def _check_structural(b: TypeBundle, _fault) -> tuple:
    rep = b.charpoly
    return (rep.structural_ok and rep.char_semiaffine.degree == b.dynkin.rank + 1
            and not b.semiaffine.is_symmetric(),
            "char(semiaffine) = t * char(finite), degree rank+1, matrix "
            "asymmetric",
            "structural characteristic-polynomial identity fails")


class Check(NamedTuple):
    """``run(bundle, fault)`` returns a verdict, the detail for a true one,
    the detail for a false one and, optionally, a payload."""

    name: str
    run: Callable[[TypeBundle, FaultSpec | None], tuple]
    kind: str = "hard"  # hard | informational


CHECKS = (
    Check("CROSS_MATCH", _check_cross_match),
    Check("CLOSED_FORM", _check_closed_form),
    Check("AB_RELATIONS", _check_ab),
    Check("SPECIALIZATION", _check_specialization),
    Check("FINITE_REDUCTION", _check_finite_reduction),
    Check("PALINDROME", _check_palindrome),
    Check("NOTES123", _check_notes),
    Check("LCD_COX", _check_lcd),
    Check("MCKAY_ADJ", _check_mckay),
    Check("SMITH_EIGEN", _check_smith),
    Check("SYM_ORACLE", _check_sym_oracle),
    Check("CHARPOLY_CLAIM", _check_charpoly_claim, "informational"),
    Check("STRUCTURAL_CHARPOLY", _check_structural),
)


def _type_checks(b: TypeBundle, fault: FaultSpec | None) -> list[CheckResult]:
    out = []
    for check in CHECKS:
        try:
            ok, if_true, if_false, *payload = check.run(b, fault)
            status = ("informational" if check.kind == "informational"
                      else "pass" if ok else "fail")
            detail = if_true if ok else if_false
        except Exception as exc:  # a check that raises fails, the rest run
            status, payload = "fail", []
            detail = f"check raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(check.name, str(b.dynkin), status, detail,
                               *payload))
    return out


def run_suite(types, fault: FaultSpec | None = None) -> VerificationReport:
    """Run every check on every type, in canonical type order. Each type
    gets a bundle of its own, dropped once its checks have run, so the
    run holds one type's parts at a time."""
    ordered = sorted(set(types))
    if fault is not None:
        dt = next((t for t in ordered if str(t) == fault.type_name), None)
        if dt is None or not (0 <= fault.node <= dt.rank and
                              0 <= fault.exponent <= dt.coxeter_number):
            raise InvalidParameter(
                f"fault {fault.type_name} node {fault.node} q^{fault.exponent}"
                " needs its type in the run, 0 <= node <= rank and "
                "0 <= exponent <= h")
    checks: list[CheckResult] = []
    for dt in ordered:
        bundle = TypeBundle(dt)
        try:
            for part in PARTS:
                getattr(bundle, part)
        except Exception as exc:  # a failure to build is data, not a crash
            checks.extend(CheckResult(check.name, str(dt), "fail",
                                      f"bundle construction failed at {part}: "
                                      f"{type(exc).__name__}: {exc}")
                          for check in CHECKS)
            continue
        checks.extend(_type_checks(bundle, fault))
    summary = {
        "pass": sum(c.status == "pass" for c in checks),
        "fail": sum(c.status == "fail" for c in checks),
        "info": sum(c.status == "informational" for c in checks),
    }
    desc = "ADE semi-affine verification: " + \
        (",".join(str(t) for t in ordered) if ordered else "(empty)")
    if fault is not None:
        desc += (f" [fault: {fault.type_name} node {fault.node} "
                 f"q^{fault.exponent} +1]")
    return VerificationReport(desc, tuple(checks), summary)


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` for the values the commands print: str,
    int, bool, None, and lists, tuples and str-keyed dicts of them. One
    recursive pass appends tokens to one list, joined once at the end, with
    strings quoted by the C encoder (the ``json`` module's C encoder runs
    only without an indent). A dict object met again at the same indent is
    written from the text of its first writing: ``obj`` is alive for the
    whole call, so no id is reused, and a command that shares one JSON
    object among equal values pays for its text once. Anything else, a
    float, a set, a non-str key or a CycNumber among them, raises
    TypeError."""
    out: list[str] = []
    _emit(obj, "\n", out, {})
    return "".join(out)


def _emit(obj, newline: str, out: list[str], seen: dict) -> None:
    """Append the JSON text of ``obj``, whose lines below the first start
    with ``newline``'s indent, to ``out``. ``seen`` maps (id, newline) of
    each dict written so far to the span of ``out`` that holds its tokens,
    or, once it is met again, to their joined text. A str in a container is
    quoted in place, with no call of its own."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("[" + inner)
        for v in obj:
            if type(v) is str:
                out.append(encode_basestring_ascii(v))
            else:
                _emit(v, inner, out, seen)
            out.append(sep)
        out[-1] = newline + "]"  # the last separator
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        key = (id(obj), newline)
        text = seen.get(key)
        if text is not None:
            if type(text) is tuple:  # met once: join its span, once
                text = seen[key] = "".join(out[text[0]:text[1]])
            out.append(text)
            return
        start = len(out)
        inner = newline + "  "
        sep = "," + inner
        out.append("{" + inner)
        for k, v in obj.items():
            # the encoder raises TypeError on a key that is not a str
            out.append(encode_basestring_ascii(k) + ": ")
            if type(v) is str:
                out.append(encode_basestring_ascii(v))
            else:
                _emit(v, inner, out, seen)
            out.append(sep)
        out[-1] = newline + "}"  # the last separator
        seen[key] = (start, len(out))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"{type(obj).__name__} value {obj!r} has no JSON text")


def report_text(report: VerificationReport) -> str:
    lines = [report.suite]
    for c in report.checks:
        lines.append(f"{c.status.upper():>13}  {c.type_name:>4}  {c.name:<20} {c.detail}")
    s = report.summary
    lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, {s['info']} informational")
    return "\n".join(lines) + "\n"
