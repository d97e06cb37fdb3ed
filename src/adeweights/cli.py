"""Command-line front end.

Subcommands: graph, weights, molien, group, charpoly, verify. Output formats
are json / text / latex (dot for graphs only). --out writes atomically via a
temp file and rename, so failures never leave partial files.

The five query commands (graph, weights, molien, group, charpoly) share one
driver, ``_query``: it parses the selector once and reads each type's bundle
once, and a command says only what it prints of a bundle, as JSON and as
text. ``graph --format dot`` takes a single type and is drawn on its own.

Exit status: 0 on success, 1 when verification reports a failure, 2 on usage
errors, an --out path that cannot be written and a type of rank above
graphs.MAX_RANK among them, and 3 on an internal error, reported as one
"internal error:" line on stderr.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from itertools import groupby

from .errors import InvalidParameter
from .graphs import FORMS, parse_type_selector
from .verify import (DEFAULT_SUITE, FaultSpec, build_bundle, json_text,
                     report_text, run_suite)
from .weights import numerators_latex

USAGE_ERROR = 2
INTERNAL_ERROR = 3
# at the cap E8's JSON is about 11 MB; an unbounded count runs until killed
MAX_SERIES_TERMS = 100_000


def _grouped(items: list[str]) -> str:
    """Run-length render: "q^2+q^4 (×3)" for repeated consecutive entries."""
    runs = [(item, sum(1 for _ in run)) for item, run in groupby(items)]
    return "; ".join(item if n == 1 else f"{item} (×{n})" for item, n in runs)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".adeweights-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600
        os.replace(tmp, out_path)
    except OSError as exc:
        raise InvalidParameter(f"cannot write {out_path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _types_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", "--types", dest="types", required=True,
                        help='type selector, e.g. "D4", "E6,E7,E8", "A1..A12"')


def _query(args, to_json, render) -> tuple[str, int]:
    """The types of ``args.types``, each bundle read once: one JSON object of
    ``to_json(bundle)`` (a list for several types), else the sections
    ``render(dt, bundle)`` joined, each headed "== T ==" when there are
    several types."""
    types = parse_type_selector(args.types)
    bundles = ((dt, build_bundle(dt)) for dt in types)
    if args.format == "json":
        payload = [to_json(b) for _, b in bundles]
        return json_text(payload[0] if len(types) == 1 else payload) + "\n", 0
    if len(types) == 1:
        return render(*next(bundles)), 0
    return "\n".join(f"== {dt} ==\n{render(dt, b)}" for dt, b in bundles), 0


def _cmd_graph(args) -> tuple[str, int]:
    if args.format == "dot":
        types = parse_type_selector(args.types)
        if len(types) != 1:
            raise InvalidParameter("dot output requires a single type")
        g = getattr(build_bundle(types[0]), args.form)
        return g.to_dot(f"{types[0]}_{args.form}"), 0

    def render(dt, b):
        g = getattr(b, args.form)
        lines = [f"{dt} {args.form}: {g.n} nodes, affine index {g.affine_index}"]
        lines += [f"  {i} -> {j}  (x{g.mult[i][j]})"
                  for i in range(g.n) for j in range(g.n) if g.mult[i][j]]
        return "\n".join(lines) + "\n"
    return _query(args, lambda b: getattr(b, args.form).to_json(), render)


def _cmd_weights(args) -> tuple[str, int]:
    if args.basis == "t":
        def render(dt, b):
            if args.format == "latex":
                entries = [f"\\frac{{{v.num}}}{{{v.den}}}"
                           if not v.is_polynomial() else str(v.num)
                           for v in b.tweights.values]
                return ",".join(entries) + "\n"
            return _grouped([str(v) for v in b.tweights.values]) + "\n"
        return _query(args, lambda b: b.tweights.to_json(), render)

    # basis q and molien both emit the standard-form numerators
    def render(dt, b):
        if args.format == "latex":
            return numerators_latex(b.numerators) + "\n"
        text = _grouped([str(p) for p in b.numerators.N])
        if args.basis == "molien":
            text += "   over (1-q^{})(1-q^{})".format(*dt.standard_ab)
        return text + "\n"
    return _query(args, lambda b: b.numerators.to_json(), render)


def _cmd_molien(args) -> tuple[str, int]:
    if not 0 <= args.series_terms <= MAX_SERIES_TERMS:
        raise InvalidParameter(
            f"--series-terms must be between 0 and {MAX_SERIES_TERMS}")

    def to_json(b):
        obj = b.molien.to_json(b.table.degrees)
        obj["classes"] = b.group.classes_to_json()
        obj["char_table"] = b.table.to_json(b.group)
        if args.series_terms:
            obj["series_coefficients"] = [
                [str(c) for c in b.molien.coefficients(i, args.series_terms)]
                for i in range(len(b.molien.numerators))]
        return obj

    def render(dt, b):
        ms = b.molien
        lines = [f"{dt}: |G|={b.group.order}, h={dt.coxeter_number}, "
                 + "denominator (1-q^{})(1-q^{})".format(*dt.standard_ab)]
        for i, (d, num) in enumerate(zip(b.table.degrees, ms.numerators)):
            line = f"  chi_{i} (degree {d}): N = {num}"
            if args.series_terms:
                coeffs = ms.coefficients(i, args.series_terms)
                line += "   series " + " ".join(str(c) for c in coeffs)
            lines.append(line)
        return "\n".join(lines) + "\n"
    return _query(args, to_json, render)


def _cmd_group(args) -> tuple[str, int]:
    def to_json(b):
        return {"type": str(b.dynkin), "order": b.group.order,
                "conductor": b.group.conductor,
                "classes": b.group.classes_to_json(),
                "char_table": b.table.to_json(b.group)}

    def render(dt, b):
        lines = [f"{dt}: order {b.group.order}, conductor {b.group.conductor}, "
                 f"{len(b.group.classes)} classes"]
        for i, c in enumerate(b.group.classes):
            lines.append(f"  class {i}: size {c.size}, element order {c.order}, "
                         f"trace {b.group.traces[c.eigen_exp]}")
        return "\n".join(lines) + "\n"
    return _query(args, to_json, render)


def _cmd_charpoly(args) -> tuple[str, int]:
    def render(dt, b):
        rep = b.charpoly
        return (f"{dt}: char(semiaffine) = {rep.char_semiaffine} "
                f"= t^{rep.d} * ({rep.cofactor}); cox(h) = {rep.cox}; "
                f"claim {'holds' if rep.claim_holds else 'does not hold'}\n")
    return _query(args, lambda b: b.charpoly.to_json(), render)


def _cmd_verify(args) -> tuple[str, int]:
    types = (list(DEFAULT_SUITE) if args.types is None
             else parse_type_selector(args.types))
    fault = None
    if args.inject_fault is not None:
        fault = FaultSpec.from_seed(args.inject_fault, sorted(set(types)))
    report = run_suite(types, fault=fault)
    text = (json_text(report.to_json()) + "\n" if args.format == "json"
            else report_text(report))
    return text, 0 if report.ok() else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="adeweights",
        description="Exact semi-affine ADE weight systems and SU(2) Molien series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="emit a graph in dot/json/text form")
    _types_arg(p)
    p.add_argument("--form", choices=FORMS, default="semiaffine")
    p.add_argument("--format", choices=("json", "text", "dot"), default="text")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("weights", help="solve the weight system")
    _types_arg(p)
    p.add_argument("--basis", choices=("t", "q", "molien"), default="q")
    p.add_argument("--format", choices=("json", "text", "latex"), default="text")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("molien", help="group-side Molien series per character")
    _types_arg(p)
    p.add_argument("--series-terms", type=int, default=0,
                   help="also print the first N series coefficients "
                        f"(at most {MAX_SERIES_TERMS})")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_molien)

    p = sub.add_parser("group", help="group enumeration / class data summary")
    _types_arg(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("charpoly", help="semi-affine characteristic polynomial report")
    _types_arg(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--types", default=None,
                   help="type selector (default: A1..A12,D4..D12,E6,E7,E8)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--inject-fault", type=int, default=None, metavar="SEED",
                   help="flip one numerator coefficient (self-test of the "
                        "cross-match; must produce exactly one failure)")
    p.set_defaults(func=_cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write output to a file "
                        "atomically instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        text, status = args.func(args)
        _write_output(text, args.out)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    return status


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
