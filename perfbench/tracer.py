"""Spans and operator counts for the benchmark's traced run.

``Tracer.install`` wraps each layer's public functions under every name the
package's modules bind them to, so a call made through a caller's own import
is seen. Each call becomes a span with its parent span, the ADE type it works
on (taken from its first argument, else inherited from the parent), its
duration, its self time (duration minus the time its child spans cover) and
its self operator counts. The polynomial and cyclotomic products are counted
by wrapping the class methods. Everything stays in memory until reported.
"""
from __future__ import annotations

import time

from adeweights import cli, cyclo, graphs, groups, poly, verify, weights
from adeweights.cyclo import euler_phi
from adeweights.graphs import DynkinType

MODULES = (cli, verify, graphs, weights, groups, poly, cyclo)

SPANNED = (
    (cli, "main"),
    (verify, "run_suite"), (verify, "build_bundle"),
    (graphs, "build_graph"), (graphs, "char_poly"), (graphs, "charpoly_report"),
    (weights, "solve_semiaffine"), (weights, "to_q_numerators"),
    (groups, "build_group"), (groups, "char_table"), (groups, "mckay_matrix"),
    (groups, "molien_series"), (groups, "sym_power_multiplicities"),
)

# CycNumber.__rmul__ is the same function as __mul__; both are products.
COUNTED = (
    ("poly.Polynomial.mul", poly.Polynomial, ("__mul__",)),
    ("poly.Polynomial.divmod", poly.Polynomial, ("__divmod__",)),
    ("cyclo.CycNumber.mul", cyclo.CycNumber, ("__mul__", "__rmul__")),
    ("cyclo.CycNumber.inverse", cyclo.CycNumber, ("inverse",)),
)
OP_NAMES = tuple(name for name, _, _ in COUNTED)


def _short(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def _type_of(args) -> str | None:
    if not args:
        return None
    first = args[0]
    if isinstance(first, DynkinType):
        return str(first)
    dt = getattr(first, "dynkin", None)
    return None if dt is None else str(dt)


class Tracer:
    def __init__(self):
        self.counts = [0] * len(COUNTED)
        # finished spans: (id, parent, name, type, start_s, end_s, self_s, self_ops)
        self.spans: list[tuple] = []
        self.group_sizes: dict[str, dict] = {}
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._epoch = time.perf_counter()

    def install(self) -> None:
        for mod, name in SPANNED:
            original = getattr(mod, name)
            wrapper = self._spanning(f"{_short(mod)}.{name}", original)
            for m in MODULES:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        for slot, (_, cls, attrs) in enumerate(COUNTED):
            for attr in attrs:
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._counting(slot, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _counting(self, slot: int, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name: str, fn):
        counts, stack, spans = self.counts, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            dt = _type_of(args)
            if dt is None and parent is not None:
                dt = parent[1]
            # [id, type, child seconds, child op counts]
            frame = [len(spans) + len(stack) + 1, dt, 0.0, [0] * len(counts)]
            stack.append(frame)
            ops_before = counts.copy()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ops = [c - b for c, b in zip(counts, ops_before)]
                if parent is not None:
                    parent[2] += end - start
                    parent[3] = [p + o for p, o in zip(parent[3], ops)]
                spans.append((frame[0], None if parent is None else parent[0],
                              name, dt, start, end, end - start - frame[2],
                              tuple(o - c for o, c in zip(ops, frame[3]))))
            if isinstance(result, groups.FiniteSubgroup):
                self.group_sizes[dt] = {"order": result.order,
                                        "conductor": result.conductor,
                                        "phi": euler_phi(result.conductor),
                                        "classes": len(result.classes)}
            return result
        return wrapper

    def layers(self) -> dict[str, float]:
        """Calls and self time per spanned function, and operator totals."""
        out: dict[str, float] = {}
        for mod, name in SPANNED:
            out[f"{_short(mod)}.{name}.calls"] = 0
            out[f"{_short(mod)}.{name}.self_ms"] = 0.0
        for _, _, name, _, _, _, self_s, _ in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += self_s * 1e3
        for op, n in zip(OP_NAMES, self.counts):
            out[f"{op}.calls"] = n
        return out

    def per_type(self) -> dict[str, dict]:
        """Sizes, self time per function and operator counts per ADE type."""
        out: dict[str, dict] = {}
        for _, _, name, dt, _, _, self_s, ops in self.spans:
            if dt is None:
                continue
            if dt not in out:
                parsed = DynkinType.parse(dt)
                out[dt] = {"rank": parsed.rank, "h": parsed.coxeter_number,
                           **self.group_sizes.get(dt, {}),
                           "self_ms": {}, "ops": dict.fromkeys(OP_NAMES, 0)}
            entry = out[dt]
            entry["self_ms"][name] = entry["self_ms"].get(name, 0.0) + self_s * 1e3
            for op, n in zip(OP_NAMES, ops):
                entry["ops"][op] += n
        return out

    def span_records(self) -> list[dict]:
        """Finished spans in start order, times in ms from tracer creation."""
        records = []
        for sid, parent, name, dt, start, end, self_s, ops in sorted(
                self.spans, key=lambda s: s[4]):
            records.append({"id": sid, "parent": parent, "name": name,
                            "type": dt,
                            "start_ms": (start - self._epoch) * 1e3,
                            "end_ms": (end - self._epoch) * 1e3,
                            "self_ms": self_s * 1e3,
                            "ops": {op: n for op, n in zip(OP_NAMES, ops) if n}})
        return records
