"""The benchmark's workloads, as lists of CLI argument vectors.

Every workload is a closed loop with one client: each call starts after the
previous one returns. The seed only orders and picks among calls whose total
work is fixed, so every seed measures the same amount of work.
"""
from __future__ import annotations

import random


def _types(a_max: int, d_max: int) -> list[str]:
    return ([f"A{m}" for m in range(1, a_max + 1)]
            + [f"D{m}" for m in range(4, d_max + 1)] + ["E6", "E7", "E8"])


GRAPH_TYPES = _types(24, 24)
SESSION_TYPES = _types(16, 16)
SERIES_TERMS = (4, 8, 16, 32)

VERIFY_DEFAULT = ["verify", "--format", "json"]
VERIFY_LADDER = ["verify", "--types", "A24,D24", "--format", "json"]
# The top rung of the ladder takes about 30 s, so only the traced run has it.
VERIFY_A48 = ["verify", "--types", "A48", "--format", "json"]
# The gate's self-check runs this clean and with --inject-fault.
FAULT_CHECK = ["verify", "--types", "D4", "--format", "json"]

NAMES = ("verify_default", "verify_ladder", "graph_queries", "query_session")


def _graph_side(t: str) -> list[list[str]]:
    """Queries that never build the group side."""
    return [["weights", "--type", t, "--basis", "t", "--format", "json"],
            ["charpoly", "--type", t, "--format", "json"],
            ["graph", "--type", t, "--format", "json"]]


def _bundle_side(t: str, series_terms: int) -> list[list[str]]:
    """Queries answered from the type's cached bundle."""
    return [["weights", "--type", t, "--basis", "q", "--format", "json"],
            ["molien", "--type", t, "--series-terms", str(series_terms),
             "--format", "json"],
            ["group", "--type", t, "--format", "json"]]


def ops(name: str, seed: int) -> list[list[str]]:
    """The argument vectors one repetition of workload ``name`` runs."""
    rng = random.Random(seed)
    if name == "verify_default":
        return [VERIFY_DEFAULT]
    if name == "verify_ladder":
        return [VERIFY_LADDER]
    if name == "graph_queries":
        calls = [argv for t in GRAPH_TYPES for argv in _graph_side(t)[:2]]
    elif name == "query_session":
        # Every type gets its three graph-side queries and two of its three
        # bundle queries: the first bundle lookup of a type builds it and the
        # second repeats it, so exactly half of the lookups hit the cache.
        calls = []
        for t in SESSION_TYPES:
            calls += _graph_side(t)
            calls += rng.sample(_bundle_side(t, rng.choice(SERIES_TERMS)), 2)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(calls)
    return calls


def traced_extra(name: str) -> list[list[str]]:
    """Calls that only the traced run of ``name`` adds."""
    return [VERIFY_A48] if name == "verify_ladder" else []


def universe() -> list[list[str]]:
    """Every argument vector any seed of any workload can run."""
    calls = [VERIFY_DEFAULT, VERIFY_LADDER, VERIFY_A48, FAULT_CHECK]
    calls += [argv for t in GRAPH_TYPES for argv in _graph_side(t)[:2]]
    for t in SESSION_TYPES:
        calls += _graph_side(t)
        for k in SERIES_TERMS:
            calls += _bundle_side(t, k)
    unique = {" ".join(argv): argv for argv in calls}
    return list(unique.values())
