"""Benchmark of adeweights through its public CLI entry point.

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

Run it from the repository root. Workloads (see workloads.py):

- verify_default: cold ``verify`` of the default suite, the headline number;
- verify_ladder: cold ``verify --types A24,D24``, the scaling rung;
- graph_queries: ``weights --basis t`` and ``charpoly`` for A1..A24, D4..D24,
  E6..E8, which never touch the group side;
- query_session: 160 mixed queries in one process, half of whose bundle
  lookups repeat a type.

One repetition runs the workload's calls in a fresh interpreter (worker.py),
so every repetition starts from cold caches. A run repeats its workload until
``--seconds`` have passed, and at least twice, with a few fresh
interpreter-plus-import starts (start.py) before each repetition.

Times are reported at a reference machine speed (speed.py). On the shared
2-core host this was written on, the speed a process gets jumps between two
levels many times a second, and the share of time at the slow one drifts
over minutes: cold ``verify`` read 3.49-5.10 s over 8 back-to-back runs and
3.02-3.37 s over the next 10, and 20 s medians of a fixed loop spread by a
quarter. A timer in the measured process samples that speed with a fixed
piece of rational arithmetic, and each time is divided by the slowdown
sampled while it ran. ``norm_wall_s`` is the repetitions' median of the
calls' time so rescaled, ``setup_s`` the starts' median. The raw wall times
are in the detail line.

Every call's exit status and output bytes are compared with golden.json
(written by golden.py); ``failed`` counts the calls that differ. Before the
timed part, the run checks that this gate rejects a ``verify
--inject-fault`` report.

The last line of output is {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics under ``--trace 0`` and the per-layer ones under
``--trace 1``. The line before it holds details: the per-repetition times,
the error ratio, and the per-call latency percentiles with their sample
count, each given only where at least ten samples lie beyond it. The traced
run also prints one line per ADE type and writes its spans to
.perfbench-out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPANS_DIR = ROOT / ".perfbench-out"

MIN_REPS = 2
STARTS_PER_REP = 8
WORKER_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's sources first, and
    bytecode cached as it is for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_seconds(env) -> tuple[float, float]:
    """Time one fresh interpreter that imports the CLI: the wall time, and
    the same at the reference speed."""
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, and the time read would be rounded up to the next poll.
    proc = subprocess.run([sys.executable, str(HERE / "start.py")], env=env,
                          check=True, capture_output=True, text=True)
    wall = time.perf_counter() - start
    probe = json.loads(proc.stdout)
    return wall, (wall - probe["probe_s"]) / probe["slowdown"]


def run_worker(ops, env, trace=False, spans_out=None) -> dict:
    job = {"ops": ops, "trace": trace,
           "spans_out": None if spans_out is None else str(spans_out)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def mismatches(ops, golden) -> int:
    """Calls whose exit status or output differs from the golden capture."""
    bad = 0
    for op in ops:
        want = golden.get(" ".join(op["argv"]))
        if want is None or (op["rc"], op["sha256"]) != (want["rc"], want["sha256"]):
            bad += 1
    return bad


def gate_rejects_fault(golden, seed, env) -> bool:
    """The gate passes the clean D4 report and flags a fault-injected one
    that is handed in as the clean call's output."""
    clean = workloads.FAULT_CHECK
    ops = run_worker([clean, clean + ["--inject-fault", str(seed)]], env)["ops"]
    ops[1]["argv"] = clean
    return mismatches(ops[:1], golden) == 0 and mismatches(ops[1:], golden) == 1


def percentile(sorted_values, q: float):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it."""
    rank = math.ceil(q * len(sorted_values))
    if len(sorted_values) - rank < 10:
        return None
    return sorted_values[rank - 1]


def timed_run(name, seed, seconds, env) -> tuple[dict, list, dict]:
    ops = workloads.ops(name, seed)
    reps, setups = [], []
    started = time.perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - started + last <= seconds:
        rep_start = time.perf_counter()
        setups += [start_seconds(env) for _ in range(STARTS_PER_REP)]
        reps.append(run_worker(ops, env))
        last = time.perf_counter() - rep_start
    metrics = {
        "norm_wall_s": {"value": statistics.median(r["norm_wall_s"] for r in reps),
                        "unit": "s"},
        "setup_s": {"value": statistics.median(norm for _, norm in setups),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                        "unit": "MB"},
    }
    latencies = sorted(op["ms"] for r in reps for op in r["ops"])
    lookups = sum(r["bundle_hits"] + r["bundle_misses"] for r in reps)
    detail = {
        "reps": len(reps),
        "wall_s_per_rep": [r["wall_s"] for r in reps],
        "slowdown_per_rep": [r["slowdown"] for r in reps],
        "setup_starts": len(setups),
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "op_samples": len(latencies),
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p90_ms": percentile(latencies, 0.9),
        "bundle_hit_ratio": (sum(r["bundle_hits"] for r in reps) / lookups
                             if lookups else None),
    }
    return metrics, [op for r in reps for op in r["ops"]], detail


def traced_run(name, seed, env) -> tuple[dict, list, dict]:
    ops = workloads.ops(name, seed)
    SPANS_DIR.mkdir(exist_ok=True)
    untraced = run_worker(ops, env)
    traced = run_worker(ops, env, trace=True,
                        spans_out=SPANS_DIR / f"{name}-seed{seed}.jsonl")
    lookups = traced["bundle_hits"] + traced["bundle_misses"]
    layers = dict(traced["layers"])
    layers["verify.build_bundle.hit_ratio"] = (
        traced["bundle_hits"] / lookups if lookups else 0.0)
    layers["trace.overhead_ratio"] = traced["norm_wall_s"] / untraced["norm_wall_s"]
    units = {"self_ms": "ms", "calls": "count"}
    metrics = {key: {"value": value, "unit": units.get(key.rsplit(".", 1)[1],
                                                       "ratio")}
               for key, value in layers.items()}
    all_ops = untraced["ops"] + traced["ops"]
    types = dict(traced["types"])
    extra = workloads.traced_extra(name)
    if extra:
        more = run_worker(extra, env, trace=True,
                          spans_out=SPANS_DIR / f"{name}-extra-seed{seed}.jsonl")
        all_ops += more["ops"]
        types.update(more["types"])
    detail = {"untraced_norm_wall_s": untraced["norm_wall_s"],
              "traced_norm_wall_s": traced["norm_wall_s"], "per_type": types}
    return metrics, all_ops, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "adeweights" / "cli.py").is_file():
        print(f"error: no adeweights sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())["outputs"]
    env = child_env()

    start_seconds(env)  # warm-up: compiles the bytecode, not measured
    gate_ok = gate_rejects_fault(golden, args.seed, env)
    if args.trace:
        metrics, ops, detail = traced_run(args.workload, args.seed, env)
    else:
        metrics, ops, detail = timed_run(args.workload, args.seed,
                                         args.seconds, env)
    failed = mismatches(ops, golden)
    per_type = detail.pop("per_type", {})
    for dt, entry in per_type.items():
        print(json.dumps({"type": dt, **entry}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "gate_rejects_fault": gate_ok,
                      "error_ratio": failed / len(ops), **detail}))
    print(json.dumps({"correct": gate_ok and failed == 0,
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
