"""Capture golden.json: the exit status and output digest of every call any
workload can make, run at the commit whose outputs are the reference.

    python3 perfbench/golden.py

Run it from the repository root only when the program's outputs are meant
to change; the benchmark counts every difference from this file as an error.
"""
from __future__ import annotations

import json

import workloads
from run import GOLDEN, child_env, run_worker


def main() -> None:
    env = child_env()
    calls = workloads.universe()
    verify_calls = [argv for argv in calls if argv[0] == "verify"]
    query_calls = [argv for argv in calls if argv[0] != "verify"]
    ops = [op for argv in verify_calls for op in run_worker([argv], env)["ops"]]
    ops += run_worker(query_calls, env)["ops"]
    outputs = {}
    for op in sorted(ops, key=lambda op: " ".join(op["argv"])):
        outputs[" ".join(op["argv"])] = {
            key: op[key] for key in ("rc", "sha256", "summary") if key in op}
    GOLDEN.write_text(json.dumps({"outputs": outputs}, indent=1) + "\n")
    print(f"wrote {len(outputs)} outputs to {GOLDEN.name}")


if __name__ == "__main__":
    main()
