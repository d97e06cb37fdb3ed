"""Run CLI calls in this fresh interpreter and report on them as JSON.

Reads {"ops": [argv, ...], "trace": bool, "spans_out": path | null} from
stdin. Each argv goes through ``adeweights.cli.main`` in turn, with its
output captured; the process starts with cold caches, as a user's would.
Prints one JSON object: per call its argv, exit status, time, the SHA-256 of
its output and, for verify, the report's summary; the summed call time, the
same at the reference machine speed (see speed.py), the peak RSS and the
``build_bundle`` cache counts; with tracing, also the per-layer and per-type
breakdowns.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from adeweights import cli, verify
from speed import SpeedProbe
from tracer import Tracer


def main() -> None:
    job = json.load(sys.stdin)
    bundle_cache = verify.build_bundle  # the lru_cache itself, never wrapped
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    results = []
    sampler = SpeedProbe()
    sampler.start()
    for argv in job["ops"]:
        captured = io.StringIO()
        probed = sampler.overhead_s
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
        seconds = time.perf_counter() - start
        output = captured.getvalue()
        result = {"argv": argv, "rc": status, "ms": seconds * 1e3,
                  "probe_ms": (sampler.overhead_s - probed) * 1e3,
                  "sha256": hashlib.sha256(output.encode()).hexdigest()}
        if argv[0] == "verify":
            result["summary"] = json.loads(output)["summary"]
        results.append(result)
    sampler.stop()
    wall_s = sum(r["ms"] for r in results) / 1e3
    probe_s = sum(r["probe_ms"] for r in results) / 1e3
    slowdown = sampler.slowdown()
    info = bundle_cache.cache_info()
    report = {
        "ops": results,
        "wall_s": wall_s,
        "slowdown": slowdown,
        "norm_wall_s": (wall_s - probe_s) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bundle_hits": info.hits, "bundle_misses": info.misses,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layers()
        report["types"] = tracer.per_type()
        if job.get("spans_out"):
            with open(job["spans_out"], "w") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
