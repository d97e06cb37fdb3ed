"""One fresh start for setup_s: import the CLI with the speed probe on.

    PYTHONPATH=src python3 perfbench/start.py

Prints {"probe_s", "slowdown"}: the time the probe's handler took and the
slowdown it measured during the import (see speed.py).
"""
import json

from speed import SpeedProbe

# The import takes tens of milliseconds; sample it often enough to count.
sampler = SpeedProbe(period_s=0.01)
sampler.start()
import adeweights.cli  # noqa: E402,F401  the import being timed
sampler.stop()
print(json.dumps({"probe_s": sampler.overhead_s, "slowdown": sampler.slowdown()}))
