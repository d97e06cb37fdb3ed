"""Every output the benchmark pins, checked: each call in
``perfbench/golden.json`` runs through ``adeweights.cli.main`` in this
process, and its exit status and the sha256 of its output are compared with
the pinned ones.

    PYTHONPATH=src python tests/golden_outputs.py
    PYTHONPATH=src python -O tests/golden_outputs.py

prints one line per call that differs, then a count, and exits 1 if any
call differs. tests/test_verify.py runs the same loop in-process and in a
``python -O`` child. Needs only the standard library.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from adeweights import cli

# exit status and output digest of every call a benchmark workload makes,
# read only
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "golden.json").read_text())["outputs"]


def mismatches() -> list[str]:
    """One line per pinned call whose exit status or output digest is not
    the pinned one, in the file's order."""
    out = []
    for argv, want in GOLDEN.items():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv.split())
        digest = hashlib.sha256(captured.getvalue().encode()).hexdigest()
        if (status, digest) != (want["rc"], want["sha256"]):
            out.append(f"{argv}: exit {status}, sha256 {digest}; pinned "
                       f"exit {want['rc']}, sha256 {want['sha256']}")
    return out


def main() -> int:
    bad = mismatches()
    for line in bad:
        print(line)
    print(f"{len(bad)} of {len(GOLDEN)} outputs differ "
          f"(optimize {sys.flags.optimize})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
