"""Every output the benchmark pins, checked: each call in
``perfbench/golden.json`` runs through ``adeweights.cli.main`` in this
process, and its exit status and the sha256 of its output are compared with
the pinned ones.

    PYTHONPATH=src python tests/golden_outputs.py
    PYTHONPATH=src python -O tests/golden_outputs.py
    PYTHONPATH=src python tests/golden_outputs.py tests/heavy_golden.json

prints one line per call that differs, then a count, and exits 1 if any
call differs. The file to check defaults to ``perfbench/golden.json``;
another file, such as ``tests/heavy_golden.json`` (the heavy end of the
ladder, which no workload runs), is given by its path.

    PYTHONPATH=src python tests/golden_outputs.py --capture FILE [ARGV ...]

writes FILE as ``{"outputs": {argv: {"rc", "sha256"}}}`` for each ARGV
string, or for the calls FILE already pins when none is given. Capture only
at the commit whose outputs are the reference. tests/test_verify.py runs the
check in-process, and the benchmark's file also in a ``python -O`` child.
Needs only the standard library.
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
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
HEAVY_PATH = Path(__file__).with_name("heavy_golden.json")


def load(path: Path) -> dict:
    """The pinned outputs of a golden file, argv -> {"rc", "sha256", ...}."""
    return json.loads(path.read_text())["outputs"]


GOLDEN = load(GOLDEN_PATH)


def run(argv: str) -> tuple[int, str]:
    """Exit status and stdout of one call through ``cli.main``."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cli.main(argv.split())
    return status, captured.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mismatches(golden: dict = GOLDEN, texts: dict | None = None) -> list[str]:
    """One line per pinned call whose exit status or output digest is not
    the pinned one, in the file's order. Each call's stdout is kept in
    ``texts`` when one is given."""
    out = []
    for argv, want in golden.items():
        status, text = run(argv)
        if texts is not None:
            texts[argv] = text
        if (status, digest(text)) != (want["rc"], want["sha256"]):
            out.append(f"{argv}: exit {status}, sha256 {digest(text)}; "
                       f"pinned exit {want['rc']}, sha256 {want['sha256']}")
    return out


def capture(path: Path, argvs: list[str]) -> None:
    """Write ``path`` pinning each call of ``argvs``, or the calls it
    already pins when ``argvs`` is empty."""
    outputs = {}
    for argv in argvs or list(load(path)):
        status, text = run(argv)
        outputs[argv] = {"rc": status, "sha256": digest(text)}
    path.write_text(json.dumps({"outputs": outputs}, indent=1) + "\n")
    print(f"wrote {len(outputs)} outputs to {path}")


def main(args: list[str]) -> int:
    if args[:1] == ["--capture"]:
        if len(args) < 2:
            print("usage: golden_outputs.py --capture FILE [ARGV ...]")
            return 2
        capture(Path(args[1]), args[2:])
        return 0
    golden = load(Path(args[0])) if args else GOLDEN
    bad = mismatches(golden)
    for line in bad:
        print(line)
    print(f"{len(bad)} of {len(golden)} outputs differ "
          f"(optimize {sys.flags.optimize})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
