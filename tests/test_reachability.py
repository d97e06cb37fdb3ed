"""What runs is what stays: every named function and method in src/ is
entered by some call of a fixed corpus of CLI argvs, or is on an explicit
allowlist with the reason it stays.

One child interpreter, with PYTHONPATH at src/ so every cache starts cold,
runs the corpus through ``cli.main`` under ``sys.setprofile``, checks each
call's exit status and prints (co_filename, co_firstlineno, co_name) of
every code object it entered in the package. The parent lists the named
functions and methods by compiling each module and walking ``co_consts``;
module bodies, class bodies, lambdas and comprehensions are not among them.
Both sides key on ``co_firstlineno`` and ``co_name``, since ``co_qualname``
is missing on Python 3.10.

To keep a function no CLI call reaches, add it to ``ALLOWLIST`` as
``"module.Class.method"`` with its reason; to keep it off the list, add a
corpus call that reaches it, or delete it.
"""
from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

import adeweights
from adeweights.graphs import FORMS

SRC = Path(adeweights.__file__).resolve().parent

TRACER_WRAPS = ("perfbench/tracer.py wraps it through cls.__dict__, so it "
                "stays until the tracer reads spans instead of wrapping")
ALLOWLIST = {
    "cli.run": "the console entry point; the corpus calls cli.main",
    "cyclo.CycNumber.__repr__": "for debugging only",
    "cyclo.CycNumber.__hash__": "the pair of __eq__, which a class defining "
                                "__eq__ alone would lose; tests key dicts "
                                "on CycNumbers and on matrices of them",
    "poly.Polynomial.__repr__": "for debugging only",
    "poly.RationalFunction.__repr__": "for debugging only",
    "verify.TypeBundle.__repr__": "for debugging only",
    "verify.TypeBundle.__setattr__": "refuses assignment to a bundle, which "
                                     "no CLI call attempts",
    "cyclo.CycNumber.inverse": TRACER_WRAPS,
    "poly.Polynomial.__divmod__": TRACER_WRAPS,
    "poly.RationalFunction.__eq__": "tests compare t-weights with it",
    "weights.intermediate_q_weights": "the paper's first normalization, "
                                      "read by acceptance criterion 1",
}

# E8 is the only type whose generators subtract (phi - 1)
TYPES = ("A1", "A2", "D4", "D5", "E6", "E8")

CHILD = r"""
import contextlib, io, json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
import adeweights
from adeweights.cli import main
for argv, expected in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    if status != expected:
        sys.exit(f"{argv}: exit {status}, expected {expected}")
sys.setprofile(None)
package = os.path.dirname(adeweights.__file__)
json.dump({"package": package,
           "entered": sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                              for c in entered
                              if os.path.dirname(c.co_filename) == package})},
          sys.stdout)
"""


def corpus(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit status): every subcommand with every --form,
    --basis and --format on each type and on all of them at once, then a
    fault run, --out and the usage errors."""
    calls = []
    for sel in TYPES + (",".join(TYPES),):
        graph_formats = ("json", "text") + (("dot",) if "," not in sel else ())
        calls += [(["graph", "--type", sel, "--form", form, "--format", fmt], 0)
                  for form in FORMS for fmt in graph_formats]
        calls += [(["weights", "--type", sel, "--basis", basis,
                    "--format", fmt], 0)
                  for basis in ("t", "q", "molien")
                  for fmt in ("json", "text", "latex")]
        for fmt in ("json", "text"):
            calls += [(["molien", "--type", sel, "--format", fmt], 0),
                      (["molien", "--type", sel, "--series-terms", "5",
                        "--format", fmt], 0),
                      (["group", "--type", sel, "--format", fmt], 0),
                      (["charpoly", "--type", sel, "--format", fmt], 0),
                      (["verify", "--types", sel, "--format", fmt], 0)]
    return calls + [
        (["verify", "--types", "A1,D4,E8", "--inject-fault", "3"], 1),
        (["graph", "--type", "D4", "--out", str(tmp / "d4.txt")], 0),
        (["graph", "--type", "D4", "--out", str(tmp / "no" / "d4.txt")], 2),
        (["graph", "--type", "F4"], 2),
        (["graph", "--type", "A5..A2"], 2),
        (["graph", "--type", "A1,A2", "--format", "dot"], 2),
        (["molien", "--type", "A1", "--series-terms", "-1"], 2),
        (["molien", "--type", "A1", "--series-terms", "100001"], 2),
    ]


def named_functions(path: Path) -> dict[tuple[int, str], str]:
    """(co_firstlineno, co_name) -> "module.qualified.name" of every named
    function and method the module defines, nested ones included."""
    out: dict[tuple[int, str], str] = {}

    def walk(code: CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType) or const.co_name.startswith("<"):
                continue  # not code, or a lambda or a comprehension
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function
                name = prefix + const.co_name
                key = (const.co_firstlineno, const.co_name)
                assert key not in out, (path.name, key)
                out[key] = name
                walk(const, name + ".<locals>.")
            else:  # a class body
                walk(const, prefix + const.co_name + ".")

    walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return out


def entered_in_src(calls) -> set[tuple[str, int, str]]:
    """(file name, co_firstlineno, co_name) of every code object in the
    package that the calls entered, run cold in one child interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(calls),
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert Path(out["package"]).resolve() == SRC
    return {(Path(f).name, line, name) for f, line, name in out["entered"]}


def test_unreached_functions_are_the_allowlist(tmp_path):
    entered = entered_in_src(corpus(tmp_path))
    unreached = {name for path in sorted(SRC.glob("*.py"))
                 for (line, co_name), name in named_functions(path).items()
                 if (path.name, line, co_name) not in entered}
    assert sorted(unreached - ALLOWLIST.keys()) == [], \
        "no CLI call reaches these: delete them, reach them or allowlist them"
    assert sorted(ALLOWLIST.keys() - unreached) == [], \
        "a CLI call reaches these: take them off the allowlist"
    assert all(ALLOWLIST.values())
