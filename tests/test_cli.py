from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adeweights
from adeweights import cli
from adeweights.cli import main
from adeweights.graphs import FORMS, MAX_RANK, DynkinType
from adeweights.poly import RationalFunction, one_plus_q
from adeweights.verify import build_bundle


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestWeightsCommand:
    def test_d4_text_golden(self, capsys):
        status, out, _ = run_cli(capsys, "weights", "--type", "D4",
                                 "--basis", "q", "--format", "text")
        assert status == 0
        assert out == "1+q^6; q+2q^3+q^5; q^2+q^4 (×3)\n"

    def test_d4_t_basis(self, capsys):
        status, out, _ = run_cli(capsys, "weights", "--type", "D4", "--basis", "t")
        assert status == 0
        assert out == "1; t/(t^2-3); 1/(t^2-3) (×3)\n"

    def test_latex(self, capsys):
        status, out, _ = run_cli(capsys, "weights", "--type", "D4",
                                 "--format", "latex")
        assert out.strip() == "(0+6),(1+2\\times 3+5),(2+4),(2+4),(2+4)"

    def test_q_equals_molien_numerators(self, capsys):
        # the central identity surfaced at the CLI: same multiset of numerators
        for name in ("A4", "D5", "E6"):
            _, wout, _ = run_cli(capsys, "weights", "--type", name,
                                 "--format", "json")
            _, mout, _ = run_cli(capsys, "molien", "--type", name,
                                 "--format", "json")
            weights_n = sorted(tuple(row) for row in json.loads(wout)["N"])
            molien_n = sorted(tuple(ch["numerator"]["coeffs"])
                              for ch in json.loads(mout)["characters"])
            assert weights_n == molien_n

    def test_range_selector(self, capsys):
        status, out, _ = run_cli(capsys, "weights", "--type", "A1..A3")
        assert status == 0
        assert out.count("==") == 6  # three section headers

    def test_invalid_range_aborts(self, capsys):
        status, _, err = run_cli(capsys, "weights", "--type", "A3..A1")
        assert status == 2
        assert "error" in err


class TestGraphCommand:
    def test_a2_semiaffine_dot(self, capsys):
        status, out, _ = run_cli(capsys, "graph", "--type", "A2",
                                 "--form", "semiaffine", "--format", "dot")
        assert status == 0
        lines = out.splitlines()
        assert sum("->" in ln for ln in lines) == 4
        assert sum("label" in ln for ln in lines) == 3

    def test_form_choices_are_the_graph_forms(self, capsys):
        status, out, _ = run_cli(capsys, "graph", "--help")
        assert status == 0 and "--form {finite,affine,semiaffine}" in out
        commands = next(a for a in cli.build_parser()._actions
                        if a.dest == "command")
        form = next(a for a in commands.choices["graph"]._actions
                    if a.dest == "form")
        assert form.choices is FORMS

    def test_dot_rejects_ranges(self, capsys):
        status, _, err = run_cli(capsys, "graph", "--type", "A1..A3",
                                 "--format", "dot")
        assert status == 2

    def test_json_round_trip_bytes(self, capsys):
        for argv in (("graph", "--type", "D4"),
                     ("weights", "--type", "A3"),
                     ("molien", "--type", "D5"),
                     ("charpoly", "--type", "E6")):
            _, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestVerifyCommand:
    def test_all_e_types_pass(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--types", "E6,E7,E8",
                                 "--format", "json")
        assert status == 0
        obj = json.loads(out)
        assert obj["summary"]["fail"] == 0

    def test_lcd_exception_fails_honestly(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--types", "A5",
                                 "--format", "json")
        assert status == 1
        fails = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert [c["name"] for c in fails] == ["LCD_COX"]

    def test_fault_injection_nonzero_exit(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "--types", "D4,E6",
                                 "--inject-fault", "7", "--format", "json")
        assert status == 1
        fails = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert len(fails) == 1 and fails[0]["name"] == "CROSS_MATCH"

    def test_report_round_trip_bytes(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--types", "D4", "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_same_report_under_python_O(self):
        # -O strips assert statements; no check may depend on them, and no
        # report byte may depend on the order of a set or dict of str keys,
        # which PYTHONHASHSEED changes. The passing report and a faulted
        # one, whose hard gate must stay red, are both compared.
        env = dict(os.environ)
        src = str(Path(adeweights.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = ["-m", "adeweights.cli", "verify", "--types", "D4,E6,E8",
                "--format", "json"]
        for extra, status in (((), 0), (("--inject-fault", "7"), 1)):
            plain, optimized, reseeded = (
                subprocess.run([sys.executable, *flags, *argv, *extra],
                               env=dict(env, PYTHONHASHSEED=seed),
                               capture_output=True, timeout=120)
                for flags, seed in (((), "0"), (("-O",), "0"), ((), "1")))
            assert plain.returncode == status and plain.stdout
            for other in (optimized, reseeded):
                assert (other.returncode, other.stdout) == \
                    (plain.returncode, plain.stdout), extra
            fails = [(c["type"], c["name"])
                     for c in json.loads(plain.stdout)["checks"]
                     if c["status"] == "fail"]
            assert fails == ([("E6", "CROSS_MATCH")] if extra else [])


class TestOtherCommands:
    def test_charpoly_text(self, capsys):
        status, out, _ = run_cli(capsys, "charpoly", "--type", "D4")
        assert "t^3 * (t^2-3)" in out and "claim holds" in out

    def test_group_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "group", "--type", "E6", "--format", "json")
        obj = json.loads(out)
        assert obj["order"] == 24 and len(obj["classes"]) == 7
        assert json.dumps(obj, indent=2) + "\n" == out

    def test_molien_series_terms(self, capsys):
        _, out, _ = run_cli(capsys, "molien", "--type", "A1",
                            "--series-terms", "6")
        assert "series 0 2 0 4 0 6" in out

    def test_molien_json_entries_are_the_standard_form_quotients(self, capsys):
        _, out, _ = run_cli(capsys, "molien", "--types",
                            "A1..A12,D4..D12,E6..E8", "--format", "json")
        for obj in json.loads(out):
            std = one_plus_q(obj["a"], -1) * one_plus_q(obj["b"], -1)
            nums = build_bundle(DynkinType.parse(obj["type"])).molien.numerators
            assert [c["molien"] for c in obj["characters"]] == \
                [RationalFunction(n, std).to_json() for n in nums]

    @pytest.mark.parametrize("argv", [
        ("group", "--types", "E6,E7"),
        ("molien", "--types", "D5,D6", "--series-terms", "4")])
    def test_several_types_print_the_list_of_their_objects(self, capsys,
                                                            argv):
        """A selector of several types prints the list of the one-type
        objects, so every character table is written one indent deeper
        than for one type."""
        command, _, types, *extra = argv
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        singles = [json.loads(run_cli(capsys, command, "--type", t, *extra,
                                      "--format", "json")[1])
                   for t in types.split(",")]
        assert json.loads(out) == singles
        assert out == json.dumps(singles, indent=2) + "\n"

    def test_usage_error_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_usage_error_missing_type(self, capsys):
        assert run_cli(capsys, "weights")[0] == 2


class TestRejectedArguments:
    """Each bad argument exits 2 with a single error line, before any work."""

    def assert_rejected(self, capsys, *argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_empty_verify_types(self, capsys):
        self.assert_rejected(capsys, "verify", "--types", "")

    def test_negative_series_terms(self, capsys):
        self.assert_rejected(capsys, "molien", "--type", "A1",
                             "--series-terms", "-3")

    def test_series_terms_above_the_cap(self, capsys, monkeypatch):
        # refused before any bundle is built: an unbounded count would run
        # the series expansion until the process is killed
        def refuse(dt):
            raise AssertionError(f"built a bundle for {dt}")
        monkeypatch.setattr(cli, "build_bundle", refuse)
        for terms in (cli.MAX_SERIES_TERMS + 1, 99999999999999999999):
            self.assert_rejected(capsys, "molien", "--type", "A1",
                                 "--series-terms", str(terms))

    def test_leading_zero_type(self, capsys):
        self.assert_rejected(capsys, "graph", "--type", "A01")

    def test_rank_above_the_cap(self, capsys, monkeypatch):
        # every type of the selector is checked before anything is built,
        # and a range before it is expanded
        def refuse(*args, **kwargs):
            raise AssertionError("built a bundle or suite")
        for name in ("build_bundle", "run_suite"):
            monkeypatch.setattr(cli, name, refuse)
        commands = [["graph"], ["weights", "--basis", "t"], ["weights"],
                    ["molien"], ["group"], ["charpoly"], ["verify"]]
        over = MAX_RANK + 1
        for selector in (f"A{over}", f"D{over}", f"A1..A{over}",
                         f"E6,D4..D{over}", "A1..A99999999999999999999"):
            for command in commands:
                self.assert_rejected(capsys, *command, "--types", selector)

    def test_rank_at_the_cap_is_accepted(self, capsys):
        status, out, err = run_cli(capsys, "graph", "--type",
                                   f"D{MAX_RANK}", "--format", "json")
        assert (status, err) == (0, "")
        assert json.loads(out)["nodes"] == MAX_RANK + 1


class TestExitStatus:
    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "run_suite", crash)
        status, out, err = run_cli(capsys, "verify", "--types", "D4")
        assert (status, out, err) == (3, "", "internal error: RuntimeError: boom\n")

    def test_parser_is_built_once(self, capsys):
        parser = cli.build_parser()
        assert run_cli(capsys, "charpoly", "--type", "A2")[0] == 0
        assert cli.build_parser() is parser


class TestAtomicOutput:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        status, out, _ = run_cli(capsys, "weights", "--type", "D4",
                                 "--format", "json", "--out", str(target))
        assert status == 0
        assert out == ""
        obj = json.loads(target.read_text())
        assert obj["type"] == "D4"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert not leftovers

    def test_out_file_gets_umask_mode(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        old = os.umask(0o022)
        try:
            status, _, _ = run_cli(capsys, "graph", "--type", "A2",
                                   "--out", str(target))
        finally:
            os.umask(old)
        assert status == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        status, out, err = run_cli(capsys, "graph", "--type", "A2",
                                   "--out", str(target))
        assert status == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_no_file(self, capsys, tmp_path):
        target = tmp_path / "never.json"
        status, _, _ = run_cli(capsys, "weights", "--type", "Z9",
                               "--format", "json", "--out", str(target))
        assert status == 2
        assert not target.exists()


# The argv grammar of the contract test: every subcommand and a misspelt one,
# type tokens right and wrong (ranks <= 8 where right), every choice of
# --form, --basis and --format and one outside each, integers small, bad and
# huge, an unknown flag, and --help.
TYPE_TOKENS = ([f"A{m}" for m in range(1, 9)] + [f"D{m}" for m in range(4, 9)]
               + ["E6", "E7", "E8", "A2..A5", "D4..D6", "E6..E8"])
BAD_TYPE_TOKENS = ["A0", "D3", "E5", "E9", "B4", "a4", "A04", "A", "", " ",
                   "A1..", "..A2", "A3..A1", "A2..D5", "A1...A3", "A-1",
                   "A1.5", "D4..D999", "A" + "9" * 30, "A" + "9" * 5000]
INTEGERS = ["0", "1", "3", "8", "-1", str(cli.MAX_SERIES_TERMS + 1), "9" * 30,
            "-" + "9" * 30, "9" * 5000, "x", "1.5", ""]
OPTIONS = {"--form": FORMS + ("bogus",), "--basis": ("t", "q", "molien", "z"),
           "--format": ("json", "text", "latex", "dot", "yaml"),
           "--series-terms": INTEGERS, "--inject-fault": INTEGERS,
           "--frobnicate": ("1",), "--help": ()}
COMMAND_OPTIONS = {"graph": ("--form", "--format"),
                   "weights": ("--basis", "--format"),
                   "molien": ("--series-terms", "--format"),
                   "group": ("--format",), "charpoly": ("--format",),
                   "verify": ("--format", "--inject-fault")}


@st.composite
def argv_and_out(draw):
    argv = [draw(st.sampled_from(list(COMMAND_OPTIONS) + ["frobnicate"]))]
    if draw(st.integers(0, 3)):
        tokens = draw(st.lists(st.sampled_from(TYPE_TOKENS) | st.sampled_from(
            BAD_TYPE_TOKENS), min_size=1, max_size=3))
        argv += [draw(st.sampled_from(["--type", "--types"])), ",".join(tokens)]
    own = COMMAND_OPTIONS.get(argv[0], ())
    for flag in draw(st.lists(st.sampled_from(own) if own and draw(
            st.booleans()) else st.sampled_from(list(OPTIONS)), max_size=3)):
        values = OPTIONS[flag]
        argv += [flag] + ([draw(st.sampled_from(values))] if values else [])
    return argv, draw(st.sampled_from([None, "out.txt", "missing/out.txt"]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


class TestContract:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv_and_out())
    @example((["group", "--type", "A" + "9" * 5000], None))
    @example((["molien", "--type", "E8", "--series-terms", "9" * 5000], None))
    @example((["verify", "--types", "D4", "--format", "json"], "out.txt"))
    @example((["charpoly", "--type", "D4..D6"], "missing/out.txt"))
    def test_exit_status_streams_and_bytes(self, case):
        """Whatever the argv: exit 0, 1 or 2, never 3; a usage error writes
        nothing to stdout and ends stderr with an ``error:`` line; a run
        that exits 0 or 1 writes nothing to stderr; a failed --out leaves no
        file; and the same argv gives the same bytes twice."""
        argv, out = case
        with tempfile.TemporaryDirectory() as tmp:
            if out is not None:
                argv = argv + ["--out", os.path.join(tmp, out)]
            runs = []
            for _ in range(2):
                status, stdout, stderr = _run(argv)
                assert status in (0, 1, 2), (argv, stderr)
                if status == 2:
                    assert stdout == "", argv
                    assert "error:" in stderr.splitlines()[-1], argv
                else:
                    assert stderr == "", argv
                written = sorted(p.name for p in Path(tmp).rglob("*"))
                if written:  # --help writes no file
                    assert status != 2 and written == [out], (argv, written)
                    assert stdout == "", argv
                    stdout = Path(tmp, out).read_text()
                    os.unlink(os.path.join(tmp, out))
                runs.append((status, stdout, stderr))
            assert runs[0] == runs[1], argv
