import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trisat import cli, fixtures


# A child interpreter imports trisat from this checkout's src/, installed or not.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestH1Command:
    def test_g2(self, capsys):
        code, report = run_json(capsys, "h1", "--type", "G2", "--triple", "2,3,7")
        assert code == 0
        assert report == {"type": "G2", "triple": [2, 3, 7], "dim_g": 14,
                          "fixed": [6, 4, 2], "z1": 16, "h1": 2}

    def test_a1_zero(self, capsys):
        code, report = run_json(capsys, "h1", "--type", "A1", "--triple", "2,3,7")
        assert code == 0 and report["h1"] == 0

    def test_e8(self, capsys):
        code, report = run_json(capsys, "h1", "--type", "E8", "--triple", "2,3,7")
        assert code == 0 and report["h1"] == 12

    def test_invalid_type_exits_2(self, capsys):
        assert cli.main(["h1", "--type", "Q5", "--triple", "2,3,7"]) == 2

    def test_non_hyperbolic_exits_2(self, capsys):
        assert cli.main(["h1", "--type", "G2", "--triple", "2,3,6"]) == 2


class TestOtherCommands:
    def test_codim_is_gone(self, capsys):
        # h1's fixed list is the codimension list codim printed
        with pytest.raises(SystemExit) as err:
            cli.main(["codim", "--type", "D4", "--triple", "2,3,7"])
        assert err.value.code == 2

    def test_ladder(self, capsys):
        code, report = run_json(capsys, "ladder", "--type", "E6", "--triple", "2,4,6")
        assert code == 0 and report["status"] == "Unknown"

    def test_bibi_with_k(self, capsys):
        code, report = run_json(capsys, "bibi", "--type", "D7", "--triple", "2,3,7", "--k", "1")
        assert code == 0
        assert report["status"] == "Saturated"
        assert report["certificate"]["lhs"] == 2 and report["certificate"]["rhs"] == 4

    def test_bibi_sweep(self, capsys):
        code, report = run_json(capsys, "bibi", "--type", "D5", "--triple", "3,4,4")
        assert code == 0 and report["status"] == "Saturated"

    def test_bibi_rejects_non_d(self, capsys):
        assert cli.main(["bibi", "--type", "B5", "--triple", "2,3,7"]) == 2

    def test_alt_shapes(self, capsys):
        code, report = run_json(capsys, "alt", "--m", "9", "--triple", "3,3,7",
                                "--shapes", "3^3,3^3,7.1^2")
        assert code == 0
        assert report["h1"] == 4 and report["fixed"] == [10, 10, 4]
        assert report["target"] == "D4"

    def test_alt_shapes_reject_garbage(self, capsys):
        assert cli.main(["alt", "--m", "9", "--triple", "3,3,7",
                         "--shapes", "(3)^3,(3)^3 oops,(7)(1)^2"]) == 2

    def test_alt_shapes_reject_odd(self, capsys):
        # 2^3.1^2 and 8 are odd permutations: no Alt_8 class to deform from
        assert cli.main(["alt", "--m", "8", "--triple", "2,3,8",
                         "--shapes", "2^3.1^2,3^2.1^2,8"]) == 2
        err = capsys.readouterr().err
        assert "A slot" in err and "not even" in err

    def test_alt_shapes_reject_zero_multiplicity(self, capsys):
        # "3^3.2^0" must be refused, not read as the (3)^3 it would pad to
        assert cli.main(["alt", "--m", "9", "--triple", "3,3,7",
                         "--shapes", "3^3.2^0,3^3,7.1^2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line.split(":")[0] for line in captured.err.splitlines()] == ["error"]

    def test_alt_check(self, capsys):
        code, report = run_json(capsys, "alt", "--m", "9", "--triple", "3,3,9")
        assert code == 0 and report["status"] == "Saturated"

    def test_decide(self, capsys):
        code, report = run_json(capsys, "decide", "--type", "D5", "--triple", "3,4,4")
        assert code == 0
        assert report["status"] == "Saturated" and report["method"] == "bibi"

    def test_decide_rigid(self, capsys):
        code, report = run_json(capsys, "decide", "--type", "C2", "--triple", "2,3,8")
        assert code == 0 and report["status"] == "RigidZero"

    def test_tsv_mode(self, capsys):
        code, out = run_cli(capsys, "h1", "--type", "D4", "--triple", "2,3,7", "--tsv")
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["fixed"] == "12,10,4"


class TestTableCommand:
    def test_rigid_matches(self, capsys):
        code, report = run_json(capsys, "table", "--id", "rigid", "--sample-c", "20")
        assert code == 0 and report["ok"] and report["mismatches"] == []

    def test_nonso3_matches(self, capsys):
        code, report = run_json(capsys, "table", "--id", "nonso3")
        assert code == 0 and report["checked"] == 312

    def test_bibi_pairs_small_sample(self, capsys):
        code, report = run_json(capsys, "table", "--id", "bibi-pairs", "--sample-c", "15")
        assert code == 0 and report["ok"]

    def test_regenerate(self, capsys):
        code, report = run_json(capsys, "table", "--id", "nonso3", "--regenerate")
        assert code == 0
        assert {"type": "E6", "triple": [2, 4, 6], "status": "Unknown"} in report["rows"]

    def test_unknown_id_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["table", "--id", "never-heard-of-it"])
        assert err.value.code == 2

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.fixtures, "check_table",
            lambda *a, **kw: {"id": "rigid", "checked": 1, "ok": False,
                              "mismatches": [{"type": "A9", "got_h1": 3}]})
        assert cli.main(["table", "--id", "rigid"]) == 1

    def test_check_table_rejects_bad_id(self):
        with pytest.raises(ValueError):
            fixtures.check_table("bogus")


def test_subcommand_lists_match_the_parser():
    """The cli docstring and README's CLI block name exactly the parser's subcommands."""
    parser_names = set(next(a for a in cli.build_parser()._actions
                            if isinstance(a, argparse._SubParsersAction)).choices)
    listed = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
    docstring_names = {name.strip() for name in listed.split(",")}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    readme_names = {line.split()[1] for line in block.splitlines() if line.startswith("trisat ")}
    assert docstring_names == readme_names == parser_names


@pytest.mark.parametrize("argv,option", [
    (["h1", "--type", "G2", "--triple", "2,3,7", "--json"], "--json"),
    (["alt", "--m", "9", "--triple", "3,3,8", "--no-search"], "--no-search"),
], ids=["json", "no-search"])
def test_removed_switches_are_refused(argv, option, capsys):
    # nothing read --json, and decide --alt-search is the one gate on the Alt_m search
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_readme_names_the_parser_options():
    """README's CLI section names exactly the long options of the subcommands."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parser_options = {opt for p in sub.choices.values() for a in p._actions
                      for opt in a.option_strings if opt.startswith("--")} - {"--help"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.M | re.S).group(1)
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == parser_options


# argv, exit code, stdout and stderr of cli.main, captured before the typed
# subcommands shared one handler; the usage and --help rows that named
# --trace, and `bibi --trace`, were captured again once --trace became a
# `table` option, and `bibi --trace` once more when `codim` was dropped.
# The two subcommand usage errors and the six --help rows were captured
# again when --json and `alt --no-search` were dropped.
# Other top-level usage errors are left out: they list the subcommands,
# whose order is not part of the contract.
_CLI_PINS = [json.loads(line)
             for line in (Path(__file__).parent / "cli_outputs.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("pin", _CLI_PINS, ids=[" ".join(p["argv"]) for p in _CLI_PINS])
def test_cli_outputs_pinned(pin, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    try:
        code = cli.main(list(pin["argv"]))
    except SystemExit as exc:  # --help and subcommand usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (pin["code"], pin["stdout"], pin["stderr"])


@pytest.mark.parametrize("argv,error", [
    (["alt", "--m", "9", "--triple", "3,3,7", "--shapes", "3^99999999999,3^3,7"],
     "cycle type '3^99999999999' exceeds supported degree cap 1026"),
    (["alt", "--m", "1000000000", "--triple", "3,3,7", "--shapes", "3^3,3^3,7"],
     "degree 1000000000 exceeds supported cap 1026"),
    (["table", "--id", "rigid", "--sample-c", "1000000000000"],
     "c_max 1000000000000 exceeds supported cap 1000"),
    # below tables.MIN_C every open row is empty and the table used to pass
    (["table", "--id", "alt-nongen", "--sample-c", "3"],
     "c_max 3 is below supported minimum 4"),
    (["table", "--id", "alt-nongen", "--sample-c", "-5"],
     "c_max -5 is below supported minimum 4"),
    # the Alt_m search counts its candidate pairs before enumerating a class
    (["alt", "--m", "14", "--triple", "2,3,7"],
     "Alt_14 (2,3,7) search over 22422400 candidate pairs exceeds supported cap 1000000"),
    (["alt", "--m", "22", "--triple", "2,3,7"],
     "Alt_22 (2,3,7) search over 101973487616000 candidate pairs exceeds supported cap 1000000"),
    # ... and its cycle types before listing them
    (["alt", "--m", "120", "--triple", "2,3,60"],
     "listing 7173704 partitions of 120 into divisors of 60 exceeds supported cap 10000"),
    # ... also near the degree cap, where a lister recursing once per part overflows the stack
    (["alt", "--m", "1025", "--triple", "2,4,5"],
     "listing 66049 partitions of 1025 into divisors of 4 exceeds supported cap 10000"),
], ids=["multiplicity", "degree", "sample-c", "sample-c-3", "sample-c-negative",
        "alt-m14", "alt-m22", "alt-m120", "alt-m1025"])
def test_oversized_degree_exits_2(argv, error):
    # Under 1 GB of address space an unchecked degree, table cap or search
    # dies of MemoryError (exit 1) instead of taking the machine's memory.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "trisat", *argv], capture_output=True,
                          text=True, timeout=120, preexec_fn=cap_memory, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")
    assert time.perf_counter() - start < 1.0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trisat", "h1", "--type", "G2", "--triple", "2,3,7"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h1"] == 2
