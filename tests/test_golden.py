"""Byte-identity of CLI output against reports recorded in tests/golden/.

The cases, ``run_case`` and ``parser_surface`` live in golden_cases.py,
which imports no pytest, so that tests/golden_pythons.py can run them on
every installed Python.  Each case runs ``braidmf.cli.main(argv)`` from
inside ``tests/golden`` (so ``--file fixtures/...`` is echoed the same
everywhere) and compares stdout, stderr and the exit code with
``golden/<case>.json``.
``golden/parser.json`` records the argv surface of ``build_parser()``:
every subcommand, flag, type, default and help string.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``
(no case: every file) only when a change is meant to alter a report, and
say so in the change.  Never regenerate to make a refactor pass: the
recorded files are the evidence that it keeps every report byte for byte.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

from braidmf import braid
from braidmf.cli import _table_args, build_parser
from golden_cases import CASES, GOLDEN, parser_surface, run_case


def leaf_commands(surface, prefix=()):
    """(command path, surface) of every subcommand that runs something."""
    if not surface["subcommands"]:
        return [(prefix, surface)]
    return [
        leaf
        for name, sub in surface["subcommands"].items()
        for leaf in leaf_commands(sub, (*prefix, name))
    ]


@pytest.fixture
def in_golden(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, in_golden):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert run_case(CASES[case].split()) == want


def _no_artin_images(*_):
    raise AssertionError("a verdict built Artin images")


@pytest.mark.parametrize("case", sorted(
    case for case, argv in CASES.items()
    if argv.startswith(("braid eq", "verify cluster", "hurwitz search"))
))
def test_braid_verdicts_build_no_artin_images(case, in_golden, monkeypatch):
    # braid_equal is the one primitive behind every braid verdict
    monkeypatch.setattr(braid, "artin_rep", _no_artin_images)
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert run_case(CASES[case].split()) == want


def _no_pure_python_encoder(*_):
    raise AssertionError("a report went through json's pure-Python encoder")


@pytest.mark.parametrize("case", sorted(
    case for case, argv in CASES.items()
    if "--json" in argv.split() or argv.startswith("hurwitz act")
))
def test_json_reports_skip_the_pure_python_encoder(case, in_golden, monkeypatch):
    # json.dumps(indent=...) always builds its encoder with _make_iterencode
    monkeypatch.setattr(json.encoder, "_make_iterencode", _no_pure_python_encoder)
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    got = run_case(CASES[case].split())
    assert got == want
    if got["stdout"]:
        json.loads(got["stdout"])


# Cases whose argv only argparse reads: help, and the usage errors it writes.
ARGPARSE_CASES = {
    "error-missing-flag",
    *(case for case in CASES if case.startswith(("argparse-", "help"))),
}


def test_only_argparse_cases_leave_the_table_parse():
    # every other case is read straight from COMMANDS, as the benchmark's
    # argv are, so the fast path cannot vanish with every report unchanged
    for case, argv in CASES.items():
        assert (_table_args(argv.split()) is None) == (case in ARGPARSE_CASES), case


def test_parser_surface_is_unchanged():
    want = json.loads((GOLDEN / "parser.json").read_text())
    assert parser_surface(build_parser()) == want


def test_every_subcommand_has_golden_cases():
    for leaf, sub in leaf_commands(parser_surface(build_parser())):
        argvs = [argv.split() for argv in CASES.values()]
        modes = {"--json" in a for a in argvs if tuple(a[: len(leaf)]) == leaf}
        takes_json = any("--json" in o["flags"] for o in sub["options"])
        want = {False, True} if takes_json else {False}
        assert modes == want, f"golden cases missing for {' '.join(leaf)}"


def regenerate(cases=None):
    """Rewrite the named cases' files, or every file when cases is None."""
    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = "80"
    if cases is None:
        surface = parser_surface(build_parser())
        (GOLDEN / "parser.json").write_text(json.dumps(surface, indent=1) + "\n")
        cases = list(CASES)
    for case in cases:
        result = run_case(CASES[case].split())
        (GOLDEN / f"{case}.json").write_text(json.dumps(result, indent=1) + "\n")
        print(case, result["exit"])


def script_main(argv):
    """``python tests/test_golden.py [CASE ...]``: no arguments regenerate
    every file; named cases regenerate only theirs; ``--help`` prints usage
    and writes nothing; an unknown case or option exits 2 and writes
    nothing."""
    parser = argparse.ArgumentParser(
        prog="test_golden.py",
        description="Rewrite files in tests/golden/ from the current CLI"
        " output: the named cases, or every file (parser.json too) when none"
        " is named.  Run with PYTHONPATH=src.",
    )
    parser.add_argument("cases", nargs="*", metavar="CASE")
    cases = parser.parse_args(argv).cases
    unknown = [c for c in cases if c not in CASES]
    if unknown:
        parser.error(f"unknown case {', '.join(unknown)}")
    regenerate(cases or None)


def _refuse_regenerate(*_):
    raise AssertionError("golden files rewritten")


def test_script_help_writes_nothing(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "regenerate", _refuse_regenerate)
    with pytest.raises(SystemExit) as exc:
        script_main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: test_golden.py")
    with pytest.raises(SystemExit) as exc:
        script_main(["--regenerate"])
    assert exc.value.code == 2


def test_script_unknown_case_writes_nothing(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "regenerate", _refuse_regenerate)
    for argv in (["no-such-case"], ["braid-eq", "no-such-case"]):
        with pytest.raises(SystemExit) as exc:
            script_main(argv)
        assert exc.value.code == 2
        assert "unknown case no-such-case" in capsys.readouterr().err


def test_script_named_cases_rewrite_only_theirs(tmp_path, in_golden, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    script_main(["braid-eq", "arf-json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "arf-json.json",
        "braid-eq.json",
    ]
    for p in tmp_path.iterdir():
        assert p.read_text() == (Path(__file__).parent / "golden" / p.name).read_text()


def test_script_without_cases_rewrites_every_file(tmp_path, in_golden, monkeypatch):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", tmp_path)
    monkeypatch.setattr(module, "run_case", lambda argv: {"exit": 0})
    script_main([])
    want = {f"{case}.json" for case in CASES} | {"parser.json"}
    assert {p.name for p in tmp_path.iterdir()} == want


if __name__ == "__main__":
    script_main(sys.argv[1:])
