"""Byte-identity of CLI output against reports recorded in tests/golden/.

Each case runs ``braidmf.cli.main(argv)`` from inside ``tests/golden``
(so ``--file fixtures/...`` is echoed the same everywhere) and compares
stdout, stderr and the exit code with ``golden/<case>.json``.
``golden/parser.json`` records the argv surface of ``build_parser()``:
every subcommand, flag, type, default and help string.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``
(no case: every file) only when a change is meant to alter a report, and
say so in the change.  Never regenerate to make a refactor pass: the
recorded files are the evidence that it keeps every report byte for byte.
"""

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from braidmf import braid
from braidmf.cli import _table_args, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

# argv per case; small --trials keep the whole set at a few seconds.
CASES = {
    "verify-snake-table": "verify snake-table",
    "verify-snake-table-json": "verify snake-table --json",
    "verify-nonconj": "verify nonconj --b 2 --d 1 --trials 50",
    "verify-nonconj-json": "verify nonconj --b 1 --d 2 --trials 50 --seed 5"
    " --json",
    "verify-s7": "verify s7 --b 1 --d 2 --trials 50",
    "verify-s7-json": "verify s7 --b 2 --d 1 --trials 50 --seed 3 --json",
    "verify-cluster": "verify cluster",
    "verify-cluster-json": "verify cluster --json",
    "verify-cluster-shallow-json": "verify cluster --max-depth 1 --json",
    "bmf-gen": "bmf gen --a 3 --b 3 --c 4 --d 3",
    "bmf-gen-excluded": "bmf gen --a 1 --b 1 --c 2 --d 2",
    "bmf-gen-json": "bmf gen --a 1 --b 2 --c 2 --d 1 --json",
    "bmf-counts": "bmf counts --a 3 --b 3 --c 3 --d 3",
    "bmf-counts-json": "bmf counts --a 1 --b 2 --c 2 --d 1 --json",
    "bmf-distinguish": "bmf distinguish --a 3 --b 3 --c 3 --d 3"
    " --a2 3 --b2 3 --c2 3 --d2 3",
    "bmf-distinguish-json": "bmf distinguish --a 2 --b 3 --c 4 --d 3"
    " --a2 3 --b2 3 --c2 3 --d2 3 --json",
    "arf": "arf --a 2 --c 3",
    "arf-json": "arf --a 2 --c 2 --json",
    "arf-beyond-oracle-json": "arf --a 5 --c 5 --json",
    "classify": "classify --a 2 --c 3",
    "classify-json": "classify --a 3 --c 3 --json",
    "obstruct": "obstruct --a 2 --c 4 --a2 3 --c2 3",
    "obstruct-json": "obstruct --a 3 --c 3 --a2 3 --c2 3 --json",
    "braid-eq": "braid eq --strands 3 --word1 1,2,1 --word2 2,1,2",
    "braid-eq-json": "braid eq --strands 4 --word1 1,3 --word2 3,1 --json",
    "braid-eq-differ": "braid eq --strands 3 --word1 1 --word2 2",
    "braid-eq-differ-json": "braid eq --strands 3 --word1 1,2 --word2 2,1 --json",
    # (s1 s2^-1)^20 against a copy with its tenth s1 s2^-1 rewritten as
    # s2^-1 s1^-1 s2 s1: the Artin images of these words pass 10**6 letters
    "braid-eq-long-json": "braid eq --strands 3 --word1 "
    + ",".join(["1,-2"] * 20)
    + " --word2 "
    + ",".join(["1,-2"] * 9 + ["-2,-1,2,1"] + ["1,-2"] * 10)
    + " --json",
    "hurwitz-act-s4": "hurwitz act --file fixtures/act_s4.json --moves 1,-2,2",
    "hurwitz-act-braid": "hurwitz act --file fixtures/act_braid.json --moves 2,-1",
    "hurwitz-search-s4": "hurwitz search --file fixtures/search_s4.json --max-depth 3",
    "hurwitz-search-s4-json": "hurwitz search --file fixtures/search_s4.json --json",
    # tau0(2,2), 16 slots, scrambled by the moves 4,7,1,8,-9,11: the sides
    # meet after six levels at eight nodes, and the least full path is not
    # the one through the first meeting node found
    "hurwitz-search-s4-deep": "hurwitz search --file fixtures/search_s4_deep.json",
    "hurwitz-search-braid": "hurwitz search --file fixtures/search_braid.json",
    "hurwitz-search-braid-json": "hurwitz search --file fixtures/search_braid.json"
    " --max-depth 1 --json",
    # exit 2: bad input reported on stderr
    "error-domain": "verify nonconj --b 0 --d 1 --trials 1",
    "error-domain-json": "bmf counts --a 0 --b 1 --c 1 --d 1 --json",
    "error-missing-file": "hurwitz act --file fixtures/absent.json --moves 1",
    "error-missing-file-json": "hurwitz search --file fixtures/absent.json --json",
    "error-unsupported-group": "hurwitz act --file fixtures/unsupported_group.json"
    " --moves 1",
    "error-missing-key": "hurwitz act --file fixtures/no_group.json --moves 1",
    "error-bad-json": "hurwitz search --file fixtures/not_json.json",
    "error-product-mismatch": "hurwitz search --file fixtures/search_mismatch.json",
    # (s1 s2 s1, s1) and (s2 s1 s2, s1): equal braid products, written
    # differently, which the search cannot compare
    "error-product-rewritten": "hurwitz search"
    " --file fixtures/search_rewritten_product.json",
    "error-bad-word": "braid eq --strands 3 --word1 3 --word2 1",
    "error-missing-flag": "verify nonconj --b 1",
    # argv that only argparse reads: the table parse declines each of these
    "argparse-abbreviated-flag": "verify nonconj --b 1 --d 2 --tri 20",
    "argparse-negative-value": "verify nonconj --b 1 --d 1 --trials 20 --seed -3",
    "argparse-repeated-flag": "arf --a 2 --c 3 --a 3",
    "help-classify": "classify --help",
    "help": "--help",
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parser_surface(parser):
    """Every subcommand, flag, type, default and help string, as plain data."""
    opts, subs = [], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            # only subcommands given a help string are listed by --help
            listed = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                subs[name] = {
                    "listed": name in listed,
                    "help": listed.get(name),
                    **parser_surface(sub),
                }
            continue
        opts.append({
            "flags": action.option_strings,
            "dest": action.dest,
            "required": action.required,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "nargs": action.nargs,
            "help": action.help,
            "kind": type(action).__name__,
        })
    return {"prog": parser.prog, "description": parser.description,
            "options": opts, "subcommands": subs}


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
