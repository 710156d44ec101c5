"""The golden CLI cases and the code that runs them, with no pytest import,
so that any installed Python can run them: `tests/test_golden.py` checks
them in the suite, and `tests/golden_pythons.py` on other interpreters.

``CASES`` maps each case name to its argv; ``golden/<case>.json`` records
the case's stdout, stderr and exit code under ``run_case``, from inside
``tests/golden`` with ``COLUMNS=80``.  ``golden/parser.json`` records
``parser_surface(build_parser())``.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from braidmf.cli import main

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
    # a comma list whose first item is negative is spelt --flag=value:
    # argparse takes a separate "-1,2" for an option string
    "braid-eq-negative-first-json": "braid eq --strands 3 --word1=-1,2"
    " --word2=2,-1 --json",
    # (s1 s2^-1)^20 against a copy with its tenth s1 s2^-1 rewritten as
    # s2^-1 s1^-1 s2 s1: the Artin images of these words pass 10**6 letters
    "braid-eq-long-json": "braid eq --strands 3 --word1 "
    + ",".join(["1,-2"] * 20)
    + " --word2 "
    + ",".join(["1,-2"] * 9 + ["-2,-1,2,1"] + ["1,-2"] * 10)
    + " --json",
    "hurwitz-act-s4": "hurwitz act --file fixtures/act_s4.json --moves 1,-2,2",
    "hurwitz-act-braid": "hurwitz act --file fixtures/act_braid.json --moves 2,-1",
    "hurwitz-act-negative-first": "hurwitz act --file fixtures/act_s4.json"
    " --moves=-1,2",
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
    "argparse-negative-first-item": "braid eq --strands 3 --word1 -1,2 --word2 2,-1",
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
