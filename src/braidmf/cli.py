"""Batch verification front-end.

One subcommand per verified result; deterministic seeds; JSON reports
with a versioned schema (same inputs and seed give byte-identical
output).  Exit status: 0 all checks pass, 1 any check failed, 2 usage
error or bad input, 3 a resource limit was hit (braid letter cap,
search node cap or group closure cap) before a verdict was reached.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bmf import (
    SurfaceParams,
    cusp_cluster_factorization,
    distinguishable,
    generate_bmf,
    stable_profile,
    surface_counts,
    tangent_cluster_factorization,
)
from .braid import BraidElement, BraidWord, braid_equal
from .f2sym import (
    ARF_ORACLE_MAX_DIM,
    arf,
    arf_oracle,
    build_cross_space,
    classify_cross,
    horizontal_obstruction,
    quadratic_from_basis,
)
from .hurwitz import Factorization, act_moves, orbit_search
from .perm import Perm
from .s4orbit import (
    WINDOW_DERIVATIONS,
    property_run,
    replay_derivation,
    snake_table,
    verify_nonconjugacy,
)

SCHEMA = 1


def _check(name, ok, details=""):
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _ints(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _surface(args, suffix=""):
    return SurfaceParams(*(getattr(args, f"{n}{suffix}") for n in "abcd"))


def _print_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def verify_snake_table(args):
    agree = sum(r["agree"] for r in snake_table())
    details = f"{agree}/16 windows: direct rule == word action"
    checks = [_check("snake window table", agree == 16, details)]
    for idx, lines in enumerate(WINDOW_DERIVATIONS, start=1):
        ok = replay_derivation(lines[0]) == lines
        details = "all 6 lines reproduced" if ok else "line mismatch"
        checks.append(_check(f"worked derivation {idx}", ok, details))
    return {"checks": checks}


def _nonconjugacy(args):
    rep = verify_nonconjugacy(args.b, args.d, trials=args.trials, seed=args.seed)
    return rep, rep["verdict"].startswith("not conjugate")


def verify_nonconj(args):
    rep, ok = _nonconjugacy(args)
    details = (
        f"M_left={rep['M_left']} (parities {rep['left_parities']}), "
        f"M_right={rep['M_right']} (parity {rep['right_parity']})"
    )
    return {
        "checks": [_check("pair-twist non-conjugacy", ok, details)],
        "notes": [rep["convention"]],
    }


def verify_s7(args):
    agree = sum(r["agree"] for r in snake_table(args.b, args.d))
    v = property_run(args.b, args.d, trials=args.trials, seed=args.seed)["violations"]
    rep, ok = _nonconjugacy(args)
    checks = [_check("snake window table", agree == 16, f"{agree}/16 windows")]
    for name, key, tail in (
        ("orbit-superset closure", "orbit", f" / {args.trials} words"),
        ("change-count evenness", "evenness", ""),
        ("M-parity conservation", "m_parity", ""),
    ):
        checks.append(_check(name, v[key] == 0, f"{v[key]} violations{tail}"))
    details = (
        f"M values {rep['M_left']}/{rep['M_right']}, "
        f"parities {rep['left_parities']} vs {rep['right_parity']}"
    )
    checks.append(_check("pair-twist non-conjugacy", ok, details))
    return {"checks": checks, "notes": [rep["convention"]]}


def _exp_sum(elt):
    return sum(1 if x > 0 else -1 for x in elt.word.letters)


def verify_cluster(args):
    start, target, product_word = cusp_cluster_factorization()
    stated = BraidElement(product_word)
    exps = [_exp_sum(f) for f in target.elements]
    res = orbit_search(start, target, max_depth=args.max_depth)
    tang = tangent_cluster_factorization()
    checks = [
        _check(
            "cusp-cluster target product",
            target.product().equal_as_braids(stated),
            "product of the four factors equals the stated word",
        ),
        _check(
            "cusp-cluster start product",
            start.product().equal_as_braids(stated),
            "scrambled start has the same product",
        ),
        _check(
            "cusp-cluster factor types",
            sorted(exps) == [1, 3, 3, 3],
            f"exponent sums {exps}: three cubes, one tangency twist",
        ),
        _check(
            "cusp-cluster search path",
            res.found,
            f"path of {len(res.moves)} moves within depth bound "
            f"{args.max_depth}; {res.visited} nodes visited",
        ),
        _check(
            "tangent-cluster shape",
            tang.elements[0] == tang.elements[2]
            and tang.elements[1] == tang.elements[3]
            and all(_exp_sum(f) == 1 for f in tang.elements),
            "factors 1=3 and 2=4, all conjugated single twists",
        ),
    ]
    return {"checks": checks}


def bmf_gen(args):
    p = _surface(args)
    f = generate_bmf(p)
    doc = f.to_json()
    if args.json:
        _print_json(doc)
        return
    print(f"params: {doc['params']}")
    if p.toy:
        print("note: outside geometric hypothesis (some parameter < 3)")
    if p.excluded:
        print("note: excluded parameter line for the weighted counts")
    print(f"blocks: {len(f.blocks)}, factors: {doc['census']['length']}")
    print(f"census: {doc['census']}")


def bmf_counts(args):
    p = _surface(args)
    c = surface_counts(p)
    checks = [
        _check(
            "holomorphic-invariant identity",
            8 * c.chi - c.K2 == 8 * (p.a * p.b + p.c * p.d),
            "chi - K2/8 == ab + cd",
        ),
        _check(
            "branch-genus expanded form",
            c.gR == 1 + 8 * (p.a + p.c) * (p.b + p.d) - 4 * (p.a + p.b + p.c + p.d),
            "gR matches its expanded form",
        ),
    ]
    return {"checks": checks, "counts": dict(vars(c))}


def bmf_distinguish(args):
    p, p2 = _surface(args), _surface(args, "2")
    verdict = distinguishable(p, p2)
    return {
        "params": {"first": [p.a, p.b, p.c, p.d], "second": [p2.a, p2.b, p2.c, p2.d]},
        "checks": [_check("distinguishability", True, verdict)],
        "verdict": verdict,
        "profiles": [stable_profile(p), stable_profile(p2)],
    }


def run_arf(args):
    space = build_cross_space(args.a, args.c)
    q = quadratic_from_basis(space)
    bit = arf(q)
    checks = [_check("arf", True, f"Arf = {bit}")]
    if space.dim <= ARF_ORACLE_MAX_DIM:
        oracle = arf_oracle(q)
        details = f"zero-count oracle gives {oracle}"
        checks.append(_check("arf oracle", bit == oracle, details))
    else:
        details = f"dimension {space.dim} beyond oracle cap"
        checks.append({"name": "arf oracle", "status": "skipped", "details": details})
    if (args.a + args.c) % 2 == 0:
        details = "Arf = a mod 2 for even a+c"
        checks.append(_check("arf parity", bit == args.a % 2, details))
    return {
        "params": {"a": args.a, "c": args.c, "dim": space.dim},
        "checks": checks,
        "notes": [f"basis labels: {', '.join(space.labels)}"],
        "arf": bit,
    }


def run_classify(args):
    info = classify_cross(args.a, args.c)
    return {
        "checks": [_check("transvection group", True, info["verdict"])],
        "notes": ["criterion-based classification (diagram shape + q values)"],
        "result": info,
    }


def run_obstruct(args):
    verdict = horizontal_obstruction(args.a, args.c, args.a2, args.c2)
    return {
        "checks": [_check("horizontal obstruction", True, verdict["verdict"])],
        "result": verdict,
    }


def braid_eq(args):
    word1, word2 = _ints(args.word1), _ints(args.word2)
    w1, w2 = (BraidWord(args.strands, w) for w in (word1, word2))
    equal = braid_equal(w1, w2)
    details = "words are equal as braids" if equal else "words differ as braids"
    return {
        "params": {"strands": args.strands, "word1": list(word1), "word2": list(word2)},
        "checks": [_check("braid equality", equal, details)],
    }


def _read_factorization_file(path, *keys):
    """The JSON object in `path`, holding "group" and each of `keys`.

    A braid file also needs "strands".  Bad JSON or a missing key raises
    ValueError naming the file.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    if doc.get("group") == "braid":
        keys = ("strands", *keys)
    for key in ("group", *keys):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def _load_elements(path, doc, key):
    """The integer lists under `key` as permutations (s4) or signed braid
    words (braid); a malformed value raises ValueError naming file and key."""
    group, items = doc["group"], doc[key]
    if group not in ("s4", "braid"):
        raise ValueError(f"unsupported factorization group {group!r}")
    if group == "braid" and not isinstance(doc["strands"], int):
        raise ValueError(f"{path}: 'strands' must be an integer")
    if not isinstance(items, list) or not all(
        isinstance(e, list) and all(isinstance(x, int) for x in e) for e in items
    ):
        raise ValueError(f"{path}: {key!r} must be a list of integer lists")
    if group == "s4":
        return tuple(Perm.from_json(e) for e in items)
    return tuple(BraidElement(BraidWord(doc["strands"], e)) for e in items)


def hurwitz_act(args):
    doc = _read_factorization_file(args.file, "elements")
    elements = _load_elements(args.file, doc, "elements")
    out = act_moves(Factorization(elements), _ints(args.moves))
    if doc["group"] == "s4":
        dumped = [e.to_json() for e in out.elements]
    else:
        dumped = [list(e.word.letters) for e in out.elements]
    result = {"group": doc["group"], "elements": dumped}
    if "strands" in doc:
        result["strands"] = doc["strands"]
    _print_json(result)


def hurwitz_search(args):
    doc = _read_factorization_file(args.file, "start", "target")
    start = Factorization(_load_elements(args.file, doc, "start"))
    target = Factorization(_load_elements(args.file, doc, "target"))
    res = orbit_search(start, target, max_depth=args.max_depth)
    details = (
        f"moves {list(res.moves)}, visited {res.visited}, "
        f"depth reached {res.depth_reached}"
    )
    return {"checks": [_check("path search", res.found, details)]}


# An option is (flag, type) when required, (flag, type, default) when not.
# Type None keeps the raw string; type bool is an on/off switch.
JSON = ("--json", bool, False)
RAND = (("--trials", int, 10_000), ("--seed", int, 0))
DEPTH = ("--max-depth", int, 6)
BD = (("--b", int), ("--d", int))
AC = (("--a", int), ("--c", int))
ABCD = tuple((f"--{n}", int) for n in "abcd")
ABCD2 = tuple((f"--{n}2", int) for n in "abcd")

# (command, subcommand) -> (options, run).  A run returns the report's
# checks plus any extra top-level keys, or None when it printed a document.
COMMANDS = {
    ("verify", "snake-table"): ((JSON,), verify_snake_table),
    ("verify", "nonconj"): ((*BD, *RAND, JSON), verify_nonconj),
    ("verify", "s7"): ((*BD, *RAND, JSON), verify_s7),
    ("verify", "cluster"): ((DEPTH, JSON), verify_cluster),
    ("bmf", "gen"): ((*ABCD, JSON), bmf_gen),
    ("bmf", "counts"): ((*ABCD, JSON), bmf_counts),
    ("bmf", "distinguish"): ((*ABCD, *ABCD2, JSON), bmf_distinguish),
    ("arf", None): ((*AC, JSON), run_arf),
    ("classify", None): ((*AC, JSON), run_classify),
    ("obstruct", None): ((*AC, ("--a2", int), ("--c2", int), JSON), run_obstruct),
    ("braid", "eq"): (
        (("--strands", int), ("--word1", None), ("--word2", None), JSON),
        braid_eq,
    ),
    ("hurwitz", "act"): ((("--file", None), ("--moves", None)), hurwitz_act),
    ("hurwitz", "search"): ((("--file", None), DEPTH, JSON), hurwitz_search),
}

HELP = {
    "verify": "verification suites",
    "bmf": "factorization generator and counts",
    "--json": "emit a JSON report",
    "--word1": "comma-separated signed indices",
    "--moves": "comma-separated signed moves",
}

# Namespace entries that are not report params.
_NOT_PARAMS = {"command", "subcommand", "run", "json", "trials", "seed"}


@functools.cache  # one argparse tree per process: parse_args leaves it as is
def build_parser():
    top = argparse.ArgumentParser(prog="braidmf", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for (command, subcommand), (options, run) in COMMANDS.items():
        # a help= argument, even None, lists the subcommand under --help
        helps = {"help": HELP[command]} if command in HELP else {}
        if subcommand is None:
            p = sub.add_parser(command, **helps)
        else:
            if command not in groups:
                group = sub.add_parser(command, **helps)
                groups[command] = group.add_subparsers(dest="subcommand", required=True)
            p = groups[command].add_parser(subcommand)
        for flag, type_, *default in options:
            kind = {"action": "store_true"} if type_ is bool else {"type": type_}
            p.add_argument(
                flag,
                required=not default,
                default=default[0] if default else None,
                help=HELP.get(flag),
                **kind,
            )
        p.set_defaults(run=run)
    return top


def _print_text(report):
    print(f"command: {report['command']}")
    if report["params"]:
        print(f"params: {report['params']}")
    for note in report["notes"]:
        print(f"note: {note}")
    for c in report["checks"]:
        line = f"{c['status'].upper():7s} {c['name']}"
        if c["details"]:
            line += f" — {c['details']}"
        print(line)
    if "counts" in report:
        print(f"counts: {report['counts']}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        body = args.run(args)
    except (ValueError, OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a letter, node or closure cap was hit
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if body is None:
        return 0
    names = (args.command, getattr(args, "subcommand", None))
    report = {
        "schema": SCHEMA,
        "command": " ".join(n for n in names if n),
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "notes": [],
        "seed": getattr(args, "seed", None),
        "trials": getattr(args, "trials", None),
        **body,
    }
    if args.json:
        _print_json(report)
    else:
        _print_text(report)
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0


if __name__ == "__main__":
    sys.exit(main())
