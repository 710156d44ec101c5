"""Batch verification front-end.

One subcommand per verified result; deterministic seeds; JSON reports
with a versioned schema (same inputs and seed give byte-identical
output).  Exit status: 0 all checks pass, 1 any check failed, 2 usage
error or bad input, 3 a resource limit was hit before a verdict was
reached: hurwitz.SEARCH_NODE_CAP (scaled by 16 / m on m > 16 slots),
bmf.MAX_FACTORS, f2sym.CROSS_MAX_DIM, or s4orbit.TAU_MAX_SLOTS or
TRIALS_MAX, or braid.LETTER_CAP on the factors `hurwitz act` makes from
a braid file.  No command reaches f2sym.CLOSURE_CAP.

Well-formed argv is read straight from `COMMANDS`; `build_parser()`
imports argparse only for the argv the table declines, so argparse alone
writes `--help` and every usage error.  Importing this module and
building its parser load no other braidmf module: each run function
imports the layers it runs when the command is dispatched, and a
`--json` report is written by `perm._indented_json`.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

SCHEMA = 1


def _check(name, ok, details):
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _ints(text, flag):
    """A comma list of ints; only an empty or blank string is the empty list."""
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(
            f"{flag} must be a comma-separated list of integers; it is {text!r}"
        ) from None


def _surface(args, suffix=""):
    from .bmf import SurfaceParams

    return SurfaceParams(*(getattr(args, f"{n}{suffix}") for n in "abcd"))


def verify_snake_table(args):
    from .s4orbit import WINDOW_DERIVATIONS, replay_derivation, snake_table

    agree = sum(r["agree"] for r in snake_table(1, 1))
    details = f"{agree}/16 windows: direct rule == word action"
    checks = [_check("snake window table", agree == 16, details)]
    for idx, lines in enumerate(WINDOW_DERIVATIONS, start=1):
        ok = replay_derivation(lines[0]) == lines
        details = "all 6 lines reproduced" if ok else "line mismatch"
        checks.append(_check(f"worked derivation {idx}", ok, details))
    return {"checks": checks}


def _nonconjugacy(args):
    from .s4orbit import verify_nonconjugacy

    rep = verify_nonconjugacy(args.b, args.d, args.trials, args.seed)
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
    from .s4orbit import property_run, snake_table

    # property_run checks the trials before anything is built
    v = property_run(args.b, args.d, args.trials, args.seed)["violations"]
    agree = sum(r["agree"] for r in snake_table(args.b, args.d))
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


def _exp_sum(word):
    return sum(1 if x > 0 else -1 for x in word.letters)


def verify_cluster(args):
    from .bmf import cusp_cluster_factorization, tangent_cluster_factorization
    from .braid import braid_equal
    from .hurwitz import orbit_search, product

    start, target, product_word = cusp_cluster_factorization()
    exps = [_exp_sum(f) for f in target]
    res = orbit_search(start, target, max_depth=args.max_depth)
    tang = tangent_cluster_factorization()
    checks = [
        _check(
            "cusp-cluster target product",
            braid_equal(product(target), product_word),
            "product of the four factors equals the stated word",
        ),
        _check(
            "cusp-cluster start product",
            braid_equal(product(start), product_word),
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
            tang[0] == tang[2]
            and tang[1] == tang[3]
            and all(_exp_sum(f) == 1 for f in tang),
            "factors 1=3 and 2=4, all conjugated single twists",
        ),
    ]
    return {"checks": checks}


def bmf_gen(args):
    from .bmf import factor_census, generate_bmf

    p = _surface(args)
    f = generate_bmf(p)
    if args.json:  # streamed: the whole text is never held at once
        sys.stdout.writelines(f.json_parts())
        print()
        return
    census = factor_census(f)
    print(f"params: {vars(p)}")
    if p.toy:
        print("note: outside geometric hypothesis (some parameter < 3)")
    if p.excluded:
        print("note: excluded parameter line for the weighted counts")
    print(f"blocks: {len(f.blocks)}, factors: {census['length']}")
    print(f"census: {census}")


def bmf_counts(args):
    from .bmf import surface_counts

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
    from .bmf import distinguishable, stable_profile

    p, p2 = _surface(args), _surface(args, "2")
    verdict = distinguishable(p, p2)
    return {
        "params": {"first": [p.a, p.b, p.c, p.d], "second": [p2.a, p2.b, p2.c, p2.d]},
        "checks": [_check("distinguishability", True, verdict)],
        "verdict": verdict,
        "profiles": [stable_profile(p), stable_profile(p2)],
    }


def run_arf(args):
    from .f2sym import (
        ARF_ORACLE_MAX_DIM,
        arf,
        arf_oracle,
        build_cross_space,
        quadratic_from_basis,
    )

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
    from .f2sym import classify_cross

    info = classify_cross(args.a, args.c)
    return {
        "checks": [_check("transvection group", True, info["verdict"])],
        "notes": ["criterion-based classification (diagram shape + q values)"],
        "result": info,
    }


def run_obstruct(args):
    from .f2sym import horizontal_obstruction

    verdict = horizontal_obstruction(args.a, args.c, args.a2, args.c2)
    return {
        "checks": [_check("horizontal obstruction", True, verdict["verdict"])],
        "result": verdict,
    }


def braid_eq(args):
    from .braid import BraidWord, braid_equal

    word1, word2 = _ints(args.word1, "--word1"), _ints(args.word2, "--word2")
    w1, w2 = (BraidWord(args.strands, w) for w in (word1, word2))
    equal = braid_equal(w1, w2)
    details = "words are equal as braids" if equal else "words differ as braids"
    return {
        "params": {"strands": args.strands, "word1": list(word1), "word2": list(word2)},
        "checks": [_check("braid equality", equal, details)],
    }


def _load_factorizations(path, *keys):
    """The JSON object in `path` and, per key, its integer lists as
    permutations of 1..4 (s4) or signed braid words (braid).

    The object holds "group" and each of `keys`, and "strands" for a braid
    file.  Bad JSON (or JSON nested too deep to parse), a missing key or a
    malformed value raises ValueError naming the file (and the key and the
    element as written); a JSON boolean is no integer.
    """
    import json

    from .braid import BraidWord
    from .perm import Perm

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    group = doc.get("group")
    braid = group == "braid"
    for key in ("group", "strands", *keys) if braid else ("group", *keys):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    if group not in ("s4", "braid"):
        raise ValueError(f"unsupported factorization group {group!r}")
    if braid:
        n = doc["strands"]
        if type(n) is not int:
            raise ValueError(f"{path}: 'strands' must be an integer")
        if n < 2:
            raise ValueError(f"{path}: 'strands' must be at least 2; it is {n}")
    loaded = [doc]
    for key in keys:
        items = doc[key]
        if not isinstance(items, list):
            raise ValueError(f"{path}: {key!r} must be a list of integer lists")
        for k, e in enumerate(items, start=1):
            if not isinstance(e, list) or any(type(x) is not int for x in e):
                what = "a list of integer lists"
            elif not braid and sorted(e) != [1, 2, 3, 4]:
                what = "a list of permutations of 1..4"
            elif braid and not all(0 < abs(x) < n for x in e):
                what = f"a list of braid words on {n} strands"
            else:
                continue
            raise ValueError(
                f"{path}: {key!r} must be {what}; element {k} is {json.dumps(e)}"
            )
        if braid:
            loaded.append(tuple(BraidWord(n, e) for e in items))
        else:
            loaded.append(tuple(Perm.from_json(e) for e in items))
    return loaded


def hurwitz_act(args):
    from . import braid
    from .hurwitz import act_moves, hurwitz_move
    from .perm import _indented_json

    doc, elements = _load_factorizations(args.file, "elements")
    moves = _ints(args.moves, "--moves")
    if doc["group"] == "s4":
        dumped = [e.to_json() for e in act_moves(elements, moves)]
    else:
        # braid factors can grow exponentially in the moves: each move is
        # checked against the letter cap as it is made; a move changes only
        # slots |k|-1 and |k| (0-based), so only they change the count
        out, cap = elements, braid.LETTER_CAP
        letters = sum(map(len, out))
        for k in moves:
            new, i = hurwitz_move(out, k), abs(k)
            letters += len(new[i - 1]) + len(new[i]) - len(out[i - 1]) - len(out[i])
            out = new
            if letters > cap:
                raise RuntimeError(
                    f"acted factors of {letters} letters exceed cap {cap}"
                )
        dumped = [list(e.letters) for e in out]
    result = {"group": doc["group"], "elements": dumped}
    if "strands" in doc:
        result["strands"] = doc["strands"]
    print(_indented_json(result))


def hurwitz_search(args):
    from .braid import braid_equal
    from .hurwitz import orbit_search, product

    doc, start, target = _load_factorizations(args.file, "start", "target")
    if doc["group"] == "braid" and start and len(start) == len(target):
        ps, pt = product(start), product(target)
        if ps != pt and braid_equal(ps, pt):
            raise ValueError(
                "products are equal braids written differently; the search"
                " compares words as written"
            )
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


def build_parser():
    import argparse

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


def _table_args(argv):
    """The namespace argparse gives for well-formed argv, read from COMMANDS.

    Well-formed: a COMMANDS key, then flags of its row spelt in full, each
    at most once, as `--flag value` (a value not starting with "-") or
    `--flag=value`, a switch with no value, every int value int()-able and
    every required flag present.  Any other argv gives None.
    """
    for key in (tuple(argv[:2]), (*argv[:1], None)):
        if key in COMMANDS:
            break
    else:
        return None
    options, run = COMMANDS[key]
    kinds = {flag: kind for flag, kind, *_ in options}
    got = {}
    tokens = iter(argv[2 - (key[1] is None) :])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in kinds or flag in got or (eq and kinds[flag] is bool):
            return None
        if kinds[flag] is bool:
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        try:
            got[flag] = int(value) if kinds[flag] is int else value
        except ValueError:
            return None
    names = dict(zip(("command", "subcommand"), filter(None, key)))
    for flag, _, *default in options:
        if flag not in got and not default:
            return None
        names[flag[2:].replace("-", "_")] = got.get(flag, *default)
    return SimpleNamespace(**names, run=run)


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
    argv = sys.argv[1:] if argv is None else argv
    args = _table_args(argv) or build_parser().parse_args(argv)
    try:
        body = args.run(args)
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a resource cap
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
        from .perm import _indented_json

        print(_indented_json(report))
    else:
        _print_text(report)
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0


if __name__ == "__main__":
    sys.exit(main())
