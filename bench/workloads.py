"""Seeded verdict lists for the four benchmark workloads.

A workload is an optional prologue followed by a sequence of rounds; a run
takes the prologue and the first few rounds (see worker.py).  Round k is
built from
``random.Random(f"{workload}:{seed}:{k}")``, so a seed fixes every input.
Each round is stratified (every size class appears in a fixed number) so
that runs on different seeds do the same mix of work.

A verdict is a label, a callable that runs the program and returns its raw
output, and an oracle that judges that output.  The callables go through
``braidmf.cli.main([..., "--json"])`` when a subcommand exists and through
the public API otherwise; they look functions up on the module at call
time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from braidmf import bmf, cli, f2sym, s4orbit


@dataclass(frozen=True)
class Outcome:
    """What one verdict produced: captured output and exit status."""

    stdout: str
    stderr: str = ""
    code: int = 0


@dataclass(frozen=True)
class Verdict:
    kind: str
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], bool]
    via_cli: bool = False
    # runs for seconds: timed by its best raw time (see worker.py)
    long: bool = False


def cli_run(argv):
    argv = [str(a) for a in argv]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return Outcome(out.getvalue(), err.getvalue(), code)

    return run


def report_of(outcome):
    return json.loads(outcome.stdout)


def all_pass(outcome):
    """CLI oracle: exit 0 and every check "pass"."""
    if outcome.code != 0:
        return False
    checks = report_of(outcome)["checks"]
    return bool(checks) and all(c["status"] == "pass" for c in checks)


def cli_verdict(kind, argv, check=all_pass):
    argv = [*argv, "--json"]
    return Verdict(kind, " ".join(map(str, argv)), cli_run(argv), check, True)


# ---------------------------------------------------------------------------
# orbit: s4orbit + perm


# The CLI default and the acceptance suite use 10,000 trials, and a verdict
# at 10,000 takes 1-3 s.  A run repeats its 146 verdicts in at least three
# passes (see worker.py), so one pass must take a few seconds: at 100
# trials it takes about 5 s, at 500 about 25 s.  The share of cProfile self
# time in s4orbit + perm at 100 trials is 0.675-0.770, against 0.775-0.799
# at 10,000 (table in README.md): s4orbit + perm still do most of the work.
ORBIT_TRIALS = 100


def _orbit_round(rng, k, workdir):
    verdicts = [cli_verdict("snake-table", ["verify", "snake-table"])]
    # every (b, d) in 1..6 once per round, so that every round does the
    # same mix of slot counts; the seed picks the trials
    for sub in ("nonconj", "s7"):
        for b, d in itertools.product(range(1, 7), repeat=2):
            argv = ["verify", sub, "--b", b, "--d", d]
            argv += ["--trials", ORBIT_TRIALS, "--seed", rng.randrange(10**6)]
            verdicts.append(cli_verdict(sub, argv))
    rng.shuffle(verdicts)
    return verdicts


# ---------------------------------------------------------------------------
# fibre: f2sym + numpy


def _relabelled_form(dim, edges, rng):
    perm = list(range(dim))
    rng.shuffle(perm)
    return f2sym.form_from_edges(dim, [(perm[i], perm[j]) for i, j in edges])


def _basis_transvections(form, rng):
    gens = [
        f2sym.transvection(f2sym.F2Vec.basis(i, form.dim), form)
        for i in range(form.dim)
    ]
    rng.shuffle(gens)
    return gens


def _q_zero_vectors(q):
    dim = q.form.dim
    return [
        v
        for v in range(1, 1 << dim)
        if f2sym.q_eval(q, f2sym.F2Vec(dim, v)) == 0
    ]


E6_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5))


def _orthogonal_order(q):
    return f2sym.orthogonal_group_order(
        q.form.dim // 2, 1 if f2sym.arf(q) == 0 else -1
    )


def _closure_verdict(kind, label, gens, want):
    def run():
        return Outcome(str(len(f2sym.group_closure(gens))))

    return Verdict(kind, label, run, lambda o: o.stdout == str(want))


def _sp6_verdict(rng):
    """Sp(6,2) enumeration and its q-preserver set equality (claim c08)."""
    form = _relabelled_form(6, E6_EDGES, rng)
    q = f2sym.quadratic_from_basis(form)
    basis = _basis_transvections(form, rng)
    v = rng.choice(_q_zero_vectors(q))
    extra = f2sym.transvection(f2sym.F2Vec(6, v), form)
    want = (_orthogonal_order(q), f2sym.sp_group_order(3), True)

    def run():
        o_group = f2sym.group_closure(basis)
        sp = f2sym.group_closure([*basis, extra])
        preservers = {g.cols for g in sp if f2sym.preserves_q(g, q)}
        same = preservers == {g.cols for g in o_group}
        return Outcome(repr((len(o_group), len(sp), same)))

    return Verdict(
        "sp6-preservers",
        f"sp6 preservers v={v:06b}",
        run,
        lambda o: o.stdout == repr(want),
        long=True,
    )


_ARF_ORACLE = {}


def _arf_check(a, c):
    def check(outcome):
        if outcome.code != 0:
            return False
        report = report_of(outcome)
        if any(ch["status"] == "fail" for ch in report["checks"]):
            return False
        if (a, c) not in _ARF_ORACLE:
            space = f2sym.build_cross_space(a, c)
            _ARF_ORACLE[a, c] = f2sym.arf_oracle(f2sym.quadratic_from_basis(space))
        return report["arf"] == _ARF_ORACLE[a, c]

    return check


def _fibre_round(rng, k, workdir):
    verdicts = []
    # two E6 closures per round (an eighth of the verdicts) put the 90th
    # percentile inside this class
    for _ in range(2):
        form = _relabelled_form(6, E6_EDGES, rng)
        q = f2sym.quadratic_from_basis(form)
        verdicts.append(
            _closure_verdict(
                "e6-closure", "closure e6", _basis_transvections(form, rng),
                _orthogonal_order(q),
            )
        )
    for dim in (4, 6):
        form = _relabelled_form(dim, [(i, i + 1) for i in range(dim - 1)], rng)
        verdicts.append(
            _closure_verdict(
                "chain-closure", f"closure chain{dim}",
                _basis_transvections(form, rng), math.factorial(dim + 1),
            )
        )
    for _ in range(2):
        form = _relabelled_form(4, [(0, 1), (1, 2), (2, 3)], rng)
        q = f2sym.quadratic_from_basis(form)
        v = rng.choice(_q_zero_vectors(q))
        gens = _basis_transvections(form, rng)
        gens.insert(rng.randrange(5), f2sym.transvection(f2sym.F2Vec(4, v), form))
        verdicts.append(
            _closure_verdict(
                "sp4-closure", f"closure sp4 v={v:04b}", gens,
                f2sym.sp_group_order(2),
            )
        )
    # a + c = 4..7 gives dimensions 10, 14, 18 and 22
    for total in (4, 5, 6, 7):
        a = rng.randint(2, total - 2)
        verdicts.append(
            cli_verdict("arf", ["arf", "--a", a, "--c", total - a],
                        _arf_check(a, total - a))
        )
    # classify work grows with a and c (5 ms at 2,2 and 18 ms at 9,9); one
    # per class of a + c, so that every round does the same mix
    for total in (6, 9, 12, 15):
        a = rng.randint(max(2, total - 9), min(9, total - 2))
        argv = ["classify", "--a", a, "--c", total - a]
        verdicts.append(cli_verdict("classify", argv))
    for _ in range(2):
        argv = ["obstruct"]
        for name in ("--a", "--c", "--a2", "--c2"):
            argv += [name, rng.randint(2, 9)]
        verdicts.append(cli_verdict("obstruct", argv))
    rng.shuffle(verdicts)
    return verdicts


def _fibre_prologue(rng, workdir):
    return [_sp6_verdict(rng)]


# ---------------------------------------------------------------------------
# braid: braid + hurwitz search


def _random_word(rng, n, length):
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def _reduced_word(rng, n, length):
    out = []
    while len(out) < length:
        x = rng.choice((1, -1)) * rng.randint(1, n - 1)
        if not out or out[-1] != -x:
            out.append(x)
    return out


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _inverse(word):
    return [-x for x in reversed(word)]


def _rewrite_equal(word, n, rng, steps=3):
    """The same braid written differently: braid relations, then v.v^-1."""
    w = list(word)
    for _ in range(steps):
        options = [
            ("swap", p)
            for p in range(len(w) - 1)
            if abs(abs(w[p]) - abs(w[p + 1])) >= 2
        ]
        options += [
            ("braid", p)
            for p in range(len(w) - 2)
            if w[p] == w[p + 2]
            and abs(abs(w[p]) - abs(w[p + 1])) == 1
            and (w[p] > 0) == (w[p + 1] > 0)
        ]
        if not options:
            break
        how, p = rng.choice(options)
        if how == "swap":
            w[p], w[p + 1] = w[p + 1], w[p]
        else:
            w[p : p + 3] = [w[p + 1], w[p], w[p + 1]]
    v = _reduced_word(rng, n, rng.randint(1, 3))
    pos = rng.randint(0, len(w))
    w[pos:pos] = v + _inverse(v)
    return w


def _permutation(word, n):
    images = list(range(n))
    for x in word:
        i = abs(x) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    return images


def _make_unequal(w1, w2, n, rng):
    """Perturb w2 so that its exponent sum or permutation differs from w1."""
    w2 = list(w2)
    p = rng.randrange(len(w2))
    if rng.random() < 0.5 and n > 2:
        # same exponent sum, another generator: the permutation must differ
        choices = [i for i in range(1, n) if i != abs(w2[p])]
        w2[p] = (1 if w2[p] > 0 else -1) * rng.choice(choices)
        if _permutation(w2, n) != _permutation(w1, n):
            return w2
    w2[p] = -w2[p]  # exponent sum moves by 2
    return w2


def _braid_eq_verdict(kind, n, w1, w2, equal):
    # "--word1=..." because a word may start with a minus sign
    argv = ["braid", "eq", "--strands", n, "--word1=" + ",".join(map(str, w1)),
            "--word2=" + ",".join(map(str, w2))]
    want_code, want_status = (0, "pass") if equal else (1, "fail")

    def check(outcome):
        if outcome.code != want_code:
            return False
        return report_of(outcome)["checks"][0]["status"] == want_status

    return cli_verdict(kind, argv, check)


def _perm_mul(p, q):
    """Left-to-right product of 0-based image tuples: p first, then q."""
    return tuple(q[i] for i in p)


def _perm_inv(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _scramble(elements, moves, mul, inv):
    """Hurwitz moves: +i (a,b) -> (a b a^-1, a); -i undoes it."""
    f = list(elements)
    for m in moves:
        i = abs(m) - 1
        a, b = f[i], f[i + 1]
        if m > 0:
            f[i], f[i + 1] = mul(mul(a, b), inv(a)), a
        else:
            f[i], f[i + 1] = b, mul(mul(inv(b), a), b)
    return f


def _search_verdict(rng, workdir, name, group, m, depth, rewrite):
    moves = [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(depth)]
    if group == "s4":
        target = [tuple(rng.sample(range(4), 4)) for _ in range(m)]
        start = _scramble(target, moves, _perm_mul, _perm_inv)
        doc = {
            "group": "s4",
            "start": [[i + 1 for i in p] for p in start],
            "target": [[i + 1 for i in p] for p in target],
        }
    else:
        target = [_reduced_word(rng, 4, rng.randint(1, 3)) for _ in range(m)]
        start = _scramble(
            target, moves, lambda u, v: _free_reduce(u + v), _inverse
        )
        if rewrite:
            # sigma1 sigma3 = sigma3 sigma1: append the commutator to one
            # factor, the same braid as a different word
            j = rng.randrange(m)
            start[j] = _free_reduce(start[j] + [1, 3, -1, -3])
        doc = {"group": "braid", "strands": 4, "start": start, "target": target}
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    kind = f"hurwitz search {group}" + (" rewritten" if rewrite else "")
    # the pair is Hurwitz equivalent by construction
    return cli_verdict(kind, ["hurwitz", "search", "--file", path.as_posix()])


def _braid_round(rng, k, workdir):
    # verify cluster is deterministic; five per round (with the long pair,
    # an eighth of the verdicts at the top) put the 90th percentile on a
    # steady plateau.
    # So braid's p90 times this hurwitz BFS over Br4 factorizations, not
    # Artin images: braid eq words long enough to set the tail cost from
    # 0.2 s to over 10 s (see README.md).
    verdicts = [cli_verdict("verify cluster", ["verify", "cluster"])
                for _ in range(5)]
    for i in range(24):
        # stratified lengths 4..39 on 3..8 strands, each strand count four
        # times per round; longer random words make the run time hinge on
        # a few exponential outliers
        n = 3 + (i // 2 + k) % 6
        w1 = _random_word(rng, n, 4 + 3 * (i // 2) + rng.randint(0, 2))
        w2 = _rewrite_equal(w1, n, rng)
        equal = i % 2 == 0
        if not equal:
            w2 = _make_unequal(w1, w2, n, rng)
        verdicts.append(_braid_eq_verdict("braid eq", n, w1, w2, equal))
    # 16 searches: lengths 4-6, scrambled by 1..4 moves; one Br4 start of
    # the 8 has a factor rewritten by a braid relation
    rewritten = rng.randrange(8)
    for j in range(8):
        m, depth = (4, 5, 6, rng.randint(4, 6))[j % 4], j % 4 + 1
        for group in ("s4", "br4"):
            verdicts.append(
                _search_verdict(rng, workdir, f"r{k}-{group}-{j}", group, m,
                                depth, group == "br4" and j == rewritten)
            )
    rng.shuffle(verdicts)
    return verdicts


def _braid_prologue(rng, workdir):
    # One 60-80 letter word per run whose Artin image grows exponentially
    # by construction: a power of sigma_i sigma_{i+1}^-1 on 3-6 strands,
    # then a random tail.  It reaches the letter cap on purpose, at the
    # same point of the power for every i and n, so its cost is steady.
    n = rng.randint(3, 6)
    i = rng.randint(1, n - 2)
    tail = _reduced_word(rng, n, rng.randint(2, 6))
    core = [i, -(i + 1)] * ((rng.randint(60, 80) - len(tail)) // 2)
    w1 = core + tail
    w2 = _rewrite_equal(w1, n, rng)
    equal = rng.random() < 0.5
    if not equal:
        w2 = _make_unequal(w1, w2, n, rng)
    verdict = _braid_eq_verdict("braid eq long", n, w1, w2, equal)
    return [replace(verdict, long=True)]


# ---------------------------------------------------------------------------
# census: bmf + cli JSON + hurwitz.act_word


def _gen_check(p):
    def check(outcome):
        if outcome.code != 0:
            return False
        doc = report_of(outcome)
        census = doc["census"]
        counts = bmf.surface_counts(p)
        by_type = census["by_type"]
        return (
            census["length"] == sum(len(b["factors"]) for b in doc["blocks"])
            and by_type["cusp"] == counts.k
            and by_type["tangency"] == counts.t
            and by_type["pos_node"] - by_type["neg_node"] == counts.nu
            and census["weighted_p"] == counts.weighted_p
            and census["weighted_q"] == counts.weighted_q
        )

    return check


def _counts_check(p):
    def check(outcome):
        return all_pass(outcome) and report_of(outcome)["counts"] == vars(
            bmf.surface_counts(p)
        )

    return check


def _realize_verdict(p):
    factors = list(dict.fromkeys(bmf.generate_bmf(p).factors))
    tau = s4orbit.tau0(p.b, p.d)

    def run():
        results = [bmf.realize_s4_trivial_action(f, tau) for f in factors]
        tally = {r: results.count(r) for r in sorted(set(results))}
        return Outcome(json.dumps(tally, sort_keys=True))

    def check(outcome):
        tally = json.loads(outcome.stdout)
        return sum(tally.values()) == len(factors) and set(tally) <= {
            "trivial",
            "skipped",
        }

    label = f"realize a={p.a} b={p.b} c={p.c} d={p.d} ({len(factors)} factors)"
    return Verdict("realize", label, run, check)


def _census_prologue(rng, workdir):
    # the largest surface, a=b=c=d=24, sets the memory peak in every run
    p = bmf.SurfaceParams(24, 24, 24, 24)
    return [
        cli_verdict("bmf gen", ["bmf", "gen", *_abcd(p)], _gen_check(p)),
        _realize_verdict(p),
        cli_verdict("bmf counts", ["bmf", "counts", *_abcd(p)], _counts_check(p)),
    ]


def _abcd(p):
    return ["--a", p.a, "--b", p.b, "--c", p.c, "--d", p.d]


# A run holds seven census rounds.  Round k draws each split from one of
# seven equal slices of the range, so that a run covers every slice once:
# realize work at one size varies 2.5-fold with how b+d is split.
CENSUS_STRATA = 7


def _split(rng, total, stratum):
    """(x, total - x), x drawn from slice ``stratum`` of 1..total-1."""
    x = 1 + int((stratum % CENSUS_STRATA + rng.random()) * (total - 1)
                / CENSUS_STRATA)
    return x, total - x


# Size classes for a+c and b+d; gen work grows with (a+c)(b+d), realize
# work with (b+d)^2.  Rounds stay small so that a run holds many of them;
# the prologue covers the largest surface.
CENSUS_SIZES = (4, 8, 12, 16, 20)


def _census_round(rng, k, workdir):
    # Five surfaces per round, one per size class: a+c and b+d are each
    # the class size, split within the slices this round takes.
    surfaces = []
    for i, size in enumerate(CENSUS_SIZES):
        a, c = _split(rng, size, 3 * k + 2 * i + 1)
        b, d = _split(rng, size, k + i)
        surfaces.append(bmf.SurfaceParams(a, b, c, d))
    rng.shuffle(surfaces)
    # gen and realize (the work this workload is about) for every surface,
    # plus four cheap verdicts: the median then falls in the middle of the
    # second size class, not on the edge between two classes
    verdicts = []
    for j, p in enumerate(surfaces):
        verdicts.append(cli_verdict("bmf gen", ["bmf", "gen", *_abcd(p)],
                                    _gen_check(p)))
        verdicts.append(_realize_verdict(p))
        if j in (0, 1):
            verdicts.append(cli_verdict("bmf counts",
                                        ["bmf", "counts", *_abcd(p)],
                                        _counts_check(p)))
        elif j in (2, 3):
            other = surfaces[(j + 1) % len(surfaces)]
            argv = ["bmf", "distinguish", *_abcd(p)]
            argv += ["--a2", other.a, "--b2", other.b, "--c2", other.c,
                     "--d2", other.d]
            verdicts.append(cli_verdict("bmf distinguish", argv))
    rng.shuffle(verdicts)
    return verdicts


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable  # (rng, k, workdir) -> [Verdict]
    prologue: Callable = lambda rng, workdir: []
    # A prologue too slow to repeat in every pass runs in the first only.
    repeat_prologue: bool = True

    def build_prologue(self, seed, workdir):
        return self.prologue(random.Random(f"{self.name}:{seed}:prologue"), workdir)

    def build_round(self, seed, k, workdir: Path):
        return self.round(random.Random(f"{self.name}:{seed}:{k}"), k, workdir)


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit", _orbit_round),
        Workload("fibre", _fibre_round, _fibre_prologue, repeat_prologue=False),
        Workload("braid", _braid_round, _braid_prologue),
        Workload("census", _census_round, _census_prologue),
    )
}
