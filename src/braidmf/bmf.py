"""The vertical braid-monodromy factorization of an (a,b,c,d)-surface.

Generates the full symbolic factorization block structure, the surface
count formulas, local cluster factorizations, and the arithmetic that
distinguishes surfaces with matching classical invariants.

Each factor is a half twist on an arc (`twist_arc`), to a power, maybe
conjugated.  `realize_s4_trivial_action` checks that a factor fixes a
covering-monodromy factorization without building the factor's braid
word: it acts by the inverse conjugator alone and reads the half twist's
two end slots through `hurwitz.half_twist_fixes`, so a factor costs the
same whatever its arc's span.
"""

from __future__ import annotations

import math

from .braid import BraidWord, band_generator
from .hurwitz import act_moves, act_word, half_twist_fixes
from .perm import Record, _indented_json, _json_str

GEOM_BY_EXP = {1: "tangency", 2: "pos_node", -2: "neg_node", 3: "cusp"}

_FACTOR_INDENT = " " * 8  # indent=2 at the depth of blocks[i].factors[j]


def _sign(x):
    return (x > 0) - (x < 0)


class SurfaceParams(Record):
    """The positive integers (a, b, c, d) of a surface; immutable and
    hashable, and vars() gives the fields in order."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if min(a, b, c, d) < 1:
            raise ValueError("parameters must be positive")
        super().__init__(a, b, c, d)

    @property
    def toy(self):
        """Below the geometric hypothesis (all parameters >= 3)."""
        return min(self.a, self.b, self.c, self.d) < 3

    @property
    def excluded(self):
        """Parameter lines where the weighted-count theorem degenerates."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (c == 2 * a and d == 2 * b) or (a == 2 * c and b == 2 * d)

    def swapped(self):
        return SurfaceParams(self.c, self.d, self.a, self.b)


class Counts(Record):
    """The closed-form counts of a surface; immutable and hashable, and
    vars() gives the fields in order."""

    # m proper nodes, k cusps, nu signed nodes (only the difference is
    # determined), t vertical tangents, r canonical divisibility
    _fields = (
        "m", "k", "nu", "t_f", "t_g", "t", "gR", "chi", "K2", "r",
        "dim_lower", "dim_upper", "weighted_p", "weighted_q",
    )


def surface_counts(p: SurfaceParams) -> Counts:
    a, b, c, d = p.a, p.b, p.c, p.d
    m = 4 * (a * d + b * c)
    k = 3 * m
    nu = 4 * (2 * a * b + 2 * c * d - a * d - b * c)
    t_f = 4 * (2 * a * b - a)
    t_g = 4 * (2 * c * d - c)
    t = 2 * t_f + 2 * t_g + m
    gR = 1 + 16 * (a + c) * (b + d) - 4 * (a + b + c + d) - k - nu
    chi = (
        1
        + (a - 1) * (b - 1)
        + (c - 1) * (d - 1)
        + (a + c - 1) * (b + d - 1)
    )
    K2 = 8 * (a + c - 2) * (b + d - 2)
    return Counts(
        m, k, nu, t_f, t_g, t, gR, chi, K2,
        math.gcd(a + c - 2, b + d - 2),  # r
        10 * chi - 2 * K2, 10 * chi + 3 * K2 + 108,  # dim_lower, dim_upper
        8 * a * b - 2 * (a * d + b * c),  # weighted_p
        8 * c * d - 2 * (a * d + b * c),  # weighted_q
    )


# ---------------------------------------------------------------------------
# Symbolic factorization

# twist tags are tuples: ("p", i), ("q", j), ("a", 1, i), ("c", 1, i),
# ("b", 1, j), ("d", 1, j), ("u"|"u'"|"u''", i, j), ("s", i, j)


def twist_str(tag) -> str:
    if len(tag) == 2:
        return f"{tag[0]}_{tag[1]}"
    return f"{tag[0]}_{{{tag[1]},{tag[2]}}}"


class BmfFactor(Record):
    """One twist of a factorization: twist^exponent, conjugated by the
    sequence of (twist tag, power) pairs `conjugator`, applied as x^g."""

    __slots__ = ("twist", "exponent", "conjugator")

    def __init__(self, twist, exponent, conjugator=()):
        if exponent not in GEOM_BY_EXP:
            raise ValueError(f"exponent {exponent} has no geometric type")
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "conjugator", conjugator)

    @property
    def geom_type(self):
        return GEOM_BY_EXP[self.exponent]

    def to_json(self):
        return {
            "twist": twist_str(self.twist),
            "exp": self.exponent,
            "conj": [[twist_str(t), k] for t, k in self.conjugator],
            "geom": self.geom_type,
        }


class Block(Record):
    """`rep`-th block of kind `kind`: a tuple of BmfFactors."""

    __slots__ = ("kind", "rep", "factors")

    def __init__(self, kind, rep, factors):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "factors", factors)


class BmfFactorization(Record):
    """The blocks of the factorization of the surface `params`."""

    __slots__ = ("params", "blocks")

    @property
    def factors(self):
        return [f for blk in self.blocks for f in blk.factors]

    def json_parts(self):
        """The `bmf gen --json` report as a sequence of strings whose join
        is byte for byte what json.dumps(doc, indent=2, sort_keys=True)
        prints for the document {blocks: [{factors: [factor.to_json()...],
        kind, rep}...], census, excluded, params, toy}, without building
        that document or the whole text: each distinct factor is written
        once by `_indented_json` (dicts with str keys, lists, tuples, str,
        bool, None and int), each factor tuple (the repetitions of a side
        share theirs) is joined once, and a block's parts refer to its
        tuple's text.  The census is taken before the first part, so a
        CensusMismatch comes before any output."""
        p = self.params
        head = _indented_json(
            {"census": factor_census(self), "excluded": p.excluded,
             "params": vars(p), "toy": p.toy}
        )
        fragments = {}  # factor -> its indented text
        lists = {}  # id(factors tuple) -> the text of its "factors" value
        yield '{\n  "blocks": [\n'
        for k, blk in enumerate(self.blocks):
            text = lists.get(id(blk.factors))
            if text is None:
                for fac in blk.factors:
                    if fac not in fragments:
                        one = _indented_json(fac.to_json(), _FACTOR_INDENT)
                        fragments[fac] = _FACTOR_INDENT + one
                text = (
                    "[\n" + ",\n".join(fragments[f] for f in blk.factors) + "\n      ]"
                    if blk.factors
                    else "[]"
                )
                lists[id(blk.factors)] = text
            yield ",\n    {\n" if k else "    {\n"
            yield '      "factors": '
            yield text
            yield (
                f',\n      "kind": {_json_str(blk.kind)},'
                f'\n      "rep": {blk.rep}\n    }}'
            )
        # "blocks" sorts before the head's keys: the head follows without its "{\n"
        yield "\n  ],\n" + head[2:]

    def json_text(self) -> str:
        """The whole `bmf gen --json` report: the join of `json_parts`."""
        return "".join(self.json_parts())


def _beta_pairs(pair, twist, n):
    """Pair twists (x,1,i) and (y,1,i)^(twist_1^-2), each pair twice, for
    i = 2..2n; (x, y) = pair."""
    x, y = pair
    conj = (((twist, 1), -2),)
    return tuple(
        factor
        for i in range(2, 2 * n + 1)
        for factor in (BmfFactor((x, 1, i), 1), BmfFactor((y, 1, i), 1, conj)) * 2
    )


def _beta_cross(n, order):
    """The u, s, u', u'' twists at (1, j) for j = 2n..1; order -1 puts the
    running index first, (j, 1)."""
    return tuple(
        BmfFactor((kind, *(1, j)[::order]), exp)
        for j in range(2 * n, 0, -1)
        for kind, exp in (("u", 3), ("s", 1), ("u'", 3), ("u''", 3))
    )


def _side(p, sides, twist, pair, order):
    """One side's 2a repetitions of beta, the twist_1 full twists (signed
    like 2b - d) and the crossing block.  The g-side is the f-side of
    p.swapped() under (a,c,p) -> (b,d,q) and (1,j) -> (j,1)."""
    diff = 2 * p.b - p.d
    full = tuple(BmfFactor((twist, 1), 2 * _sign(diff)) for _ in range(abs(diff)))
    parts = (
        (f"beta_{sides[0]}", _beta_pairs(pair, twist, p.b)),
        (f"twists_{twist}1", full),
        (f"beta_{sides}", _beta_cross(p.d, order)),
    )
    return [
        Block(kind, rep, factors)
        for rep in range(1, 2 * p.a + 1)
        for kind, factors in parts
    ]


def _twist_blocks(p, twist):
    """|2a - c| pure full-twist blocks over twist_1..twist_2b, signed like
    2a - c."""
    diff = 2 * p.a - p.c
    if not diff:
        return []
    row = tuple(BmfFactor((twist, i), 2 * _sign(diff)) for i in range(1, 2 * p.b + 1))
    return [Block(f"{twist}_block", rep, row) for rep in range(1, abs(diff) + 1)]


# Largest factorization `generate_bmf` builds.  At a=b=c=d=52 (193,856
# factors) `bmf gen --json`, which streams its report, takes 0.08 s and
# 15.2 MB peak RSS as a whole process, interpreter start included, on a
# 2-core x86-64 host with Python 3.11.7; a=b=c=d=24, the census maximum,
# has 41,088 factors and takes 0.06 s and 14.9 MB.
MAX_FACTORS = 200_000


def factor_count(p: SurfaceParams) -> int:
    """len(generate_bmf(p).factors) in closed form: per side, 2a repetitions
    of 4(2b-1) pair twists, |2b-d| full twists and 8d crossing twists, plus
    |2a-c| twist blocks of 2b factors."""

    def side(a, b, c, d):
        beta = 4 * (2 * b - 1) + abs(2 * b - d) + 8 * d
        return 2 * a * beta + abs(2 * a - c) * 2 * b

    return side(p.a, p.b, p.c, p.d) + side(p.c, p.d, p.a, p.b)


def generate_bmf(p: SurfaceParams) -> BmfFactorization:
    """The four-part symbolic factorization: f-side repetitions, the two
    pure full-twist blocks, then the mirrored g-side repetitions.  Each
    full-twist block carries the constant sign of the count that sets its
    length.  Raises RuntimeError, before building anything, when it would
    hold more than MAX_FACTORS factors."""
    count = factor_count(p)
    if count > MAX_FACTORS:
        raise RuntimeError(
            f"factorization of {count} factors exceeds cap {MAX_FACTORS}"
        )
    g = p.swapped()
    blocks = (
        *_side(p, "fg", "p", ("a", "c"), 1),
        *_twist_blocks(p, "p"),
        *_twist_blocks(g, "q"),
        *_side(g, "gf", "q", ("b", "d"), -1),
    )
    return BmfFactorization(p, blocks)


class CensusMismatch(AssertionError):
    """Generated factorization disagrees with the closed-form counts."""


def factor_census(f: BmfFactorization) -> dict:
    counts = surface_counts(f.params)
    by_type = {g: 0 for g in ("tangency", "pos_node", "neg_node", "cusp")}
    weighted = {"p": 0, "q": 0}
    # blocks share factor tuples (a side's 2a repetitions share one): each
    # distinct tuple is tallied once, times the number of blocks holding it
    shared = {}  # id(factors tuple) -> [the tuple, its block count]
    for blk in f.blocks:
        shared.setdefault(id(blk.factors), [blk.factors, 0])[1] += 1
    length = 0
    for factors, reps in shared.values():
        length += reps * len(factors)
        for fac in factors:
            by_type[fac.geom_type] += reps
            if abs(fac.exponent) == 2:
                fam = fac.twist[0]
                if fam not in weighted:
                    raise CensusMismatch(
                        f"full twist on non-pair twist {twist_str(fac.twist)}"
                    )
                weighted[fam] += reps * (fac.exponent // 2)
    census = {
        "length": length,
        "by_type": by_type,
        "weighted_p": weighted["p"],
        "weighted_q": weighted["q"],
    }
    checks = [
        (by_type["cusp"], counts.k),
        (by_type["tangency"], counts.t),
        (weighted["p"], counts.weighted_p),
        (weighted["q"], counts.weighted_q),
        (by_type["pos_node"] - by_type["neg_node"], counts.nu),
    ]
    if any(got != want for got, want in checks):
        raise CensusMismatch(f"census {census} vs formulas {counts}")
    return census


# ---------------------------------------------------------------------------
# Braid-word realization (band-generator convention, strand count 4(b+d):
# D-pair j at strands (4d-2j+1, 4d-2j+2), B-pair i at (4d+2i-1, 4d+2i))


def twist_arc(tag, b, d):
    """The punctures (r, s) that a named twist joins, or None when its arc
    is figure-only; the twist is the half twist band_generator(r, s, n)."""
    kind = tag[0]
    if kind == "p":
        return 4 * d + 2 * tag[1] - 1, 4 * d + 2 * tag[1]
    if kind == "q":
        return 4 * d - 2 * tag[1] + 1, 4 * d - 2 * tag[1] + 2
    if kind == "a":
        return 4 * d + 1, 4 * d + 2 * tag[2] - 1
    if kind == "c":
        return 4 * d + 2, 4 * d + 2 * tag[2]
    if kind == "b":
        return 4 * d - 2 * tag[2] + 1, 4 * d - 1
    if kind == "d":
        return 4 * d - 2 * tag[2] + 2, 4 * d
    if kind in ("u", "u'", "u''"):
        i, j = tag[1], tag[2]
        lo = 4 * d - 2 * j + (1 if kind == "u'" else 2)
        hi = 4 * d + 2 * i - (0 if kind == "u''" else 1)
        return lo, hi
    if kind == "s":
        return None  # arc routing is figure-only; no textual word
    raise ValueError(f"unknown twist tag {tag!r}")


def twist_word(tag, b, d):
    """Braid word of a named twist, or None when the arc is figure-only."""
    arc = twist_arc(tag, b, d)
    return None if arc is None else band_generator(*arc, 4 * (b + d))


def realize_s4_trivial_action(factor: BmfFactor, tau) -> str:
    """'trivial' iff the Hurwitz action of the factor's braid word fixes
    the covering-monodromy factorization; 'skipped' when the twist or a
    conjugator twist has no textual arc.

    The word is G^-1 H^e G, H the factor's half twist and G the product of
    its conjugator's twist powers, and it fixes f exactly when H^e fixes
    f G^-1.  So only G^-1 is acted (2 letters for every factor
    `generate_bmf` builds, none for an unconjugated one), and
    `half_twist_fixes` answers for H^e from two slots of f G^-1.
    """
    b, d = tau.b, tau.d
    arc = twist_arc(factor.twist, b, d)
    if arc is None:
        return "skipped"
    f = tau.factors
    if factor.conjugator:
        g = BraidWord(4 * (b + d), ())
        for tag, power in factor.conjugator:
            word = twist_word(tag, b, d)
            if word is None:
                return "skipped"
            g = g * word**power
        f = act_word(f, g.inverse())
    return "trivial" if half_twist_fixes(f, *arc, factor.exponent) else "nontrivial"


# ---------------------------------------------------------------------------
# Local cluster factorizations in Br4


CUSP_CLUSTER_SCRAMBLE = (1, -2, 3, 1)  # fixed, documented move word


def cusp_cluster_factorization():
    """(start, target, product_word) for the cusp-cluster: the target is
    the normal form (three cubes and one conjugated tangency twist); the
    start is its image under a fixed Hurwitz move word, so a search path
    back is a constructive equivalence certificate."""
    target = (
        BraidWord(4, (2, 2, 2)),
        BraidWord(4, (1, 3, 2, -3, -1)),
        BraidWord(4, (1, 1, 1)),
        BraidWord(4, (3, 3, 3)),
    )
    start = act_moves(target, CUSP_CLUSTER_SCRAMBLE)
    product_word = BraidWord(4, (2, 2, 2, 1, 3, 2, 1, 1, 3, 3))
    return start, target, product_word


def tangent_cluster_factorization():
    """Four conjugated tangency twists; factors 1 and 3 equal, 2 and 4."""
    x = BraidWord(4, (2, 3, -2))
    y = BraidWord(4, (1, 2, -1))
    return (x, y, x, y)


# ---------------------------------------------------------------------------
# Main-theorem distinguishability


def stable_profile(p: SurfaceParams) -> dict:
    """Invariants of the stable-equivalence class; the p/q split of the
    full-twist classes rests on the non-conjugacy result (reported as a
    dependency)."""
    c = surface_counts(p)
    return {
        "ab_plus_cd": p.a * p.b + p.c * p.d,
        "ab": p.a * p.b,
        "cd": p.c * p.d,
        "a_plus_c": p.a + p.c,
        "b_plus_d": p.b + p.d,
        "chi": c.chi,
        "K2": c.K2,
        "r": c.r,
        "depends_on": "pair-twist class separation (parity invariant)",
    }


def _profile_key(p):
    return tuple(v for k, v in stable_profile(p).items() if k != "depends_on")


def distinguishable(p: SurfaceParams, p2: SurfaceParams) -> str:
    if p == p2 or p == p2.swapped():
        return "trivially_equivalent"
    if _profile_key(p) in (_profile_key(p2), _profile_key(p2.swapped())):
        return "undetermined"
    return "distinguished"
