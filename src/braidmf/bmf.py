"""The vertical braid-monodromy factorization of an (a,b,c,d)-surface.

Generates the full symbolic factorization block structure, the surface
count formulas, local cluster factorizations, and the arithmetic that
distinguishes surfaces with matching classical invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BraidElement, BraidWord, band_generator
from .hurwitz import Factorization, act_moves, act_word

GEOM_BY_EXP = {1: "tangency", 2: "pos_node", -2: "neg_node", 3: "cusp"}


def _sign(x):
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class SurfaceParams:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 1:
            raise ValueError("parameters must be positive")

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


@dataclass(frozen=True)
class Counts:
    m: int          # proper nodes
    k: int          # cusps
    nu: int         # signed node count (only the difference is determined)
    t_f: int
    t_g: int
    t: int          # vertical tangents
    gR: int
    chi: int
    K2: int
    r: int          # canonical divisibility
    dim_lower: int
    dim_upper: int
    weighted_p: int
    weighted_q: int


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
        m=m,
        k=k,
        nu=nu,
        t_f=t_f,
        t_g=t_g,
        t=t,
        gR=gR,
        chi=chi,
        K2=K2,
        r=math.gcd(a + c - 2, b + d - 2),
        dim_lower=10 * chi - 2 * K2,
        dim_upper=10 * chi + 3 * K2 + 108,
        weighted_p=8 * a * b - 2 * (a * d + b * c),
        weighted_q=8 * c * d - 2 * (a * d + b * c),
    )


# ---------------------------------------------------------------------------
# Symbolic factorization

# twist tags are tuples: ("p", i), ("q", j), ("a", 1, i), ("c", 1, i),
# ("b", 1, j), ("d", 1, j), ("u"|"u'"|"u''", i, j), ("s", i, j)


def twist_str(tag) -> str:
    if len(tag) == 2:
        return f"{tag[0]}_{tag[1]}"
    return f"{tag[0]}_{{{tag[1]},{tag[2]}}}"


@dataclass(frozen=True)
class BmfFactor:
    twist: tuple
    exponent: int
    conjugator: tuple = ()  # sequence of (twist tag, power), applied as x^g

    def __post_init__(self):
        if self.exponent not in GEOM_BY_EXP:
            raise ValueError(f"exponent {self.exponent} has no geometric type")

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


@dataclass(frozen=True)
class Block:
    kind: str
    rep: int
    factors: tuple

    def to_json(self):
        return {
            "kind": self.kind,
            "rep": self.rep,
            "factors": [f.to_json() for f in self.factors],
        }


@dataclass(frozen=True)
class BmfFactorization:
    params: SurfaceParams
    blocks: tuple

    @property
    def factors(self):
        return [f for blk in self.blocks for f in blk.factors]

    def to_json(self):
        p = self.params
        return {
            "params": {"a": p.a, "b": p.b, "c": p.c, "d": p.d},
            "toy": p.toy,
            "excluded": p.excluded,
            "blocks": [blk.to_json() for blk in self.blocks],
            "census": factor_census(self),
        }


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


def generate_bmf(p: SurfaceParams) -> BmfFactorization:
    """The four-part symbolic factorization: f-side repetitions, the two
    pure full-twist blocks, then the mirrored g-side repetitions.  Each
    full-twist block carries the constant sign of the count that sets its
    length."""
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
    for fac in f.factors:
        by_type[fac.geom_type] += 1
        if abs(fac.exponent) == 2:
            fam = fac.twist[0]
            if fam not in weighted:
                raise CensusMismatch(
                    f"full twist on non-pair twist {twist_str(fac.twist)}"
                )
            weighted[fam] += fac.exponent // 2
    census = {
        "length": len(f.factors),
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


def twist_word(tag, b, d):
    """Braid word of a named twist, or None when the arc is figure-only."""
    n = 4 * (b + d)
    kind = tag[0]
    if kind == "p":
        return BraidWord(n, (4 * d + 2 * tag[1] - 1,))
    if kind == "q":
        return BraidWord(n, (4 * d - 2 * tag[1] + 1,))
    if kind == "a":
        return band_generator(4 * d + 1, 4 * d + 2 * tag[2] - 1, n)
    if kind == "c":
        return band_generator(4 * d + 2, 4 * d + 2 * tag[2], n)
    if kind == "b":
        return band_generator(4 * d - 2 * tag[2] + 1, 4 * d - 1, n)
    if kind == "d":
        return band_generator(4 * d - 2 * tag[2] + 2, 4 * d, n)
    if kind in ("u", "u'", "u''"):
        i, j = tag[1], tag[2]
        lo = 4 * d - 2 * j + (1 if kind == "u'" else 2)
        hi = 4 * d + 2 * i - (0 if kind == "u''" else 1)
        return band_generator(lo, hi, n)
    if kind == "s":
        return None  # arc routing is figure-only; no textual word
    raise ValueError(f"unknown twist tag {tag!r}")


def factor_word(factor: BmfFactor, b, d):
    base = twist_word(factor.twist, b, d)
    if base is None:
        return None
    word = base ** factor.exponent
    for tag, power in factor.conjugator:
        g = twist_word(tag, b, d)
        if g is None:
            return None
        gp = g**power
        word = gp.inverse() * word * gp
    return word.free_reduce()


def realize_s4_trivial_action(factor: BmfFactor, tau) -> str:
    """'trivial' iff the Hurwitz action of the factor's braid word fixes
    the covering-monodromy factorization; 'skipped' when the twist has no
    textual arc."""
    word = factor_word(factor, tau.b, tau.d)
    if word is None:
        return "skipped"
    out = act_word(Factorization(tau.factors), word)
    return "trivial" if out.elements == tau.factors else "nontrivial"


# ---------------------------------------------------------------------------
# Local cluster factorizations in Br4


def _elt(n, *letters):
    return BraidElement(BraidWord(n, letters))


CUSP_CLUSTER_SCRAMBLE = (1, -2, 3, 1)  # fixed, documented move word


def cusp_cluster_factorization():
    """(start, target, product_word) for the cusp-cluster: the target is
    the normal form (three cubes and one conjugated tangency twist); the
    start is its image under a fixed Hurwitz move word, so a search path
    back is a constructive equivalence certificate."""
    target = Factorization(
        (
            _elt(4, 2, 2, 2),
            _elt(4, 1, 3, 2, -3, -1),
            _elt(4, 1, 1, 1),
            _elt(4, 3, 3, 3),
        )
    )
    start = act_moves(target, CUSP_CLUSTER_SCRAMBLE)
    product_word = BraidWord(4, (2, 2, 2, 1, 3, 2, 1, 1, 3, 3))
    return start, target, product_word


def tangent_cluster_factorization():
    """Four conjugated tangency twists; factors 1 and 3 equal, 2 and 4."""
    x = _elt(4, 2, 3, -2)
    y = _elt(4, 1, 2, -1)
    return Factorization((x, y, x, y))


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
    pr = stable_profile(p)
    return tuple(pr[k] for k in ("ab_plus_cd", "ab", "cd", "a_plus_c",
                                 "b_plus_d", "chi", "K2", "r"))


def distinguishable(p: SurfaceParams, p2: SurfaceParams) -> str:
    if p == p2 or p == p2.swapped():
        return "trivially_equivalent"
    if _profile_key(p) in (_profile_key(p2), _profile_key(p2.swapped())):
        return "undetermined"
    return "distinguished"
