import itertools
import json
import random

import pytest

from braidmf.bmf import (
    CUSP_CLUSTER_SCRAMBLE,
    Block,
    BmfFactor,
    BmfFactorization,
    CensusMismatch,
    SurfaceParams,
    cusp_cluster_factorization,
    distinguishable,
    factor_census,
    factor_count,
    generate_bmf,
    realize_s4_trivial_action,
    stable_profile,
    surface_counts,
    tangent_cluster_factorization,
    twist_str,
    twist_word,
)
from braidmf.braid import BraidWord, braid_equal, word_permutation
from braidmf.hurwitz import act_moves, act_word, hurwitz_move, product
from braidmf.perm import Perm, _indented_json, symmetric_group
from braidmf.s4orbit import TauFactorization, in_hat_orbit, tau0
from oracles import factor_word


def test_params_flags():
    assert SurfaceParams(1, 2, 2, 1).toy
    assert not SurfaceParams(3, 3, 3, 3).toy
    assert SurfaceParams(1, 1, 2, 2).excluded  # c = 2a, d = 2b
    assert SurfaceParams(2, 2, 1, 1).excluded  # a = 2c, b = 2d
    assert not SurfaceParams(3, 3, 3, 3).excluded
    assert SurfaceParams(1, 2, 3, 4).swapped() == SurfaceParams(3, 4, 1, 2)
    with pytest.raises(ValueError):
        SurfaceParams(0, 1, 1, 1)


def test_counts_figure_case():
    c = surface_counts(SurfaceParams(1, 2, 2, 1))
    assert c.m == 20 and c.k == 60 and c.nu == 12 and c.t == 60
    assert c.t_f == 12 and c.t_g == 8
    assert c.weighted_p == 6 and c.weighted_q == 6


def test_counts_main_identities():
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(1, 5):
                for d in range(1, 5):
                    p = SurfaceParams(a, b, c, d)
                    n = surface_counts(p)
                    assert n.k == 12 * (a * d + b * c)
                    assert n.t == 2 * n.t_f + 2 * n.t_g + n.m
                    assert 8 * n.chi - n.K2 == 8 * (a * b + c * d)
                    # swapping the two branch curves swaps the p/q data
                    ns = surface_counts(p.swapped())
                    assert (ns.weighted_p, ns.weighted_q) == (n.weighted_q, n.weighted_p)
                    assert (ns.chi, ns.K2, ns.r) == (n.chi, n.K2, n.r)


def test_census_matches_formulas():
    for params in ((1, 1, 1, 1), (1, 2, 2, 1), (3, 3, 3, 3), (2, 3, 4, 1)):
        f = generate_bmf(SurfaceParams(*params))
        census = factor_census(f)  # raises CensusMismatch on disagreement
        counts = surface_counts(f.params)
        assert census["by_type"]["cusp"] == counts.k
        assert census["by_type"]["tangency"] == counts.t


def _census_oracle(f):
    """factor_census by a walk over every flattened factor."""
    counts = surface_counts(f.params)
    by_type = {g: 0 for g in ("tangency", "pos_node", "neg_node", "cusp")}
    weighted = {"p": 0, "q": 0}
    for fac in f.factors:
        by_type[fac.geom_type] += 1
        if abs(fac.exponent) == 2:
            if fac.twist[0] not in weighted:
                raise CensusMismatch(f"full twist on non-pair twist {twist_str(fac.twist)}")
            weighted[fac.twist[0]] += fac.exponent // 2
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


def _census_outcome(census, f):
    try:
        return census(f)
    except CensusMismatch as exc:
        return f"CensusMismatch: {exc}"


def test_census_matches_flat_walk():
    grid = itertools.product(range(1, 6), repeat=4)
    for abcd in (*grid, (24, 24, 24, 24)):
        f = generate_bmf(SurfaceParams(*abcd))
        assert factor_census(f) == _census_oracle(f), abcd
    # doctored factorizations: the first block's tuple, shared by its 2a
    # repetitions, gains a full twist on a non-pair twist (in every block
    # that shares it), or one more block shares it (a count mismatch)
    f = generate_bmf(SurfaceParams(2, 3, 4, 1))
    shared = f.blocks[0].factors
    assert sum(blk.factors is shared for blk in f.blocks) == 4
    bad = shared + (BmfFactor(("u", 1, 2), 2),)
    swapped = tuple(
        Block(blk.kind, blk.rep, bad) if blk.factors is shared else blk
        for blk in f.blocks
    )
    doctored = (
        (BmfFactorization(f.params, swapped), "full twist on non-pair twist u_{1,2}"),
        (BmfFactorization(f.params, f.blocks + f.blocks[:1]), "census {'length': "),
    )
    for g, start in doctored:
        want = _census_outcome(_census_oracle, g)
        assert want.startswith(f"CensusMismatch: {start}")
        assert _census_outcome(factor_census, g) == want


def test_toy_case_has_no_p_block():
    # (1,2,2,1): |2a - c| = 0, so the pure p-twist block is absent
    f = generate_bmf(SurfaceParams(1, 2, 2, 1))
    kinds = {blk.kind for blk in f.blocks}
    assert "p_block" not in kinds
    assert "q_block" in kinds  # |2c - a| = 3
    assert kinds >= {"beta_f", "beta_fg", "beta_g", "beta_gf"}


def test_factor_geom_types():
    with pytest.raises(ValueError):
        BmfFactor(("p", 1), 4)
    assert BmfFactor(("p", 1), 2).geom_type == "pos_node"
    assert BmfFactor(("p", 1), -2).geom_type == "neg_node"
    assert BmfFactor(("u", 1, 1), 3).geom_type == "cusp"
    assert BmfFactor(("a", 1, 2), 1).geom_type == "tangency"


def test_twist_str():
    assert twist_str(("p", 1)) == "p_1"
    assert twist_str(("a", 1, 2)) == "a_{1,2}"


def test_twist_words_are_half_twists():
    b, d = 2, 1
    for tag in (("p", 2), ("q", 1), ("a", 1, 3), ("c", 1, 2), ("b", 1, 2),
                ("d", 1, 2), ("u", 2, 1), ("u'", 1, 2), ("u''", 1, 1)):
        w = twist_word(tag, b, d)
        assert word_permutation(w).is_transposition()
    assert twist_word(("s", 1, 1), b, d) is None
    with pytest.raises(ValueError):
        twist_word(("z", 1), b, d)


def test_factors_act_trivially_on_tau0():
    b, d = 2, 1
    tau = tau0(b, d)
    f = generate_bmf(SurfaceParams(1, b, 1, d))
    skipped = 0
    for factor in f.factors:
        verdict = realize_s4_trivial_action(factor, tau)
        if verdict == "skipped":
            skipped += 1
            assert factor.twist[0] == "s"
        else:
            assert verdict == "trivial"
    assert skipped > 0


def test_conjugated_factor_word():
    factor = BmfFactor(("c", 1, 2), 1, ((("p", 1), -2),))
    w = factor_word(factor, 2, 1)
    base = twist_word(("c", 1, 2), 2, 1)
    g = twist_word(("p", 1), 2, 1) ** -2
    raw = g.inverse().letters + base.letters + g.letters
    assert w == BraidWord(base.strands, raw)  # full reduction of the raw word
    assert factor_word(BmfFactor(("s", 1, 1), 1), 2, 1) is None


def test_cusp_cluster():
    start, target, product_word = cusp_cluster_factorization()
    assert braid_equal(product(target), product_word)
    assert braid_equal(product(start), product_word)
    # the scramble is a Hurwitz move word, so it is reversible
    assert act_moves(target, CUSP_CLUSTER_SCRAMBLE) == start


def test_tangent_cluster():
    f = tangent_cluster_factorization()
    assert len(f) == 4
    assert f[0] == f[2] and f[1] == f[3]
    for x in f:
        assert sum(1 if s > 0 else -1 for s in x.letters) == 1  # conjugated tangency


def test_stable_profile_keys():
    pr = stable_profile(SurfaceParams(2, 3, 4, 3))
    assert pr["ab_plus_cd"] == 18 and pr["ab"] == 6 and pr["cd"] == 12
    assert "depends_on" in pr


def test_distinguishable():
    abc = lambda a, b, c: SurfaceParams(a, b, c, b)
    assert distinguishable(abc(2, 3, 4), abc(3, 3, 3)) == "distinguished"
    assert distinguishable(abc(2, 3, 4), abc(4, 3, 2)) == "trivially_equivalent"
    assert distinguishable(abc(2, 3, 4), abc(2, 3, 4)) == "trivially_equivalent"


def test_abc_invariants_shared():
    # (2,3,4) and (3,3,3) as abc-surfaces share the classical invariants
    p = SurfaceParams(2, 3, 4, 3)
    p2 = SurfaceParams(3, 3, 3, 3)
    c, c2 = surface_counts(p), surface_counts(p2)
    assert (c.chi, c.K2, c.r) == (c2.chi, c2.K2, c2.r)
    assert p.a + p.c == p2.a + p2.c and p.b + p.d == p2.b + p2.d
    assert p.a * p.b != p2.a * p2.b  # the distinguishing quantity


_MIRROR_KIND = {"beta_f": "beta_g", "twists_p1": "twists_q1", "beta_fg": "beta_gf"}


def _mirror_tag(tag):
    # a -> b, c -> d, p -> q; the crossing twists (k,1,j) -> (k,j,1)
    kind = {"a": "b", "c": "d", "p": "q"}.get(tag[0], tag[0])
    if kind in ("u", "u'", "u''", "s"):
        return (kind, tag[2], tag[1])
    return (kind, *tag[1:])


def _mirror(blk):
    factors = tuple(
        BmfFactor(
            _mirror_tag(f.twist),
            f.exponent,
            tuple((_mirror_tag(t), k) for t, k in f.conjugator),
        )
        for f in blk.factors
    )
    return Block(_MIRROR_KIND[blk.kind], blk.rep, factors)


def test_g_side_mirrors_f_side():
    for abcd in itertools.product(range(1, 6), repeat=4):
        p = SurfaceParams(*abcd)
        g_side = [
            blk for blk in generate_bmf(p).blocks if blk.kind in _MIRROR_KIND.values()
        ]
        f_side = [
            _mirror(blk)
            for blk in generate_bmf(p.swapped()).blocks
            if blk.kind in _MIRROR_KIND
        ]
        assert g_side and g_side == f_side


def _generic_verdict(factor, tau):
    # the whole factor word, one hurwitz_move per letter on fresh Perms
    word = factor_word(factor, tau.b, tau.d)
    if word is None:
        return "skipped"
    generic = tuple(Perm(x.images) for x in tau.factors)
    for k in word.letters:
        generic = hurwitz_move(generic, k)
    assert act_moves(tau.factors, word.letters) == generic
    return "trivial" if generic == tau.factors else "nontrivial"


def test_realize_matches_generic_action():
    # realize acts by the conjugator and reads the half twist's two end
    # slots, through the tuple it read last; the oracle walks the whole
    # factor word.  b != d splits the strands unequally between the D and
    # B pairs; tau0 after a Hurwitz word, a random S4 tuple outside O-hat
    # and random transposition tuples are factorizations that some factors
    # move (on the last, acting by G instead of G^-1 changes some
    # verdicts).  Each tau is read factor after factor, then the taus
    # alternate, then tau0 alternates with an equal but distinct tuple,
    # and last its factors come as a list
    grid = (
        (1, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 2), (3, 3, 3, 3),
        (2, 5, 3, 1), (4, 2, 2, 6),
    )
    rng = random.Random(29)
    s4 = symmetric_group(4)
    transpositions = [x for x in s4 if x.is_transposition()]
    verdicts = set()
    for abcd in grid:
        p = SurfaceParams(*abcd)
        ref = tau0(p.b, p.d)
        n = ref.length
        scramble = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(3)]
        wild = ref.with_factors(rng.choice(s4) for _ in range(n))
        assert not in_hat_orbit(wild)
        taus = (
            ref,
            ref.with_factors(act_moves(ref.factors, scramble)),
            wild,
            *(ref.with_factors(rng.choices(transpositions, k=n)) for _ in range(3)),
        )
        factors = list(dict.fromkeys(generate_bmf(p).factors))
        want = {
            (t, f): _generic_verdict(f, tau)
            for t, tau in enumerate(taus)
            for f in factors
        }
        verdicts.update(want.values())
        for t, tau in enumerate(taus):
            assert [realize_s4_trivial_action(f, tau) for f in factors] == [
                want[t, f] for f in factors
            ]
        for f in factors:
            for t, tau in enumerate(taus):
                assert realize_s4_trivial_action(f, tau) == want[t, f]
        same = ref.with_factors(list(ref.factors))
        assert same.factors == ref.factors and same.factors is not ref.factors
        for f in factors:
            for tau in (ref, same, same, ref):
                assert realize_s4_trivial_action(f, tau) == want[0, f]
        listed = TauFactorization(p.b, p.d, list(ref.factors))
        assert [realize_s4_trivial_action(f, listed) for f in factors] == [
            want[0, f] for f in factors
        ]
    assert verdicts == {"skipped", "trivial", "nontrivial"}


def test_realize_acts_only_the_conjugator(monkeypatch):
    # At a=b=c=d=24 realize acts 2 letters (the inverse conjugator) for
    # each conjugated factor and nothing for an unconjugated one: the half
    # twist is read from two slots, so the cost does not grow with its span
    from braidmf import bmf

    acted = []

    def spy(f, word):
        acted.append(len(word.letters))
        return act_word(f, word)

    monkeypatch.setattr(bmf, "act_word", spy)
    p = SurfaceParams(24, 24, 24, 24)
    tau = tau0(p.b, p.d)
    conjugated = 0
    for factor in dict.fromkeys(generate_bmf(p).factors):
        acted.clear()
        verdict = realize_s4_trivial_action(factor, tau)
        if factor.conjugator and verdict != "skipped":
            assert acted == [2]
            conjugated += 1
        else:
            assert acted == []
    assert conjugated == (2 * p.b - 1) + (2 * p.d - 1)  # c_{1,i} and d_{1,j}


def test_factor_count_closed_form():
    grid = list(itertools.product(range(1, 6), repeat=4))
    assert any(SurfaceParams(*abcd).excluded for abcd in grid)
    assert any(2 * a == c for a, b, c, d in grid)
    for abcd in grid:
        p = SurfaceParams(*abcd)
        assert factor_count(p) == len(generate_bmf(p).factors)
    assert factor_count(SurfaceParams(24, 24, 24, 24)) == 41_088


def test_generate_refuses_above_the_factor_cap(monkeypatch):
    from braidmf import bmf

    p = SurfaceParams(2, 3, 4, 1)
    n = factor_count(p)
    monkeypatch.setattr(bmf, "MAX_FACTORS", n)
    assert len(generate_bmf(p).factors) == n
    monkeypatch.setattr(bmf, "MAX_FACTORS", n - 1)
    with pytest.raises(RuntimeError) as exc:
        generate_bmf(p)
    assert str(exc.value) == f"factorization of {n} factors exceeds cap {n - 1}"


def _report_oracle(f):
    """The `bmf gen --json` document as a plain dict: json_text must equal
    json.dumps(doc, indent=2, sort_keys=True) of it."""
    p = f.params
    return {
        "params": {"a": p.a, "b": p.b, "c": p.c, "d": p.d},
        "toy": p.toy,
        "excluded": p.excluded,
        "blocks": [
            {
                "kind": blk.kind,
                "rep": blk.rep,
                "factors": [fac.to_json() for fac in blk.factors],
            }
            for blk in f.blocks
        ],
        "census": factor_census(f),
    }


def test_json_text_matches_dict_encoder():
    grid = [SurfaceParams(*abcd) for abcd in itertools.product(range(1, 6), repeat=4)]
    # the grid holds toy and excluded surfaces, empty twists_p1 blocks
    # (2b = d) and surfaces without p_block (2a = c)
    assert any(p.toy for p in grid) and any(not p.toy for p in grid)
    assert any(p.excluded for p in grid)
    assert any(2 * p.b == p.d for p in grid) and any(2 * p.a == p.c for p in grid)
    for p in (*grid, SurfaceParams(24, 24, 24, 24)):
        f = generate_bmf(p)
        text = f.json_text()
        assert text == json.dumps(_report_oracle(f), indent=2, sort_keys=True), p
        if 2 * p.b == p.d:
            assert '"factors": [],\n      "kind": "twists_p1"' in text
        if 2 * p.a == p.c:
            assert '"kind": "p_block"' not in text


# keys that sort differently by case, punctuation and non-ASCII characters
_KEYS = ("a", "A", "b", "B", "", "_", "-", "a b", "a-", "a_", "aa", "0", "10", "9",
         "\u00e9", "e\u0301", "\u00ff", "z\u2028", "\U0001d11e", "\ufb01")
_STRS = ('"', "\\", "\x00\x1f\n\t\r\b\f", "\x7f", "\u2028\u2029", "\U0001f600",
         "\u00e9", "/", "plain", "")
_INTS = (0, 1, -1, -7, 2**63, 2**64, 2**64 + 1, -(2**70), 3**80)


def _random_doc(rng, depth):
    """A seeded document of the types `_indented_json` takes, nested up to
    depth containers deep; True and False turn up next to 1 and 0."""
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.choice(_STRS) + rng.choice(_KEYS)
    if kind == 1:
        return rng.choice(_INTS)
    if kind == 2:
        return rng.choice((True, False, 1, 0))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(({}, [], ()))
    items = [_random_doc(rng, depth - 1) for _ in range(rng.randrange(6))]
    if kind == 5:
        return dict(zip(rng.sample(_KEYS, len(items)), items))
    return items if kind == 6 else tuple(items)


def test_indented_json_matches_json_dumps():
    fixed = {"b": [True, 1, False, 0, None], "B": ({}, [], (), {"x": [[]]}),
             "\u00e9": "\"\\\x01\u2028\U0001f600", "-": -(2**70), "": 2**64 + 1}
    rng = random.Random(0)
    docs = [fixed, *(_random_doc(rng, 5) for _ in range(1000))]
    assert any(type(d) is dict and len(d) > 3 for d in docs)
    for k, doc in enumerate(docs):
        want = json.dumps(doc, indent=2, sort_keys=True)
        assert _indented_json(doc) == want, doc
        pad = " " * (k % 10)
        assert _indented_json(doc, pad) == want.replace("\n", "\n" + pad), doc


@pytest.mark.parametrize("doc", [
    1.5, {1, 2}, {1: "a"}, {"a": [0, {2: 1}]}, [{"x": 0.0}], {"a": 1, 1: "a"},
    {True: 1},
])
def test_indented_json_refuses_other_types(doc):
    with pytest.raises(TypeError, match="float|set|int|bool"):
        _indented_json(doc)
