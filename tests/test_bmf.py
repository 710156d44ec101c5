import itertools

import pytest

from braidmf import (
    BraidElement,
    Factorization,
    SurfaceParams,
    cusp_cluster_factorization,
    distinguishable,
    factor_census,
    generate_bmf,
    realize_s4_trivial_action,
    stable_profile,
    surface_counts,
    tangent_cluster_factorization,
    tau0,
)
from braidmf.bmf import Block, BmfFactor, factor_word, twist_str, twist_word
from braidmf.hurwitz import act_moves


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
    from braidmf.braid import word_permutation

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
    assert w == (g.inverse() * base * g).free_reduce()
    assert factor_word(BmfFactor(("s", 1, 1), 1), 2, 1) is None


def test_cusp_cluster():
    start, target, product_word = cusp_cluster_factorization()
    stated = BraidElement(product_word)
    assert target.product().equal_as_braids(stated)
    assert start.product().equal_as_braids(stated)
    # the scramble is a Hurwitz move word, so it is reversible
    from braidmf.bmf import CUSP_CLUSTER_SCRAMBLE

    assert act_moves(target, CUSP_CLUSTER_SCRAMBLE) == start


def test_tangent_cluster():
    f = tangent_cluster_factorization()
    assert len(f) == 4
    assert f[0] == f[2] and f[1] == f[3]
    for x in f.elements:
        assert sum(1 if s > 0 else -1 for s in x.word.letters) == 1  # conjugated tangency


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
