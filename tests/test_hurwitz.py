import random

import pytest

from braidmf import (
    BraidWord,
    Factorization,
    Perm,
    StableContext,
    act_moves,
    act_word,
    class_count_function,
    generated_subgroup,
    hurwitz_move,
    orbit_search,
    rotate_to_front,
    signed_class_count,
    simultaneous_conjugate,
    stable_cancel,
    stable_insert,
    symmetric_group,
)


def _random_fact(rng, m=5, n=5):
    elems = [rng.choice(symmetric_group(n)) for _ in range(m)]
    return Factorization(elems)


def test_factorization_basics():
    f = Factorization([Perm.transposition(1, 2, 3), Perm.transposition(2, 3, 3)])
    assert len(f) == 2
    assert f.product()(1) == 3
    with pytest.raises(ValueError):
        Factorization([]).product()


def test_move_preserves_product_and_inverts():
    rng = random.Random(11)
    for _ in range(200):
        f = _random_fact(rng)
        i = rng.randint(1, len(f) - 1)
        g = hurwitz_move(f, i)
        assert g.product() == f.product()
        assert hurwitz_move(g, i, inverse=True) == f
        assert hurwitz_move(hurwitz_move(f, i, inverse=True), i) == f


def test_move_index_bounds():
    f = _random_fact(random.Random(0))
    with pytest.raises(IndexError):
        hurwitz_move(f, 0)
    with pytest.raises(IndexError):
        hurwitz_move(f, len(f))


def test_act_word_matches_act_moves():
    rng = random.Random(12)
    for _ in range(100):
        f = _random_fact(rng, m=6)
        moves = [rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(10)]
        w = BraidWord(6, moves)
        assert act_word(f, w) == act_moves(f, moves)
    with pytest.raises(ValueError):
        act_word(_random_fact(rng, m=4), BraidWord(6, [1]))


def test_rotate_to_front():
    rng = random.Random(13)
    f = _random_fact(rng, m=6)
    for h in range(1, 7):
        g = rotate_to_front(f, h)
        assert g.product() == f.product()
        # the moved factor arrives as a conjugate of slot h
        assert g[0].cycle_type() == f[h - 1].cycle_type()


def test_simultaneous_conjugate():
    rng = random.Random(14)
    f = _random_fact(rng)
    g = rng.choice(symmetric_group(5))
    fc = simultaneous_conjugate(f, g)
    assert fc.product() == f.product().conjugate(g)


def test_stable_insert_and_cancel():
    t = Perm.transposition(1, 2, 4)
    u = Perm.transposition(3, 4, 4)
    ctx = StableContext([t])
    f = Factorization([u, u])
    g = stable_insert(f, 2, t, ctx)
    assert g.elements == (u, t, t, u)
    assert stable_cancel(g, 2, ctx) == f
    with pytest.raises(ValueError):
        stable_insert(f, 1, u, ctx)  # u is not admissible
    with pytest.raises(ValueError):
        stable_cancel(f, 1, ctx)  # u,u multiply to identity but u not allowed


def test_stable_cancel_rejects_noninverse_pair():
    t = Perm.transposition(1, 2, 4)
    u = Perm.transposition(1, 3, 4)
    ctx = StableContext([t, u])
    with pytest.raises(ValueError):
        stable_cancel(Factorization([t, u]), 1, ctx)


def test_generated_subgroup():
    gens = [Perm.transposition(1, 2, 4), Perm.from_cycles([(1, 2, 3, 4)], 4)]
    assert len(generated_subgroup(gens)) == 24
    assert generated_subgroup([]) == frozenset()
    with pytest.raises(RuntimeError):
        generated_subgroup(gens, cap=10)


def test_class_count_is_orbit_invariant():
    rng = random.Random(15)
    for _ in range(20):
        f = _random_fact(rng, m=4, n=4)
        sigma, H = class_count_function(f)
        moves = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(15)]
        g = act_moves(f, moves)
        sigma2, _ = class_count_function(g, subgroup=H)
        assert sigma == sigma2


def test_signed_class_count_transpositions_balanced():
    # transpositions are self-inverse: nothing is tracked
    f = Factorization([Perm.transposition(1, 2, 4)] * 3)
    assert signed_class_count(f) == {}


def test_orbit_search_finds_scramble_path():
    rng = random.Random(16)
    target = _random_fact(rng, m=4, n=4)
    moves = [2, -1, 3]
    start = act_moves(target, moves)
    res = orbit_search(start, target, max_depth=4)
    assert res.found
    assert act_moves(start, res.moves) == target
    assert len(res.moves) <= 3


def test_orbit_search_trivial_and_mismatch():
    t = Perm.transposition(1, 2, 4)
    u = Perm.transposition(1, 3, 4)
    f = Factorization([t, t, u])  # product u != identity
    res = orbit_search(f, f, max_depth=1)
    assert res.found and res.moves == []
    g = Factorization([Perm.identity(4)] * 3)
    with pytest.raises(ValueError):
        orbit_search(f, g, max_depth=1)
