import random

import pytest

from braidmf import (
    BraidWord,
    F2Vec,
    FreeWord,
    Perm,
    act_moves,
    act_word,
    hurwitz_move,
    orbit_search,
    product,
    symmetric_group,
    transvection,
)
from braidmf.f2sym import form_from_edges
from braidmf.hurwitz import bfs_closure


def _random_fact(rng, m=5, n=5):
    elems = [rng.choice(symmetric_group(n)) for _ in range(m)]
    return tuple(elems)


def test_factorization_basics():
    f = tuple([Perm.transposition(1, 2, 3), Perm.transposition(2, 3, 3)])
    assert len(f) == 2
    assert product(f)(1) == 3
    with pytest.raises(ValueError):
        product(tuple([]))


def test_move_preserves_product_and_inverts():
    rng = random.Random(11)
    for _ in range(200):
        f = _random_fact(rng)
        i = rng.randint(1, len(f) - 1)
        g = hurwitz_move(f, i)
        assert product(g) == product(f)
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


def test_generated_subgroup():
    gens = [Perm.transposition(1, 2, 4), Perm.from_cycles([(1, 2, 3, 4)], 4)]
    closure = bfs_closure(gens)
    assert len(closure) == 24 and set(closure) == set(symmetric_group(4))
    assert bfs_closure([]) == []
    with pytest.raises(RuntimeError):
        bfs_closure(gens, cap=10)


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
    f = tuple([t, t, u])  # product u != identity
    res = orbit_search(f, f, max_depth=1)
    assert res.found and res.moves == []
    g = tuple([Perm.identity(4)] * 3)
    with pytest.raises(ValueError):
        orbit_search(f, g, max_depth=1)


def _list_move(f, i, inverse=False):
    # the move as the removed Factorization wrapper built it: a list copy
    # with two slots overwritten
    a, b = f[i - 1], f[i]
    elems = list(f)
    if not inverse:
        elems[i - 1], elems[i] = a * b * a.inverse(), a
    else:
        elems[i - 1], elems[i] = b, b.inverse() * a * b
    return tuple(elems)


def _signed(rng, top, n):
    return [rng.choice((1, -1)) * rng.randint(1, top) for _ in range(n)]


def test_factorizations_are_plain_tuples():
    rng = random.Random(17)
    chain = form_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    makers = {
        "Perm": lambda: rng.choice(symmetric_group(4)),
        "BraidWord": lambda: BraidWord(4, _signed(rng, 3, rng.randint(0, 5))),
        "FreeWord": lambda: FreeWord(3, _signed(rng, 3, rng.randint(0, 5))),
        "F2Operator": lambda: transvection(F2Vec(4, rng.randrange(1, 16)), chain)
        * transvection(F2Vec(4, rng.randrange(1, 16)), chain),
    }
    for make in makers.values():
        for _ in range(50):
            f = tuple(make() for _ in range(rng.randint(2, 6)))
            i = rng.randint(1, len(f) - 1)
            for inverse in (False, True):
                assert hurwitz_move(f, i, inverse) == _list_move(f, i, inverse)

    # lists and tuples go in alike; tuples come out
    f = _random_fact(rng, m=4)
    moves = [1, -2, 3, 3]
    outs = {}
    for given in (list(f), f):
        out = (
            act_moves(given, moves),
            act_word(given, BraidWord(4, moves)),
        )
        assert all(type(x) is tuple for x in out)
        assert product(given) == product(f)
        outs[type(given)] = out
    assert outs[list] == outs[tuple]
    start = outs[tuple][0]
    assert orbit_search(list(start), list(f), max_depth=4).found
    with pytest.raises(ValueError) as exc:
        product(())
    assert str(exc.value) == "empty factorization has no product without an identity"
