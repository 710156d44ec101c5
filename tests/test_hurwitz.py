import random

import pytest

from braidmf import (
    BraidWord,
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
        "F2Operator": lambda: transvection(rng.randrange(1, 16), chain)
        * transvection(rng.randrange(1, 16), chain),
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


def _chained(f, moves):
    # the generic action, one hurwitz_move per letter: the oracle of the
    # S4 index-table path of act_moves
    f = tuple(f)
    for k in moves:
        f = hurwitz_move(f, abs(k), inverse=k < 0)
    return f


def _fresh(f):
    # equal Perms that are not the symmetric_group(4) objects
    return tuple(Perm(x.images) for x in f)


def test_s4_path_matches_chained_moves():
    rng = random.Random(18)
    s4 = symmetric_group(4)
    for m in [*range(1, 13), *(rng.randint(13, 200) for _ in range(40))]:
        f = _fresh(_random_fact(rng, m=m, n=4))
        moves = _signed(rng, m - 1, rng.randint(0, 3 * m)) if m > 1 else []
        out = act_moves(f, moves)
        assert out == _chained(f, moves)
        assert [hash(x) for x in out] == [hash(x) for x in _chained(f, moves)]
        # the table path ran: a slot that ends as it started keeps its Perm,
        # any other is the canonical symmetric_group(4) Perm
        for x, y in zip(f, out):
            assert y is x if y == x else y is s4[s4.index(y)]
        if m > 1:
            assert act_word(f, BraidWord(m, moves)) == out


@pytest.mark.parametrize("bad", ["0", "m", "-m", "m+3"])
def test_s4_path_index_error_matches_generic(bad):
    for m in (1, 2, 5):
        f = _fresh(_random_fact(random.Random(m), m=m, n=4))
        k = {"0": 0, "m": m, "-m": -m, "m+3": m + 3}[bad]
        moves = ([1] if m > 1 else []) + [k]
        errors = []
        for act in (act_moves, _chained):
            with pytest.raises(IndexError) as exc:
                act(f, moves)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == f"move index {abs(k)} out of range 1..{m - 1}"


def test_mixed_factorizations_take_the_generic_path(monkeypatch):
    from braidmf import hurwitz

    def table_path(f, moves):
        raise AssertionError("S4 table path taken")

    monkeypatch.setattr(hurwitz, "_act_moves_s4", table_path)
    rng = random.Random(19)
    s4_part = _fresh(_random_fact(rng, m=4, n=4))
    degree5 = rng.choice(symmetric_group(5))
    moves = [1, -2, 3, -1, 2]  # slots 1..4 only
    for f in (
        s4_part + (degree5,),
        s4_part + (BraidWord(4, (1, -2)),),
        _random_fact(rng, m=5, n=5),
    ):
        assert act_moves(f, moves) == _chained(f, moves)
    with pytest.raises(ValueError, match="degree mismatch"):
        act_moves(s4_part + (degree5,), [4])
    with pytest.raises(AssertionError, match="S4 table path taken"):
        act_moves(s4_part, moves)


def test_snake_via_word_matches_generic_action():
    from braidmf.braid import snake_word
    from braidmf.s4orbit import all_windows, embed_window, snake_via_word

    for b in range(1, 4):
        for d in range(1, 4):
            word = snake_word(d, 4 * (b + d))
            for window in all_windows():
                f = embed_window(window, b, d)
                generic = _chained(_fresh(f.factors), word.letters)
                assert snake_via_word(f).factors == generic
