import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from braidmf import hurwitz
from braidmf.bmf import cusp_cluster_factorization
from braidmf.braid import BraidWord, FreeWord
from braidmf.f2sym import form_from_edges, transvection
from braidmf.hurwitz import (
    SearchResult,
    act_moves,
    act_word,
    hurwitz_move,
    orbit_search,
    product,
)
from braidmf.perm import Perm, symmetric_group
from oracles import element_keyed_search, one_sided_search


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
        for k in (i, -i):
            g = hurwitz_move(f, k)
            assert product(g) == product(f)
            assert hurwitz_move(g, -k) == f


def test_move_index_bounds():
    f = _random_fact(random.Random(0))
    with pytest.raises(IndexError):
        hurwitz_move(f, 0)
    with pytest.raises(IndexError):
        hurwitz_move(f, len(f))
    with pytest.raises(IndexError) as exc:
        hurwitz_move(f, -len(f))
    assert str(exc.value) == f"move index {len(f)} out of range 1..{len(f) - 1}"


def test_act_word_matches_act_moves():
    rng = random.Random(12)
    for _ in range(100):
        f = _random_fact(rng, m=6)
        moves = [rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(10)]
        w = BraidWord(6, moves)
        assert act_word(f, w) == act_moves(f, moves)
    with pytest.raises(ValueError):
        act_word(_random_fact(rng, m=4), BraidWord(6, [1]))


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


def _br4_fact(rng, m):
    return tuple(BraidWord(4, _signed(rng, 3, rng.randint(1, 3))) for _ in range(m))


def test_orbit_search_agrees_with_one_sided_oracle():
    # 320 seeded S4 and Br4 scrambles of lengths 3-6 by 0-5 moves, searched
    # at max_depth 0-5: about a third are misses
    rng = random.Random(1971)
    misses = 0
    for k in range(320):
        m = rng.randint(3, 6)
        target = _random_fact(rng, m=m, n=4) if k % 2 else _br4_fact(rng, m)
        start = act_moves(target, _signed(rng, m - 1, rng.randint(0, 5)))
        depth = rng.randint(0, 5)
        want = one_sided_search(start, target, depth)
        res = orbit_search(start, target, depth)
        assert (res.found, len(res.moves)) == (want.found, len(want.moves)), k
        assert act_moves(start, res.moves) == (target if res.found else start)
        assert orbit_search(start, target, depth) == res
        misses += not res.found
    assert 60 <= misses <= 260


def test_orbit_search_edge_cases(monkeypatch):
    t, u = Perm.transposition(1, 2, 4), Perm.transposition(3, 4, 4)
    e, v = Perm.identity(4), Perm.transposition(2, 3, 4)
    f = (t, v, t)
    for depth in (0, 3):
        assert orbit_search(f, f, depth) == SearchResult(True, [], 1, 0)
    # max_depth 0 grows no level: each side holds its root
    g = hurwitz_move(f, 1)
    assert orbit_search(g, f, 0) == SearchResult(False, [], 2, 0)
    assert orbit_search(g, f, 1) == SearchResult(True, [-1], 4, 1)
    # a length-1 pair has no moves; its one factor is its product, so a
    # pair that differs is a product mismatch
    assert orbit_search((t,), (t,), 4) == SearchResult(True, [], 1, 0)
    with pytest.raises(ValueError, match="product mismatch"):
        orbit_search((t,), (u,), 4)
    # (t, u) and (e, t u) share the product t u but lie in orbits of two
    # factorizations each: the forward side runs dry at its second level,
    # under a cap of exactly the three nodes stored
    monkeypatch.setattr(hurwitz, "SEARCH_NODE_CAP", 3)
    res = orbit_search((t, u), (e, t * u), 10)
    assert res == SearchResult(False, [], 3, 2)
    assert not one_sided_search((t, u), (e, t * u), 10).found


def test_orbit_search_node_cap_counts_both_sides(monkeypatch):
    start, target, _ = cusp_cluster_factorization()
    res = orbit_search(start, target, 6)
    assert res == SearchResult(True, [-1, -3, 2, -1], 66, 4)
    monkeypatch.setattr(hurwitz, "SEARCH_NODE_CAP", 66)
    assert orbit_search(start, target, 6) == res
    # the backward side holds the target at least, so a cap one below the
    # total is exceeded only if both sides count
    monkeypatch.setattr(hurwitz, "SEARCH_NODE_CAP", 65)
    with pytest.raises(RuntimeError) as exc:
        orbit_search(start, target, 6)
    assert str(exc.value) == "search exceeded node cap 65"


def _long_s4_pair(m):
    # m transpositions of S4 and the same tuple moved at slots 1, m/2, m-1
    pairs = ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))
    ts = [Perm.transposition(i, j, 4) for i, j in pairs]
    start = tuple(ts[k % 6] for k in range(m))
    return start, act_moves(start, [1, m // 2, m - 1])


@pytest.mark.parametrize("m, node_cap, cap", [(16, 50, 50), (17, 50, 47), (200, 1000, 80)])
def test_node_cap_bounds_the_stored_slots(m, node_cap, cap, monkeypatch):
    # a node holds m slots: past 16 the cap shrinks to SEARCH_NODE_CAP * 16
    # // m nodes, so 200 slots under a cap of 1,000 stop at 80 nodes, 16,000
    # slots
    start, target = _long_s4_pair(m)
    monkeypatch.setattr(hurwitz, "SEARCH_NODE_CAP", node_cap)
    with pytest.raises(RuntimeError) as exc:
        orbit_search(start, target, 4)
    assert str(exc.value) == f"search exceeded node cap {cap}"


def test_long_search_exits_3_within_its_memory(tmp_path):
    # 2,000 slots under a 512 MiB address space: the unscaled cap of
    # 500,000 nodes of 2,000 ids would need about 8 GB, and the search
    # ended in a MemoryError traceback
    start, target = _long_s4_pair(2000)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "group": "s4",
        "start": [p.to_json() for p in start],
        "target": [p.to_json() for p in target],
    }))
    limit = 512 << 20
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "braidmf.cli", "hurwitz", "search",
         "--file", str(path), "--max-depth", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: search exceeded node cap 4000\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (((), (), -1), "max depth -1 is negative"),
        (((1,), (1, 1), 2), "length mismatch: not Hurwitz equivalent"),
        (((1, 2), (2, 2), 2), "product mismatch: not Hurwitz equivalent"),
    ],
)
def test_orbit_search_errors_are_unchanged(args, message):
    start, target, depth = args
    s4 = symmetric_group(4)
    start, target = [s4[i] for i in start], [s4[i] for i in target]
    for search in (orbit_search, one_sided_search):
        with pytest.raises(ValueError) as exc:
            search(start, target, depth)
        assert str(exc.value) == message


def _search_or_error(search, *args):
    try:
        return search(*args)
    except RuntimeError as exc:
        return str(exc)


def test_orbit_search_matches_element_keyed_oracle(monkeypatch):
    # 630 seeded S4, Br4 and Br5 scrambles of lengths 2-6 by 0-8 moves,
    # searched at max_depth 0-6 under node caps 50, 200 and 500,000: the
    # interned search must give the oracle's SearchResult or RuntimeError.
    # The S4 targets are fresh Perms, so interning goes by == and hash.
    rng = random.Random(2034)
    outcomes = Counter()
    for k in range(630):
        m = rng.randint(2, 6)
        target = (
            _fresh(_random_fact(rng, m=m, n=4)),
            _br4_fact(rng, m),
            tuple(BraidWord(5, _signed(rng, 4, rng.randint(1, 3))) for _ in range(m)),
        )[k % 3]
        start = act_moves(target, _signed(rng, m - 1, rng.randint(0, 8)))
        depth, cap = rng.randint(0, 6), (50, 200, 500_000)[k // 3 % 3]
        want = _search_or_error(element_keyed_search, start, target, depth, cap)
        monkeypatch.setattr(hurwitz, "SEARCH_NODE_CAP", cap)
        got = _search_or_error(orbit_search, start, target, depth)
        assert got == want, k
        outcomes["capped" if isinstance(got, str) else got.found] += 1
    assert min(outcomes.values()) >= 30, outcomes


class _CountingPerm(Perm):
    # a Perm whose products and inverses stay counting Perms, and which
    # counts the calls of its __hash__
    __slots__ = ()
    hashes = 0

    def __hash__(self):
        _CountingPerm.hashes += 1
        return super().__hash__()

    def __mul__(self, other):
        return _CountingPerm._trusted(super().__mul__(other).images)

    def inverse(self):
        return _CountingPerm._trusted(super().inverse().images)


def test_orbit_search_hashes_each_element_about_once():
    # 50 seeded depth-6 searches between length-6 S4 factorizations: the
    # interned search hashes an element once per intern lookup, not once
    # per factor of every node it stores or looks up
    rng = random.Random(34)
    cases = []
    for _ in range(50):
        target = tuple(_CountingPerm(x.images) for x in _random_fact(rng, m=6, n=4))
        cases.append((_chained(target, _signed(rng, 5, rng.randint(0, 8))), target))
    ratios = []
    for search in (orbit_search, element_keyed_search):
        _CountingPerm.hashes, nodes = 0, 0
        for start, target in cases:
            nodes += search(start, target, 6).visited
        ratios.append(_CountingPerm.hashes / nodes)
    assert ratios[0] <= 2 < 10 <= ratios[1], ratios


_SEARCH_REPRS = """
import random
from braidmf.bmf import cusp_cluster_factorization
from braidmf.hurwitz import act_moves, orbit_search
from braidmf.perm import symmetric_group
rng = random.Random(5)
target = tuple(rng.choice(symmetric_group(4)) for _ in range(6))
start = act_moves(target, [3, -1, 5, 2, -4, 1])
print(repr(orbit_search(start, target, 6)))
start, target, _ = cusp_cluster_factorization()
print(repr(orbit_search(start, target, 6)))
"""


def test_search_does_not_depend_on_hash_seed():
    # ids are given in the order elements are first met, never in the
    # iteration order of a set or dict
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", _SEARCH_REPRS],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().count("SearchResult(found=True") == 2


def _list_move(f, k):
    # the move as the removed Factorization wrapper built it: a list copy
    # with two slots overwritten
    i = abs(k)
    a, b = f[i - 1], f[i]
    elems = list(f)
    if k > 0:
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
            for k in (i, -i):
                assert hurwitz_move(f, k) == _list_move(f, k)

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
        f = hurwitz_move(f, k)
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
        want = (
            f"move index {abs(k)} out of range 1..{m - 1}"
            if m >= 2
            else f"move index {abs(k)}: a factorization of length {m} has no moves"
        )
        assert errors[0] == errors[1] == want


def test_mixed_factorizations_take_the_generic_path(monkeypatch):
    # the S4 tables run exactly when every element in the window of slots
    # the moves touch, min|k|-1 .. max|k| (0-based), is a degree-4 Perm;
    # what lies outside the window does not matter
    from braidmf import hurwitz

    windows = []
    table_path = hurwitz._act_moves_s4

    def spy(f, moves, lo, hi):
        windows.append((lo, hi))
        return table_path(f, moves, lo, hi)

    monkeypatch.setattr(hurwitz, "_act_moves_s4", spy)
    rng = random.Random(19)
    s4_part = _fresh(_random_fact(rng, m=4, n=4))
    degree5 = rng.choice(symmetric_group(5))
    braid = BraidWord(4, (1, -2))
    moves = [1, -2, 3, -1, 2]  # slots 1..4 only
    shifted = [k + (1 if k > 0 else -1) for k in moves]  # slots 2..5 only
    # a non-S4 element inside the window: generic path, even where no move
    # touches it (moves 1 and 4 leave slot 3 alone)
    for f, mv in (
        (_random_fact(rng, m=5, n=5), moves),
        (_random_fact(rng, m=3, n=5) + s4_part, [1, -2, 2]),
        (s4_part[:2] + (degree5,) + s4_part[2:], [1, -1, 4, 1, -4]),
        (s4_part[:2] + (braid,) + s4_part[2:], [4, 1, -4, -1]),
    ):
        assert act_moves(f, mv) == _chained(f, mv)
    # at either end of the window
    for f, mv in (((degree5,) + s4_part, [2, -1]), (s4_part + (degree5,), [4])):
        with pytest.raises(ValueError, match="degree mismatch"):
            act_moves(f, mv)
    assert windows == []
    # non-S4 elements outside the window only: table path on the window
    for f, mv, window in (
        (s4_part, moves, (0, 4)),
        (s4_part + (degree5,), moves, (0, 4)),
        (s4_part + (braid,), moves, (0, 4)),
        ((degree5,) + s4_part, shifted, (1, 5)),
        ((braid,) + s4_part + (degree5,), shifted, (1, 5)),
    ):
        out = act_moves(f, mv)
        assert windows.pop() == window
        assert out == _chained(f, mv)
        assert all(y is x for x, y in zip(f, out) if type(x) is not Perm)


def _window_moves(rng, first, last, n):
    # n signed moves whose indices all lie in first..last
    return [rng.choice((1, -1)) * rng.randint(first, last) for _ in range(n)]


def test_windowed_act_moves_matches_chained_moves():
    rng = random.Random(23)
    s4 = symmetric_group(4)
    for m in [*range(2, 41), *(rng.randint(2, 40) for _ in range(80))]:
        f = _fresh(_random_fact(rng, m=m, n=4))
        first = rng.randint(1, m - 1)
        last = rng.randint(first, m - 1)
        cases = [
            [],
            [rng.choice((first, -first))],
            _window_moves(rng, first, last, rng.randint(1, 30)),
            _window_moves(rng, 1, rng.randint(1, m - 1), rng.randint(1, 30)),
            _window_moves(rng, rng.randint(1, m - 1), m - 1, rng.randint(1, 30)),
        ]
        for moves in cases:
            out = act_moves(f, moves)
            assert out == _chained(f, moves)
            lo = min(map(abs, moves), default=m) - 1
            hi = max(map(abs, moves), default=0) + 1
            for j, (x, y) in enumerate(zip(f, out)):
                if y is not x:  # a changed slot lies in the window
                    assert lo <= j < hi and y is s4[s4.index(y)]
                    assert y != x
    # the first out-of-range move is the one named, on either path
    f = _fresh(_random_fact(random.Random(5), m=5, n=4))
    mixed = f[:4] + (BraidWord(4, (1,)),)
    for g in (f, mixed):
        for act in (act_moves, _chained):
            with pytest.raises(IndexError) as exc:
                act(g, [1, 9, -12])
            assert str(exc.value) == "move index 9 out of range 1..4"
    for moves in ([1], [-1, 1], [0]):
        with pytest.raises(IndexError) as exc:
            act_moves(f[:1], moves)
        want = f"move index {abs(moves[0])}: a factorization of length 1 has no moves"
        assert str(exc.value) == want


def test_snake_via_word_matches_generic_action():
    from braidmf.s4orbit import (
        all_windows,
        embed_window,
        snake_via_word,
        snake_word,
    )

    for b in range(1, 4):
        for d in range(1, 4):
            word = snake_word(d, 4 * (b + d))
            for window in all_windows():
                f = embed_window(window, b, d)
                generic = _chained(_fresh(f.factors), word.letters)
                assert snake_via_word(f).factors == generic
