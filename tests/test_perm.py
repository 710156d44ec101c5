import random

import pytest

from braidmf.perm import Perm, symmetric_group


def test_identity_and_validation():
    e = Perm.identity(5)
    assert e.is_identity()
    assert len(e.images) == 5
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_immutable():
    p = Perm.identity(3)
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)


def test_transposition():
    t = Perm.transposition(2, 4, 5)
    assert t(2) == 4 and t(4) == 2 and t(1) == 1
    assert t.is_transposition()
    assert t * t == Perm.identity(5)
    with pytest.raises(ValueError):
        Perm.transposition(1, 1, 5)
    with pytest.raises(ValueError):
        Perm.transposition(0, 2, 5)


def test_left_to_right_composition():
    # (1 2) then (2 3): 1 -> 2 -> 3
    p = Perm.transposition(1, 2, 3)
    q = Perm.transposition(2, 3, 3)
    assert (p * q)(1) == 3
    assert (q * p)(1) == 2


def test_from_cycles_and_cycles_roundtrip():
    p = Perm.from_cycles([(1, 4), (2, 3)], 4)
    assert p.cycles() == ((1, 4), (2, 3))
    assert p.cycle_type() == (2, 2)
    q = Perm.from_cycles([(1, 2, 3)], 5)
    assert q(1) == 2 and q(3) == 1 and q(5) == 5


def test_inverse_and_conjugate():
    rng = random.Random(7)
    group = symmetric_group(5)
    for _ in range(200):
        p, g = rng.choice(group), rng.choice(group)
        assert p * p.inverse() == Perm.identity(5)
        # conjugation preserves the cycle type
        assert p.conjugate(g).cycle_type() == p.cycle_type()
        assert p.conjugate(g) == g.inverse() * p * g


def test_symmetric_group_sizes():
    assert len(symmetric_group(4)) == 24
    assert len(set(symmetric_group(4))) == 24
    assert len(symmetric_group(3)) == 6


def test_json_roundtrip():
    p = Perm.from_cycles([(1, 3, 2)], 4)
    assert Perm.from_json(p.to_json()) == p
    assert p.to_json() == [3, 1, 2, 4]


def test_products_and_inverses_match_validated_constructor():
    rng = random.Random(8)
    for n in range(1, 9):
        for _ in range(50):
            p, q = (Perm(rng.sample(range(n), n)) for _ in range(2))
            pq = p * q
            assert pq == Perm([q.images[i] for i in p.images])
            inv = p.inverse()
            assert inv == Perm(sorted(range(n), key=p.images.__getitem__))
            for r in (pq, inv):
                assert type(r) is Perm and type(r.images) is tuple
                assert hash(r) == hash(Perm(r.images))
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm.identity(3) * Perm.identity(4)
