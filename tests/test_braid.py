import random

import pytest

from braidmf import braid
from braidmf.braid import (
    ArtinAuto,
    BraidWord,
    FreeWord,
    LetterCapExceeded,
    artin_rep,
    band_generator,
    braid_equal,
    dynnikov,
    word_permutation,
)
from braidmf.s4orbit import snake_word
from oracles import apply_auto, artin_equal, identity_auto


def _raw_letters(rng, top, max_len):
    """Up to max_len random letters in +-1..+-top, not reduced."""
    return [rng.choice([1, -1]) * rng.randint(1, top)
            for _ in range(rng.randint(0, max_len))]


def _random_word(rng, n, max_len):
    return BraidWord(n, _raw_letters(rng, n - 1, max_len))


def _full_reduce(letters):
    """The oracle for every reduction path: cancel x next to -x until none
    is left, over the whole raw letter sequence."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _random_free_word(rng, rank, max_len):
    return FreeWord(rank, _raw_letters(rng, rank, max_len))


def test_free_word_reduction():
    w = FreeWord(3, [1, 2, -2, -1])
    assert len(w) == 0
    assert w == FreeWord(3, ())


def test_braid_word_is_a_free_word_of_one_rank_less():
    b, f = BraidWord(4, [1, -2, 3]), FreeWord(3, [1, -2, 3])
    assert isinstance(b, FreeWord) and b.strands == b.rank + 1 == 4
    for w in (b, f):
        for out in (w * w, w ** 3, w ** 0, w ** -2, w.inverse()):
            assert type(out) is type(w) and out.rank == w.rank
        for name in ("rank", "letters", "strands"):
            with pytest.raises(AttributeError):
                setattr(w, name, 2)
    # same rank and letters, different types: unequal, and no product
    assert b.letters == f.letters and b != f and f != b
    assert BraidWord(4, [1]) != FreeWord(3, [1])
    with pytest.raises(ValueError, match="rank mismatch"):
        f * b
    with pytest.raises(ValueError, match="strand mismatch"):
        b * f
    with pytest.raises(ValueError, match="rank mismatch"):
        f * FreeWord(4, [1])
    with pytest.raises(ValueError, match="strand mismatch"):
        b * BraidWord(5, [1])


def test_artin_auto_is_a_tuple_of_rank_and_images():
    auto = artin_rep(BraidWord(3, [1]))
    assert auto == (3, auto.images) == ArtinAuto(auto.rank, auto.images)
    # sigma_1: g1 -> g1 g2 g1^-1, g2 -> g1, g3 -> g3
    assert [w.letters for w in auto.images] == [(1, 2, -1), (1,), (3,)]
    assert auto.total_letters() == 5
    assert identity_auto(3).total_letters() == 3


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, [2])
    with pytest.raises(ValueError):
        BraidWord(1, [])
    with pytest.raises(ValueError):
        BraidWord(3, [0])


def test_signed_roundtrip_and_pow():
    w = BraidWord(4, [1, -2, 3])
    assert list(w.letters) == [1, -2, 3]
    assert list((w**2).letters) == [1, -2, 3, 1, -2, 3]
    assert list((w**-1).letters) == [-3, 2, -1]
    assert list((w**0).letters) == []
    w = BraidWord(3, [1, 2, -1])  # copies cancel where they meet
    assert list((w**3).letters) == [1, 2, 2, 2, -1]
    assert list((w**-2).letters) == [1, -2, -2, -1]


def test_braid_relation_adjacent():
    # sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2
    lhs = BraidWord(3, [1, 2, 1])
    rhs = BraidWord(3, [2, 1, 2])
    assert braid_equal(lhs, rhs)
    assert not braid_equal(lhs, BraidWord(3, [1, 2]))


def test_braid_relation_commuting():
    lhs = BraidWord(5, [1, 3])
    rhs = BraidWord(5, [3, 1])
    assert braid_equal(lhs, rhs)
    assert not braid_equal(
        BraidWord(5, [1, 2]), BraidWord(5, [2, 1])
    )


def test_dynnikov_coordinates():
    # sigma_1 sends pairs 1, 2 from (0,1), (0,1) to (1,0), (0,2); the pair
    # above the letters stays (0,1), and sigma_1^-1 undoes it
    assert dynnikov(BraidWord(5, []), 3) == (0, 1, 0, 1, 0, 1)
    assert dynnikov(BraidWord(5, [1]), 3) == (1, 0, 0, 2, 0, 1)
    assert dynnikov(BraidWord(5, [-1]), 3) == (-1, 0, 0, 2, 0, 1)
    assert dynnikov(BraidWord(5, [2]), 3) == (0, 1, 1, 0, 0, 2)
    assert dynnikov(BraidWord(5, [1]) * BraidWord(5, [-1]), 2) == (0, 1, 0, 1)
    with pytest.raises(ValueError):  # pairs must exceed every index
        dynnikov(BraidWord(5, [2]), 2)


def _rewrite(rng, n, letters):
    """The same braid written differently: up to three commuting swaps or
    braid relations where the word allows them, then v.v^-1 inserted."""
    w = list(letters)
    for _ in range(3):
        options = [
            (p, [w[p + 1], w[p]])
            for p in range(len(w) - 1)
            if abs(abs(w[p]) - abs(w[p + 1])) >= 2
        ] + [
            (p, [w[p + 1], w[p], w[p + 1]])
            for p in range(len(w) - 2)
            if w[p] == w[p + 2]
            and abs(abs(w[p]) - abs(w[p + 1])) == 1
            and (w[p] > 0) == (w[p + 1] > 0)
        ]
        if not options:
            break
        p, new = rng.choice(options)
        w[p : p + len(new)] = new
    v = _raw_letters(rng, n - 1, 3)
    pos = rng.randint(0, len(w))
    w[pos:pos] = v + [-x for x in reversed(v)]
    return w


def test_braid_equal_matches_the_artin_oracle():
    # 3,000 pairs on 2-7 strands, words of up to 12 letters: half of them
    # relation rewrites of the first word; a quarter rewrites with one
    # pair of neighbouring letters then swapped, which is a braid relation
    # only when they commute; a quarter independent words
    rng = random.Random(9)
    equal_count = 0
    for i in range(3000):
        n = rng.randint(2, 7)
        w1 = _raw_letters(rng, n - 1, 12)
        if i % 4 == 0:
            w2 = _raw_letters(rng, n - 1, 12)
        else:
            w2 = _rewrite(rng, n, w1)
        if i % 4 == 2 and len(w2) > 1:
            p = rng.randrange(len(w2) - 1)
            w2[p], w2[p + 1] = w2[p + 1], w2[p]
        u, v = BraidWord(n, w1), BraidWord(n, w2)
        equal = braid_equal(u, v)
        assert equal == artin_equal(u, v), (n, w1, w2)
        assert equal or i % 2 == 0, (n, w1, w2)  # a rewrite is the same braid
        equal_count += equal
    assert 1500 < equal_count < 2500


def _letters_on(rng, used, max_len):
    """Up to max_len random letters on the indices `used`, not reduced."""
    return [rng.choice([1, -1]) * rng.choice(used)
            for _ in range(rng.randint(0, max_len))]


def test_relabelled_braid_equal_matches_the_full_vector(monkeypatch):
    # 3,000 pairs made as in the Artin test above, on 3-13 strands, from a
    # random set of indices with gaps, then shifted up by 0-59 indices:
    # braid_equal renumbers the indices of a pair whose highest is over
    # twice its letter count, and the Dynnikov vector over every strand of
    # the shifted pair is the oracle
    relabel, relabelled = braid._relabel, []
    monkeypatch.setattr(
        braid, "_relabel", lambda *w: relabelled.append(w) or relabel(*w)
    )
    rng = random.Random(12)
    equal_count = 0
    for i in range(3000):
        n = rng.randint(3, 13)
        used = [g for g in range(1, n) if rng.random() < 0.6] or [n - 1]
        w1 = _letters_on(rng, used, 12)
        w2 = _letters_on(rng, used, 12) if i % 4 == 0 else _rewrite(rng, n, w1)
        if i % 4 == 2 and len(w2) > 1:
            p = rng.randrange(len(w2) - 1)
            w2[p], w2[p + 1] = w2[p + 1], w2[p]
        shift = rng.randrange(60)
        u, v = (
            BraidWord(n + shift, [x + shift if x > 0 else x - shift for x in w])
            for w in (w1, w2)
        )
        equal = braid_equal(u, v)
        assert equal == (dynnikov(u, n + shift) == dynnikov(v, n + shift)), (n, w1, w2)
        assert equal or i % 2 == 0, (n, w1, w2)  # a rewrite is the same braid
        equal_count += equal
    assert 1500 < equal_count < 2500
    assert 1000 < len(relabelled) < 2500


def test_every_braid_relation_up_to_8_strands():
    # s_i s_i+1 s_i = s_i+1 s_i s_i+1 and s_i s_j = s_j s_i for |i-j| >= 2,
    # with every letter inverted too, bare and between random words; the
    # neighbours s_i s_i+1 and s_i+1 s_i never commute
    rng = random.Random(10)
    for n in range(2, 9):
        for sign in (1, -1):
            for i in range(1, n):
                for j in range(i + 1, n):
                    a, b = sign * i, sign * j
                    if j == i + 1:
                        pairs = [([a, b, a], [b, a, b], True), ([a, b], [b, a], False)]
                    else:
                        pairs = [([a, b], [b, a], True)]
                    contexts = [([], [])] + [
                        (_raw_letters(rng, n - 1, 4), _raw_letters(rng, n - 1, 4))
                        for _ in range(3)
                    ]
                    for lhs, rhs, want in pairs:
                        for u, v in contexts:
                            x, y = BraidWord(n, u + lhs + v), BraidWord(n, u + rhs + v)
                            assert braid_equal(x, y) is want, (n, u, lhs, rhs, v)
                            assert artin_equal(x, y) is want


def test_inverse_word_is_inverse():
    # w * w.inverse() is the empty word before artin_rep sees it, so the
    # images of w and of its inverse are composed by substitution instead
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = _random_word(rng, n, 12)
        rw, rinv = artin_rep(w), artin_rep(w.inverse())
        identity = list(identity_auto(n).images)
        assert [apply_auto(rinv, x) for x in rw.images] == identity
        assert [apply_auto(rw, x) for x in rinv.images] == identity


def test_rep_fixes_free_generator_product():
    # every braid automorphism fixes gamma_1 gamma_2 ... gamma_n
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = _random_word(rng, n, 12)
        prod = FreeWord(n, range(1, n + 1))
        assert apply_auto(artin_rep(w), prod) == prod


def test_rep_of_product_is_substitution():
    # the images of u*v are the images of u with v's images substituted in
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 6)
        u, v = _random_word(rng, n, 10), _random_word(rng, n, 10)
        ru, rv = artin_rep(u), artin_rep(v)
        assert list(artin_rep(u * v).images) == [apply_auto(rv, x) for x in ru.images]


def test_generator_images():
    # sigma_i: g_i -> g_i g_{i+1} g_i^-1, g_{i+1} -> g_i; sigma_i^-1 inverts it
    for i in range(1, 4):
        a, b = i, i + 1
        for sign in (1, -1):
            images = list(identity_auto(4).images)
            if sign == 1:
                images[a - 1] = FreeWord(4, [a, b, -a])
                images[b - 1] = FreeWord(4, [a])
            else:
                images[a - 1] = FreeWord(4, [b])
                images[b - 1] = FreeWord(4, [-b, a, b])
            rep = artin_rep(BraidWord(4, [sign * i]))
            assert rep == ArtinAuto(4, tuple(images))


def test_sphere_relation_is_nontrivial_in_disk_group():
    # the representation sees the disk group, where this word is not 1
    w = BraidWord(4, [1, 2, 3, 3, 2, 1])
    assert artin_rep(w) != identity_auto(4)
    assert word_permutation(w).is_identity()


def test_word_permutation():
    w = BraidWord(4, [1, 2, 3])
    p = word_permutation(w)
    # left-to-right: strand 1 is carried across all three crossings
    assert p(1) == 4 and p(4) == 3 and p(3) == 2 and p(2) == 1


def test_band_generator():
    assert list(band_generator(2, 3, 5).letters) == [2]
    w = band_generator(1, 4, 5)
    assert list(w.letters) == [3, 2, 1, -2, -3]
    # a band generator is a conjugated half twist: permutation (r s)
    assert word_permutation(w) == word_permutation(w).inverse()
    assert word_permutation(w)(1) == 4
    with pytest.raises(ValueError):
        band_generator(3, 3, 5)


def test_band_generator_matches_the_validated_word():
    # band_generator builds its reduced, in-range letters without the
    # BraidWord checks; the checked constructor is the oracle
    for n in range(2, 13):
        for s in range(2, n + 1):
            for r in range(1, s):
                head = list(range(s - 1, r, -1))
                tail = [-j for j in range(r + 1, s)]
                w = band_generator(r, s, n)
                assert type(w) is BraidWord and type(w.letters) is tuple
                assert w == BraidWord(n, head + [r] + tail) and w.strands == n
    for r, s, n in ((3, 3, 5), (0, 2, 5), (2, 6, 5), (4, 2, 5), (1, 2, 1)):
        with pytest.raises(ValueError) as exc:
            band_generator(r, s, n)
        assert str(exc.value) == f"need 1 <= r < s <= n, got r={r}, s={s}, n={n}"


def test_snake_word_shape():
    w = snake_word(1, 8)
    assert len(w) == 11
    assert word_permutation(w).is_transposition()
    with pytest.raises(ValueError, match=r"^need n >= 6 strands, got 5$"):
        snake_word(1, 5)
    with pytest.raises(ValueError, match=r"^d must be >= 1$"):
        snake_word(0, 8)
    # the paper's word sigma_{4d} sigma_{4d-1}^2 sigma_{4d+1}^2 sigma_{4d}
    # sigma_{4d+1}^-2 sigma_{4d-1}^-2 sigma_{4d}^-1, written out for each d
    paper = {
        1: [4, 3, 3, 5, 5, 4, -5, -5, -3, -3, -4],
        2: [8, 7, 7, 9, 9, 8, -9, -9, -7, -7, -8],
        3: [12, 11, 11, 13, 13, 12, -13, -13, -11, -11, -12],
        4: [16, 15, 15, 17, 17, 16, -17, -17, -15, -15, -16],
        5: [20, 19, 19, 21, 21, 20, -21, -21, -19, -19, -20],
    }
    for d, letters in paper.items():
        for n in (4 * d + 2, 4 * d + 6):
            w = snake_word(d, n)
            assert type(w) is BraidWord and w.strands == n
            assert list(w.letters) == letters, (d, n)


def test_letter_cap(monkeypatch):
    # (sigma_1 sigma_2)^k grows image lengths quickly
    w = BraidWord(3, [1, 2] * 40)
    monkeypatch.setattr(braid, "LETTER_CAP", 200)
    with pytest.raises(LetterCapExceeded):
        artin_rep(w)


def test_letter_cap_covers_the_free_generators(monkeypatch):
    # the identity images already hold one letter per strand
    monkeypatch.setattr(braid, "LETTER_CAP", 5)
    assert artin_rep(BraidWord(5, ())) == identity_auto(5)
    monkeypatch.setattr(braid, "LETTER_CAP", 4)
    with pytest.raises(LetterCapExceeded) as exc:
        artin_rep(BraidWord(5, ()))
    assert str(exc.value) == "automorphism over cap 4"


def test_braid_element_syntactic_equality():
    x = BraidWord(4, [1, -1, 2])
    y = BraidWord(4, [2])
    assert x == y  # free reduction happens on construction
    lhs = BraidWord(4, [1, 2, 1])
    rhs = BraidWord(4, [2, 1, 2])
    assert lhs != rhs  # syntactically different words
    assert braid_equal(lhs, rhs)  # but the same braid
    assert braid_equal(lhs * rhs.inverse(), BraidWord(4, []))


def test_braid_element_group_protocol():
    rng = random.Random(5)
    for _ in range(50):
        x = _random_word(rng, 4, 10)
        y = _random_word(rng, 4, 10)
        assert (x * y).inverse() == y.inverse() * x.inverse()
        assert hash(x * x.inverse()) == hash(BraidWord(4, []))


def test_seam_products_match_full_reduction():
    # Products of reduced words cancel only at the seam, powers reduce the
    # repeated letters, and an inverse is not reduced again; the test-local
    # full reduction of the raw letters is the oracle.  Ranks and strand
    # counts up to 8 take in letters +-6..+-8, which CPython does not cache.
    rng = random.Random(8)
    for _ in range(500):
        rank = rng.randint(2, 8)
        x, z = _random_free_word(rng, rank, 12), _random_free_word(rng, rank, 12)
        reversed_negated = [-a for a in reversed(x.letters)]
        assert x.inverse() == FreeWord(rank, reversed_negated)
        # no cancellation, full cancellation, partial cancellation
        for y in (z, x.inverse(), FreeWord(rank, reversed_negated + list(z.letters))):
            assert x * y == FreeWord(rank, x.letters + y.letters)
            assert (x * y).letters == _full_reduce(x.letters + y.letters)
        assert len(x * x.inverse()) == 0
        for k in (-2, 0, 3):
            copies = x.letters if k >= 0 else x.inverse().letters
            assert type(x**k) is FreeWord and (x**k).rank == rank
            assert (x**k).letters == _full_reduce(copies * abs(k))

        n = rank
        raw = _raw_letters(rng, min(n - 1, 2), 16)  # few generators: cancels
        assert BraidWord(n, raw).letters == _full_reduce(raw)
        u, v = _random_word(rng, n, 12), _random_word(rng, n, 12)
        ui = [-a for a in reversed(u.letters)]
        for w, raw_w in ((v, v.letters), (u.inverse(), ui),
                         (u.inverse() * v, ui + list(v.letters))):
            assert (u * w).letters == _full_reduce(u.letters + tuple(raw_w))
        assert u.inverse().letters == _full_reduce(ui)
        # c s c^-1 is reduced but not cyclically reduced: its powers cancel
        # where the copies meet
        c = _raw_letters(rng, n - 1, 4)
        w = BraidWord(n, c + _raw_letters(rng, n - 1, 4) + [-a for a in c[::-1]])
        for k in range(-3, 4):
            copies = w.letters if k >= 0 else [-a for a in reversed(w.letters)]
            assert (w**k).letters == _full_reduce(list(copies) * abs(k))
            assert type(w**k) is BraidWord and (w**k).strands == n
