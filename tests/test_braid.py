import random

import pytest

from braidmf import (
    BraidElement,
    BraidWord,
    FreeWord,
    LetterCapExceeded,
    artin_rep,
    band_generator,
    braid_equal,
    snake_word,
    word_permutation,
)
from braidmf.braid import ArtinAuto, sphere_relation_word


def _random_word(rng, n, max_len):
    letters = [
        rng.choice([1, -1]) * rng.randint(1, n - 1)
        for _ in range(rng.randint(0, max_len))
    ]
    return BraidWord.from_signed(n, letters)


def test_free_word_reduction():
    w = FreeWord(3, [(0, 1), (1, 1), (1, -1), (0, -1)])
    assert len(w) == 0
    assert w == FreeWord(3)


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, [(2, 1)])
    with pytest.raises(ValueError):
        BraidWord(1, [])
    with pytest.raises(ValueError):
        BraidWord(3, [(1, 2)])


def test_signed_roundtrip_and_pow():
    w = BraidWord.from_signed(4, [1, -2, 3])
    assert w.to_signed() == [1, -2, 3]
    assert (w**2).to_signed() == [1, -2, 3, 1, -2, 3]
    assert (w**-1).to_signed() == [-3, 2, -1]
    assert (w**0).to_signed() == []


def test_braid_relation_adjacent():
    # sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2
    lhs = BraidWord.from_signed(3, [1, 2, 1])
    rhs = BraidWord.from_signed(3, [2, 1, 2])
    assert braid_equal(lhs, rhs)
    assert not braid_equal(lhs, BraidWord.from_signed(3, [1, 2]))


def test_braid_relation_commuting():
    lhs = BraidWord.from_signed(5, [1, 3])
    rhs = BraidWord.from_signed(5, [3, 1])
    assert braid_equal(lhs, rhs)
    assert not braid_equal(
        BraidWord.from_signed(5, [1, 2]), BraidWord.from_signed(5, [2, 1])
    )


def test_inverse_word_is_inverse():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = _random_word(rng, n, 12)
        assert artin_rep(w * w.inverse()) == ArtinAuto.identity(n)


def test_rep_fixes_free_generator_product():
    # every braid automorphism fixes gamma_0 gamma_1 ... gamma_{n-1}
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = _random_word(rng, n, 12)
        prod = FreeWord(n, [(g, 1) for g in range(n)])
        assert artin_rep(w).apply(prod) == prod


def test_rep_of_product_is_substitution():
    # the images of u*v are the images of u with v's images substituted in
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 6)
        u, v = _random_word(rng, n, 10), _random_word(rng, n, 10)
        ru, rv = artin_rep(u), artin_rep(v)
        assert list(artin_rep(u * v).images) == [rv.apply(x) for x in ru.images]


def test_generator_images():
    # sigma_i: g_i -> g_i g_{i+1} g_i^-1, g_{i+1} -> g_i; sigma_i^-1 inverts it
    for i in range(1, 4):
        a, b = i - 1, i
        for sign in (1, -1):
            images = list(ArtinAuto.identity(4).images)
            if sign == 1:
                images[a] = FreeWord(4, [(a, 1), (b, 1), (a, -1)])
                images[b] = FreeWord(4, [(a, 1)])
            else:
                images[a] = FreeWord(4, [(b, 1)])
                images[b] = FreeWord(4, [(b, -1), (a, 1), (b, 1)])
            rep = artin_rep(BraidWord.generator(i, 4, sign))
            assert rep == ArtinAuto(4, images)


def test_sphere_relation_is_nontrivial_in_disk_group():
    # the representation sees the disk group, where this word is not 1
    w = sphere_relation_word(4)
    assert artin_rep(w) != ArtinAuto.identity(4)
    assert word_permutation(w).is_identity()


def test_word_permutation():
    w = BraidWord.from_signed(4, [1, 2, 3])
    p = word_permutation(w)
    # left-to-right: strand 1 is carried across all three crossings
    assert p(1) == 4 and p(4) == 3 and p(3) == 2 and p(2) == 1


def test_band_generator():
    assert band_generator(2, 3, 5).to_signed() == [2]
    w = band_generator(1, 4, 5)
    assert w.to_signed() == [3, 2, 1, -2, -3]
    # a band generator is a conjugated half twist: permutation (r s)
    assert word_permutation(w) == word_permutation(w).inverse()
    assert word_permutation(w)(1) == 4
    with pytest.raises(ValueError):
        band_generator(3, 3, 5)


def test_snake_word_shape():
    w = snake_word(1, 8)
    assert len(w) == 11
    assert word_permutation(w).is_transposition()
    with pytest.raises(ValueError):
        snake_word(1, 5)


def test_letter_cap():
    # (sigma_1 sigma_2)^k grows image lengths quickly
    w = BraidWord.from_signed(3, [1, 2] * 40)
    with pytest.raises(LetterCapExceeded):
        artin_rep(w, cap=200)


def test_braid_element_syntactic_equality():
    x = BraidElement.from_signed(4, [1, -1, 2])
    y = BraidElement.from_signed(4, [2])
    assert x == y  # free reduction happens on construction
    lhs = BraidElement.from_signed(4, [1, 2, 1])
    rhs = BraidElement.from_signed(4, [2, 1, 2])
    assert lhs != rhs  # syntactically different words
    assert lhs.equal_as_braids(rhs)  # but the same braid
    assert (lhs * rhs.inverse()).equal_as_braids(BraidElement.from_signed(4, []))


def test_braid_element_group_protocol():
    rng = random.Random(5)
    for _ in range(50):
        x = BraidElement(_random_word(rng, 4, 10))
        y = BraidElement(_random_word(rng, 4, 10))
        assert (x * y).inverse() == y.inverse() * x.inverse()
        assert hash(x * x.inverse()) == hash(BraidElement.from_signed(4, []))


def test_images_share_letter_objects():
    # Each letter value is one tuple object, so an image near the letter
    # cap holds a pointer per letter, not a fresh tuple per letter.
    rng = random.Random(7)
    for n in range(2, 7):
        auto = artin_rep(_random_word(rng, n, 30))
        inverses = [img.inverse() for img in auto.images]
        letters = {id(x) for w in (*auto.images, *inverses) for x in w.letters}
        assert len(letters) <= 2 * n
        assert [w.inverse() for w in inverses] == list(auto.images)
