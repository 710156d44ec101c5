"""Braid words and exact braid equality by Dynnikov coordinates.

braid_equal compares the Dynnikov coordinates of two words: an integer
vector that the braid group acts on faithfully, at a few integer
operations a letter (see dynnikov).

No verdict builds Artin free-group images; artin_rep, with its
ArtinAuto result, LetterCapExceeded and LETTER_CAP, stays because the
benchmark tracer hooks artin_rep and counts its LetterCapExceeded.

There is one word class: a braid word on n strands is a free word of
rank n-1 in sigma_1, ..., sigma_{n-1}, so BraidWord subclasses FreeWord
and adds only its strand count and repr.  Words are freely reduced when
built, and compose left-to-right, like everything else in this package.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .hurwitz import hurwitz_move
from .perm import Perm

# Total reduced-letter budget for automorphism images; image lengths can
# grow exponentially in the word length, so fail loudly instead of hanging.
LETTER_CAP = 10**6


class LetterCapExceeded(RuntimeError):
    pass


def _reduce(letters):
    """Freely reduce a sequence of signed letters: x next to -x cancels."""
    out = []
    for x in letters:  # keep the objects: reduced words share them
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _join(a, b):
    """a + b for freely reduced letter tuples: only the seam can cancel."""
    k, m = 0, min(len(a), len(b))
    while k < m and a[-1 - k] == -b[k]:
        k += 1
    return a[: len(a) - k] + b[k:]


def _inverse(letters):
    """The letters of the inverse word."""
    return tuple(map(operator.neg, reversed(letters)))


class FreeWord:
    """A freely reduced word in the free group of given rank.

    A letter is +g for the generator gamma_g and -g for its inverse,
    1 <= g <= rank.  Words are immutable; products, powers and inverses
    are words of the same type, and words of different types or sizes
    neither multiply nor compare equal.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters):
        letters = tuple(letters)
        for x in letters:
            if not 0 < abs(x) <= rank:
                raise ValueError(f"bad letter {x} at rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def _of(cls, rank, letters):
        """From a freely reduced letter tuple, no checks."""
        word = object.__new__(cls)
        object.__setattr__(word, "rank", rank)
        object.__setattr__(word, "letters", letters)
        return word

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __mul__(self, other):
        if type(other) is not type(self) or other.rank != self.rank:
            size = "rank" if type(self) is FreeWord else "strand"
            raise ValueError(f"{size} mismatch")
        return self._of(self.rank, _join(self.letters, other.letters))

    def __pow__(self, k):
        # split the reduced word as w = P C P^-1, P the longest prefix that
        # cancels against the reversed suffix: the core C is then nonempty
        # and cyclically reduced, so w^k = P C^k P^-1 is reduced as it stands
        if k < 0:
            return self.inverse() ** (-k)
        w = self.letters
        if not (w and k):
            return self._of(self.rank, ())
        p = 0
        while w[p] == -w[-1 - p]:
            p += 1
        return self._of(self.rank, w[:p] + w[p : len(w) - p] * k + w[len(w) - p :])

    def inverse(self):
        return self._of(self.rank, _inverse(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        if not self.letters:
            return "1"
        return ".".join(f"g{abs(x)}" + ("'" if x < 0 else "") for x in self.letters)


class BraidWord(FreeWord):
    """A freely reduced word in the Artin generators of the braid group on
    n strands: a free word of rank n-1 in sigma_1 .. sigma_{n-1}.

    A letter is a signed integer, +i for sigma_i and -i for its inverse,
    1 <= i <= n-1; the JSON form is the same array.  Equality and hashing
    are syntactic on the reduced letters: exact for orbit bookkeeping
    (equal words act alike under Hurwitz moves) and cheap for search
    frontiers.  braid_equal decides equality in the braid group, by
    Dynnikov coordinates.
    """

    __slots__ = ()

    def __init__(self, strands, letters):
        letters = tuple(map(int, letters))
        if strands < 2:
            raise ValueError("need at least 2 strands")
        for x in letters:
            if not 0 < abs(x) < strands:
                # spelt (index,sign), as reports have always given it
                sign = 1 if x > 0 else -1
                raise ValueError(f"bad letter ({abs(x)},{sign}) on {strands} strands")
        object.__setattr__(self, "rank", strands - 1)
        object.__setattr__(self, "letters", _reduce(letters))

    @property
    def strands(self):
        return self.rank + 1

    def __repr__(self):
        if not self.letters:
            return f"<empty braid, n={self.strands}>"
        body = " ".join(f"s{abs(x)}" + ("'" if x < 0 else "") for x in self.letters)
        return f"<{body} n={self.strands}>"


class ArtinAuto(namedtuple("ArtinAuto", "rank images")):
    """A free-group automorphism given by the tuple of generator images.

    Two braid words are equal iff their automorphisms agree on every
    (freely reduced) generator image.
    """

    __slots__ = ()

    def total_letters(self):
        return sum(len(w) for w in self.images)


def artin_rep(word):
    """The free-group automorphism of a braid word (letters left-to-right).

    Hurwitz moves on the free generators, from the last letter to the
    first (moving a tuple of images precomposes it with the move); raises
    LetterCapExceeded once the images exceed LETTER_CAP letters, which the
    free generators alone do on more than LETTER_CAP strands.
    """
    n, cap = word.strands, LETTER_CAP
    if n > cap:
        raise LetterCapExceeded(f"automorphism over cap {cap}")
    f = tuple(FreeWord._of(n, (g,)) for g in range(1, n + 1))
    for x in reversed(word.letters):
        f = hurwitz_move(f, x)
        if sum(len(w) for w in f) > cap:
            raise LetterCapExceeded(f"automorphism over cap {cap}")
    return ArtinAuto(n, f)


def dynnikov(word, pairs):
    """The Dynnikov coordinates (x_1, y_1, ..., x_pairs, y_pairs) of a word.

    The braid acts on the integer vector that starts at (0, 1, ..., 0, 1),
    one letter at a time from the first: letter +-k changes pairs k and
    k+1 only (Dehornoy-Dynnikov-Rolfsen-Wiest, *Ordering Braids*, ch. XII).
    The action is faithful, so two words on the same strands are equal
    braids exactly when they give the same vector.  Each letter costs a
    few integer operations and multiplies the largest entry by at most 7,
    so entries stay linear in bit length; `pairs` must exceed every
    index in the word.
    """
    v = [0, 1] * pairs
    for x in word.letters:
        j = 2 * abs(x) - 2
        a, b, c, e = v[j : j + 4]
        bp, bm = (b, 0) if b > 0 else (0, b)
        ep, em = (e, 0) if e > 0 else (0, e)
        if x > 0:
            z = a - bm - c + ep
            zp = z if z > 0 else 0
            t, u = ep - z, bm + z
            v[j : j + 4] = (
                a + bp + (t if t > 0 else 0),
                e - zp,
                c + em + (u if u < 0 else 0),
                b + zp,
            )
        else:
            z = a + bm - c - ep
            zm = z if z < 0 else 0
            t, u = ep + z, bm - z
            v[j : j + 4] = (
                a - bp - (t if t > 0 else 0),
                e + zm,
                c - em - (u if u < 0 else 0),
                b - zm,
            )
    return tuple(v)


def braid_equal(w1, w2):
    """Exact equality in the disk braid group: equal Dynnikov coordinates.

    Only the pairs up to the highest index a letter of either word uses
    are built; the pairs above it stay (0, 1) on both sides.  When that
    index is more than twice the two words' letter count, the indices are
    renumbered first (see _relabel): n letters get at most 2n + 1 pairs,
    and the cost does not grow with `strands` or with the indices.
    """
    if w1.strands != w2.strands:
        raise ValueError("strand mismatch")
    letters = w1.letters + w2.letters
    top = max(map(abs, letters), default=0)
    if top > 2 * len(letters):
        w1, w2, top = _relabel(w1, w2)
    return dynnikov(w1, top + 1) == dynnikov(w2, top + 1)


def _relabel(w1, w2):
    """Both words with their indices renumbered from 1, and the highest new
    index: each maximal run of consecutive indices stays consecutive, and
    the runs lie exactly 2 apart.  The sigma_i used span a standard
    parabolic subgroup, one braid group per run, and sigma_i to its new
    index maps it isomorphically onto the renumbered one, so the words are
    equal braids exactly when the renumbered words are."""
    label, top, prev = {}, -1, -2
    for i in sorted(set(map(abs, w1.letters + w2.letters))):
        top += 1 if i == prev + 1 else 2
        label[i], label[-i], prev = top, -top, i
    renumber = label.__getitem__
    u1, u2 = (BraidWord._of(top, tuple(map(renumber, w.letters))) for w in (w1, w2))
    return u1, u2, top


def word_permutation(word):
    """Underlying permutation under sigma_i -> (i, i+1)."""
    p = Perm.identity(word.strands)
    for x in word.letters:
        p = p * Perm.transposition(abs(x), abs(x) + 1, word.strands)
    return p


def band_generator(r, s, n):
    """Half twist joining punctures r < s along an arc above the others.

    Realized as (sigma_{s-1} ... sigma_{r+1}) sigma_r (sigma_{r+1}^{-1}
    ... sigma_{s-1}^{-1}); for s = r+1 this is just sigma_r.
    """
    if not (1 <= r < s <= n):
        raise ValueError(f"need 1 <= r < s <= n, got r={r}, s={s}, n={n}")
    head = tuple(range(s - 1, r, -1))
    return BraidWord._of(n - 1, (*head, r, *_inverse(head)))

