"""Braid words and exact braid equality via the Artin free-group representation.

The Artin representation of a braid is the Hurwitz action on the tuple
of free generators (gamma_1, ..., gamma_n).  A positive generator
sigma_i is the forward Hurwitz move

    gamma_i   |->  gamma_i gamma_{i+1} gamma_i^{-1}
    gamma_i+1 |->  gamma_i

and sigma_i^{-1} the inverse move.  Moving a tuple of images is the same
as precomposing with the move, so the images of a word are built right
to left: start from the free generators and apply its letters from last
to first.  The representation is faithful on the disk braid group, which
is what braid_equal relies on; the sphere relation is NOT quotiented,
but the relation word is exposed as a constant.

Words compose left-to-right, like everything else in this package.
"""

from __future__ import annotations

from .hurwitz import Factorization, hurwitz_move
from .perm import Perm

# Total reduced-letter budget for automorphism images; image lengths can
# grow exponentially in the word length, so fail loudly instead of hanging.
DEFAULT_LETTER_CAP = 10**6


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


# letter -> inverse letter, one shared int per letter value: CPython caches
# no int below -5, and a free word then costs a pointer a letter (8 bytes),
# not a fresh int (28).
class _Inverses(dict):
    def __missing__(self, letter):
        inverse = self[letter] = -letter
        self[inverse] = letter
        return inverse


_INVERSE = _Inverses()


def _inverse(letters):
    """The letters of the inverse word, drawn from the shared table."""
    return tuple(map(_INVERSE.__getitem__, reversed(letters)))


class _Immutable:
    """Slots set once, by __init__ from outside input or by _of."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, *values):
        """From values known to be valid (free words: reduced), no checks."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(obj, name, value)
        return obj


class FreeWord(_Immutable):
    """A freely reduced word in the free group of given rank.

    A letter is +g for the generator gamma_g and -g for its inverse,
    1 <= g <= rank.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        letters = tuple(letters)
        for x in letters:
            if not 0 < abs(x) <= rank:
                raise ValueError(f"bad letter {x} at rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", _reduce(letters))

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord._of(self.rank, _join(self.letters, other.letters))

    def inverse(self):
        return FreeWord._of(self.rank, _inverse(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        if not self.letters:
            return "1"
        return ".".join(f"g{abs(x)}" + ("'" if x < 0 else "") for x in self.letters)


class ArtinAuto(_Immutable):
    """A free-group automorphism given by the images of the generators.

    Used as the canonical form of a braid: two braid words are equal iff
    their automorphisms agree on every (freely reduced) generator image.
    """

    __slots__ = ("rank", "images")

    def __init__(self, rank, images):
        images = tuple(images)
        if len(images) != rank:
            raise ValueError("need one image per generator")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, rank):
        return cls(rank, [FreeWord(rank, [g]) for g in range(1, rank + 1)])

    def apply(self, word):
        """Substitute generator images into a FreeWord."""
        letters = []
        for x in word.letters:
            img = self.images[abs(x) - 1]
            letters.extend(img.letters if x > 0 else _inverse(img.letters))
        return FreeWord(self.rank, letters)

    def total_letters(self):
        return sum(len(w) for w in self.images)

    def __eq__(self, other):
        return (
            isinstance(other, ArtinAuto)
            and self.rank == other.rank
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.rank, self.images))

    def __repr__(self):
        return f"ArtinAuto({self.rank}, {list(self.images)!r})"


class BraidWord(_Immutable):
    """A word in the Artin generators of the braid group on n strands.

    A letter is a signed integer, +i for sigma_i and -i for its inverse,
    1 <= i <= n-1; the JSON form is the same array.
    """

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        letters = tuple(map(int, letters))
        if strands < 2:
            raise ValueError("need at least 2 strands")
        for x in letters:
            if not 0 < abs(x) < strands:
                # spelt (index,sign), as reports have always given it
                sign = 1 if x > 0 else -1
                raise ValueError(f"bad letter ({abs(x)},{sign}) on {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other):
        if self.strands != other.strands:
            raise ValueError("strand mismatch")
        return BraidWord._of(self.strands, self.letters + other.letters)

    def __pow__(self, k):
        if k >= 0:
            return BraidWord._of(self.strands, self.letters * k)
        return self.inverse() ** (-k)

    def inverse(self):
        return BraidWord._of(self.strands, _inverse(self.letters))

    def free_reduce(self):
        return BraidWord._of(self.strands, _reduce(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        # Syntactic equality of words; use braid_equal for group equality.
        return (
            isinstance(other, BraidWord)
            and self.strands == other.strands
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __repr__(self):
        if not self.letters:
            return f"<empty braid, n={self.strands}>"
        body = " ".join(f"s{abs(x)}" + ("'" if x < 0 else "") for x in self.letters)
        return f"<{body} n={self.strands}>"


def artin_rep(word, cap=DEFAULT_LETTER_CAP):
    """The free-group automorphism of a braid word (letters left-to-right).

    Hurwitz moves on the free generators, from the last letter to the
    first; raises LetterCapExceeded once the images exceed `cap` letters.
    """
    f = Factorization(ArtinAuto.identity(word.strands).images)
    for x in reversed(word.letters):
        f = hurwitz_move(f, abs(x), inverse=x < 0)
        if sum(len(w) for w in f) > cap:
            raise LetterCapExceeded(f"automorphism over cap {cap}")
    return ArtinAuto(word.strands, f)


def braid_equal(w1, w2):
    """Exact equality in the disk braid group via the Artin representation."""
    if w1.strands != w2.strands:
        raise ValueError("strand mismatch")
    return artin_rep(w1) == artin_rep(w2)


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
    head = list(range(s - 1, r, -1))
    tail = [-j for j in range(r + 1, s)]
    return BraidWord(n, head + [r] + tail)


def snake_word(d, n):
    """The snake half twist crossing the D/B boundary, as an Artin word.

    sigma_{4d} (sigma_{4d-1}^2 sigma_{4d+1}^2) sigma_{4d}
    (sigma_{4d+1}^{-2} sigma_{4d-1}^{-2}) sigma_{4d}^{-1},
    an 11-letter word once the squares are expanded.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 4 * d + 2:
        raise ValueError(f"need n >= {4 * d + 2} strands, got {n}")
    m = 4 * d
    squares = [m - 1, m - 1, m + 1, m + 1]
    return BraidWord(n, [m, *squares, m, *_inverse(squares), -m])


class BraidElement(_Immutable):
    """A braid group element, carried as a free-reduced word.

    Lets braids plug into the generic factorization machinery: multiply
    concatenates words, cancelling where they meet, and inverse reverses
    and flips signs.  Equality and hashing are syntactic on the reduced
    word — exact for orbit bookkeeping (identical words behave
    identically under moves), cheap enough for search frontiers.  Use
    equal_as_braids (the Artin representation) when two different words
    must be compared as group elements.
    """

    __slots__ = ("word",)

    def __init__(self, word):
        object.__setattr__(self, "word", word.free_reduce())

    def equal_as_braids(self, other) -> bool:
        return self.word.strands == other.word.strands and braid_equal(
            self.word, other.word
        )

    def __mul__(self, other):
        a, b = self.word, other.word
        if a.strands != b.strands:
            raise ValueError("strand mismatch")
        word = BraidWord._of(a.strands, _join(a.letters, b.letters))
        return BraidElement._of(word)

    def inverse(self):
        return BraidElement._of(self.word.inverse())

    def __eq__(self, other):
        return (
            isinstance(other, BraidElement)
            and self.word.strands == other.word.strands
            and self.word.letters == other.word.letters
        )

    def __hash__(self):
        return hash((self.word.strands, self.word.letters))

    def __repr__(self):
        return f"BraidElement({self.word!r})"


def sphere_relation_word(n):
    """sigma_1 ... sigma_{n-1} sigma_{n-1} ... sigma_1, trivial on the sphere."""
    return BraidWord(n, [*range(1, n), *range(n - 1, 0, -1)])
