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
    """Freely reduce a letter sequence [(gen, exp), ...] with exp = +-1."""
    out = []
    for x in letters:  # keep the objects: reduced words share them
        if out and out[-1][0] == x[0] and out[-1][1] == -x[1]:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# letter -> inverse letter, one shared tuple per letter value: a free word
# then costs a pointer a letter (8 bytes), not a fresh tuple (64).
class _Inverses(dict):
    def __missing__(self, letter):
        inverse = self[letter] = (letter[0], -letter[1])
        self[inverse] = letter
        return inverse


_INVERSE = _Inverses()


class FreeWord:
    """A freely reduced word in the free group of given rank."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        for g, e in letters:
            if not (0 <= g < rank) or e not in (1, -1):
                raise ValueError(f"bad letter ({g},{e}) at rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, *a):
        raise AttributeError("FreeWord is immutable")

    @classmethod
    def generator(cls, g, rank, exp=1):
        return cls(rank, [_INVERSE[(g, -exp)]])

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self):
        return FreeWord(self.rank, [_INVERSE[x] for x in reversed(self.letters)])

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
        return ".".join(f"g{g}" + ("'" if e < 0 else "") for g, e in self.letters)


class ArtinAuto:
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

    def __setattr__(self, *a):
        raise AttributeError("ArtinAuto is immutable")

    @classmethod
    def identity(cls, rank):
        return cls(rank, [FreeWord.generator(g, rank) for g in range(rank)])

    def apply(self, word):
        """Substitute generator images into a FreeWord."""
        letters = []
        for g, e in word.letters:
            img = self.images[g]
            letters.extend(img.letters if e == 1 else img.inverse().letters)
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


class BraidWord:
    """A word in the Artin generators of the braid group on n strands.

    Letters are (index, sign) with 1-based index i in {1..n-1}; the JSON
    form is an array of signed integers, +i for sigma_i, -i for its
    inverse.
    """

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        letters = tuple((int(i), int(s)) for i, s in letters)
        if strands < 2:
            raise ValueError("need at least 2 strands")
        for i, s in letters:
            if not (1 <= i < strands) or s not in (1, -1):
                raise ValueError(f"bad letter ({i},{s}) on {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):
        raise AttributeError("BraidWord is immutable")

    @classmethod
    def from_signed(cls, strands, signed):
        """From signed integers: +i means sigma_i, -i means sigma_i^{-1}."""
        return cls(strands, [(abs(k), 1 if k > 0 else -1) for k in signed])

    def to_signed(self):
        return [i * s for i, s in self.letters]

    @classmethod
    def generator(cls, i, strands, sign=1):
        return cls(strands, [(i, sign)])

    def __mul__(self, other):
        if self.strands != other.strands:
            raise ValueError("strand mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, k):
        if k >= 0:
            return BraidWord(self.strands, self.letters * k)
        return self.inverse() ** (-k)

    def inverse(self):
        return BraidWord(
            self.strands, [(i, -s) for i, s in reversed(self.letters)]
        )

    def free_reduce(self):
        return BraidWord(self.strands, _reduce(self.letters))

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
        body = " ".join(f"s{i}" + ("'" if s < 0 else "") for i, s in self.letters)
        return f"<{body} n={self.strands}>"


def artin_rep(word, cap=DEFAULT_LETTER_CAP):
    """The free-group automorphism of a braid word (letters left-to-right).

    Hurwitz moves on the free generators, from the last letter to the
    first; raises LetterCapExceeded once the images exceed `cap` letters.
    """
    f = Factorization(ArtinAuto.identity(word.strands).images)
    for i, s in reversed(word.letters):
        f = hurwitz_move(f, i, inverse=(s < 0))
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
    for i, _ in word.letters:
        p = p * Perm.transposition(i, i + 1, word.strands)
    return p


def band_generator(r, s, n):
    """Half twist joining punctures r < s along an arc above the others.

    Realized as (sigma_{s-1} ... sigma_{r+1}) sigma_r (sigma_{r+1}^{-1}
    ... sigma_{s-1}^{-1}); for s = r+1 this is just sigma_r.
    """
    if not (1 <= r < s <= n):
        raise ValueError(f"need 1 <= r < s <= n, got r={r}, s={s}, n={n}")
    head = [(j, 1) for j in range(s - 1, r, -1)]
    tail = [(j, -1) for j in range(r + 1, s)]
    return BraidWord(n, head + [(r, 1)] + tail)


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
    letters = (
        [(m, 1)]
        + [(m - 1, 1)] * 2
        + [(m + 1, 1)] * 2
        + [(m, 1)]
        + [(m + 1, -1)] * 2
        + [(m - 1, -1)] * 2
        + [(m, -1)]
    )
    return BraidWord(n, letters)


class BraidElement:
    """A braid group element, carried as a free-reduced word.

    Lets braids plug into the generic factorization machinery: multiply
    concatenates words, inverse reverses and flips signs.  Equality and
    hashing are syntactic on the reduced word — exact for orbit
    bookkeeping (identical words behave identically under moves), cheap
    enough for search frontiers.  Use equal_as_braids (the Artin
    representation) when two different words must be compared as group
    elements.
    """

    __slots__ = ("word",)

    def __init__(self, word):
        object.__setattr__(self, "word", word.free_reduce())

    def __setattr__(self, *a):
        raise AttributeError("BraidElement is immutable")

    @classmethod
    def from_signed(cls, strands, signed):
        return cls(BraidWord.from_signed(strands, signed))

    def equal_as_braids(self, other) -> bool:
        return self.word.strands == other.word.strands and braid_equal(
            self.word, other.word
        )

    def __mul__(self, other):
        return BraidElement(self.word * other.word)

    def inverse(self):
        return BraidElement(self.word.inverse())

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
    up = [(i, 1) for i in range(1, n)]
    down = [(i, 1) for i in range(n - 1, 0, -1)]
    return BraidWord(n, up + down)
