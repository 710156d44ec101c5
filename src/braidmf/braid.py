"""Braid words and exact braid equality via the Artin free-group representation.

A positive generator sigma_i acts on the free generators by

    gamma_i   |->  gamma_i gamma_{i+1} gamma_i^{-1}
    gamma_i+1 |->  gamma_i

(matching the forward Hurwitz move on factorizations), and sigma_i^{-1}
by the inverse assignment.  The representation is faithful on the disk
braid group, which is what braid_equal relies on; the sphere relation
is NOT quotiented, but the relation word is exposed as a constant.

Words compose left-to-right, like everything else in this package.
"""

from __future__ import annotations

from .perm import Perm

# Total reduced-letter budget for automorphism images; image lengths can
# grow exponentially in the word length, so fail loudly instead of hanging.
DEFAULT_LETTER_CAP = 10**6


class LetterCapExceeded(RuntimeError):
    pass


def _reduce(letters):
    """Freely reduce a letter sequence [(gen, exp), ...] with exp = +-1."""
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


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
        return cls(rank, [(g, exp)])

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self):
        return FreeWord(self.rank, [(g, -e) for g, e in reversed(self.letters)])

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

    def apply(self, word, cap=DEFAULT_LETTER_CAP):
        """Substitute generator images into a FreeWord."""
        letters = []
        for g, e in word.letters:
            img = self.images[g].letters
            if e == 1:
                letters.extend(img)
            else:
                letters.extend((h, -f) for h, f in reversed(img))
            if len(letters) > cap:
                raise LetterCapExceeded(f"image length over cap {cap}")
        return FreeWord(self.rank, letters)

    def __mul__(self, other):
        """self then other: (a*b)(gamma) = b(a(gamma))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return ArtinAuto(self.rank, [other.apply(w) for w in self.images])

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


def _generator_auto(i, sign, rank):
    """The automorphism of sigma_i^(sign), 1-based generator index."""
    a, b = i - 1, i  # 0-based strand slots
    images = [FreeWord.generator(g, rank) for g in range(rank)]
    ga = FreeWord.generator(a, rank)
    gb = FreeWord.generator(b, rank)
    if sign == 1:
        images[a] = ga * gb * ga.inverse()
        images[b] = ga
    else:
        images[a] = gb
        images[b] = gb.inverse() * ga * gb
    return ArtinAuto(rank, images)


def artin_rep(word, cap=DEFAULT_LETTER_CAP):
    """The free-group automorphism of a braid word (letters left-to-right)."""
    auto = ArtinAuto.identity(word.strands)
    for i, s in word.letters:
        auto = auto * _generator_auto(i, s, word.strands)
        if auto.total_letters() > cap:
            raise LetterCapExceeded(f"automorphism over cap {cap}")
    return auto


def braid_equal(w1, w2, cap=DEFAULT_LETTER_CAP):
    """Exact equality in the disk braid group via the Artin representation."""
    if w1.strands != w2.strands:
        raise ValueError("strand mismatch")
    return artin_rep(w1, cap) == artin_rep(w2, cap)


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

    __slots__ = ("word", "cap")

    def __init__(self, word, cap=DEFAULT_LETTER_CAP):
        object.__setattr__(self, "word", word.free_reduce())
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, *a):
        raise AttributeError("BraidElement is immutable")

    @classmethod
    def from_signed(cls, strands, signed):
        return cls(BraidWord.from_signed(strands, signed))

    def equal_as_braids(self, other) -> bool:
        return self.word.strands == other.word.strands and braid_equal(
            self.word, other.word, self.cap
        )

    def __mul__(self, other):
        return BraidElement(self.word * other.word, self.cap)

    def inverse(self):
        return BraidElement(self.word.inverse(), self.cap)

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
