"""Finite permutations with left-to-right composition.

Composition convention (used consistently across the whole package,
including factorization products): ``p * q`` means "apply p first,
then q".  Conjugation is ``p.conjugate(g) == g.inverse() * p * g``.

Points are 1-based in cycle notation and in the JSON wire format
(an array of 1-based images); internally images are stored 0-based.

The module also holds `Record`, the base class of the package's value
records, and `_indented_json`, the JSON report writer: every command
loads this module, so `--json` loads no other.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str


class Record:
    """The package's value records: immutable, equal field by field within
    their own class, hashed like the tuple of their fields, and shown as
    ``Class(field=value, ...)``.  The fields are a subclass's ``__slots__``,
    or its ``_fields`` when it keeps an instance ``__dict__`` (for vars()
    or a cached_property).  ``Record.__init__`` sets them in order; a
    subclass's own ``__init__`` only checks the values and then calls it.
    `BmfFactor` and `Block`, built hundreds of times a factorization, set
    their fields themselves, which is 2-3 times faster."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = vars(cls).get("_fields", cls.__slots__)
        cls._key = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):  # TypeError: a ValueError is exit 2
            n, cls = len(self._fields), type(self).__name__
            raise TypeError(f"{cls} takes {n} values, not {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({body})"


class Perm:
    """A permutation of {1..n}, immutable and hashable."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images):
        """A Perm from an images tuple known to be a bijection (a product
        or inverse of Perms), without the bijection check."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def transposition(cls, i, j, n):
        """The transposition (i j), 1-based points."""
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad transposition ({i} {j}) in S_{n}")
        im = list(range(n))
        im[i - 1], im[j - 1] = im[j - 1], im[i - 1]
        return cls(im)

    @classmethod
    def from_cycles(cls, cycles, n):
        """Build from disjoint cycles of 1-based points, e.g. [(1,2),(3,4)]."""
        im = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                im[a - 1] = b - 1
        return cls(im)

    def __call__(self, point):
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError(f"degree mismatch: {len(a)} != {len(b)}")
        return Perm._trusted(tuple(map(b.__getitem__, a)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._trusted(tuple(inv))

    def conjugate(self, g):
        """g^{-1} * self * g."""
        return g.inverse() * self * g

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Disjoint cycles (1-based), fixed points omitted, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(seen)):
            if seen[start] or self.images[start] == start:
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i + 1)
                i = self.images[i]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def is_transposition(self):
        return self.cycle_type() == (2,)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        if self.is_identity():
            return f"Perm.identity({len(self.images)})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
        return f"<{body} deg={len(self.images)}>"

    def to_json(self):
        """1-based image array, the external wire format."""
        return [i + 1 for i in self.images]

    @classmethod
    def from_json(cls, data):
        return cls(i - 1 for i in data)


@lru_cache(maxsize=None)
def symmetric_group(n):
    """All n! permutations, in lexicographic image order."""
    return tuple(Perm(im) for im in itertools.permutations(range(n)))


def _indented_json(x, pad=""):
    """json.dumps(x, indent=2, sort_keys=True), with every line after the
    first indented by pad, for x built of dicts with str keys, lists,
    tuples, str, bool, None and int (exact types; anything else is a
    TypeError).  json's C encoder takes no indent, so json.dumps with one
    runs its pure-Python encoder."""
    t = type(x)
    if t is str:
        return _json_str(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    if t is int:
        return int.__repr__(x)
    inner = pad + "  "
    if t is dict:
        if not x:
            return "{}"
        # a key that is not a str is a TypeError from sorted or _json_str
        items = [_json_str(k) + ": " + _indented_json(x[k], inner) for k in sorted(x)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        items = [_indented_json(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"{t.__name__} is not JSON serializable")
