"""Factorizations in a group with Hurwitz moves, conjugation and search.

A factorization is an ordered tuple of group elements regarded together
with its product.  Elements may belong to any group: all that is needed
is `*` (left-to-right composition), `.inverse()`, `==` and `hash`.
Perm, BraidElement, FreeWord and F2Operator all satisfy this protocol.

The forward Hurwitz move at index i (1-based) is

    (a_i, a_{i+1})  |->  (a_i a_{i+1} a_i^{-1}, a_i)

which visibly preserves the product; the inverse move undoes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class Factorization:
    """An immutable ordered sequence of group elements."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        object.__setattr__(self, "elements", tuple(elements))

    def __setattr__(self, *a):
        raise AttributeError("Factorization is immutable")

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return isinstance(other, Factorization) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Factorization({list(self.elements)!r})"

    def product(self):
        if not self.elements:
            raise ValueError("empty factorization has no product without an identity")
        out = self.elements[0]
        for x in self.elements[1:]:
            out = out * x
        return out


def hurwitz_move(f, i, inverse=False):
    """Hurwitz move at 1-based index i (acts on slots i, i+1)."""
    m = len(f)
    if not (1 <= i <= m - 1):
        raise IndexError(f"move index {i} out of range 1..{m - 1}")
    a, b = f[i - 1], f[i]
    elems = list(f.elements)
    if not inverse:
        elems[i - 1], elems[i] = a * b * a.inverse(), a
    else:
        elems[i - 1], elems[i] = b, b.inverse() * a * b
    return Factorization(elems)


def act_word(f, word):
    """Apply a braid word to a factorization, letters left-to-right.

    sigma_i acts as the forward move at i, sigma_i^{-1} as the inverse.
    """
    if word.strands != len(f):
        raise ValueError(
            f"word on {word.strands} strands cannot act on length-{len(f)} factorization"
        )
    return act_moves(f, word.letters)


def act_moves(f, moves):
    """Apply signed move indices: +i forward at i, -i inverse at i."""
    for k in moves:
        f = hurwitz_move(f, abs(k), inverse=(k < 0))
    return f


def simultaneous_conjugate(f, g):
    """Replace every factor a by g^{-1} a g."""
    ginv = g.inverse()
    return Factorization(ginv * a * g for a in f)


def rotate_to_front(f, h):
    """Hurwitz-equivalent factorization starting with (a conjugate of) slot h.

    Forward moves at h-1, h-2, ..., 1 carry the h-th factor to the front;
    the moved factor arrives conjugated, the product is untouched.
    """
    if not (1 <= h <= len(f)):
        raise IndexError(f"slot {h} out of range 1..{len(f)}")
    for i in range(h - 1, 0, -1):
        f = hurwitz_move(f, i)
    return f


@dataclass(frozen=True)
class StableContext:
    """The admissible creation/cancellation elements for stable moves."""

    admissible: frozenset

    def __init__(self, admissible):
        object.__setattr__(self, "admissible", frozenset(admissible))

    def allows(self, beta):
        return beta in self.admissible or beta.inverse() in self.admissible


def stable_insert(f, pos, beta, ctx):
    """Insert beta o beta^{-1} before 1-based slot pos (pos = m+1 appends)."""
    if beta not in ctx.admissible:
        raise ValueError(f"{beta!r} is not admissible")
    if not (1 <= pos <= len(f) + 1):
        raise IndexError(f"insert position {pos} out of range")
    elems = list(f.elements)
    elems[pos - 1 : pos - 1] = [beta, beta.inverse()]
    return Factorization(elems)


def stable_cancel(f, pos, ctx):
    """Remove the consecutive inverse pair at slots pos, pos+1."""
    if not (1 <= pos <= len(f) - 1):
        raise IndexError(f"cancel position {pos} out of range")
    a, b = f[pos - 1], f[pos]
    if not (a * b) == (a * a.inverse()):
        raise ValueError("slots do not multiply to the identity")
    if not ctx.allows(a):
        raise ValueError(f"{a!r} is not admissible")
    elems = list(f.elements)
    del elems[pos - 1 : pos + 1]
    return Factorization(elems)


def bfs_closure(elements, cap=200_000):
    """Multiplicative closure of a set of elements, in breadth-first order.

    Deterministic: every frontier element is multiplied on the right by
    each distinct generator, in the given order.  Raises RuntimeError if
    the closure exceeds `cap` (guards infinite element domains).
    """
    gens = list(dict.fromkeys(elements))
    seen = dict.fromkeys(gens)  # insertion-ordered set
    frontier = gens
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
                    if len(seen) > cap:
                        raise RuntimeError(f"closure exceeded cap {cap}")
        frontier = nxt
    return list(seen)


def generated_subgroup(elements, cap=200_000):
    """The closure of `elements` (see bfs_closure), as a frozenset."""
    return frozenset(bfs_closure(elements, cap))


def _conjugacy_classes(group):
    """Partition a finite group (iterable) into conjugacy classes.

    Returns a dict mapping each element to the first element of its class
    in iteration order.  The class of x is {g^{-1} x g : g in group}, one
    pass over the group per class.
    """
    group = list(group)
    rep_of = {}
    for x in group:
        if x in rep_of:
            continue
        for g in group:
            rep_of[g.inverse() * x * g] = x
    return rep_of


def class_count_function(f, subgroup=None):
    """The unsigned class-count invariant of a factorization.

    Counts, for each conjugacy class of the subgroup H generated by the
    factors, how many factors fall in it.  Returns (sigma, H) where
    sigma maps class representative -> count.  Constant on Hurwitz
    orbits since moves replace factors by H-conjugates.
    """
    if len(f) == 0:
        return {}, frozenset()
    H = subgroup if subgroup is not None else generated_subgroup(f.elements)
    rep_of = _conjugacy_classes(H)
    sigma = {}
    for a in f:
        r = rep_of[a]
        sigma[r] = sigma.get(r, 0) + 1
    return sigma, H


def signed_class_count(f, admissible=()):
    """The signed class-count s on classes not conjugate to their inverse.

    Computed inside the stabilized subgroup generated by the factors and
    the admissible elements.  Returns a dict mapping a frozenset
    {class_rep, inverse_class_rep} -> |count(class) - count(inverse)|,
    restricted to class pairs with class != inverse class.
    """
    if len(f) == 0 and not admissible:
        return {}
    H = generated_subgroup(list(f.elements) + list(admissible))
    rep_of = _conjugacy_classes(H)
    counts = {}
    for a in f:
        r = rep_of[a]
        counts[r] = counts.get(r, 0) + 1
    s = {}
    for r, n in counts.items():
        r_inv = rep_of[r.inverse()]
        if r_inv == r:
            continue  # class conjugate to its inverse: not tracked
        key = frozenset({r, r_inv})
        if key in s:
            continue
        s[key] = abs(n - counts.get(r_inv, 0))
    return s


@dataclass
class SearchResult:
    found: bool
    moves: list = field(default_factory=list)
    visited: int = 0
    depth_reached: int = 0


def orbit_search(start, target, max_depth, node_cap=500_000):
    """Breadth-first search for a Hurwitz move path from start to target.

    Explores forward and inverse moves at every index (smallest index
    first, forward before inverse: deterministic).
    Returns a SearchResult; a miss within the budget proves nothing.
    Raises ValueError if the products differ (then no path can exist).
    """
    if len(start) != len(target):
        raise ValueError("length mismatch: not Hurwitz equivalent")
    if len(start) and start.product() != target.product():
        raise ValueError("product mismatch: not Hurwitz equivalent")
    m = len(start)
    seen = {start: []}
    frontier = deque([start])
    depth = 0
    if start == target:
        return SearchResult(True, [], 1, 0)
    while frontier and depth < max_depth:
        depth += 1
        for _ in range(len(frontier)):
            f = frontier.popleft()
            path = seen[f]
            for i in range(1, m):
                for mv in (i, -i):
                    child = hurwitz_move(f, i, inverse=mv < 0)
                    if child in seen:
                        continue
                    seen[child] = path + [mv]
                    if child == target:
                        return SearchResult(True, path + [mv], len(seen), depth)
                    if len(seen) > node_cap:
                        raise RuntimeError(f"search exceeded node cap {node_cap}")
                    frontier.append(child)
    return SearchResult(False, [], len(seen), depth)
