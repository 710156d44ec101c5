"""Factorizations in a group: Hurwitz moves, closure and orbit search.

A factorization is a plain tuple of group elements, regarded together
with its `product`.  Elements may belong to any group: all that is needed
is `*` (left-to-right composition), `.inverse()`, `==` and `hash`.
Perm, BraidWord, FreeWord and F2Operator all satisfy this protocol.
The functions below accept any sequence and return tuples; only the
inner step `hurwitz_move` takes a tuple.

The forward Hurwitz move at index i (1-based) is

    (a_i, a_{i+1})  |->  (a_i a_{i+1} a_i^{-1}, a_i)

which visibly preserves the product; the inverse move undoes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


def product(f):
    """The left-to-right product of a nonempty factorization."""
    if not f:
        raise ValueError("empty factorization has no product without an identity")
    out = f[0]
    for x in f[1:]:
        out = out * x
    return out


def hurwitz_move(f, i, inverse=False):
    """Hurwitz move at 1-based index i (acts on slots i, i+1) of a tuple."""
    m = len(f)
    if not (1 <= i <= m - 1):
        raise IndexError(f"move index {i} out of range 1..{m - 1}")
    a, b = f[i - 1], f[i]
    pair = (b, b.inverse() * a * b) if inverse else (a * b * a.inverse(), a)
    return f[: i - 1] + pair + f[i + 1 :]


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
    f = tuple(f)
    for k in moves:
        f = hurwitz_move(f, abs(k), inverse=(k < 0))
    return f


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
    Raises ValueError if the products differ (then no path can exist)
    or if max_depth is negative.
    """
    if max_depth < 0:
        raise ValueError(f"max depth {max_depth} is negative")
    start, target = tuple(start), tuple(target)
    if len(start) != len(target):
        raise ValueError("length mismatch: not Hurwitz equivalent")
    if start and product(start) != product(target):
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
