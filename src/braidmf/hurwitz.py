"""Factorizations in a group: Hurwitz moves and orbit search.

A factorization is a plain tuple of group elements, regarded together
with its `product`.  Elements may belong to any group: all that is needed
is `*` (left-to-right composition), `.inverse()`, `==` and `hash`.
Perm, BraidWord, FreeWord and F2Operator all satisfy this protocol.
The functions below accept any sequence and return tuples.
`orbit_search` interns each distinct element once, by its own `==` and
`hash`, and searches on tuples of small int ids; it computes the two new
slots of each id pair it meets once per call, through `hurwitz_move` on
the pair.

A move is a signed int, as a braid letter is: +i is the forward Hurwitz
move at index i (1-based),

    (a_i, a_{i+1})  |->  (a_i a_{i+1} a_i^{-1}, a_i)

which visibly preserves the product, and -i is the inverse move that
undoes it.

A move word touches only the slots from its smallest index to one past
its largest.  When every element in that window is a Perm of degree 4,
`act_moves` runs the window on indices into `symmetric_group(4)` with
two 24x24 move tables derived from `hurwitz_move` on first use (with the
product and inverse tables, from Perm products); a slot whose
value changed comes back as the canonical Perm of that tuple, the other
slots come back as given, and a word that leaves every slot where it
started gives back the input tuple itself.  Every other move word goes
through `hurwitz_move` once per move.

`act_word` and `half_twist_fixes` remember the one tuple they last read.
A first read of a tuple takes the windowed path, so it converts no more
than its window.  When the same tuple object comes back, all its slots
are converted to S4 indices once, and that read and every later one on
it use that index list: no window to find, no Perm to check or convert.
So many words acting on one factorization each pay for their letters and
a copy and comparison of m ints.

`half_twist_fixes(f, r, s, e)` says whether H^e fixes f, H the half
twist `band_generator(r, s, len(f))`, without walking H's 2(s-r)-1
letters.  H carries f_s down to slot r+1 as c f_s c^-1, c = f_{r+1} ...
f_{s-1}, applies sigma_r there and carries it back, so H^e changes only
slots r and s, and fixes f exactly when sigma_1^e fixes the pair
(f_r, c f_s c^-1).  On the remembered tuple c is P_r^-1 P_{s-1}, from
its prefix products P_k = f_1 ... f_k, computed on the first such call,
so a call costs O(|e|) lookups; on a first read c is multiplied out over
the window.  The BMF factors on the covering monodromy tau0 are checked
this way (`bmf.realize_s4_trivial_action`).
"""

from __future__ import annotations

import functools
from itertools import accumulate

from .perm import Perm, Record, symmetric_group

SEARCH_NODE_CAP = 500_000  # orbit_search's nodes on both sides, up to 16 slots


def product(f):
    """The left-to-right product of a nonempty factorization."""
    if not f:
        raise ValueError("empty factorization has no product without an identity")
    out = f[0]
    for x in f[1:]:
        out = out * x
    return out


def hurwitz_move(f, k):
    """Hurwitz move k of a tuple: +i forward, -i inverse at 1-based index
    i (acts on slots i, i+1)."""
    i, m = abs(k), len(f)
    if not (1 <= i <= m - 1):
        if m < 2:
            raise IndexError(
                f"move index {i}: a factorization of length {m} has no moves"
            )
        raise IndexError(f"move index {i} out of range 1..{m - 1}")
    a, b = f[i - 1], f[i]
    pair = (b, b.inverse() * a * b) if k < 0 else (a * b * a.inverse(), a)
    return f[: i - 1] + pair + f[i + 1 :]


# The tuple act_word or half_twist_fixes last read; from its second read
# on, the S4 indices of its slots ([] when a slot is not a degree-4 Perm);
# and once half_twist_fixes reads it with its indices, its prefix
# products.  One triple, replaced whole, so a tuple is never read with
# another tuple's indices or products.
_last = (None, None, None)


def _recall(f):
    """The S4 indices of f when f is the tuple read last, converted on its
    second read; None on a first read, which makes f the tuple read last
    (a list is never remembered)."""
    global _last
    last, indices, _ = _last
    if f is not last:
        _last = (f if type(f) is tuple else None), None, None
        return None
    if indices is None:
        indices = _s4_indices(f)
        _last = f, indices, None
    return indices


def act_word(f, word):
    """Apply a braid word to a factorization, letters left-to-right.

    sigma_i acts as the forward move at i, sigma_i^{-1} as the inverse.
    A second act on the tuple read last walks its remembered S4 indices
    (see the module docstring); the result is the same.
    """
    if word.strands != len(f):
        raise ValueError(
            f"word on {word.strands} strands cannot act on length-{len(f)} factorization"
        )
    moves = word.letters
    indices = _recall(f)
    if not indices:  # a first read, a list or a non-S4 slot: the windowed path
        return act_moves(f, moves)
    # a word's letters lie in 1 .. strands - 1, so every move's slots lie
    # in f: the walk needs no window, which would cost two passes over
    # the letters
    return _act_moves_s4(f, indices, moves, 0)


def half_twist_fixes(f, r, s, e):
    """Whether band_generator(r, s, len(f)) ** e fixes the factorization f,
    read only at slots r .. s (see the module docstring).

    Raises ValueError unless 1 <= r < s <= len(f), or when a slot from r
    to s is not a degree-4 Perm.  H^e fixes f exactly when H^-e does (the
    elements fixing f form a group), so only |e| is used.
    """
    global _last
    if not 1 <= r < s <= len(f):
        raise ValueError(f"need 1 <= r < s <= {len(f)}, got r={r}, s={s}")
    _, fwd, _, mul, inv = _s4_tables()
    indices = _recall(f)
    if indices:
        prefix = _last[2]
        if prefix is None:  # P_0 = id (index 0), P_k = P_{k-1} f_k
            prefix = list(accumulate(indices, lambda p, y: mul[p][y], initial=0))
            _last = f, indices, prefix
        a, x = indices[r - 1], indices[s - 1]
        c = mul[inv[prefix[r]]][prefix[s - 1]]
    else:
        window = _s4_indices(f[r - 1 : s])
        if not window:
            raise ValueError(f"slots {r}..{s} are not all degree-4 Perms")
        a, x = window[0], window[-1]
        c = 0
        for y in window[1:-1]:
            c = mul[c][y]
    pair = start = (a, mul[mul[c][x]][inv[c]])  # (f_r, c f_s c^-1)
    for _ in range(abs(e)):
        pair = fwd[pair[0]][pair[1]], pair[0]
    return pair == start


def act_moves(f, moves):
    """Apply signed move indices: +i forward at i, -i inverse at i.

    The moves touch only slots min|k|-1 .. max|k| (0-based).  When that
    window holds only degree-4 Perms it runs through the S4 tables,
    whatever lies outside it; otherwise, and on an out-of-range move, every
    move goes through hurwitz_move, which raises the IndexError of the
    first bad move.
    """
    f, moves = tuple(f), tuple(moves)
    if moves:
        lo, hi = min(map(abs, moves)) - 1, max(map(abs, moves)) + 1
        start = _s4_indices(f[lo:hi]) if 0 <= lo and hi <= len(f) else None
        if start:
            return _act_moves_s4(f, start, moves, lo)
    for k in moves:
        f = hurwitz_move(f, k)
    return f


@functools.cache
def _s4_tables():
    """(index, fwd, bwd, mul, inv) on S4 = symmetric_group(4), whose
    position 0 is the identity: index maps images to positions in S4;
    fwd[a][b] = a b a^-1, the first slot after the forward move on (a, b);
    bwd[b][a] = b^-1 a b, the second slot after the inverse move, as row
    fwd[b] inverted; mul[a][b] = a b and inv[a] = a^-1."""
    s4 = symmetric_group(4)
    index = {x.images: i for i, x in enumerate(s4)}
    fwd = tuple(
        tuple(index[hurwitz_move((x, y), 1)[0].images] for y in s4) for x in s4
    )
    bwd = tuple(tuple(sorted(range(24), key=row.__getitem__)) for row in fwd)
    mul = tuple(tuple(index[(x * y).images] for y in s4) for x in s4)
    inv = tuple(row.index(0) for row in mul)
    return index, fwd, bwd, mul, inv


def _s4_indices(window):
    """The positions in symmetric_group(4) of a sequence of elements, as a
    list, or [] when one of them is not a degree-4 Perm."""
    if not all(type(x) is Perm and len(x.images) == 4 for x in window):
        return []
    index = _s4_tables()[0]
    return [index[x.images] for x in window]


def _act_moves_s4(f, start, moves, lo):
    """act_moves on the slots lo .. lo + len(start) - 1 of f, degree-4
    Perms whose positions in symmetric_group(4) are the list `start`,
    through the S4 tables; every move's slots lie among them."""
    _, fwd, bwd, _, _ = _s4_tables()
    s = start.copy()
    for k in moves:  # f slot j is window slot j - lo
        if k > 0:  # slots k-1, k: (a, b) -> (a b a^-1, a)
            i = k - lo
            a = s[i - 1]
            s[i - 1] = fwd[a][s[i]]
            s[i] = a
        else:  # slots -k-1, -k: (a, b) -> (b, b^-1 a b)
            i = -k - lo
            b = s[i]
            s[i] = bwd[b][s[i - 1]]
            s[i - 1] = b
    if s == start:
        return f
    # a slot that ends where it started keeps its Perm, as the generic path
    # keeps an untouched one, so comparing the result with f mostly compares
    # identical objects
    hi = lo + len(s)
    s4 = symmetric_group(4)
    window = tuple(x if i == j else s4[j] for x, i, j in zip(f[lo:hi], start, s))
    return f[:lo] + window + f[hi:]


class SearchResult(Record):
    """What `orbit_search` returns; immutable, and unhashable because
    `moves` is a list."""

    __slots__ = ("found", "moves", "visited", "depth_reached")

    __hash__ = None


def _moves_to_root(seen, node):
    """The (parent, move) pointers of one search side followed from node
    back to its root: the move into node comes first."""
    moves = []
    while seen[node] is not None:
        node, mv = seen[node]
        moves.append(mv)
    return moves


def _move_order(moves):
    """Sort key of a path: moves compare as 1 < -1 < 2 < -2 < ..."""
    return [(abs(k), k < 0) for k in moves]


def orbit_search(start, target, max_depth):
    """Bidirectional breadth-first search for a Hurwitz move path from
    start to target.

    A forward side grows from start and a backward side from target; a
    move's inverse undoes it, so the backward side uses the same moves.
    Every node stores one (parent, move) pair.  Each step grows the side
    with the smaller frontier by one whole level (the forward side wins a
    tie), expanding the level's nodes in order and, at each, the moves at
    every index, smallest index first and forward before inverse.  A
    level that reaches nodes of the other side is finished, and the
    search returns the least of the full paths through them: forward
    half, then the backward half reversed and negated, compared move by
    move in the order 1, -1, 2, -2, ...  Every such path is a shortest
    one, so `found` holds exactly when start and target are at most
    max_depth moves apart, and `moves` is deterministic.

    Returns a SearchResult whose `visited` counts the nodes stored on
    both sides (a meeting node is stored on each, so it counts twice) and
    whose `depth_reached` counts the levels grown on both sides; a miss
    within the budget proves nothing.  Raises RuntimeError once more than
    SEARCH_NODE_CAP nodes are stored on the two sides together, and
    ValueError if the products differ (then no path can exist) or if
    max_depth is negative.  A node holds one id per slot, so past 16 slots
    the cap shrinks to SEARCH_NODE_CAP * 16 // m nodes: the stored slots
    stay within SEARCH_NODE_CAP * 16 whatever the length m.

    Nodes are tuples of ids: each distinct element is interned once, keyed
    by its own `==` and `hash`, and the ids of a b a^-1 and b^-1 a b are
    computed once per (a, b) pair in one call.  So products, and
    factorizations across the two sides, still compare by each element's
    `==`, which for `BraidWord` is syntactic on the reduced letters: a
    braid pair whose products are equal as braids but written differently
    is refused as a product mismatch, and a target written differently
    from the factorization the moves reach is never found.
    """
    if max_depth < 0:
        raise ValueError(f"max depth {max_depth} is negative")
    start, target = tuple(start), tuple(target)
    if len(start) != len(target):
        raise ValueError("length mismatch: not Hurwitz equivalent")
    if start and product(start) != product(target):
        raise ValueError("product mismatch: not Hurwitz equivalent")
    if start == target:
        return SearchResult(True, [], 1, 0)
    m = len(start)
    cap = SEARCH_NODE_CAP * 16 // max(m, 16)
    elems, ids, memo = [], {}, {}  # id -> element, element -> id, pair -> ids

    def intern(x):
        i = ids.setdefault(x, len(elems))
        if i == len(elems):
            elems.append(x)
        return i

    start, target = tuple(map(intern, start)), tuple(map(intern, target))
    sides = ({start: None}, {target: None})  # node -> (parent, move)
    frontiers = [[start], [target]]
    depth = 0
    while frontiers[0] and frontiers[1] and depth < max_depth:
        depth += 1
        s = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        seen, other = sides[s], sides[1 - s]
        grown, meets = [], []
        for f in frontiers[s]:
            for i in range(1, m):
                a, b = f[i - 1], f[i]
                pair = memo.get((a, b))
                if pair is None:  # ids of a b a^-1 and b^-1 a b
                    xy = (elems[a], elems[b])
                    pair = memo[a, b] = (
                        intern(hurwitz_move(xy, 1)[0]),
                        intern(hurwitz_move(xy, -1)[1]),
                    )
                fwd, inv = pair
                head, tail = f[: i - 1], f[i + 1 :]
                children = (head + (fwd, a) + tail, head + (b, inv) + tail)
                for mv, child in zip((i, -i), children):
                    if child in seen:
                        continue
                    seen[child] = (f, mv)
                    if len(sides[0]) + len(sides[1]) > cap:
                        raise RuntimeError(f"search exceeded node cap {cap}")
                    (meets if child in other else grown).append(child)
        if meets:
            paths = (
                _moves_to_root(sides[0], c)[::-1]
                + [-k for k in _moves_to_root(sides[1], c)]
                for c in meets
            )
            moves = min(paths, key=_move_order)
            return SearchResult(True, moves, len(sides[0]) + len(sides[1]), depth)
        frontiers[s] = grown
    return SearchResult(False, [], len(sides[0]) + len(sides[1]), depth)
