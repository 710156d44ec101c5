"""Reference implementations kept only as test oracles.

`one_sided_search` is the plain breadth-first orbit search that
`hurwitz.orbit_search` replaced: one side grows from the start, and every
node stores its whole move list.  Its `found` and path length are the
ground truth for the bidirectional search.

`element_keyed_search` is that bidirectional search as it ran before
interning: its nodes are tuples of the elements themselves, and every
child is built by one `hurwitz_move` on the whole tuple.  Up to 16
slots, where `orbit_search` does not scale its node cap, its
SearchResult, or its RuntimeError, is the one `orbit_search` must give.

`artin_equal` is the braid equality that Dynnikov coordinates replaced:
it compares the Artin free-group images, whose lengths grow
exponentially with the word, under the letter cap of `artin_rep`.
`identity_auto` and `apply_auto` are the identity automorphism and the
substitution of an automorphism's images into a free word, with which
the tests check what `artin_rep` builds.

`identity_operator` is the identity of F2^dim, and `form_rank` the rank
of a form's Gram matrix by its own row elimination.

`numpy_enumeration` is the iteration of `f2sym.OperatorSequence` as it
ran on numpy uint8 column matrices: it yields a stabilizer chain's
elements in the order `group_closure` must keep.

`choice_action_word` is the random word drawn through `randrange` and
`choice`, as `s4orbit.random_action_word` drew it before its one
`getrandbits` loop.

`factor_word` is the whole braid word of a BMF factor, its twist's power
conjugated by each conjugator twist's power in turn, as
`bmf.realize_s4_trivial_action` built and walked it before it acted by
the conjugator alone and read the half twist's two end slots.

`inverse_conjugator` is the inverse of a BMF factor's conjugator as one
braid word, as realize acted it before it acted one entry at a time.

`cusp_fixed_sheets` tallies the cusps of a BMF by the sheet their local
3-cycle fixes, read with Perm products from each cusp's pair of
transpositions on the conjugated tau0; it pins a finding about the
generator (ROADMAP item 31), not a claim of the paper.

`all_windows` lists the 16 snake window states as Perm tuples, and
`embed_window` puts one into tau0(b, d) by list assignment: the windows
`s4orbit.snake_table` builds from its row bits are checked against them.
"""

from collections import Counter, deque
from itertools import repeat

import numpy as np

from braidmf.bmf import generate_bmf, twist_arc, twist_word
from braidmf.braid import ArtinAuto, BraidWord, FreeWord, artin_rep
from braidmf.f2sym import F2Operator, _images
from braidmf.hurwitz import (
    SearchResult,
    _move_order,
    _moves_to_root,
    hurwitz_move,
    product,
)
from braidmf.s4orbit import B_VALUES, D_VALUES, snake_window, tau0


def artin_equal(w1, w2):
    """Exact equality in the disk braid group via the Artin representation;
    raises LetterCapExceeded once an image passes the letter cap."""
    if w1.strands != w2.strands:
        raise ValueError("strand mismatch")
    return artin_rep(w1) == artin_rep(w2)


def identity_auto(rank):
    """The automorphism that fixes each free generator of the given rank."""
    return ArtinAuto(rank, tuple(FreeWord(rank, (g,)) for g in range(1, rank + 1)))


def apply_auto(auto, word):
    """The FreeWord with each letter of word replaced by its image under
    auto (an inverse letter by the inverse image)."""
    letters = []
    for x in word.letters:
        image = auto.images[abs(x) - 1]
        letters.extend(image.letters if x > 0 else image.inverse().letters)
    return FreeWord(auto.rank, letters)


def identity_operator(dim):
    """The identity operator of F2^dim: column i is e_i."""
    return F2Operator(dim, tuple(1 << i for i in range(dim)))


def numpy_enumeration(levels, dim):
    """The elements of the group with these stabilizer-chain transversals
    (as `f2sym._transversals` returns them), one level-0 coset at a time:
    the stabilizer of e_0 is enumerated once as a uint8 matrix whose row k
    holds each element's image of e_k."""
    tables = [np.array([_images(u) for u in lv], np.uint8) for lv in levels]
    # an element applies the deepest level's transversal first
    cols = np.array([[1 << k] for k in range(dim)], dtype=np.uint8)
    for images in reversed(tables[1:]):
        cols = images.T[cols].reshape(dim, -1)
    for table in tables[0]:
        # plain (dim, cols) tuples, which the equal F2Operators equal
        yield from zip(repeat(dim), zip(*table[cols].tolist()))


def form_rank(form):
    """The rank of the Gram matrix, by Gaussian elimination on its rows:
    each row is reduced by the kept rows with its leading bit, and a row
    that does not reduce to zero is kept under its new leading bit."""
    kept = {}
    for row in form.gram:
        while row and row.bit_length() in kept:
            row ^= kept[row.bit_length()]
        if row:
            kept[row.bit_length()] = row
    return len(kept)


def choice_action_word(rng, gens, max_len=16):
    """Random word of at most max_len entries of gens."""
    return [rng.choice(gens) for _ in range(rng.randrange(max_len + 1))]


def factor_word(factor, b, d):
    """The braid word G^-1 X G of a BmfFactor on 4(b+d) strands, X its
    twist's power and G the product of its conjugator's twist powers, or
    None when an arc is figure-only."""
    base = twist_word(factor.twist, b, d)
    if base is None:
        return None
    word = base**factor.exponent
    for tag, power in factor.conjugator:
        g = twist_word(tag, b, d)
        if g is None:
            return None
        gp = g**power
        word = gp.inverse() * word * gp
    return word


def inverse_conjugator(factor, b, d):
    """G^-1, G the product of a BMF factor's conjugator twist powers, as
    one braid word on 4(b+d) strands; every twist must have an arc."""
    g = BraidWord(4 * (b + d), ())
    for tag, power in factor.conjugator:
        g = g * twist_word(tag, b, d) ** power
    return g.inverse()


def cusp_fixed_sheets(p):
    """Sheet (1..4) -> the number of cusps of generate_bmf(p) whose local
    3-cycle fixes it.  A cusp G^-1 H^3 G, H the half twist on its arc
    (r, s), reads the pair (f_r, c f_s c^-1), c = f_{r+1} ... f_{s-1}, of
    f = tau0(b, d) after G^-1, one hurwitz_move per letter; the pair's
    product is a 3-cycle.  A distinct factor counts once per block
    holding it."""
    b, d = p.b, p.d
    cusps = Counter()
    for blk in generate_bmf(p).blocks:
        cusps.update(f for f in blk.factors if f.exponent == 3)
    tally = Counter()
    for factor, count in cusps.items():
        f = tau0(b, d).factors
        for k in inverse_conjugator(factor, b, d).letters:
            f = hurwitz_move(f, k)
        r, s = twist_arc(factor.twist, b, d)
        x = f[s - 1]
        for y in reversed(f[r : s - 1]):
            x = y * x * y.inverse()
        (sheet,) = [i + 1 for i, j in enumerate((f[r - 1] * x).images) if i == j]
        tally[sheet] += count
    return tally


def all_windows():
    """All 16 admissible window states (two D-slots, two B-slots)."""
    d, b = D_VALUES, B_VALUES
    return [(w, x, y, z) for w in d for x in d for y in b for z in b]


def embed_window(window, b, d):
    """tau0(b, d) with the snake window replaced by the given state."""
    f = tau0(b, d)
    factors = list(f.factors)
    factors[snake_window(d)] = window
    return f.with_factors(factors)


def one_sided_search(start, target, max_depth, node_cap=500_000):
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
                    child = hurwitz_move(f, mv)
                    if child in seen:
                        continue
                    seen[child] = path + [mv]
                    if child == target:
                        return SearchResult(True, path + [mv], len(seen), depth)
                    if len(seen) > node_cap:
                        raise RuntimeError(f"search exceeded node cap {node_cap}")
                    frontier.append(child)
    return SearchResult(False, [], len(seen), depth)


def element_keyed_search(start, target, max_depth, node_cap=500_000):
    """The bidirectional search of `orbit_search` on tuples of elements:
    the same levels, expansion order, path choice, counts and errors."""
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
                for mv in (i, -i):
                    child = hurwitz_move(f, mv)
                    if child in seen:
                        continue
                    seen[child] = (f, mv)
                    if len(sides[0]) + len(sides[1]) > node_cap:
                        raise RuntimeError(f"search exceeded node cap {node_cap}")
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
