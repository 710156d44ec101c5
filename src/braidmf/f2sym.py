"""Symplectic linear algebra over F2: the cross-shaped homology space of
the horizontal fibre, transvections, quadratic refinements, Arf invariants,
transvection-group classification and the horizontal-fibration obstruction.

A vector of F2^n is a plain int bitset, and so are Gram rows and operator
columns.  The one pairing primitive is `F2BilinearForm.gram_image`: with
it, (u, v) = parity(gram_image(u) & v).  `group_closure` builds a
Schreier-Sims stabilizer chain of a group of invertible operators, with
the basis vectors as base points, checks its cap against the chain's
order and returns the chain: its length is the order, and iterating it
enumerates the group coset by coset.  Dense numpy paths cover the
dimensions we ever enumerate (<= 8 for closure, where a column fits one
uint8 and an image table has 2^dim entries; <= 24 for the Arf oracle).
numpy is imported on first use, by a closure's iteration and the q-table
and Arf-oracle paths, so the rest of the package and the CLI load
without it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, reduce
from itertools import repeat
from operator import xor

from .perm import Record


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _combine(rows, bits: int) -> int:
    """XOR of rows[i] over the set bits i of `bits`."""
    out = 0
    while bits:
        low = bits & -bits
        out ^= rows[low.bit_length() - 1]
        bits ^= low
    return out


def _inverse_cols(cols) -> tuple:
    """Columns of the inverse of the operator with these columns, by
    Gauss-Jordan elimination; ValueError("operator is singular") if none."""
    n = len(cols)
    rows = list(cols)
    inv = [1 << i for i in range(n)]
    for r in range(n):
        piv = next((k for k in range(r, n) if (rows[k] >> r) & 1), None)
        if piv is None:
            raise ValueError("operator is singular")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv[r], inv[piv] = inv[piv], inv[r]
        for k in range(n):
            if k != r and (rows[k] >> r) & 1:
                rows[k] ^= rows[r]
                inv[k] ^= inv[r]
    # the rows are now the identity, so inv holds the coordinates of each
    # e_r in the old columns: the columns of the inverse
    return tuple(inv)


def _images(cols) -> list:
    """The image of every v < 2^n under the operator with these n columns,
    indexed by v, built by subset doubling."""
    t = [0]
    for c in cols:
        t += [x ^ c for x in t]
    return t


def _independent(rows):
    """Indices of a greedy linearly independent subset of the int bitsets,
    in the given order."""
    basis, keep = [], []
    for k, x in enumerate(rows):
        for r in basis:
            x = min(x, x ^ r)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
            keep.append(k)
    return keep


class F2Vec:
    """Range-checked constructor of a vector of F2^dim, which is the int
    bitset itself: ``F2Vec(dim, bits)`` returns ``bits`` and
    ``F2Vec.basis(i, dim)`` returns ``1 << i``.

    Nothing in the package calls it; the benchmark workloads build their
    vectors through it.  It is a class, not a function, because the
    benchmark tracer wraps every public module-level function, and that
    wrapper has no ``basis``.
    """

    def __new__(cls, dim, bits):
        if not 0 <= bits < (1 << dim):
            raise ValueError("bits out of range for dimension")
        return bits

    @classmethod
    def basis(cls, i, dim):
        return cls(dim, 1 << i)


class F2BilinearForm(Record):
    """Alternating symmetric form; gram rows stored as int bitsets."""

    __slots__ = ("dim", "gram")

    def __init__(self, dim, gram):
        if len(gram) != dim:
            raise ValueError("gram must have dim rows")
        transpose = [0] * dim
        for i, row in enumerate(gram):
            if (row >> i) & 1:
                raise ValueError("form must be alternating (zero diagonal)")
            if not 0 <= row < 1 << dim:  # no row mirrors a bit at or past dim
                raise ValueError("form must be symmetric")
            while row:
                low = row & -row
                transpose[low.bit_length() - 1] |= 1 << i
                row ^= low
        if transpose != list(gram):
            raise ValueError("form must be symmetric")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", gram)

    def gram_image(self, u: int) -> int:
        """G u, the XOR of the Gram rows on u's support: bit j is (u, e_j),
        so (u, v) = parity(gram_image(u) & v)."""
        return _combine(self.gram, u)

    def pairing(self, u: int, v: int) -> int:
        return _parity(self.gram_image(u) & v)


def form_from_edges(dim, edges):
    """The intersection form of a diagram: (i,j) pair to 1 per listed edge."""
    gram = [0] * dim
    for i, j in edges:
        if i == j:
            raise ValueError("no loops allowed")
        gram[i] |= 1 << j
        gram[j] |= 1 << i
    return F2BilinearForm(dim, tuple(gram))


class F2Quadratic(Record):
    """Quadratic refinement determined by its values on the basis:
    q(u+v) = q(u) + q(v) + (u,v)."""

    _fields = ("form", "basis_values")

    def __init__(self, form, basis_values):
        if len(basis_values) != form.dim:
            raise ValueError("need one value per basis vector")
        if any(b not in (0, 1) for b in basis_values):
            raise ValueError("q values on the basis must be 0 or 1")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "basis_values", basis_values)

    @cached_property
    def _level_sets(self) -> tuple:
        """For each basis index i, the bitsets v with q(v) = q(e_i); built
        from the value table on first use (dimensions <= Q_TABLE_MAX_DIM)."""
        import numpy as np

        vals = _q_values(self)
        return tuple(
            frozenset(np.flatnonzero(vals == b).tolist()) for b in self.basis_values
        )


def _check_fits(v: int, n: int, what: str = "vector") -> None:
    """Raise ValueError unless v is a bitset of the n-dimensional space."""
    if v < 0:
        raise ValueError(f"{what} {v} is negative")
    if v >> n:
        raise ValueError(
            f"{what} of dimension {v.bit_length()} does not fit form dimension {n}"
        )


def q_eval(q: F2Quadratic, v: int) -> int:
    _check_fits(v, q.form.dim)
    val = 0
    rem = v
    while rem:
        i = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        val ^= q.basis_values[i]
        # cross terms (i, j) with j > i, both in the support
        val ^= _parity(q.form.gram[i] & rem)
    return val


class F2Operator(namedtuple("F2Operator", "dim cols")):
    """Linear map; cols[i] is the image of basis vector i as a bitset.

    A namedtuple, so an operator costs one tuple.  Operators compare and
    hash by (dim, cols); being a tuple, an operator also equals its plain
    ``(dim, cols)`` tuple, and ``len(op) == 2``.
    """

    __slots__ = ()

    def apply(self, v: int) -> int:
        return _combine(self.cols, v)

    def __mul__(self, other):
        # left-to-right: apply self, then other
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return F2Operator(self.dim, tuple(map(other.apply, self.cols)))

    def inverse(self):
        return F2Operator(self.dim, _inverse_cols(self.cols))

    def is_identity(self):
        return all(c == (1 << i) for i, c in enumerate(self.cols))

    def is_symplectic(self, form: F2BilinearForm) -> bool:
        n, cols = self.dim, self.cols
        if n != form.dim:
            raise ValueError(
                f"operator dimension {n} does not match form dimension {form.dim}"
            )
        for i in range(n):
            image = form.gram_image(cols[i])
            for j in range(i + 1, n):
                if _parity(image & cols[j]) != (form.gram[i] >> j) & 1:
                    return False
        return True

    def conjugate(self, g):
        return g.inverse() * self * g


def transvection(u: int, form: F2BilinearForm) -> F2Operator:
    """T_u(v) = v + (u,v)u.  Column i is e_i, plus u where bit i of G u,
    that is (u, e_i), is set."""
    n = form.dim
    if u <= 0:
        raise ValueError("transvection vector must be nonzero")
    _check_fits(u, n, "transvection vector")
    image = form.gram_image(u)
    return F2Operator(
        n, tuple((1 << i) ^ (u if (image >> i) & 1 else 0) for i in range(n))
    )


# ---------------------------------------------------------------------------
# The cross space


class CrossSpace(Record):
    """Homology of the horizontal fibre: four chains a, b, c, d of cycles
    joined through the central cycle s.  Chain lengths 2a-1, 2c-2, 2a-2,
    2c-2; dim = 4(a+c) - 6 = twice the fibre genus."""

    __slots__ = ("a", "c", "labels", "form")

    def __init__(self, a, c, labels, form):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "form", form)

    @property
    def dim(self):
        return self.form.dim

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def vec(self, *labels) -> int:
        return reduce(xor, (1 << self.index(label) for label in labels))


# Work on a cross space grows as the cube of its dimension: at 998
# (a + c = 251) `classify` takes about 0.4 s and `arf` 0.3 s (2-core host).
CROSS_MAX_DIM = 1_000


def build_cross_space(a, c) -> CrossSpace:
    """The (a,c) cross space; RuntimeError("cross space dimension D exceeds
    cap N") above CROSS_MAX_DIM, before anything is built."""
    if a < 2 or c < 2:
        raise ValueError("cross space needs a, c >= 2")
    if 4 * (a + c) - 6 > CROSS_MAX_DIM:
        raise RuntimeError(
            f"cross space dimension {4 * (a + c) - 6} exceeds cap {CROSS_MAX_DIM}"
        )
    chains = {
        "a": 2 * a - 1,
        "b": 2 * c - 2,
        "c": 2 * a - 2,
        "d": 2 * c - 2,
    }
    labels = ["s"]
    edges = []
    for ch, ln in chains.items():
        idx = range(len(labels), len(labels) + ln)
        labels += [f"{ch}{k}" for k in range(1, ln + 1)]
        edges.append((0, idx[0]))  # s meets each chain's first cycle once
        edges += zip(idx, idx[1:])
    dim = len(labels)
    assert dim == 4 * (a + c) - 6
    return CrossSpace(a, c, tuple(labels), form_from_edges(dim, edges))


def symplectic_basis(form):
    """F2 Gram-Schmidt: hyperbolic pairs (e_i, f_i) with (e_i,f_j)=delta_ij."""
    rest = [1 << i for i in range(form.dim)]
    pairs = []
    while rest:
        e = rest.pop(0)
        if not e:
            continue
        ge = form.gram_image(e)
        j = next((k for k, v in enumerate(rest) if _parity(ge & v)), None)
        if j is None:
            raise ValueError("degenerate form")
        f = rest.pop(j)
        gf = form.gram_image(f)
        pairs.append((e, f))
        rest = [
            w ^ (e if _parity(gf & w) else 0) ^ (f if _parity(ge & w) else 0)
            for w in rest
        ]
    return pairs


def quadratic_from_basis(space_or_form) -> F2Quadratic:
    """The quadratic refinement with q = 1 on every basis vector (the
    geometric q of the fibre); other values go through F2Quadratic."""
    form = getattr(space_or_form, "form", space_or_form)
    return F2Quadratic(form, (1,) * form.dim)


def omitted_vectors(space: CrossSpace):
    """The three fibre cycles left out of the basis, expressed in it.

    Each chain closer meets the last kept member of its chain once and
    every other basis cycle zero times, so it is G^-1 e_last for the Gram
    matrix G: one inversion gives all three.
    """
    a, c = space.a, space.c
    inv = F2Operator(space.dim, space.form.gram).inverse()
    return {
        f"{ch}{n + 1}": inv.cols[space.index(f"{ch}{n}")]
        for ch, n in (("b", 2 * c - 2), ("c", 2 * a - 2), ("d", 2 * c - 2))
    }


# ---------------------------------------------------------------------------
# Arf invariant


def arf(q: F2Quadratic) -> int:
    """Sum of q(e_i)q(f_i) over any symplectic basis; basis-independent."""
    return (
        sum(q_eval(q, e) & q_eval(q, f) for e, f in symplectic_basis(q.form))
        & 1
    )


ARF_ORACLE_MAX_DIM = 24
Q_TABLE_MAX_DIM = 8


def _q_values(q: F2Quadratic):
    """uint8 array of q(v) for every v < 2^dim, indexed by the bitset v."""
    import numpy as np

    n = q.form.dim
    vals = np.zeros(1 << n, dtype=np.uint8)
    pair = np.zeros(1 << n >> 1, dtype=np.uint8)
    one = np.uint8(1)
    for k in range(n):
        # pair[v] = q(e_k) + (v, e_k) for v < 2^k, by the same doubling
        pair[0] = q.basis_values[k]
        for j in range(k):
            if (q.form.gram[k] >> j) & 1:
                np.bitwise_xor(pair[: 1 << j], one, out=pair[1 << j : 2 << j])
            else:
                pair[1 << j : 2 << j] = pair[: 1 << j]
        # q(v + e_k) = q(v) + q(e_k) + (v, e_k) for v < 2^k
        np.bitwise_xor(vals[: 1 << k], pair[: 1 << k], out=vals[1 << k : 2 << k])
    return vals


def arf_oracle(q: F2Quadratic) -> int:
    """Arf by exhaustive zero-counting: Arf 0 iff #zeros = 2^(2g-1)+2^(g-1).
    Dimensions above ARF_ORACLE_MAX_DIM are refused."""
    n = q.form.dim
    if n > ARF_ORACLE_MAX_DIM:
        raise ValueError(f"oracle dimension cap {ARF_ORACLE_MAX_DIM} exceeded")
    if n % 2:
        raise ValueError("need even dimension")
    import numpy as np

    zeros = int(np.count_nonzero(_q_values(q) == 0))
    g = n // 2
    if zeros == (1 << (n - 1)) + (1 << (g - 1)):
        return 0
    if zeros == (1 << (n - 1)) - (1 << (g - 1)):
        return 1
    raise ArithmeticError("zero count matches neither Arf class")


def preserves_q(g: F2Operator, q: F2Quadratic) -> bool:
    """With form preservation, checking basis vectors suffices.  Up to
    Q_TABLE_MAX_DIM each column is looked up in q's cached level sets."""
    n = g.dim
    if n != q.form.dim:
        raise ValueError(
            f"operator dimension {n} does not match form dimension {q.form.dim}"
        )
    if n <= Q_TABLE_MAX_DIM:
        return all(map(frozenset.__contains__, q._level_sets, g.cols))
    return all(q_eval(q, c) == b for c, b in zip(g.cols, q.basis_values))


# ---------------------------------------------------------------------------
# Group closure and classification

CLOSURE_CAP = 2_000_000
CLOSURE_MAX_DIM = 8  # a column fits one uint8; an image table has 2^dim entries


class OperatorSequence:
    """The group of a stabilizer chain, held as its transversals (the
    levels of `_transversals`): a read-only sized iterable of F2Operators,
    each once, in chain order.

    ``len()`` is the product of the level lengths and builds nothing.
    Iteration imports numpy, enumerates the stabilizer of e_0 once as a
    uint8 column matrix (row k holds each element's image of e_k) and
    yields the operators one level-0 coset at a time.
    """

    __slots__ = ("_levels", "_dim")

    def __init__(self, levels, dim):
        self._levels = levels
        self._dim = dim

    def __len__(self):
        return math.prod(map(len, self._levels))

    def __iter__(self):
        import numpy as np

        dim = self._dim
        tables = [np.array([_images(u) for u in lv], np.uint8) for lv in self._levels]
        # an element applies the deepest level's transversal first
        cols = np.array([[1 << k] for k in range(dim)], dtype=np.uint8)
        for images in reversed(tables[1:]):
            cols = images.T[cols].reshape(dim, -1)
        for table in tables[0]:
            # tuple.__new__ skips the namedtuple's Python-level __new__
            ops = zip(repeat(dim), zip(*table[cols].tolist()))
            yield from map(tuple.__new__, repeat(F2Operator), ops)


def _transversals(gens, dim):
    """Transversals of a stabilizer chain, with base e_0..e_{dim-1}, of the
    group the column tuples `gens` generate (incremental Schreier-Sims).

    Level i maps each point p of the orbit of e_i under the stabilizer of
    e_0..e_{i-1} to the columns of an element u_p taking e_i to p and to
    the image table (`_images`) of its inverse.  Operators act on the
    right, v^g = g(v), and ``g * h`` applies g first.  Only strong
    generators are inverted by elimination: (u_p * s)^-1 is the table of
    s^-1 composed with that of u_p^-1.

    Each (orbit point, strong generator) pair of a level is taken once:
    it extends the orbit in place (a tree edge, trivial Schreier
    generator) or its Schreier generator is sifted through the deeper
    levels, and a residue stopping at level j joins the strong generators
    of the levels below the current one down to j.  Passed sifts stay
    valid, as transversals only grow.  The product of the orbit lengths
    bounds the order from below and is exact at the end; RuntimeError
    ("closure exceeded cap N") as soon as it passes N = CLOSURE_CAP.
    """
    orbits = [{1 << i: (tuple(1 << k for k in range(dim)), range(1 << dim))}
              for i in range(dim)]
    strong = [[] for _ in range(dim)]
    pending = [[] for _ in range(dim)]

    def sift(h, i):
        """(residue, level) of h fixing e_0..e_{i-1}, or (None, dim)."""
        for k in range(i, dim):
            p = h[k]
            if p != 1 << k:
                if p not in orbits[k]:
                    return h, k
                h = tuple(map(orbits[k][p][1].__getitem__, h))
        return None, dim

    def add(h, lo, hi):
        gen = (_images(h), _images(_inverse_cols(h)))
        for lv in range(lo, hi + 1):
            strong[lv].append(gen)
            pending[lv] += [(p, gen) for p in orbits[lv]]

    for g in gens:
        h, i = sift(g, 0)
        if h is None:
            continue
        add(h, 0, i)
        while i >= 0:
            if not pending[i]:
                i -= 1
                continue
            p, (image, inv) = pending[i].pop()
            orbit = orbits[i]
            u, u_inv = orbit[p]
            q = image[p]
            if q not in orbit:
                orbit[q] = (tuple(map(image.__getitem__, u)),
                            tuple(map(u_inv.__getitem__, inv)))
                pending[i] += [(q, gen) for gen in strong[i]]
                if math.prod(map(len, orbits)) > CLOSURE_CAP:
                    raise RuntimeError(f"closure exceeded cap {CLOSURE_CAP}")
                continue
            schreier = tuple(map(orbit[q][1].__getitem__, map(image.__getitem__, u)))
            h, j = sift(schreier, i + 1)
            if h is not None:
                add(h, i + 1, j)
                i = j
    if math.prod(map(len, orbits)) > CLOSURE_CAP:
        raise RuntimeError(f"closure exceeded cap {CLOSURE_CAP}")
    return [[u for u, _ in orbit.values()] for orbit in orbits]


def group_closure(gens):
    """The group generated by invertible operators, as an OperatorSequence
    over its stabilizer chain (`_transversals`); empty for no generators.

    ValueError for mixed dimensions, a dimension outside
    1..CLOSURE_MAX_DIM or a singular generator ("operator is singular"),
    and RuntimeError("closure exceeded cap N") for more than N =
    CLOSURE_CAP elements, checked from the chain's order.  Neither these
    checks nor ``len()`` import numpy; only iteration does.
    """
    gens = list(gens)
    if not gens:
        return OperatorSequence([[]], 0)
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("mixed dimensions")
    if dim > CLOSURE_MAX_DIM:
        raise ValueError(f"closure dimension cap {CLOSURE_MAX_DIM} exceeded")
    if dim < 1:
        raise ValueError("closure dimension must be >= 1")
    return OperatorSequence(_transversals([g.cols for g in gens], dim), dim)


def _is_non_special_tree(vecs, form):
    """Whether the intersection diagram of vecs is a spanning tree that is
    neither a chain nor a fork.

    A fork means: a tree with exactly one degree-3 node which has at
    least two leaf neighbours (the D-family shape).
    """
    n = len(vecs)
    adj = []
    for i, v in enumerate(vecs):
        image = form.gram_image(v)
        adj.append([j for j, w in enumerate(vecs) if j != i and _parity(image & w)])
    nedges = sum(len(a) for a in adj) // 2
    # connectivity
    stack, seen = [0], {0}
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    degs = [len(a) for a in adj]
    if len(seen) != n or nedges != n - 1 or max(degs) <= 2:
        return False  # not a spanning tree, or a chain
    hubs = [i for i, d in enumerate(degs) if d > 2]
    leaves = sum(degs[j] == 1 for j in adj[hubs[0]])
    return not (len(hubs) == 1 and degs[hubs[0]] == 3 and leaves >= 2)


def wajnryb_classify(gens, q: F2Quadratic) -> str:
    """Criterion-based verdict on the group generated by the transvections
    of the given vectors: a q-zero generator forces the full symplectic
    group; otherwise a spanning non-special tree diagram (tree, neither a
    chain nor a fork) forces the orthogonal group of q; anything else gets
    no claim."""
    vecs = list(gens)
    for v in vecs:
        _check_fits(v, q.form.dim)
    keep = _independent(vecs)
    if len(keep) != q.form.dim:
        raise ValueError("generators do not span")
    basis = [vecs[k] for k in keep]
    if any(q_eval(q, v) == 0 for v in vecs):
        return "full_symplectic"
    if _is_non_special_tree(basis, q.form):
        return "orthogonal_of_q"
    return "special_basis"


def cross_generators(space: CrossSpace):
    """All fibre-cycle transvection vectors: the basis plus the three
    omitted chain closers."""
    return [1 << i for i in range(space.dim)] + list(omitted_vectors(space).values())


def classify_cross(a, c):
    """Classification of the transvection group of the (a,c) fibre."""
    space = build_cross_space(a, c)
    q = quadratic_from_basis(space)
    verdict = wajnryb_classify(cross_generators(space), q)
    return {
        "a": a,
        "c": c,
        "dim": space.dim,
        "genus": space.dim // 2,
        "verdict": verdict,
        "method": "criterion-based",
        "arf": arf(q) if verdict == "orthogonal_of_q" else None,
    }


# ---------------------------------------------------------------------------
# Order oracles and the obstruction


def sp_group_order(g: int) -> int:
    """|Sp(2g, 2)| = 2^(g^2) * prod (4^i - 1)."""
    return (1 << g * g) * math.prod(4**i - 1 for i in range(1, g + 1))


def orthogonal_group_order(g: int, eps: int) -> int:
    """|O^eps(2g, 2)| = 2 * 2^(g(g-1)) * (2^g - eps) * prod (4^i - 1);
    eps = +1 for Arf 0, -1 for Arf 1."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return (
        2
        * (1 << g * (g - 1))
        * ((1 << g) - eps)
        * math.prod(4**i - 1 for i in range(1, g))
    )


def horizontal_obstruction(a, c, a2, c2):
    """Whether the Arf invariant obstructs a horizontal equivalence
    between the (a,c) and (a2,c2) fibrations."""
    if min(a, c, a2, c2) < 2:
        raise ValueError("parameters must be >= 2")
    if (a + c) % 2 or (a2 + c2) % 2:
        return {"verdict": "no_obstruction_full_symplectic"}
    if a + c == a2 + c2 and (a - a2) % 2:
        return {
            "verdict": "obstructed",
            "arf": (a % 2, a2 % 2),
        }
    return {"verdict": "no_obstruction_same_arf"}


def e6_form():
    """Dim-6 non-special tree diagram: a 5-chain with one extra node on
    its middle vertex."""
    return form_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
