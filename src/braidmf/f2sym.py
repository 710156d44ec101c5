"""Symplectic linear algebra over F2: the cross-shaped homology space of
the horizontal fibre, transvections, quadratic refinements, Arf invariants,
transvection-group classification and the horizontal-fibration obstruction.

A vector of F2^n is a plain int bitset, and so are Gram rows and operator
columns.  The one pairing primitive is `F2BilinearForm.gram_image`: with
it, (u, v) = parity(gram_image(u) & v).  Dense numpy paths cover the
dimensions we ever enumerate (<= 8 for closure, <= 24 for the Arf oracle).
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor

import numpy as np

from .hurwitz import bfs_closure


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


@dataclass(frozen=True)
class F2BilinearForm:
    """Alternating symmetric form; gram rows stored as int bitsets."""

    dim: int
    gram: tuple

    def __post_init__(self):
        if len(self.gram) != self.dim:
            raise ValueError("gram must have dim rows")
        for i, row in enumerate(self.gram):
            if (row >> i) & 1:
                raise ValueError("form must be alternating (zero diagonal)")
            for j in range(self.dim):
                if ((row >> j) & 1) != ((self.gram[j] >> i) & 1):
                    raise ValueError("form must be symmetric")

    def gram_image(self, u: int) -> int:
        """G u, the XOR of the Gram rows on u's support: bit j is (u, e_j),
        so (u, v) = parity(gram_image(u) & v)."""
        return _combine(self.gram, u)

    def pairing(self, u: int, v: int) -> int:
        return _parity(self.gram_image(u) & v)

    def rank(self):
        return len(_independent(self.gram))


def form_from_edges(dim, edges):
    """The intersection form of a diagram: (i,j) pair to 1 per listed edge."""
    gram = [0] * dim
    for i, j in edges:
        if i == j:
            raise ValueError("no loops allowed")
        gram[i] |= 1 << j
        gram[j] |= 1 << i
    return F2BilinearForm(dim, tuple(gram))


@dataclass(frozen=True)
class F2Quadratic:
    """Quadratic refinement determined by its values on the basis:
    q(u+v) = q(u) + q(v) + (u,v)."""

    form: F2BilinearForm
    basis_values: tuple

    def __post_init__(self):
        if len(self.basis_values) != self.form.dim:
            raise ValueError("need one value per basis vector")
        if any(b not in (0, 1) for b in self.basis_values):
            raise ValueError("q values on the basis must be 0 or 1")

    @cached_property
    def _level_sets(self) -> tuple:
        """For each basis index i, the bitsets v with q(v) = q(e_i); built
        from the value table on first use (dimensions <= Q_TABLE_MAX_DIM)."""
        vals = _q_values(self)
        return tuple(
            frozenset(np.flatnonzero(vals == b).tolist()) for b in self.basis_values
        )


def q_eval(q: F2Quadratic, v: int) -> int:
    val = 0
    rem = v
    while rem:
        i = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        val ^= q.basis_values[i]
        # cross terms (i, j) with j > i, both in the support
        val ^= _parity(q.form.gram[i] & rem)
    return val


@dataclass(frozen=True, slots=True)
class F2Operator:
    """Linear map; cols[i] is the image of basis vector i as a bitset."""

    dim: int
    cols: tuple

    def apply(self, v: int) -> int:
        return _combine(self.cols, v)

    @classmethod
    def identity(cls, dim):
        return cls(dim, tuple(1 << i for i in range(dim)))

    def __mul__(self, other):
        # left-to-right: apply self, then other
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return F2Operator(self.dim, tuple(map(other.apply, self.cols)))

    def inverse(self):
        n = self.dim
        rows = list(self.cols)
        inv = [1 << i for i in range(n)]
        r = 0
        for col in range(n):
            piv = next((k for k in range(r, n) if (rows[k] >> col) & 1), None)
            if piv is None:
                raise ValueError("operator is singular")
            rows[r], rows[piv] = rows[piv], rows[r]
            inv[r], inv[piv] = inv[piv], inv[r]
            for k in range(n):
                if k != r and (rows[k] >> col) & 1:
                    rows[k] ^= rows[r]
                    inv[k] ^= inv[r]
            r += 1
        # rows of the inverse in column form: the reduced system is I,
        # so inv now holds coordinates of e_col in the old basis
        return F2Operator(n, tuple(inv))

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
    if u >> n:
        raise ValueError(
            f"transvection vector of dimension {u.bit_length()} "
            f"does not fit form dimension {n}"
        )
    image = form.gram_image(u)
    return F2Operator(
        n, tuple((1 << i) ^ (u if (image >> i) & 1 else 0) for i in range(n))
    )


# ---------------------------------------------------------------------------
# The cross space


@dataclass(frozen=True)
class CrossSpace:
    """Homology of the horizontal fibre: four chains a, b, c, d of cycles
    joined through the central cycle s.  Chain lengths 2a-1, 2c-2, 2a-2,
    2c-2; dim = 4(a+c) - 6 = twice the fibre genus."""

    a: int
    c: int
    labels: tuple
    form: F2BilinearForm

    @property
    def dim(self):
        return self.form.dim

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def basis_vec(self, label: str) -> int:
        return 1 << self.index(label)

    def vec(self, *labels) -> int:
        return reduce(xor, map(self.basis_vec, labels))


def build_cross_space(a, c) -> CrossSpace:
    if a < 2 or c < 2:
        raise ValueError("cross space needs a, c >= 2")
    chains = {
        "a": 2 * a - 1,
        "b": 2 * c - 2,
        "c": 2 * a - 2,
        "d": 2 * c - 2,
    }
    labels = ["s"]
    for ch, ln in chains.items():
        labels += [f"{ch}{k}" for k in range(1, ln + 1)]
    dim = len(labels)
    assert dim == 4 * (a + c) - 6
    edges = []
    for ch, ln in chains.items():
        idx = [labels.index(f"{ch}{k}") for k in range(1, ln + 1)]
        edges.append((0, idx[0]))  # s meets each chain's first cycle once
        edges += list(zip(idx, idx[1:]))
    return CrossSpace(a, c, tuple(labels), form_from_edges(dim, edges))


def symplectic_basis(space_or_form):
    """F2 Gram-Schmidt: hyperbolic pairs (e_i, f_i) with (e_i,f_j)=delta_ij."""
    form = getattr(space_or_form, "form", space_or_form)
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


def quadratic_from_basis(space_or_form, values=None) -> F2Quadratic:
    """The quadratic refinement with q = 1 on every basis vector (the
    geometric q of the fibre), unless other values are given."""
    form = getattr(space_or_form, "form", space_or_form)
    if values is None:
        values = (1,) * form.dim
    return F2Quadratic(form, tuple(values))


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
    vals = np.zeros(1, dtype=np.uint8)
    for k in range(q.form.dim):
        # q(v + e_k) = q(v) + q(e_k) + (v, e_k) for v supported below bit k
        idx = np.arange(1 << k, dtype=np.uint64)
        low = np.uint64(q.form.gram[k] & ((1 << k) - 1))
        pair = (np.bitwise_count(idx & low) & 1).astype(np.uint8)
        vals = np.concatenate([vals, vals ^ q.basis_values[k] ^ pair])
    return vals


def arf_oracle(q: F2Quadratic) -> int:
    """Arf by exhaustive zero-counting: Arf 0 iff #zeros = 2^(2g-1)+2^(g-1).
    Dimensions above ARF_ORACLE_MAX_DIM are refused."""
    n = q.form.dim
    if n > ARF_ORACLE_MAX_DIM:
        raise ValueError(f"oracle dimension cap {ARF_ORACLE_MAX_DIM} exceeded")
    if n % 2:
        raise ValueError("need even dimension")
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


def group_closure(gens, cap=CLOSURE_CAP):
    """Multiplicative closure of the generator set, in BFS order.

    Both paths start with the distinct generators in the given order and
    raise RuntimeError("closure exceeded cap N") when the closure has more
    than `cap` elements; they give the same set but not the same order.
    Dimensions <= 8 take a packed numpy path (one uint64 per operator,
    per-generator image tables), which lists each later BFS level in
    increasing packed-key order (column i in bits dim*i and up).  Larger
    dimensions take the generic `hurwitz.bfs_closure`, which lists each
    level in discovery order (frontier element, then generator).
    """
    gens = list(gens)
    if not gens:
        return []
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("mixed dimensions")
    if dim <= 8:
        return _closure_packed(gens, dim, cap)
    return bfs_closure(gens, cap)


def _closure_packed(gens, dim, cap):
    """Level BFS on sorted uint64 key arrays: each level's images are
    sorted and deduplicated, and `searchsorted` against the sorted seen
    keys keeps the new ones, so each level comes out sorted."""
    mask = np.uint64((1 << dim) - 1)
    shifts = np.arange(0, dim * dim, dim, dtype=np.uint64)
    tables = []
    for g in gens:
        # t[x] = image bitset of x under g, built by subset doubling; row i
        # holds it shifted into column i's place in a packed key
        t = np.zeros(1, dtype=np.uint64)
        for i in range(dim):
            t = np.concatenate([t, t ^ np.uint64(g.cols[i])])
        tables.append(t << shifts[:, None])

    first = dict.fromkeys(
        sum(c << (dim * i) for i, c in enumerate(g.cols)) for g in gens
    )
    frontier = np.array(list(first), dtype=np.uint64)
    levels = [frontier]
    seen = np.sort(frontier)
    while frontier.size:
        digits = [((frontier >> sh) & mask).astype(np.intp) for sh in shifts]
        cands = []
        for t in tables:
            out = t[0][digits[0]]
            for row, d in zip(t[1:], digits[1:]):
                out |= row[d]
            cands.append(out)
        # sort plus an adjacent-difference mask, not np.unique: on 3M uint64
        # keys np.unique takes 4.4 s and this 0.06 s (numpy 2.4.6)
        cands = np.sort(np.concatenate(cands))
        cands = cands[np.concatenate(([True], cands[1:] != cands[:-1]))]
        pos = np.searchsorted(seen, cands)
        known = seen[np.minimum(pos, seen.size - 1)] == cands
        fresh = cands[~known]
        seen = np.insert(seen, pos[~known], fresh)
        if seen.size > cap:
            raise RuntimeError(f"closure exceeded cap {cap}")
        levels.append(fresh)
        frontier = fresh
    return _unpack(np.concatenate(levels), dim)


def _unpack(keys, dim):
    """F2Operators of an array of packed keys, in order."""
    mask = np.uint64((1 << dim) - 1)
    cols = [((keys >> np.uint64(dim * i)) & mask).tolist() for i in range(dim)]
    # The operators hold no reference cycles, but while the list grows the
    # cyclic GC would rescan it on every older-generation pass.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [F2Operator(dim, c) for c in zip(*cols)]
    finally:
        if enabled:
            gc.enable()


def _diagram_shape(vecs, form):
    """(is_tree, is_chain, is_fork) for the intersection diagram of vecs.

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
    is_tree = len(seen) == n and nedges == n - 1
    degs = [len(a) for a in adj]
    is_chain = is_tree and max(degs) <= 2
    forks = [i for i, d in enumerate(degs) if d == 3]
    is_fork = (
        is_tree
        and max(degs) == 3
        and len(forks) == 1
        and sum(1 for j in adj[forks[0]] if degs[j] == 1) >= 2
    )
    return is_tree, is_chain, is_fork


def wajnryb_classify(gens, q: F2Quadratic) -> str:
    """Criterion-based verdict on the group generated by the transvections
    of the given vectors: a q-zero generator forces the full symplectic
    group; otherwise a spanning non-special tree diagram (tree, neither a
    chain nor a fork) forces the orthogonal group of q; anything else gets
    no claim."""
    vecs = list(gens)
    keep = _independent(vecs)
    if len(keep) != q.form.dim:
        raise ValueError("generators do not span")
    basis = [vecs[k] for k in keep]
    if any(q_eval(q, v) == 0 for v in vecs):
        return "full_symplectic"
    is_tree, is_chain, is_fork = _diagram_shape(basis, q.form)
    if is_tree and not is_chain and not is_fork:
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
