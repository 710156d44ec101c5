"""Symplectic linear algebra over F2: the cross-shaped homology space of
the horizontal fibre, transvections, quadratic refinements, Arf invariants,
transvection-group classification and the horizontal-fibration obstruction.

Vectors and matrix rows are machine-int bitsets; dense numpy paths cover
the dimensions we ever enumerate (<= 8 for closure, <= 24 for the Arf
oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hurwitz import bfs_closure


def _parity(x: int) -> int:
    return x.bit_count() & 1


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


@dataclass(frozen=True)
class F2Vec:
    dim: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError("bits out of range for dimension")

    @classmethod
    def zero(cls, dim):
        return cls(dim, 0)

    @classmethod
    def basis(cls, i, dim):
        return cls(dim, 1 << i)

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return F2Vec(self.dim, self.bits ^ other.bits)

    __xor__ = __add__

    def __bool__(self):
        return self.bits != 0

    def support(self):
        return [i for i in range(self.dim) if (self.bits >> i) & 1]


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

    def pairing(self, u: F2Vec, v: F2Vec) -> int:
        acc = 0
        rem = u.bits
        while rem:
            i = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            acc ^= _parity(self.gram[i] & v.bits)
        return acc

    def rank(self):
        return len(_independent(self.gram))

    def is_nondegenerate(self):
        return self.rank() == self.dim


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


def q_eval(q: F2Quadratic, v: F2Vec) -> int:
    val = 0
    rem = v.bits
    while rem:
        i = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        val ^= q.basis_values[i]
        # cross terms (i, j) with j > i, both in the support
        val ^= _parity((q.form.gram[i] & v.bits) >> (i + 1))
    return val


@dataclass(frozen=True)
class F2Operator:
    """Linear map; cols[i] is the image of basis vector i as a bitset."""

    dim: int
    cols: tuple

    def apply(self, v: F2Vec) -> F2Vec:
        return F2Vec(self.dim, self.apply_bits(v.bits))

    def apply_bits(self, bits: int) -> int:
        out = 0
        rem = bits
        while rem:
            i = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            out ^= self.cols[i]
        return out

    @classmethod
    def identity(cls, dim):
        return cls(dim, tuple(1 << i for i in range(dim)))

    def __mul__(self, other):
        # left-to-right: apply self, then other
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return F2Operator(
            self.dim, tuple(other.apply_bits(c) for c in self.cols)
        )

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
        n = self.dim
        for i in range(n):
            gi = F2Vec(n, self.cols[i])
            for j in range(i + 1, n):
                if form.pairing(gi, F2Vec(n, self.cols[j])) != (
                    (form.gram[i] >> j) & 1
                ):
                    return False
        return True

    def conjugate(self, g):
        return g.inverse() * self * g


def transvection(u: F2Vec, form: F2BilinearForm) -> F2Operator:
    """T_u(v) = v + (u,v)u."""
    if not u:
        raise ValueError("transvection vector must be nonzero")
    cols = []
    for i in range(u.dim):
        e = F2Vec.basis(i, u.dim)
        cols.append(e.bits ^ (u.bits if form.pairing(u, e) else 0))
    return F2Operator(u.dim, tuple(cols))


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

    def basis_vec(self, label: str) -> F2Vec:
        return F2Vec.basis(self.index(label), self.dim)

    def vec(self, *labels) -> F2Vec:
        return reduce(lambda u, v: u + v, (self.basis_vec(s) for s in labels))


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
    n = form.dim
    rest = [F2Vec.basis(i, n) for i in range(n)]
    pairs = []
    while rest:
        e = rest.pop(0)
        if not e:
            continue
        j = next(
            (k for k, v in enumerate(rest) if form.pairing(e, v)), None
        )
        if j is None:
            raise ValueError("degenerate form")
        f = rest.pop(j)
        pairs.append((e, f))
        rest = [
            w
            + (e if form.pairing(w, f) else F2Vec.zero(n))
            + (f if form.pairing(w, e) else F2Vec.zero(n))
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
        f"{ch}{n + 1}": F2Vec(space.dim, inv.cols[space.index(f"{ch}{n}")])
        for ch, n in (("b", 2 * c - 2), ("c", 2 * a - 2), ("d", 2 * c - 2))
    }


def omitted_vector(label: str, space: CrossSpace) -> F2Vec:
    """One closer of `omitted_vectors`: b{2c-1}, c{2a-1} or d{2c-1}."""
    try:
        return omitted_vectors(space)[label]
    except KeyError:
        raise ValueError(f"unknown omitted-vector label {label!r}") from None


# ---------------------------------------------------------------------------
# Arf invariant


def arf(q: F2Quadratic) -> int:
    """Sum of q(e_i)q(f_i) over any symplectic basis; basis-independent."""
    return (
        sum(q_eval(q, e) & q_eval(q, f) for e, f in symplectic_basis(q.form))
        & 1
    )


ARF_ORACLE_MAX_DIM = 24


def arf_oracle(q: F2Quadratic) -> int:
    """Arf by exhaustive zero-counting: Arf 0 iff #zeros = 2^(2g-1)+2^(g-1).
    Dimensions above ARF_ORACLE_MAX_DIM are refused."""
    n = q.form.dim
    if n > ARF_ORACLE_MAX_DIM:
        raise ValueError(f"oracle dimension cap {ARF_ORACLE_MAX_DIM} exceeded")
    if n % 2:
        raise ValueError("need even dimension")
    vals = np.zeros(1, dtype=np.uint8)
    for k in range(n):
        # q(v + e_k) = q(v) + q(e_k) + (v, e_k) for v supported below bit k
        idx = np.arange(1 << k, dtype=np.uint64)
        low = np.uint64(q.form.gram[k] & ((1 << k) - 1))
        pair = (np.bitwise_count(idx & low) & 1).astype(np.uint8)
        vals = np.concatenate([vals, vals ^ q.basis_values[k] ^ pair])
    zeros = int(np.count_nonzero(vals == 0))
    g = n // 2
    if zeros == (1 << (n - 1)) + (1 << (g - 1)):
        return 0
    if zeros == (1 << (n - 1)) - (1 << (g - 1)):
        return 1
    raise ArithmeticError("zero count matches neither Arf class")


def preserves_q(g: F2Operator, q: F2Quadratic) -> bool:
    """With form preservation, checking basis vectors suffices."""
    n = g.dim
    return all(
        q_eval(q, F2Vec(n, g.cols[i])) == q.basis_values[i] for i in range(n)
    )


# ---------------------------------------------------------------------------
# Group closure and classification

CLOSURE_CAP = 2_000_000


def group_closure(gens, cap=CLOSURE_CAP):
    """Multiplicative closure of the generator set, in BFS order.

    Dimensions <= 8 take a packed-integer numpy path (one uint64 per
    operator, per-generator image tables); larger dimensions fall back to
    the generic `hurwitz.bfs_closure`, which gives the same order.
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


def _pack(op: F2Operator, dim: int) -> int:
    return sum(c << (dim * i) for i, c in enumerate(op.cols))


def _unpack(key: int, dim: int) -> F2Operator:
    mask = (1 << dim) - 1
    return F2Operator(dim, tuple((key >> (dim * i)) & mask for i in range(dim)))


def _closure_packed(gens, dim, cap):
    mask = np.uint64((1 << dim) - 1)
    shifts = [np.uint64(dim * i) for i in range(dim)]
    tables = []
    for g in gens:
        # t[x] = image bitset of x under g, built by subset doubling
        t = np.zeros(1, dtype=np.uint64)
        for i in range(dim):
            t = np.concatenate([t, t ^ np.uint64(g.cols[i])])
        tables.append(t)

    order = []
    seen = set()
    frontier = []
    for g in gens:
        k = _pack(g, dim)
        if k not in seen:
            seen.add(k)
            order.append(k)
            frontier.append(k)
    frontier = np.array(frontier, dtype=np.uint64)
    while frontier.size:
        cands = []
        for t in tables:
            out = np.zeros_like(frontier)
            for sh in shifts:
                out |= t[(frontier >> sh) & mask] << sh
            cands.append(out)
        fresh = []
        for k in np.unique(np.concatenate(cands)).tolist():
            if k not in seen:
                seen.add(k)
                order.append(k)
                fresh.append(k)
        if len(seen) > cap:
            raise RuntimeError("closure cap exceeded")
        frontier = np.array(fresh, dtype=np.uint64)
    return [_unpack(k, dim) for k in order]


def _diagram_shape(vecs, form):
    """(is_tree, is_chain, is_fork) for the intersection diagram of vecs.

    A fork means: a tree with exactly one degree-3 node which has at
    least two leaf neighbours (the D-family shape).
    """
    n = len(vecs)
    adj = [
        [j for j in range(n) if j != i and form.pairing(vecs[i], vecs[j])]
        for i in range(n)
    ]
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
    keep = _independent([v.bits for v in vecs])
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
    vecs = [F2Vec.basis(i, space.dim) for i in range(space.dim)]
    vecs += list(omitted_vectors(space).values())
    return vecs


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


def cross_arf(a, c) -> int:
    """Arf invariant of the (a,c) fibre's quadratic refinement."""
    return arf(quadratic_from_basis(build_cross_space(a, c)))


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
