import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from braidmf import f2sym
from braidmf.f2sym import (
    CLOSURE_CAP,
    F2BilinearForm,
    F2Operator,
    F2Quadratic,
    F2Vec,
    arf,
    arf_oracle,
    build_cross_space,
    classify_cross,
    cross_generators,
    e6_form,
    form_from_edges,
    group_closure,
    horizontal_obstruction,
    omitted_vectors,
    orthogonal_group_order,
    preserves_q,
    q_eval,
    quadratic_from_basis,
    sp_group_order,
    symplectic_basis,
    transvection,
    wajnryb_classify,
)
from oracles import form_rank, identity_operator


def _chain_form(n):
    return form_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _random_vec(rng, dim):
    return rng.randrange(1, 1 << dim)


def test_vec_arithmetic():
    # F2Vec only range-checks: a vector is its int bitset
    u = F2Vec(4, 0b0101)
    v = F2Vec(4, 0b0110)
    assert type(u) is int and u == 0b0101
    assert F2Vec.basis(2, 4) == 0b0100
    assert u ^ v == 0b0011
    assert [i for i in range(4) if (u >> i) & 1] == [0, 2]
    assert not F2Vec(4, 0)
    with pytest.raises(ValueError):
        F2Vec(2, 4)
    with pytest.raises(ValueError):
        F2Vec.basis(4, 4)


def test_form_validation():
    with pytest.raises(ValueError):
        F2BilinearForm(2, (0b01, 0b10))  # nonzero diagonal
    with pytest.raises(ValueError):
        F2BilinearForm(2, (0b10, 0b00))  # asymmetric
    # bit 2 lies beyond dim 2: no row mirrors it
    with pytest.raises(ValueError, match=r"^form must be symmetric$"):
        F2BilinearForm(2, (0b110, 0b001))
    with pytest.raises(ValueError, match=r"^form must be symmetric$"):
        F2BilinearForm(2, (-2, 0b001))
    f = form_from_edges(3, [(0, 1)])
    assert form_rank(f) == 2 and form_rank(f) != f.dim
    assert form_rank(_chain_form(4)) == 4


def test_pairing_bilinearity():
    rng = random.Random(31)
    f = _chain_form(6)
    for _ in range(100):
        u, v, w = (_random_vec(rng, 6) for _ in range(3))
        assert f.pairing(u, v) == f.pairing(v, u)
        assert f.pairing(u ^ v, w) == f.pairing(u, w) ^ f.pairing(v, w)


def test_q_eval_quadratic_law():
    rng = random.Random(32)
    form = _chain_form(6)
    q = quadratic_from_basis(form)
    for _ in range(200):
        u, v = _random_vec(rng, 6), _random_vec(rng, 6)
        assert q_eval(q, u ^ v) == q_eval(q, u) ^ q_eval(q, v) ^ form.pairing(u, v)
    assert q_eval(q, 0) == 0


def test_q_of_orthogonal_basis_sum_is_count_mod_2():
    # pairwise non-intersecting basis vectors of the chain: e_0, e_2, e_4
    form = _chain_form(6)
    q = quadratic_from_basis(form)
    for k, bits in ((1, 0b000001), (2, 0b000101), (3, 0b010101)):
        assert q_eval(q, bits) == k % 2


def test_hyperbolic_plane_arf():
    plane = form_from_edges(2, [(0, 1)])
    # q = 1 on both basis vectors: one zero value among x,y,x+y -> Arf 1
    assert arf(quadratic_from_basis(plane)) == 1
    assert arf(F2Quadratic(plane, (0, 0))) == 0
    assert arf(F2Quadratic(plane, (1, 0))) == 0
    for vals in ((1, 1), (0, 0), (0, 1)):
        q = F2Quadratic(plane, vals)
        assert arf(q) == arf_oracle(q)


def test_q_table_matches_q_eval():
    rng = random.Random(53)
    for dim in range(1, 13):
        for _ in range(4):
            edges = [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.5]
            q = F2Quadratic(
                form_from_edges(dim, edges), tuple(rng.randrange(2) for _ in range(dim))
            )
            table = f2sym._q_values(q)
            assert table.dtype == np.uint8 and table.size == 1 << dim
            assert table.tolist() == [q_eval(q, v) for v in range(1 << dim)]


@pytest.mark.parametrize("total", range(4, 8))
def test_arf_oracle_matches_arf_on_cross_spaces(total):
    # a + c = 4..7: dimensions 10, 14, 18 and 22
    for a in range(2, total - 1):
        q = quadratic_from_basis(build_cross_space(a, total - a))
        assert q.form.dim == 4 * total - 6
        assert arf_oracle(q) == arf(q)


def test_operator_algebra():
    rng = random.Random(33)
    form = _chain_form(6)
    for _ in range(100):
        u = _random_vec(rng, 6)
        t = transvection(u, form)
        assert (t * t).is_identity()
        assert t.is_symplectic(form)
        assert t.apply(u) == u
        assert (t * t.inverse()).is_identity()
    with pytest.raises(ValueError):
        transvection(0, form)
    singular = F2Operator(2, (1, 1))
    with pytest.raises(ValueError):
        singular.inverse()


def test_operator_composition_order():
    # left-to-right: (g*h)(v) = h(g(v))
    form = _chain_form(4)
    g = transvection(0b0011, form)
    h = transvection(0b0110, form)
    v = 0b1000
    assert (g * h).apply(v) == h.apply(g.apply(v))


def test_transvection_conjugation_formula():
    rng = random.Random(34)
    form = _chain_form(6)
    for _ in range(200):
        u, v = _random_vec(rng, 6), _random_vec(rng, 6)
        tu, tv = transvection(u, form), transvection(v, form)
        image = u ^ (v if form.pairing(u, v) else 0)
        assert tu.conjugate(tv) == transvection(image, form)


def test_group_closure_identity_and_small_groups():
    e = identity_operator(4)
    assert list(group_closure([e])) == [e]
    form = _chain_form(4)
    gens = [transvection(1 << i, form) for i in range(4)]
    closed = group_closure(gens)
    # q = 1 on the chain basis: these generate O(q), |O^-(4,2)| = 120
    assert len(closed) == 120
    q = quadratic_from_basis(form)
    assert all(g.is_symplectic(form) and preserves_q(g, q) for g in closed)
    # one q-zero transvection more gives all of Sp(4,2)
    zero_vec = 0b0101  # two orthogonal q-1 vectors
    assert q_eval(q, zero_vec) == 0
    full = group_closure(gens + [transvection(zero_vec, form)])
    assert len(full) == sp_group_order(2) == 720


def _reference_closure(gens, dim, cap):
    """The earlier packed closure, kept as the oracle: a Python set of
    seen keys and np.unique per BFS level."""
    mask = np.uint64((1 << dim) - 1)
    shifts = [np.uint64(dim * i) for i in range(dim)]
    tables = []
    for g in gens:
        t = np.zeros(1, dtype=np.uint64)
        for i in range(dim):
            t = np.concatenate([t, t ^ np.uint64(g.cols[i])])
        tables.append(t)
    order = []
    seen = set()
    frontier = []
    for g in gens:
        k = sum(c << (dim * i) for i, c in enumerate(g.cols))
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
            raise RuntimeError(f"closure exceeded cap {cap}")
        frontier = np.array(fresh, dtype=np.uint64)
    mask = (1 << dim) - 1
    return [tuple((k >> (dim * i)) & mask for i in range(dim)) for k in order]


def _assert_each_once(closure, want):
    """The closure yields exactly the column tuples `want`, each once;
    its order is not compared."""
    got = [g.cols for g in closure]
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(want)


def _random_generators(rng, dim):
    """A few transvections of a random (possibly degenerate) form, and
    sometimes a permutation matrix, the identity or a repeated generator."""
    edges = [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.5]
    form = form_from_edges(dim, edges)
    gens = [transvection(_random_vec(rng, dim), form) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.4:
        perm = rng.sample(range(dim), dim)
        gens.append(F2Operator(dim, tuple(1 << p for p in perm)))
    if rng.random() < 0.2:
        gens.append(identity_operator(dim))
    if rng.random() < 0.2:
        gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return gens


def test_packed_closure_matches_reference(monkeypatch):
    rng = random.Random(41)
    cap = 30_000
    closed = capped = 0
    for dim in range(1, 9):
        for _ in range(12):
            gens = _random_generators(rng, dim)
            monkeypatch.setattr(f2sym, "CLOSURE_CAP", cap)
            try:
                want = _reference_closure(gens, dim, cap)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=f"^{exc}$"):
                    group_closure(gens)
                capped += 1
                continue
            closed += 1
            _assert_each_once(group_closure(gens), want)
            # the cap raises exactly when the closure outgrows it
            for small in (len(want) - 1, len(want) // 2):
                with pytest.raises(RuntimeError, match=f"^closure exceeded cap {small}$"):
                    _reference_closure(gens, dim, small)
                monkeypatch.setattr(f2sym, "CLOSURE_CAP", small)
                with pytest.raises(RuntimeError, match=f"^closure exceeded cap {small}$"):
                    group_closure(gens)
            monkeypatch.setattr(f2sym, "CLOSURE_CAP", len(want))
            assert len(group_closure(gens)) == len(want)
    assert closed > 60 and capped > 0


def test_packed_closure_cap_message(monkeypatch):
    form = _chain_form(4)
    gens = [transvection(1 << i, form) for i in range(4)]
    monkeypatch.setattr(f2sym, "CLOSURE_CAP", 100)
    with pytest.raises(RuntimeError, match=r"^closure exceeded cap 100$"):
        group_closure(gens)
    monkeypatch.setattr(f2sym, "CLOSURE_CAP", 120)
    assert len(group_closure(gens)) == 120


def test_closure_refuses_dimensions_above_8(monkeypatch):
    gens = [transvection(1 << i, _chain_form(9)) for i in range(3)]
    # refused before numpy is imported: any numpy import here would raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match=r"^closure dimension cap 8 exceeded$"):
        group_closure(gens)
    with pytest.raises(ValueError, match=r"^mixed dimensions$"):
        group_closure([identity_operator(4), identity_operator(5)])
    with pytest.raises(ValueError, match=r"^mixed dimensions$"):
        group_closure([identity_operator(8), identity_operator(9)])


def test_closure_len_builds_no_operator(monkeypatch):
    form = e6_form()
    gens = [transvection(1 << i, form) for i in range(6)]

    def broken(dim, cols):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(f2sym, "F2Operator", broken)
    # nor is numpy imported: any numpy import here would raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert len(group_closure(gens)) == 51_840


def test_closure_sequence_matches_list_and_reference():
    rng = random.Random(47)
    checked = 0
    for dim in range(1, 7):
        for _ in range(6):
            gens = _random_generators(rng, dim)
            try:
                want = _reference_closure(gens, dim, 5_000)
            except RuntimeError:
                continue
            checked += 1
            c = group_closure(gens)
            ops = list(c)
            _assert_each_once(ops, want)
            assert list(c) == ops  # a second iteration gives the same
            assert len(c) == len(ops) and list(group_closure(gens)) == ops
    assert checked > 20
    e = identity_operator(3)
    assert list(group_closure([e])) == [e]
    assert list(group_closure([e, e])) == [e]
    none = group_closure([])
    assert isinstance(none, f2sym.OperatorSequence)
    assert len(none) == 0 and list(none) == []


def _checked_closure_size(gens):
    """|<gens>|, after checking the closure against the reference, each
    element once."""
    closure = group_closure(gens)
    _assert_each_once(closure, _reference_closure(gens, gens[0].dim, CLOSURE_CAP))
    return len(closure)


@pytest.mark.parametrize("n", range(2, 8))
def test_chain_closure_is_symmetric_group(n):
    # the basis transvections of an n-chain generate S_{n+1}
    gens = [transvection(1 << i, _chain_form(n)) for i in range(n)]
    assert _checked_closure_size(gens) == math.factorial(n + 1)


def test_e6_closure_is_orthogonal_minus():
    gens = [transvection(1 << i, e6_form()) for i in range(6)]
    assert _checked_closure_size(gens) == orthogonal_group_order(3, -1) == 51_840


@pytest.mark.parametrize("values, arf_bit", [((1, 1, 1, 1), 1), ((1, 0, 1, 1), 0)])
def test_sp4_closure_in_both_arf_classes(values, arf_bit):
    form = _chain_form(4)
    q = F2Quadratic(form, values)
    assert arf(q) == arf_bit
    ones = [v for v in range(1, 16) if q_eval(q, v) == 1]
    zero = next(v for v in range(1, 16) if q_eval(q, v) == 0)
    # the q-one transvections lie in O(q); one q-zero transvection more
    # gives all of Sp(4,2)
    o_gens = [transvection(v, form) for v in ones]
    _checked_closure_size(o_gens)
    sp_gens = [*o_gens, transvection(zero, form)]
    assert _checked_closure_size(sp_gens) == sp_group_order(2)


def test_closure_yields_each_element_once():
    form = e6_form()
    gens = [transvection(1 << i, form) for i in range(6)]
    sp6 = [*gens, transvection(0b101, form)]
    for group, order in ((gens, 51_840), (sp6, 1_451_520)):
        closure = group_closure(group)
        # one little-endian uint64 key per element, column i in byte i
        packed = b"".join(bytes(g.cols + (0, 0)) for g in closure)
        keys = np.sort(np.frombuffer(packed, dtype="<u8"))
        assert len(closure) == keys.size == order
        assert bool(np.all(keys[1:] > keys[:-1]))


def test_closure_refuses_dimension_0(monkeypatch):
    def build(*args):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(f2sym, "_transversals", build)
    with pytest.raises(ValueError, match=r"^closure dimension must be >= 1$"):
        group_closure([F2Operator(0, ())])


_ITERATION_DIGEST = """
import hashlib
from braidmf.f2sym import e6_form, group_closure, transvection
gens = [transvection(1 << i, e6_form()) for i in range(6)]
print(hashlib.sha256(repr([g.cols for g in group_closure(gens)]).encode()).hexdigest())
"""


def test_closure_order_does_not_depend_on_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", _ITERATION_DIGEST],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_closure_refuses_a_singular_generator():
    form = _chain_form(3)
    singular = F2Operator(3, (1, 1, 4))
    for gens in ([singular], [transvection(1, form), singular]):
        with pytest.raises(ValueError, match=r"^operator is singular$"):
            group_closure(gens)


def test_closure_cap_is_checked_from_the_order(monkeypatch):
    # E8 diagram: a 7-chain with one node on its third vertex; its basis
    # transvections and one q-zero transvection generate Sp(8,2), of
    # 47,377,612,800 elements, far above the cap
    form = form_from_edges(8, [(i, i + 1) for i in range(6)] + [(2, 7)])
    q = quadratic_from_basis(form)
    assert q_eval(q, 0b101) == 0
    assert wajnryb_classify([*(1 << i for i in range(8)), 0b101], q) == "full_symplectic"
    gens = [transvection(v, form) for v in (*(1 << i for i in range(8)), 0b101)]
    # refused before numpy is imported: any numpy import here would raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(RuntimeError, match=f"^closure exceeded cap {CLOSURE_CAP}$"):
        group_closure(gens)
    # just below the exact order, and a trivial group that grows no orbit
    e6 = [transvection(1 << i, e6_form()) for i in range(6)]
    monkeypatch.setattr(f2sym, "CLOSURE_CAP", 51_839)
    with pytest.raises(RuntimeError, match=r"^closure exceeded cap 51839$"):
        group_closure(e6)
    monkeypatch.setattr(f2sym, "CLOSURE_CAP", 0)
    with pytest.raises(RuntimeError, match=r"^closure exceeded cap 0$"):
        group_closure([identity_operator(3)])


def test_operator_is_a_tuple_of_dim_and_cols():
    op = F2Operator(2, (1, 3))
    assert repr(op) == "F2Operator(dim=2, cols=(1, 3))"
    assert op == F2Operator(2, (1, 3)) and op is not F2Operator(2, (1, 3))
    assert hash(op) == hash(F2Operator(2, (1, 3))) == hash((2, (1, 3)))
    assert op != F2Operator(2, (3, 1)) and op != F2Operator(3, (1, 3))
    # documented side effects of being a tuple
    assert op == (2, (1, 3)) and len(op) == 2
    assert (op.dim, op.cols) == tuple(op)


def _preserves_q_by_definition(g, q):
    n = g.dim
    return all(
        q_eval(q, g.cols[i]) == q_eval(q, 1 << i)
        for i in range(n)
    )


def test_preserves_q_matches_q_eval():
    rng = random.Random(43)
    form = _chain_form(4)
    sp4 = group_closure(
        [transvection(1 << i, form) for i in range(4)]
        + [transvection(0b0101, form)]
    )
    for values in ((1, 1, 1, 1), (1, 0, 1, 0), (0, 0, 0, 0)):
        q = F2Quadratic(form, values)
        verdicts = [preserves_q(g, q) for g in sp4]
        assert verdicts == [_preserves_q_by_definition(g, q) for g in sp4]
        assert sum(verdicts) in (72, 120)
    # random operators, dims 1..8 against random refinements
    for dim in range(1, 9):
        form = form_from_edges(
            dim, [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.5]
        )
        q = F2Quadratic(form, tuple(rng.randrange(2) for _ in range(dim)))
        for _ in range(200):
            g = F2Operator(dim, tuple(rng.randrange(1 << dim) for _ in range(dim)))
            assert preserves_q(g, q) == _preserves_q_by_definition(g, q)
    # above the table's dimension preserves_q evaluates q directly
    space = build_cross_space(2, 2)
    q = quadratic_from_basis(space)
    for v in cross_generators(space):
        t = transvection(v, space.form)
        assert preserves_q(t, q) == _preserves_q_by_definition(t, q)
        assert preserves_q(t, q) == (q_eval(q, v) == 1)


def test_group_order_oracles():
    assert sp_group_order(1) == 6
    assert sp_group_order(2) == 720
    assert sp_group_order(3) == 1_451_520
    assert orthogonal_group_order(2, +1) == 72
    assert orthogonal_group_order(2, -1) == 120
    assert orthogonal_group_order(3, -1) == 51_840
    assert orthogonal_group_order(3, +1) == 40_320
    with pytest.raises(ValueError):
        orthogonal_group_order(2, 0)


def test_cross_space_shape():
    space = build_cross_space(2, 2)
    assert space.dim == 10
    assert space.labels[0] == "s"
    assert form_rank(space.form) == space.dim
    # s meets the first cycle of each chain, once
    for ch in "abcd":
        assert space.form.pairing(space.vec("s"), space.vec(f"{ch}1")) == 1
    with pytest.raises(ValueError):
        build_cross_space(1, 2)


def test_symplectic_basis_is_symplectic():
    for a, c in ((2, 2), (2, 3), (3, 3)):
        space = build_cross_space(a, c)
        pairs = symplectic_basis(space.form)
        assert len(pairs) == space.dim // 2
        flat = [v for pair in pairs for v in pair]
        for i, u in enumerate(flat):
            for j, v in enumerate(flat):
                want = 1 if (i // 2 == j // 2 and i != j) else 0
                assert space.form.pairing(u, v) == want


def test_omitted_vectors_pairings():
    for a, c in ((2, 2), (3, 2), (2, 4)):
        space = build_cross_space(a, c)
        omitted = omitted_vectors(space)
        # each closer meets the last kept member of its chain once and
        # nothing else in the basis
        for ch, last in (("b", f"b{2*c-2}"), ("c", f"c{2*a-2}"), ("d", f"d{2*c-2}")):
            v = omitted[f"{ch}{2 * (c if ch in 'bd' else a) - 1}"]
            for lbl in space.labels:
                want = 1 if lbl == last else 0
                assert space.form.pairing(v, space.vec(lbl)) == want


def test_omitted_b_closer_q_value():
    # q(b-closer) = 0 iff a+c odd
    for a in range(2, 5):
        for c in range(2, 5):
            space = build_cross_space(a, c)
            q = quadratic_from_basis(space)
            v = omitted_vectors(space)[f"b{2 * c - 1}"]
            assert q_eval(q, v) == ((a + c + 1) % 2)


def test_cross_arf_parity():
    for a, c in ((2, 2), (3, 3), (2, 4), (3, 5)):
        assert arf(quadratic_from_basis(build_cross_space(a, c))) == a % 2


def test_wajnryb_chain_is_special():
    form = _chain_form(4)
    q = quadratic_from_basis(form)
    vecs = [1 << i for i in range(4)]
    assert wajnryb_classify(vecs, q) == "special_basis"


def test_wajnryb_q_zero_forces_full():
    form = _chain_form(4)
    q = quadratic_from_basis(form)
    vecs = [1 << i for i in range(4)] + [0b0101]
    assert wajnryb_classify(vecs, q) == "full_symplectic"


def test_wajnryb_nonspecial_tree():
    q = quadratic_from_basis(e6_form())
    vecs = [1 << i for i in range(6)]
    assert wajnryb_classify(vecs, q) == "orthogonal_of_q"
    with pytest.raises(ValueError):
        wajnryb_classify(vecs[:5], q)  # does not span


@pytest.mark.parametrize(
    "dim,edges,verdict",
    [
        (4, [(0, 1), (0, 2), (0, 3)], "special_basis"),  # D4 star
        (5, [(0, 1), (1, 2), (2, 3), (2, 4)], "special_basis"),  # D5
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], "special_basis"),  # 4-cycle
        (4, [(0, 1), (2, 3)], "special_basis"),  # two disjoint edges
        (1, [], "special_basis"),  # one vertex
        # a triangle with a tail has a degree-3 node, a cycle and n edges;
        # beside a lone vertex it has n-1 edges but is not connected
        (4, [(0, 1), (1, 2), (2, 0), (2, 3)], "special_basis"),
        (5, [(0, 1), (1, 2), (2, 0), (2, 3)], "special_basis"),
        # two degree-3 nodes
        (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)], "orthogonal_of_q"),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], "orthogonal_of_q"),  # cross
        # E7: a chain of six with a seventh node on its third
        (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)], "orthogonal_of_q"),
    ],
)
def test_wajnryb_diagram_shapes(dim, edges, verdict):
    q = quadratic_from_basis(form_from_edges(dim, edges))
    assert wajnryb_classify([1 << i for i in range(dim)], q) == verdict


def test_cross_space_dimension_cap(monkeypatch):
    with pytest.raises(RuntimeError, match=r"^cross space dimension 1002 exceeds cap 1000$"):
        build_cross_space(126, 126)
    # the cap is read at each call; the form is never built above it
    monkeypatch.setattr(f2sym, "CROSS_MAX_DIM", 10)
    assert build_cross_space(2, 2).dim == 10
    monkeypatch.setattr(f2sym, "form_from_edges", None)
    with pytest.raises(RuntimeError, match=r"^cross space dimension 14 exceeds cap 10$"):
        build_cross_space(2, 3)


def test_classify_cross():
    info = classify_cross(2, 3)  # a+c odd: some generator has q = 0
    assert info["verdict"] == "full_symplectic"
    assert info["dim"] == 14 and info["genus"] == 7
    # the generator set really contains a q-zero vector iff a+c odd
    for a, c in ((2, 2), (2, 3), (3, 3)):
        space = build_cross_space(a, c)
        q = quadratic_from_basis(space)
        has_zero = any(q_eval(q, v) == 0 for v in cross_generators(space))
        assert has_zero == ((a + c) % 2 == 1)


def test_horizontal_obstruction():
    assert horizontal_obstruction(2, 3, 3, 2)["verdict"] == "no_obstruction_full_symplectic"
    assert horizontal_obstruction(2, 4, 3, 3)["verdict"] == "obstructed"
    assert horizontal_obstruction(2, 4, 4, 2)["verdict"] == "no_obstruction_same_arf"
    with pytest.raises(ValueError):
        horizontal_obstruction(1, 2, 2, 2)


def test_b_closer_formula():
    # the b-chain closer is the sum of the odd a-cycles and the odd b-cycles
    for a in range(2, 7):
        for c in range(2, 7):
            space = build_cross_space(a, c)
            parts = [f"a{k}" for k in range(1, 2 * a, 2)]
            parts += [f"b{k}" for k in range(1, 2 * c - 2, 2)]
            assert omitted_vectors(space)[f"b{2 * c - 1}"] == space.vec(*parts)


def test_rank_is_dim_minus_radical():
    rng = random.Random(11)
    for n in range(1, 9):
        for _ in range(25):
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ]
            form = form_from_edges(n, edges)
            # the radical {v : G v = 0}, counted by enumeration
            radical = sum(
                not any((row & v).bit_count() & 1 for row in form.gram)
                for v in range(1 << n)
            )
            assert radical == 1 << (n - form_rank(form))


def _pairing_by_support(form, u, v):
    """The earlier pairing, kept as the oracle: one parity per bit of u."""
    acc = 0
    rem = u
    while rem:
        i = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        acc ^= (form.gram[i] & v).bit_count() & 1
    return acc


def _q_by_definition(q, v):
    """q(v): q(e_i) summed over the support of v, plus (e_i, e_j) over
    each pair i < j in it."""
    support = [i for i in range(q.form.dim) if (v >> i) & 1]
    val = sum(q.basis_values[i] for i in support)
    val += sum((q.form.gram[i] >> j) & 1 for i in support for j in support if i < j)
    return val & 1


def test_gram_image_matches_support_walk_oracles():
    # random forms of dims 1..12, degenerate ones included
    rng = random.Random(51)
    seen = dict.fromkeys(("symplectic", "not symplectic", "paired", "degenerate"), 0)
    for dim in range(1, 13):
        for _ in range(20):
            form = form_from_edges(
                dim, [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.5]
            )
            q = F2Quadratic(form, tuple(rng.randrange(2) for _ in range(dim)))
            for _ in range(20):
                u, v = rng.randrange(1 << dim), rng.randrange(1 << dim)
                want = _pairing_by_support(form, u, v)
                assert form.pairing(u, v) == want
                assert (form.gram_image(u) & v).bit_count() & 1 == want
                assert q_eval(q, u) == _q_by_definition(q, u)
            # T_u(e_i) = e_i + (u, e_i) u
            u = _random_vec(rng, dim)
            t = transvection(u, form)
            assert t.dim == dim
            for i in range(dim):
                flip = _pairing_by_support(form, u, 1 << i)
                assert t.cols[i] == (1 << i) ^ (u if flip else 0)
            random_op = F2Operator(dim, tuple(rng.randrange(1 << dim) for _ in range(dim)))
            for g in (t * transvection(_random_vec(rng, dim), form), random_op):
                want = all(
                    _pairing_by_support(form, g.cols[i], g.cols[j]) == (form.gram[i] >> j) & 1
                    for i in range(dim)
                    for j in range(i + 1, dim)
                )
                assert g.is_symplectic(form) == want
                seen["symplectic" if want else "not symplectic"] += 1
            if form_rank(form) < dim:
                with pytest.raises(ValueError, match="degenerate form"):
                    symplectic_basis(form)
                seen["degenerate"] += 1
                continue
            # (e_i, f_j) = delta_ij, and the e's and the f's pair to zero
            flat = [w for pair in symplectic_basis(form) for w in pair]
            assert len(flat) == dim
            for i, x in enumerate(flat):
                for j, y in enumerate(flat):
                    want = 1 if (i // 2 == j // 2 and i != j) else 0
                    assert _pairing_by_support(form, x, y) == want
            seen["paired"] += 1
    assert min(seen.values()) > 0, seen


def test_transvection_rejects_vectors_beyond_the_form():
    # a vector below 2^dim is a vector of the form's space, whatever its
    # top bit: the operator has the form's dimension
    t = transvection(0b0011, e6_form())
    assert t.dim == 6 and t.is_symplectic(e6_form())
    for u, form in ((1 << 6, e6_form()), (0b10000000, _chain_form(4))):
        want = (
            f"^transvection vector of dimension {u.bit_length()} "
            f"does not fit form dimension {form.dim}$"
        )
        with pytest.raises(ValueError, match=want):
            transvection(u, form)
    with pytest.raises(ValueError, match="nonzero"):
        transvection(-1, e6_form())


def test_preserves_q_rejects_dimension_mismatch():
    q6 = quadratic_from_basis(e6_form())
    q10 = quadratic_from_basis(build_cross_space(2, 2))
    # both sides of Q_TABLE_MAX_DIM
    for g, q in ((identity_operator(4), q6), (identity_operator(12), q10)):
        want = f"^operator dimension {g.dim} does not match form dimension {q.form.dim}$"
        with pytest.raises(ValueError, match=want):
            preserves_q(g, q)
    assert preserves_q(identity_operator(6), q6)
    assert preserves_q(identity_operator(10), q10)


def test_is_symplectic_rejects_dimension_mismatch():
    for n, form in ((4, e6_form()), (8, _chain_form(4))):
        want = f"^operator dimension {n} does not match form dimension {form.dim}$"
        with pytest.raises(ValueError, match=want):
            identity_operator(n).is_symplectic(form)
    assert identity_operator(6).is_symplectic(e6_form())


def test_quadratic_rejects_values_outside_f2():
    plane = form_from_edges(2, [(0, 1)])
    for values in ((2, 1), (0, -1), (1, 3)):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            F2Quadratic(plane, values)
    # nor can a built refinement take them: its fields cannot be assigned
    q = quadratic_from_basis(plane)
    with pytest.raises(AttributeError):
        q.basis_values = (2, 1)
    assert q.basis_values == (1, 1)


def test_q_eval_and_classify_reject_vectors_beyond_the_form():
    q = quadratic_from_basis(e6_form())
    want = "^vector of dimension 8 does not fit form dimension 6$"
    with pytest.raises(ValueError, match=want):
        q_eval(q, 1 << 7)
    # six independent vectors pass the span check; 64 lies outside the form,
    # and with it seven would fail that check under a wrong message
    want = "^vector of dimension 7 does not fit form dimension 6$"
    for gens in ([1, 2, 4, 8, 16, 64], [1, 2, 4, 8, 16, 32, 64]):
        with pytest.raises(ValueError, match=want):
            wajnryb_classify(gens, q)
    with pytest.raises(ValueError, match="^vector -1 is negative$"):
        q_eval(q, -1)
    assert q_eval(q, (1 << 6) - 1) in (0, 1)
