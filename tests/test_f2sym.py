import random

import pytest

from braidmf import (
    F2BilinearForm,
    F2Operator,
    F2Quadratic,
    F2Vec,
    arf,
    arf_oracle,
    build_cross_space,
    classify_cross,
    cross_arf,
    group_closure,
    horizontal_obstruction,
    omitted_vector,
    orthogonal_group_order,
    preserves_q,
    q_eval,
    quadratic_from_basis,
    sp_group_order,
    symplectic_basis,
    transvection,
    wajnryb_classify,
)
from braidmf.f2sym import (
    cross_generators,
    e6_form,
    form_from_edges,
    omitted_vectors,
)


def _chain_form(n):
    return form_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _random_vec(rng, dim):
    return F2Vec(dim, rng.randrange(1, 1 << dim))


def test_vec_arithmetic():
    u = F2Vec(4, 0b0101)
    v = F2Vec(4, 0b0110)
    assert (u + v).bits == 0b0011
    assert u.support() == [0, 2]
    assert not F2Vec.zero(4)
    with pytest.raises(ValueError):
        F2Vec(2, 4)


def test_form_validation():
    with pytest.raises(ValueError):
        F2BilinearForm(2, (0b01, 0b10))  # nonzero diagonal
    with pytest.raises(ValueError):
        F2BilinearForm(2, (0b10, 0b00))  # asymmetric
    f = form_from_edges(3, [(0, 1)])
    assert f.rank() == 2 and not f.is_nondegenerate()
    assert _chain_form(4).is_nondegenerate()


def test_pairing_bilinearity():
    rng = random.Random(31)
    f = _chain_form(6)
    for _ in range(100):
        u, v, w = (_random_vec(rng, 6) for _ in range(3))
        assert f.pairing(u, v) == f.pairing(v, u)
        assert f.pairing(u + v, w) == f.pairing(u, w) ^ f.pairing(v, w)


def test_q_eval_quadratic_law():
    rng = random.Random(32)
    form = _chain_form(6)
    q = quadratic_from_basis(form)
    for _ in range(200):
        u, v = _random_vec(rng, 6), _random_vec(rng, 6)
        assert q_eval(q, u + v) == q_eval(q, u) ^ q_eval(q, v) ^ form.pairing(u, v)
    assert q_eval(q, F2Vec.zero(6)) == 0


def test_q_of_orthogonal_basis_sum_is_count_mod_2():
    # pairwise non-intersecting basis vectors of the chain: e_0, e_2, e_4
    form = _chain_form(6)
    q = quadratic_from_basis(form)
    for k, bits in ((1, 0b000001), (2, 0b000101), (3, 0b010101)):
        assert q_eval(q, F2Vec(6, bits)) == k % 2


def test_hyperbolic_plane_arf():
    plane = form_from_edges(2, [(0, 1)])
    # q = 1 on both basis vectors: one zero value among x,y,x+y -> Arf 1
    assert arf(quadratic_from_basis(plane)) == 1
    assert arf(F2Quadratic(plane, (0, 0))) == 0
    assert arf(F2Quadratic(plane, (1, 0))) == 0
    for vals in ((1, 1), (0, 0), (0, 1)):
        q = F2Quadratic(plane, vals)
        assert arf(q) == arf_oracle(q)


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
        transvection(F2Vec.zero(6), form)
    singular = F2Operator(2, (1, 1))
    with pytest.raises(ValueError):
        singular.inverse()


def test_operator_composition_order():
    # left-to-right: (g*h)(v) = h(g(v))
    form = _chain_form(4)
    g = transvection(F2Vec(4, 0b0011), form)
    h = transvection(F2Vec(4, 0b0110), form)
    v = F2Vec(4, 0b1000)
    assert (g * h).apply(v) == h.apply(g.apply(v))


def test_transvection_conjugation_formula():
    rng = random.Random(34)
    form = _chain_form(6)
    for _ in range(200):
        u, v = _random_vec(rng, 6), _random_vec(rng, 6)
        tu, tv = transvection(u, form), transvection(v, form)
        image = u + (v if form.pairing(u, v) else F2Vec.zero(6))
        assert tu.conjugate(tv) == transvection(image, form)


def test_group_closure_identity_and_small_groups():
    e = F2Operator.identity(4)
    assert group_closure([e]) == [e]
    form = _chain_form(4)
    gens = [transvection(F2Vec.basis(i, 4), form) for i in range(4)]
    closed = group_closure(gens)
    # q = 1 on the chain basis: these generate O(q), |O^-(4,2)| = 120
    assert len(closed) == 120
    q = quadratic_from_basis(form)
    assert all(g.is_symplectic(form) and preserves_q(g, q) for g in closed)
    # one q-zero transvection more gives all of Sp(4,2)
    zero_vec = F2Vec(4, 0b0101)  # two orthogonal q-1 vectors
    assert q_eval(q, zero_vec) == 0
    full = group_closure(gens + [transvection(zero_vec, form)])
    assert len(full) == sp_group_order(2) == 720


def test_closure_generic_path_matches_packed():
    form = _chain_form(4)
    gens = [transvection(F2Vec.basis(i, 4), form) for i in range(4)]
    from braidmf.f2sym import _closure_packed
    from braidmf.hurwitz import bfs_closure

    packed = {g.cols for g in _closure_packed(gens, 4, 10**6)}
    generic = {g.cols for g in bfs_closure(gens, 10**6)}
    assert packed == generic


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
    assert space.form.is_nondegenerate()
    # s meets the first cycle of each chain, once
    for ch in "abcd":
        assert space.form.pairing(space.basis_vec("s"), space.basis_vec(f"{ch}1")) == 1
    with pytest.raises(ValueError):
        build_cross_space(1, 2)


def test_symplectic_basis_is_symplectic():
    for a, c in ((2, 2), (2, 3), (3, 3)):
        space = build_cross_space(a, c)
        pairs = symplectic_basis(space)
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
                assert space.form.pairing(v, space.basis_vec(lbl)) == want
    with pytest.raises(ValueError):
        omitted_vector("x9", build_cross_space(2, 2))


def test_omitted_b_closer_q_value():
    # q(b-closer) = 0 iff a+c odd
    for a in range(2, 5):
        for c in range(2, 5):
            space = build_cross_space(a, c)
            q = quadratic_from_basis(space)
            v = omitted_vector(f"b{2 * c - 1}", space)
            assert q_eval(q, v) == ((a + c + 1) % 2)


def test_cross_arf_parity():
    for a, c in ((2, 2), (3, 3), (2, 4), (3, 5)):
        assert cross_arf(a, c) == a % 2


def test_wajnryb_chain_is_special():
    form = _chain_form(4)
    q = quadratic_from_basis(form)
    vecs = [F2Vec.basis(i, 4) for i in range(4)]
    assert wajnryb_classify(vecs, q) == "special_basis"


def test_wajnryb_q_zero_forces_full():
    form = _chain_form(4)
    q = quadratic_from_basis(form)
    vecs = [F2Vec.basis(i, 4) for i in range(4)] + [F2Vec(4, 0b0101)]
    assert wajnryb_classify(vecs, q) == "full_symplectic"


def test_wajnryb_nonspecial_tree():
    q = quadratic_from_basis(e6_form())
    vecs = [F2Vec.basis(i, 6) for i in range(6)]
    assert wajnryb_classify(vecs, q) == "orthogonal_of_q"
    with pytest.raises(ValueError):
        wajnryb_classify(vecs[:5], q)  # does not span


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
            assert omitted_vector(f"b{2 * c - 1}", space) == space.vec(*parts)


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
            assert radical == 1 << (n - form.rank())
