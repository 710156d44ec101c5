"""Acceptance suite: one test per headline claim, one line per verdict.

Each test prints an explicit "criterion N ... PASS" line on success; a
pytest failure is the FAIL line.  Randomized checks use fixed seeds and
record their trial counts in the assertion messages.
"""

import random
import time

from braidmf import (
    BraidWord,
    FreeWord,
    SurfaceParams,
    arf,
    arf_oracle,
    artin_rep,
    braid_equal,
    build_cross_space,
    cusp_cluster_factorization,
    distinguishable,
    factor_census,
    generate_bmf,
    group_closure,
    invariant_M,
    orbit_search,
    orthogonal_group_order,
    preserves_q,
    product,
    property_run,
    q_eval,
    quadratic_from_basis,
    sp_group_order,
    surface_counts,
    tau0,
    transvection,
    verify_nonconjugacy,
)
from braidmf.braid import ArtinAuto
from braidmf.f2sym import e6_form, form_from_edges
from braidmf.hurwitz import act_moves
from braidmf.s4orbit import (
    WINDOW_DERIVATIONS,
    apply_generator,
    replay_derivation,
    sigma_p_action,
    sigma_q_action,
    snake_table,
)


def _done(n, text):
    print(f"criterion {n} ({text}): PASS")


def test_c01_snake_twist_table():
    t0 = time.monotonic()
    rows = snake_table()
    assert len(rows) == 16
    for r in rows:
        assert r["agree"], f"window {r['window']}: direct rule != word action"
    for idx, lines in enumerate(WINDOW_DERIVATIONS, start=1):
        replay = replay_derivation(lines[0])
        assert replay == lines, f"derivation {idx} diverges"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _done(1, "snake table, 16 windows + 4 worked derivations")


def test_c02_pair_twist_nonconjugacy():
    trials = 10_000
    for b in (1, 2, 3):
        for d in (1, 2, 3):
            rep = verify_nonconjugacy(b, d, trials=trials, seed=0)
            assert rep["verdict"] == "not conjugate in stabilized monodromy group", (
                f"(b,d)=({b},{d}): {rep}"
            )
            assert len(rep["left_parities"]) == 1
            assert rep["left_parities"][0] != rep["right_parity"]
            assert rep["orbit_violations"] == 0
            # and the roles are symmetric: swapping the sides separates too
            swapped = verify_nonconjugacy(
                b, d, trials=200, seed=0,
                left=sigma_q_action(b, d), right=sigma_p_action(b, d),
            )
            assert swapped["verdict"] == "not conjugate in stabilized monodromy group"
    _done(2, f"non-conjugacy for (b,d) in {{1,2,3}}^2, {trials} words each")


def test_c03_m_parity_and_orbit_closure():
    rep = property_run(2, 2, trials=30_000, seed=0)
    assert rep["generator_words"] >= 100_000, rep["generator_words"]
    assert rep["violations"]["orbit"] == 0
    assert rep["violations"]["evenness"] == 0
    assert rep["violations"]["m_parity"] == 0
    _done(3, f"M-parity + orbit closure, {rep['generator_words']} words, 0 violations")


def test_c04_census_identities():
    t0 = time.monotonic()
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                for d in range(1, 7):
                    p = SurfaceParams(a, b, c, d)
                    census = factor_census(generate_bmf(p))  # raises on mismatch
                    counts = surface_counts(p)
                    assert census["by_type"]["cusp"] == 12 * (a * d + b * c)
                    assert census["by_type"]["tangency"] == counts.t
                    assert census["weighted_p"] == 8 * a * b - 2 * (a * d + b * c)
                    assert census["weighted_q"] == 8 * c * d - 2 * (a * d + b * c)
    elapsed = time.monotonic() - t0
    _done(4, f"census identities, 1296 parameter tuples in {elapsed:.2f}s")


def test_c05_figure_case():
    p = SurfaceParams(1, 2, 2, 1)
    c = surface_counts(p)
    assert (c.m, c.k, c.nu, c.t) == (20, 60, 12, 60)
    census = factor_census(generate_bmf(p))
    assert census["by_type"]["cusp"] == 60
    assert census["by_type"]["tangency"] == 60
    assert census["by_type"]["pos_node"] - census["by_type"]["neg_node"] == 12
    _done(5, "figure case (1,2,2,1): m=20, k=60, nu=12, t=60")


def test_c06_arf_results():
    oracle_runs = 0
    for a in range(2, 6):
        for c in range(2, 6):
            space = build_cross_space(a, c)
            q = quadratic_from_basis(space)
            bit = arf(q)
            if space.dim <= 20:
                assert bit == arf_oracle(q), f"(a,c)=({a},{c})"
                oracle_runs += 1
            if (a + c) % 2 == 0:
                assert bit == a % 2, f"(a,c)=({a},{c}): Arf != a mod 2"
            # the omitted b-chain closer has q = 0 exactly when a+c is odd
            from braidmf.f2sym import omitted_vectors

            closer = omitted_vectors(space)[f"b{2 * c - 1}"]
            assert q_eval(q, closer) == ((a + c + 1) % 2)
    assert oracle_runs == 6  # dims 10..18: a+c <= 6
    # the stated (a,c) = (2,2) symplectic basis validates against the form
    space = build_cross_space(2, 2)
    pairs = [
        (space.vec("a3"), space.vec("a2")),
        (space.vec("a3", "a1"), space.vec("s")),
        (space.vec("a3", "a1", "b1"), space.vec("b2")),
        (space.vec("a3", "a1", "c1"), space.vec("c2")),
        (space.vec("a3", "a1", "d1"), space.vec("d2")),
    ]
    flat = [v for pair in pairs for v in pair]
    good_pairs = 0
    for k, (e, f) in enumerate(pairs):
        assert space.form.pairing(e, f) == 1
        for j, w in enumerate(flat):
            if j // 2 != k:
                assert space.form.pairing(e, w) == 0
                assert space.form.pairing(f, w) == 0
        good_pairs += 1
    assert good_pairs == 5
    _done(6, "Arf vs oracle (6 spaces), parity law, closer q-value, 5/5 basis pairs")


def test_c07_transvection_algebra():
    dim, trials = 10, 10_000
    form = form_from_edges(dim, [(i, i + 1) for i in range(dim - 1)])
    rng = random.Random(0)
    for _ in range(trials):
        u = rng.randrange(1, 1 << dim)
        v = rng.randrange(1, 1 << dim)
        tu, tv = transvection(u, form), transvection(v, form)
        assert (tu * tu).is_identity()
        assert tu.is_symplectic(form)
        image = u ^ (v if form.pairing(u, v) else 0)
        assert tu.conjugate(tv) == transvection(image, form)
    _done(7, f"transvection algebra, {trials} random (u,v) at dim {dim}")


def test_c08_transvection_group_classification():
    # dim 6, non-special tree diagram (5-chain plus a middle branch)
    form = e6_form()
    q = quadratic_from_basis(form)
    basis_tv = [transvection(1 << i, form) for i in range(6)]
    o_group = group_closure(basis_tv)
    assert len(o_group) == orthogonal_group_order(3, -1) == 51_840

    # ambient reference: adjoin one q-zero transvection, enumerate Sp(6,2)
    v = 0b001001  # two non-adjacent diagram nodes: q(v) = 0
    assert q_eval(q, v) == 0
    sp = group_closure(basis_tv + [transvection(v, form)])
    assert len(sp) == sp_group_order(3) == 1_451_520

    # set equality: the closure is exactly the q-preserving part of Sp(6,2)
    preservers = {g.cols for g in sp if preserves_q(g, q)}
    assert preservers == {g.cols for g in o_group}

    # dim 4: both Arf classes against the order formula
    chain4 = form_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sizes = {}
    for eps, values in ((1, (1, 0, 1, 0)), (-1, (1, 1, 1, 1))):
        q4 = quadratic_from_basis(chain4, values)
        assert arf(q4) == (0 if eps == 1 else 1)
        sp4 = group_closure(
            [transvection(1 << i, chain4) for i in range(4)]
            + [transvection(0b0101, chain4)]
        )
        assert len(sp4) == 720
        sizes[eps] = sum(1 for g in sp4 if preserves_q(g, q4))
        assert sizes[eps] == orthogonal_group_order(2, eps)
    assert sorted(sizes.values()) == [72, 120]
    _done(8, "dim-6 closure == q-preservers of Sp(6,2); dim-4 orders 72/120")


def test_c09_cluster_factorizations():
    start, target, product_word = cusp_cluster_factorization()
    assert braid_equal(product(target), product_word)
    assert braid_equal(product(start), product_word)
    depth_bound = 6
    res = orbit_search(start, target, max_depth=depth_bound)
    assert res.found, f"no path within depth {depth_bound}"
    assert act_moves(start, res.moves) == target
    _done(
        9,
        f"cluster products match stated word; path of {len(res.moves)} moves "
        f"within depth bound {depth_bound} ({res.visited} nodes)",
    )


def test_c10_main_theorem_arithmetic():
    abc = lambda a, b, c: SurfaceParams(a, b, c, b)
    p, p2 = abc(2, 3, 4), abc(3, 3, 3)
    c, c2 = surface_counts(p), surface_counts(p2)
    assert (c.chi, c.K2) == (c2.chi, c2.K2)
    assert p.a + p.c == p2.a + p2.c and p.b + p.d == p2.b + p2.d
    assert p.a * p.b != p2.a * p2.b
    assert distinguishable(p, p2) == "distinguished"
    assert distinguishable(p, abc(4, 3, 2)) == "trivially_equivalent"
    assert distinguishable(p, p) == "trivially_equivalent"
    _done(10, "(2,3,4) vs (3,3,3) distinguished; trivial swaps equivalent")


def test_c11_braid_foundation():
    rng = random.Random(0)
    trials_rel, trials_inv, trials_prod = 4_000, 3_000, 3_000

    for _ in range(trials_rel):
        n = rng.randint(3, 8)
        prefix = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                  for _ in range(rng.randint(0, 16))]
        i = rng.randint(1, n - 2)
        far = [k for k in range(1, n) if abs(k - i) >= 2]
        if rng.random() < 0.5 or not far:
            lhs, rhs = [i, i + 1, i], [i + 1, i, i + 1]
        else:
            j = rng.choice(far)
            lhs, rhs = [i, j], [j, i]
        assert braid_equal(
            BraidWord(n, prefix + lhs),
            BraidWord(n, prefix + rhs),
        )

    for _ in range(trials_inv):
        n = rng.randint(2, 8)
        w = BraidWord(
            n,
            [rng.choice([1, -1]) * rng.randint(1, n - 1)
             for _ in range(rng.randint(0, 40))],
        )
        # w * w.inverse() is the empty word before artin_rep sees it, so
        # the images of w and of w^-1 are composed here.  Substituting
        # images into images (ArtinAuto.apply) would expand to billions of
        # letters at 40-letter words; the move action of the other word's
        # letters, last to first, composes them as artin_rep does.
        rw, rinv = artin_rep(w), artin_rep(w.inverse())
        identity = ArtinAuto.identity(n).images
        assert act_moves(rinv.images, w.letters[::-1]) == identity
        assert act_moves(rw.images, w.inverse().letters[::-1]) == identity

    for _ in range(trials_prod):
        n = rng.randint(2, 8)
        w = BraidWord(
            n,
            [rng.choice([1, -1]) * rng.randint(1, n - 1)
             for _ in range(rng.randint(0, 40))],
        )
        prod = FreeWord(n, range(1, n + 1))
        assert artin_rep(w).apply(prod) == prod

    total = trials_rel + trials_inv + trials_prod
    assert total >= 10_000
    _done(11, f"braid relations / inverses / product preservation, {total} trials")
