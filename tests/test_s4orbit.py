import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from braidmf import hurwitz, s4orbit
from braidmf.s4orbit import (
    B_VALUES,
    D_VALUES,
    PI,
    PROPERTY_WORD_MAX_LEN,
    SNAKE,
    SNAKE_STEP_MOVES,
    T12,
    T13,
    T24,
    T34,
    TAU_MAX_SLOTS,
    TRIVIAL,
    WINDOW_DERIVATIONS,
    HatBits,
    TauFactorization,
    apply_action_word,
    apply_generator,
    change_positions,
    hat_generator_words,
    in_hat_orbit,
    invariant_M,
    property_run,
    random_action_word,
    replay_derivation,
    sigma_p_action,
    sigma_q_action,
    snake_direct,
    snake_table,
    snake_via_word,
    snake_window,
    snake_word,
    tau0,
    verify_nonconjugacy,
)
from oracles import all_windows, choice_action_word, embed_window


def test_tau0_structure():
    f = tau0(2, 1)
    assert f.length == 12 and f.boundary == 4
    assert f.factors[:4] == (T12, T34, T12, T34)
    assert f.factors[4:] == (T13, T24) * 4
    assert in_hat_orbit(f)
    assert hurwitz.product(f.factors).is_identity()
    with pytest.raises(ValueError):
        tau0(0, 1)
    # the slot cap counts 4(b+d); huge ints of either sign are refused
    # before any tuple is built
    assert tau0(24_999, 1).length == TAU_MAX_SLOTS == 100_000
    cap = r"^factorization of 100004 slots exceeds cap 100000$"
    with pytest.raises(RuntimeError, match=cap):
        tau0(25_000, 1)
    with pytest.raises(ValueError, match=r"^b and d must be >= 1$"):
        tau0(-10**20, 10**20)


def test_tau0_and_snake_word_are_built_once():
    f = tau0(2, 3)
    assert tau0(2, 3) is f
    with pytest.raises(AttributeError):
        f.factors = ()
    w = snake_word(3, 20)
    assert snake_word(3, 20) is w
    with pytest.raises(AttributeError):
        w.letters = ()


def test_tau_factorization_keeps_a_tuple_and_its_prefix():
    # factors are stored as a tuple whatever sequence comes in, and the S4
    # prefix products are computed on first use and kept with the record;
    # a new record from with_factors computes its own
    ref = tau0(2, 1)
    for given in (list(ref.factors), iter(ref.factors), ref.factors):
        f = TauFactorization(2, 1, given)
        assert type(f.factors) is tuple and f == ref
        assert "s4_prefix" not in vars(f)
        assert f.s4_prefix == hurwitz.s4_prefix(ref.factors)
        assert f.s4_prefix is f.s4_prefix
    moved = ref.with_factors(x for x in reversed(ref.factors))
    assert type(moved.factors) is tuple and "s4_prefix" not in vars(moved)
    assert moved.s4_prefix == hurwitz.s4_prefix(moved.factors) != ref.s4_prefix
    with pytest.raises(ValueError, match="expected 12 factors, got 11"):
        TauFactorization(2, 1, iter(ref.factors[1:]))


def test_invariant_m_reference_values():
    base = tau0(1, 1)
    assert invariant_M(base) == 0
    assert invariant_M(apply_generator(base, sigma_p_action(1, 1))) == 2
    assert invariant_M(apply_generator(base, sigma_q_action(1, 1))) == 1


def test_swap_action():
    base = tau0(1, 1)
    g = apply_generator(base, 1)
    assert g.factors[0] == T34 and g.factors[1] == T12
    assert change_positions(g) == [0, 1]
    with pytest.raises(ValueError) as exc:
        apply_generator(base, base.boundary)
    assert str(exc.value) == "swap at the boundary index is not a generator"
    with pytest.raises(ValueError):
        apply_generator(base, -3)  # negative and neither TRIVIAL nor SNAKE
    for i in (0, base.length):
        with pytest.raises(IndexError) as exc:
            apply_generator(base, i)
        assert str(exc.value) == f"swap index {i} out of range"


def test_trivial_action_and_orbit_guard():
    base = tau0(1, 2)
    assert apply_generator(base, TRIVIAL) == base
    bad = base.with_factors((T13,) + base.factors[1:])  # B-value in D-block
    assert not in_hat_orbit(bad)
    with pytest.raises(ValueError):
        invariant_M(bad)


def test_snake_fixes_tau0():
    for b, d in ((1, 1), (2, 1), (1, 2), (2, 3)):
        base = tau0(b, d)
        assert snake_direct(base) == base
        assert snake_via_word(base) == base


def test_snake_case_rule_on_all_windows():
    # trivial-or-pi windows are fixed, anything else is pi-conjugated
    for window in all_windows():
        f = embed_window(window, 1, 1)
        prod = window[0] * window[1] * window[2] * window[3]
        out = snake_direct(f)
        if prod.is_identity() or prod == PI:
            assert out == f
        else:
            assert out.factors[snake_window(1)] == tuple(
                PI * t * PI for t in window
            )


def test_snake_table_agrees_everywhere():
    for b, d in product(range(1, 7), repeat=2):
        rows = snake_table(b, d)
        bits = HatBits(b, d)
        assert len(rows) == 16
        assert all(r.keys() == {"window", "agree", "flip"} for r in rows)
        assert all(r["agree"] for r in rows), (b, d)
        # row w holds the window whose bits are w, and the snake permutes
        # the 16 windows
        for w, r in enumerate(rows):
            assert bits.encode(embed_window(r["window"], b, d)) == w << bits.lo
        assert {r["window"] for r in rows} == set(all_windows())
        assert sorted(w ^ r["flip"] for w, r in enumerate(rows)) == list(range(16))


def test_snake_window_is_where_the_word_acts():
    for d in range(1, 7):
        win = snake_window(d)
        assert (win.start, win.stop) == (4 * d - 2, 4 * d + 2)
        strands = {abs(k) for k in snake_word(d, 4 * d + 4).letters}
        # strand i swaps 0-based slots i-1 and i
        assert {i - 1 for i in strands} | {i for i in strands} == set(
            range(win.start, win.stop)
        )


def test_snake_table_rows_are_read_only():
    rows = snake_table(2, 3)
    assert snake_table(2, 3) is rows
    with pytest.raises(TypeError):
        rows[0]["agree"] = False
    with pytest.raises(TypeError):
        rows[0]["flip"] = 0
    with pytest.raises(AttributeError):
        rows.append(rows[0])


@pytest.fixture
def fresh_snake_caches():
    # snake_table and snake_word are cached: clear them around a test that
    # patches what they are derived from, so no other test sees its rows
    for cached in (snake_table, snake_word):
        cached.cache_clear()
    yield
    for cached in (snake_table, snake_word):
        cached.cache_clear()


@pytest.mark.parametrize(
    "steps",
    [
        ((4,),),  # window slot 3 trades values with the B-slot past it
        ((2,),),  # a D-slot and a B-slot trade values inside the window
    ],
)
def test_snake_certificate_refuses_a_bad_word(monkeypatch, fresh_snake_caches, steps):
    monkeypatch.setattr(s4orbit, "SNAKE_STEP_MOVES", steps)
    for b, d in ((1, 1), (2, 3)):
        with pytest.raises(AssertionError, match="snake leaves O-hat or its window"):
            snake_table(b, d)
        with pytest.raises(AssertionError):
            HatBits(b, d)


def test_snake_is_derived_once_per_b_d(monkeypatch, fresh_snake_caches, capsys):
    from braidmf.cli import main

    calls = []
    derive = s4orbit.snake_via_word

    def counted(f):
        calls.append((f.b, f.d))
        return derive(f)

    monkeypatch.setattr(s4orbit, "snake_via_word", counted)
    argv = ["verify", "s7", "--b", "3", "--d", "2", "--trials", "20"]
    assert main(argv) == 0
    assert calls == [(3, 2)] * 16
    assert main(argv) == 0
    assert main(["verify", "nonconj", *argv[2:]]) == 0
    assert len(calls) == 16
    capsys.readouterr()


def test_window_derivations_replay():
    assert len(WINDOW_DERIVATIONS) == 4
    for lines in WINDOW_DERIVATIONS:
        assert replay_derivation(lines[0]) == lines
        assert len(lines) == len(SNAKE_STEP_MOVES) + 1


def test_derivation_endpoints_match_case_rule():
    # first two derivations end where they started; last two end
    # pi-conjugated in every slot
    for lines in WINDOW_DERIVATIONS[:2]:
        assert lines[-1] == lines[0]
    for lines in WINDOW_DERIVATIONS[2:]:
        assert lines[-1] == tuple(PI * t * PI for t in lines[0])


def test_hat_generators_exclude_adjacent_pair_swaps():
    words = hat_generator_words(1, 1)
    assert words[:2] == [(TRIVIAL,), (SNAKE,)]
    for w in words[2:]:  # chain transpositions: slots (i, i+2)
        i = w[0]
        assert i >= 1 and w == (i, i + 1, i)
        # stays on one side of the boundary
        assert (i + 2 <= 4) or (i >= 5)
    # no single swap is a generator
    assert all(len(w) == 3 for w in words if w[0] >= 1)


def test_hat_generators_preserve_m_parity():
    rng = random.Random(21)
    base = tau0(2, 2)
    gens = hat_generator_words(2, 2)
    for _ in range(300):
        f = apply_action_word(base, [a for w in choice_action_word(rng, gens, 6) for a in w])
        for gw in gens:
            m = invariant_M(apply_action_word(f, gw))
            assert m % 2 == invariant_M(f) % 2
            if len(gw) == 3:  # chain transpositions even preserve M exactly
                assert m == invariant_M(f)


def test_property_run_counts_words():
    rep = property_run(1, 1, trials=500, seed=3)
    assert rep.keys() == {"generator_words", "violations"}
    assert rep["violations"] == {"orbit": 0, "evenness": 0, "m_parity": 0}
    assert rep["generator_words"] > 0


def test_verify_nonconjugacy_report():
    rep = verify_nonconjugacy(1, 1, trials=500, seed=0)
    assert rep.keys() == {
        "convention", "M_left", "M_right", "left_parities", "right_parity",
        "orbit_violations", "verdict",
    }
    assert rep["verdict"] == "not conjugate in stabilized monodromy group"
    assert rep["left_parities"] == [0]
    assert rep["right_parity"] == 1
    assert rep["orbit_violations"] == 0


def test_verify_nonconjugacy_inconclusive_for_equal_sides():
    act = sigma_p_action(1, 1)
    rep = verify_nonconjugacy(1, 1, trials=100, seed=0, left=act, right=act)
    assert rep["verdict"] == "inconclusive"


def test_block_values():
    assert set(D_VALUES) == {T12, T34}
    assert set(B_VALUES) == {T13, T24}
    assert PI * PI == T12 * T12  # both identity


# The sampling loops on Perm factorizations, as they ran before the bitset
# walk: the reference the bitset reports must equal byte for byte.


def _perm_property_run(b, d, trials, seed):
    rng = random.Random(seed)
    gens = hat_generator_words(b, d)
    base = tau0(b, d)
    violations = {"orbit": 0, "evenness": 0, "m_parity": 0}
    words_applied = 0
    for _ in range(trials):
        f = base
        for gen_word in choice_action_word(rng, gens, PROPERTY_WORD_MAX_LEN):
            f = apply_action_word(f, gen_word)
            words_applied += 1
            if not in_hat_orbit(f):
                violations["orbit"] += 1
            if len(change_positions(f)) % 2:
                violations["evenness"] += 1
            if invariant_M(f) % 2 != 0:
                violations["m_parity"] += 1
    return {"generator_words": words_applied, "violations": violations}


def _perm_verify_nonconjugacy(b, d, trials, seed, left=None, right=None):
    rng = random.Random(seed)
    left = sigma_p_action(b, d) if left is None else left
    right = sigma_q_action(b, d) if right is None else right
    base = tau0(b, d)
    gens = hat_generator_words(b, d)
    m_right = invariant_M(apply_generator(base, right))
    m_left0 = invariant_M(apply_generator(base, left))
    left_parities = {m_left0 % 2}
    violations = 0
    for _ in range(trials):
        word = [a for gw in choice_action_word(rng, gens) for a in gw]
        g = apply_action_word(apply_generator(base, left), word)
        if not in_hat_orbit(g):
            violations += 1
            continue
        left_parities.add(invariant_M(g) % 2)
    separated = (
        len(left_parities) == 1
        and violations == 0
        and (m_right % 2) not in left_parities
    )
    return {
        "convention": "D-block first, boundary 4d; labels p/q per this convention",
        "M_left": m_left0,
        "M_right": m_right,
        "left_parities": sorted(left_parities),
        "right_parity": m_right % 2,
        "orbit_violations": violations,
        "verdict": "not conjugate in stabilized monodromy group"
        if separated
        else "inconclusive",
    }


def _decode(bits, x):
    # slot i of tau0 holds values[i % 2] of its block; a set bit takes the other
    B = bits.base.boundary
    return bits.base.with_factors(
        (D_VALUES if i < B else B_VALUES)[(i ^ x >> i) & 1]
        for i in range(bits.base.length)
    )


def test_bitset_walk_matches_perm_walk():
    rng = random.Random(5)
    for b, d in product(range(1, 5), repeat=2):
        bits = HatBits(b, d)
        gens = hat_generator_words(b, d)
        for start in (sigma_p_action(b, d), sigma_q_action(b, d)):
            f = apply_generator(bits.base, start)
            x = bits.encode(f)
            for _ in range(150):
                j = rng.randrange(len(gens))
                f = apply_action_word(f, gens[j])
                x = bits.walk(x, (bits.ops[j],))[0]
                assert _decode(bits, x) == f, ((b, d), gens[j])
                assert bits.encode(f) == x
                assert bits.M(x) == invariant_M(f)


def test_reports_match_perm_oracle():
    grid = ((1, 1), (1, 3), (2, 1), (3, 2), (1, 6), (6, 1), (6, 6))
    for (b, d), seed in product(grid, (0, 1, 2)):
        p, q = sigma_p_action(b, d), sigma_q_action(b, d)
        assert property_run(b, d, 200, seed) == _perm_property_run(b, d, 200, seed)
        for left, right in ((p, q), (q, p)):
            new = verify_nonconjugacy(b, d, 200, seed, left=left, right=right)
            old = _perm_verify_nonconjugacy(b, d, 200, seed, left=left, right=right)
            assert new == old, ((b, d), seed, left)


def test_entry_states_are_validated():
    base = tau0(1, 1)
    with pytest.raises(ValueError):
        verify_nonconjugacy(1, 1, 10, 0, left=base.boundary)
    with pytest.raises(IndexError):
        verify_nonconjugacy(1, 1, 10, 0, right=base.length)
    with pytest.raises(IndexError):  # 0 is refused, not replaced by the default
        verify_nonconjugacy(1, 1, 10, 0, left=0)
    bad = base.with_factors((T13,) + base.factors[1:])
    with pytest.raises(ValueError):
        HatBits(1, 1).encode(bad)


def _bit_orbit(bits, start):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for op in bits.ops:
                y = bits.walk(x, (op,))[0]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@pytest.mark.parametrize(
    "b,d,sizes",
    [
        (1, 1, (16, 16)),
        (1, 2, (288, 224)),
        (2, 1, (224, 288)),
        (1, 3, (4096, 4096)),
        (2, 2, (4096, 4096)),
        (3, 1, (4096, 4096)),
    ],
)
def test_exhaustive_orbit_parity(b, d, sizes):
    # the whole orbits of tau0.sigma_p and tau0.sigma_q under the hat
    # generators: every M-parity is even on one and odd on the other
    bits = HatBits(b, d)
    orbits = [
        _bit_orbit(bits, bits.encode(apply_generator(bits.base, act(b, d))))
        for act in (sigma_p_action, sigma_q_action)
    ]
    assert tuple(len(o) for o in orbits) == sizes
    assert [{bits.M(x) % 2 for x in o} for o in orbits] == [{0}, {1}]


def test_local_parity_certificate():
    # chain twists swap two bits of one parity on one side of 4d, so M is
    # unchanged; the snake changes M by an even amount on every window.
    # Together: M-parity is invariant on O-hat for every (b, d).
    for b, d in product(range(1, 7), repeat=2):
        bits = HatBits(b, d)
        B = bits.base.boundary
        for word, op in zip(hat_generator_words(b, d), bits.ops, strict=True):
            assert op == word[0]
            if len(word) == 1:
                assert op in (TRIVIAL, SNAKE)
                continue
            a = op - 1  # the word exchanges 0-based slots a and a+2
            assert (a < B) == (a + 2 < B), ((b, d), a)
            assert bits.mask >> a & 1 == bits.mask >> a + 2 & 1, ((b, d), a)
            for x in (0, 1 << a, 4 << a, 5 << a):
                assert bits.M(bits.walk(x, (op,))[0]) == bits.M(x)
        for w in range(16):
            x = w << bits.lo
            assert (bits.M(bits.walk(x, (SNAKE,))[0]) - bits.M(x)) % 2 == 0


def test_snake_bits_match_case_rule_everywhere():
    # the case rule is a second oracle beside snake_via_word, which derives
    # the table, at every (b, d) walked
    for b, d in product(range(1, 7), repeat=2):
        bits = HatBits(b, d)
        for window in all_windows():
            f = embed_window(window, b, d)
            want = [bits.encode(snake_direct(f))]
            assert bits.walk(bits.encode(f), (SNAKE,)) == want, ((b, d), window)


def test_random_action_word_matches_choice_oracle():
    # every (len(gens), max_len) pair in 1..70 x 0..16 is drawn at several
    # seeds, each word continuing the stream of the one before
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            gens = [(i, -i) for i in range(n)]
            max_len = (seed + n) % 17
            word = random_action_word(new, gens, max_len)
            assert word == choice_action_word(old, gens, max_len), (seed, n)
            assert new.getstate() == old.getstate(), (seed, n, max_len)


_DRAW_ERRORS = """
import json, random
from braidmf.s4orbit import random_action_word
from oracles import choice_action_word

def outcome(draw, seed, gens, max_len):
    rng = random.Random(seed)
    try:
        result = draw(rng, gens, max_len)
    except (ValueError, IndexError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, rng.getstate()

seen = set()
for seed in range(50):
    for gens, max_len in (([1, 2], -1), ([], -1), ([], 0), ([], 1), ((), 16)):
        new = outcome(random_action_word, seed, gens, max_len)
        assert new == outcome(choice_action_word, seed, gens, max_len), (seed, max_len)
        seen.add(repr(new[0]))
print(json.dumps(sorted(seen)))
"""


def test_random_action_word_errors_match_choice_oracle():
    # in a fresh interpreter with a timeout: a draw loop that never ends
    # (getrandbits(0) is always 0) fails here instead of stalling the suite
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run(
        [sys.executable, "-c", _DRAW_ERRORS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "('IndexError', 'Cannot choose from an empty sequence')",
        "('ValueError', 'empty range for randrange()')",
        "[]",
    ]


def test_walk_matches_perm_walk_state_by_state():
    rng = random.Random(11)
    for b, d in product(range(1, 5), repeat=2):
        bits = HatBits(b, d)
        gens = hat_generator_words(b, d)
        picks = [[], [1] * 5, [0] * 5]  # empty, snake only, TRIVIAL only
        picks += [
            [rng.randrange(len(gens)) for _ in range(rng.randrange(1, 40))]
            for _ in range(12)
        ]
        for start in (TRIVIAL, sigma_p_action(b, d), sigma_q_action(b, d)):
            f = apply_generator(bits.base, start)
            for js in picks:
                states = bits.walk(bits.encode(f), [bits.ops[j] for j in js])
                assert len(states) == len(js)
                g = f
                for j, x in zip(js, states):
                    g = apply_action_word(g, gens[j])
                    assert _decode(bits, x) == g, ((b, d), start, js)
