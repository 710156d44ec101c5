"""The S4 covering-monodromy orbit and its parity invariant.

The reference factorization tau0 for parameters (b, d) has length
n = 4(b + d): a D-block of 2d pairs (12),(34) followed by a B-block of
2b pairs (13),(24), split at the boundary index 4d.

Convention note: the source material is internally inconsistent about
whether the boundary sits at 4b or 4d; here the D-block comes first and
the boundary is 4d, which makes the snake window (4d-1 .. 4d+2), the
covering monodromy assignment and the parity invariant M mutually
consistent.  Under this convention M(tau0 . sigma_p) = 2 and
M(tau0 . sigma_q) = 1; only the parity separation matters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .braid import snake_word
from .hurwitz import Factorization, act_moves, act_word
from .perm import Perm

T12 = Perm.transposition(1, 2, 4)
T34 = Perm.transposition(3, 4, 4)
T13 = Perm.transposition(1, 3, 4)
T24 = Perm.transposition(2, 4, 4)
PI = Perm.from_cycles([(1, 4), (2, 3)], 4)  # conjugation swaps 12<->34, 13<->24

D_VALUES = (T12, T34)
B_VALUES = (T13, T24)


@dataclass(frozen=True)
class TauFactorization:
    """A length-4(b+d) transposition factorization in the orbit superset."""

    b: int
    d: int
    factors: tuple

    def __post_init__(self):
        if self.b < 1 or self.d < 1:
            raise ValueError("b and d must be >= 1")
        if len(self.factors) != self.length:
            raise ValueError(
                f"expected {self.length} factors, got {len(self.factors)}"
            )

    @property
    def length(self):
        return 4 * (self.b + self.d)

    @property
    def boundary(self):
        return 4 * self.d

    def product(self):
        return Factorization(self.factors).product()

    def with_factors(self, factors):
        return TauFactorization(self.b, self.d, tuple(factors))


def tau0(b, d):
    """The reference factorization: D-pairs then B-pairs."""
    factors = (T12, T34) * (2 * d) + (T13, T24) * (2 * b)
    return TauFactorization(b, d, factors)


def in_hat_orbit(f):
    """Block-membership test for the orbit superset O-hat."""
    B = f.boundary
    return all(
        t in (D_VALUES if i < B else B_VALUES) for i, t in enumerate(f.factors)
    )


@dataclass(frozen=True)
class GeneratorAction:
    """One generator of the stabilized monodromy group action.

    kind 'trivial' covers the cube and full-twist generators that fix
    every factorization in O-hat; 'swap' exchanges the commuting factors
    at slots i, i+1 (i must not be the boundary index); 'snake' is the
    boundary-crossing half twist.
    """

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("trivial", "swap", "snake"):
            raise ValueError(f"unknown action kind {self.kind!r}")


def hat_generator_words(b, d):
    """Action words of the stabilized monodromy group generators.

    Chain twists transpose factors on the same side at even distance;
    the minimal ones exchange slots (i, i+2), realized as three adjacent
    swaps.  Plain adjacent pair swaps (the sigma_p / sigma_q actions) are
    deliberately NOT here: only their squares lie in the group, and the
    parity separation below rests on that.
    """
    n = 4 * (b + d)
    B = 4 * d
    words = [(GeneratorAction("trivial"),), (GeneratorAction("snake"),)]
    for i in [*range(1, B - 1), *range(B + 1, n - 1)]:
        words.append(
            (
                GeneratorAction("swap", i),
                GeneratorAction("swap", i + 1),
                GeneratorAction("swap", i),
            )
        )
    return words


def sigma_q_action(b, d):
    """The pair swap at the innermost D-pair (any D-pair gives M = 1)."""
    return GeneratorAction("swap", 1)


def sigma_p_action(b, d):
    """The pair swap at the first B-pair, just past the boundary."""
    return GeneratorAction("swap", 4 * d + 1)


def apply_generator(f, action):
    if not in_hat_orbit(f):
        raise ValueError("factorization is not in the orbit superset")
    if action.kind == "trivial":
        return f
    if action.kind == "swap":
        i = action.index
        if i == f.boundary:
            raise ValueError("swap at the boundary index is not a generator")
        if not (1 <= i < f.length):
            raise IndexError(f"swap index {i} out of range")
        factors = list(f.factors)
        factors[i - 1], factors[i] = factors[i], factors[i - 1]
        return f.with_factors(factors)
    return snake_direct(f)


def snake_direct(f):
    """The snake action computed from its proved case rule.

    Window = slots 4d-1 .. 4d+2.  If the window product is trivial or
    equals pi = (14)(23), nothing moves; otherwise every window factor
    is conjugated by pi.
    """
    B = f.boundary
    if f.length < B + 2:
        raise ValueError("window out of range")
    lo, hi = B - 2, B + 2  # 0-based half-open slice of the 4-window
    window = f.factors[lo:hi]
    prod = window[0] * window[1] * window[2] * window[3]
    if prod.is_identity() or prod == PI:
        return f
    factors = list(f.factors)
    factors[lo:hi] = [PI * t * PI for t in window]
    return f.with_factors(factors)


def snake_via_word(f):
    """The snake action computed by the Hurwitz action of the explicit word."""
    n = f.length
    word = snake_word(f.d, n)
    out = act_word(Factorization(f.factors), word)
    return f.with_factors(out.elements)


def change_positions(f, ref=None):
    """0-based slots where f differs from its reference tau0."""
    ref = ref or tau0(f.b, f.d)
    return [i for i, (x, y) in enumerate(zip(f.factors, ref.factors)) if x != y]


def invariant_M(f):
    """The parity invariant: half change-count plus the even-slot
    change-count beyond the boundary (slots 1-based)."""
    if not in_hat_orbit(f):
        raise ValueError("factorization is not in the orbit superset")
    B = f.boundary
    diffs = change_positions(f)
    if len(diffs) % 2 != 0:
        raise AssertionError("change count must be even in the orbit superset")
    beyond_even = sum(1 for i in diffs if (i + 1) > B and (i + 1) % 2 == 0)
    return len(diffs) // 2 + beyond_even


# The five-step decomposition of the snake word acting on the window,
# as local Hurwitz moves (window slots 1..4): the boundary generator,
# two squared neighbours, the boundary again, the inverse squares, and
# the inverse boundary generator.
SNAKE_STEP_MOVES = ((2,), (1, 1, 3, 3), (2,), (-3, -3, -1, -1), (-2,))


def _t(i, j):
    return Perm.transposition(i, j, 4)


# Four worked five-step window derivations (start line plus the state
# after each step).  The first two windows are fixed overall; the last
# two come back pi-conjugated in every slot.
WINDOW_DERIVATIONS = (
    (
        (_t(1, 2), _t(1, 2), _t(1, 3), _t(1, 3)),
        (_t(1, 2), _t(2, 3), _t(1, 2), _t(1, 3)),
        (_t(2, 3), _t(1, 3), _t(1, 3), _t(2, 3)),
        (_t(2, 3), _t(1, 3), _t(1, 3), _t(2, 3)),
        (_t(1, 2), _t(2, 3), _t(1, 2), _t(1, 3)),
        (_t(1, 2), _t(1, 2), _t(1, 3), _t(1, 3)),
    ),
    (
        (_t(1, 2), _t(3, 4), _t(1, 3), _t(2, 4)),
        (_t(1, 2), _t(1, 4), _t(3, 4), _t(2, 4)),
        (_t(1, 4), _t(2, 4), _t(2, 4), _t(2, 3)),
        (_t(1, 4), _t(2, 4), _t(2, 4), _t(2, 3)),
        (_t(1, 2), _t(1, 4), _t(3, 4), _t(2, 4)),
        (_t(1, 2), _t(3, 4), _t(1, 3), _t(2, 4)),
    ),
    (
        (_t(1, 2), _t(3, 4), _t(1, 3), _t(1, 3)),
        (_t(1, 2), _t(1, 4), _t(3, 4), _t(1, 3)),
        (_t(1, 4), _t(2, 4), _t(1, 3), _t(1, 4)),
        (_t(1, 4), _t(1, 3), _t(2, 4), _t(1, 4)),
        (_t(3, 4), _t(1, 4), _t(1, 2), _t(2, 4)),
        (_t(3, 4), _t(1, 2), _t(2, 4), _t(2, 4)),
    ),
    (
        (_t(1, 2), _t(1, 2), _t(1, 3), _t(2, 4)),
        (_t(1, 2), _t(2, 3), _t(1, 2), _t(2, 4)),
        (_t(2, 3), _t(1, 3), _t(2, 4), _t(1, 4)),
        (_t(2, 3), _t(2, 4), _t(1, 3), _t(1, 4)),
        (_t(3, 4), _t(2, 3), _t(3, 4), _t(1, 3)),
        (_t(3, 4), _t(3, 4), _t(2, 4), _t(1, 3)),
    ),
)


def replay_derivation(start):
    """The window states after each of the five snake steps."""
    lines = [tuple(start)]
    f = Factorization(tuple(start))
    for step in SNAKE_STEP_MOVES:
        f = act_moves(f, step)
        lines.append(f.elements)
    return tuple(lines)


def all_windows():
    """All 16 admissible window states (two D-slots, two B-slots)."""
    out = []
    for w1 in D_VALUES:
        for w2 in D_VALUES:
            for w3 in B_VALUES:
                for w4 in B_VALUES:
                    out.append((w1, w2, w3, w4))
    return out


def embed_window(window, b, d):
    """tau0(b, d) with the snake window replaced by the given state."""
    f = tau0(b, d)
    lo = f.boundary - 2
    factors = list(f.factors)
    factors[lo : lo + 4] = list(window)
    return f.with_factors(factors)


def snake_table(b=1, d=1):
    """snake_direct vs snake_via_word on all 16 embedded windows."""
    rows = []
    for window in all_windows():
        f = embed_window(window, b, d)
        direct = snake_direct(f)
        via = snake_via_word(f)
        lo = f.boundary - 2
        rows.append(
            {
                "window": window,
                "direct": direct.factors[lo : lo + 4],
                "via_word": via.factors[lo : lo + 4],
                "agree": direct == via,
            }
        )
    return rows


def _check_trials(trials):
    # zero or negative trials would pass on no evidence at all
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


PROPERTY_WORD_MAX_LEN = 8


def property_run(b, d, trials=10_000, seed=0):
    """Randomized conservation run from tau0: orbit-superset closure,
    change-count evenness and M-parity checked after every generator of
    every random word (up to PROPERTY_WORD_MAX_LEN generator words each)."""
    _check_trials(trials)
    rng = random.Random(seed)
    gens = hat_generator_words(b, d)
    base = tau0(b, d)
    violations = {"orbit": 0, "evenness": 0, "m_parity": 0}
    words_applied = 0
    for _ in range(trials):
        f = base
        for gen_word in random_action_word(rng, gens, PROPERTY_WORD_MAX_LEN):
            f = apply_action_word(f, gen_word)
            words_applied += 1
            if not in_hat_orbit(f):
                violations["orbit"] += 1
            if len(change_positions(f, base)) % 2:
                violations["evenness"] += 1
            if invariant_M(f) % 2 != 0:  # M(tau0) = 0
                violations["m_parity"] += 1
    return {
        "b": b,
        "d": d,
        "trials": trials,
        "seed": seed,
        "generator_words": words_applied,
        "violations": violations,
    }


def random_action_word(rng, gens, max_len=16):
    """Random word over the generator action-words (list of tuples)."""
    return [rng.choice(gens) for _ in range(rng.randrange(max_len + 1))]


def apply_action_word(f, word):
    for a in word:
        f = apply_generator(f, a)
    return f


def verify_nonconjugacy(b, d, trials=10_000, seed=0, left=None, right=None):
    """Parity separation showing sigma_p^2 and sigma_q^2 are not conjugate.

    Samples tau0 . left . h for random generator words h and checks that
    the M-parity is constant and differs from M(tau0 . right).  By
    default left = sigma_p and right = sigma_q.  Returns a report dict.
    """
    _check_trials(trials)
    rng = random.Random(seed)
    left = left or sigma_p_action(b, d)
    right = right or sigma_q_action(b, d)
    base = tau0(b, d)
    gens = hat_generator_words(b, d)

    m_right = invariant_M(apply_generator(base, right))
    m_left0 = invariant_M(apply_generator(base, left))
    left_parities = {m_left0 % 2}
    violations = 0
    for _ in range(trials):
        word = [a for gw in random_action_word(rng, gens) for a in gw]
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
        "b": b,
        "d": d,
        "convention": "D-block first, boundary 4d; labels p/q per this convention",
        "trials": trials,
        "seed": seed,
        "M_left": m_left0,
        "M_right": m_right,
        "left_parities": sorted(left_parities),
        "right_parity": m_right % 2,
        "orbit_violations": violations,
        "verdict": "not conjugate in stabilized monodromy group"
        if separated
        else "inconclusive",
    }
