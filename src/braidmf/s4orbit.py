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

Bitset encoding.  In O-hat every slot holds one of the two values of its
block, so a state is fixed by the slots where it differs from tau0:
`HatBits` stores it as an n-bit int with bit i set when slot i (0-based)
differs.  On these ints
  - a chain twist (the swaps i, i+1, i), held as its slot i, swaps
    bits i-1 and i+1;
  - a single pair swap at i swaps bits i-1 and i and flips both (it is
    applied to Perm factorizations only, at the entry states);
  - the snake is a lookup in a 16-entry table on bits 4d-2 .. 4d+1;
  - M = popcount(x) // 2 + popcount(x & mask), the mask holding the odd
    0-based slots at or past 4d.
`snake_table(b, d)` derives the table from `snake_via_word` at the (b, d)
walked and raises if an output leaves O-hat or moves a slot outside the
window; chain twists stay on one side of the boundary by construction.
That closure certificate is why the sampling loops of
`verify_nonconjugacy` and `property_run` never re-check O-hat membership.
Their entry states (tau0, tau0 . left, tau0 . right) still go through
`apply_generator`, `in_hat_orbit` and `invariant_M` on Perm
factorizations, which also stay the reference the bitset walk is tested
against.

Sampling.  Each trial draws one word of ops with `random_action_word`
and walks it with one `HatBits.walk` call, which returns the state
after each op; `walk` is the only place the chain-twist and snake rule
is written.  `random_action_word` draws its length and letters in one
`getrandbits` loop that takes from a `random.Random` exactly the numbers
`randrange(max_len + 1)` and then `choice(gens)` per letter take, so a
seed gives the same words, and the same reports, as those calls.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType

from .braid import BraidWord
from .hurwitz import act_moves, act_word, product
from .perm import Perm, Record

T12 = Perm.transposition(1, 2, 4)
T34 = Perm.transposition(3, 4, 4)
T13 = Perm.transposition(1, 3, 4)
T24 = Perm.transposition(2, 4, 4)
PI = Perm.from_cycles([(1, 4), (2, 3)], 4)  # conjugation swaps 12<->34, 13<->24

D_VALUES = (T12, T34)
B_VALUES = (T13, T24)


class TauFactorization(Record):
    """A length-4(b+d) transposition factorization in the orbit superset."""

    __slots__ = ("b", "d", "factors")

    def __init__(self, b, d, factors):
        if len(factors) != 4 * (b + d):
            raise ValueError(f"expected {4 * (b + d)} factors, got {len(factors)}")
        super().__init__(b, d, factors)

    @property
    def length(self):
        return 4 * (self.b + self.d)

    @property
    def boundary(self):
        return 4 * self.d

    def with_factors(self, factors):
        return TauFactorization(self.b, self.d, tuple(factors))


# `verify s7` at its default 10,000 trials takes 0.6-0.8 s at 100,000
# slots and 16-17 s at 1,000,000 (2-core host); 0.05 s of it at 100,000
# derives the snake table.
TAU_MAX_SLOTS = 100_000


@functools.cache
def tau0(b, d):
    """The reference factorization: D-pairs then B-pairs.  ValueError
    unless b, d >= 1, and RuntimeError("factorization of N slots exceeds
    cap M") above TAU_MAX_SLOTS slots 4(b+d), before anything is built."""
    if b < 1 or d < 1:
        raise ValueError("b and d must be >= 1")
    n = 4 * (b + d)
    if n > TAU_MAX_SLOTS:
        raise RuntimeError(f"factorization of {n} slots exceeds cap {TAU_MAX_SLOTS}")
    factors = (T12, T34) * (2 * d) + (T13, T24) * (2 * b)
    return TauFactorization(b, d, factors)


def in_hat_orbit(f):
    """Block-membership test for the orbit superset O-hat."""
    B = f.boundary
    return all(
        t in (D_VALUES if i < B else B_VALUES) for i, t in enumerate(f.factors)
    )


# An O-hat action is an int: i >= 1 swaps the factors at slots i, i+1
# (i must not be the boundary index); TRIVIAL covers the cube and
# full-twist generators that fix every factorization in O-hat; SNAKE is
# the boundary-crossing half twist.
TRIVIAL, SNAKE = -1, -2


def hat_generator_words(b, d):
    """Action words of the stabilized monodromy group generators.

    Chain twists transpose factors on the same side at even distance;
    the minimal ones exchange slots (i, i+2), realized as three adjacent
    swaps (i, i+1, i).  Plain adjacent pair swaps (the sigma_p / sigma_q
    actions) are deliberately NOT here: only their squares lie in the
    group, and the parity separation below rests on that.
    """
    n = 4 * (b + d)
    B = 4 * d
    chain = [*range(1, B - 1), *range(B + 1, n - 1)]
    return [(TRIVIAL,), (SNAKE,), *((i, i + 1, i) for i in chain)]


def sigma_q_action(b, d):
    """The pair swap at the innermost D-pair (any D-pair gives M = 1)."""
    return 1


def sigma_p_action(b, d):
    """The pair swap at the first B-pair, just past the boundary."""
    return 4 * d + 1


def apply_generator(f, action):
    if not in_hat_orbit(f):
        raise ValueError("factorization is not in the orbit superset")
    if action == TRIVIAL:
        return f
    if action == SNAKE:
        return snake_direct(f)
    if action < 0:
        raise ValueError(f"unknown action {action}")
    if action == f.boundary:
        raise ValueError("swap at the boundary index is not a generator")
    if not (1 <= action < f.length):
        raise IndexError(f"swap index {action} out of range")
    factors = list(f.factors)
    i = action
    factors[i - 1], factors[i] = factors[i], factors[i - 1]
    return f.with_factors(factors)


def snake_window(d):
    """The slots the snake moves: 0-based 4d-2 .. 4d+1, two D then two B."""
    return slice(4 * d - 2, 4 * d + 2)


def snake_direct(f):
    """The snake action computed from its proved case rule.

    If the window product is trivial or equals pi = (14)(23), nothing
    moves; otherwise every window factor is conjugated by pi.
    """
    win = snake_window(f.d)
    window = f.factors[win]
    prod = product(window)
    if prod.is_identity() or prod == PI:
        return f
    factors = list(f.factors)
    factors[win] = [PI * t * PI for t in window]
    return f.with_factors(factors)


def snake_via_word(f):
    """The snake action computed by the Hurwitz action of the explicit word."""
    n = f.length
    word = snake_word(f.d, n)
    return f.with_factors(act_word(f.factors, word))


def change_positions(f):
    """0-based slots where f differs from its reference tau0."""
    ref = tau0(f.b, f.d).factors
    return [i for i, (x, y) in enumerate(zip(f.factors, ref)) if x != y]


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


# The snake word, spelt once: five steps of local Hurwitz moves on the
# window slots 1..4, which `snake_word` shifts onto strands 4d-1 .. 4d+2.
# The boundary generator, two squared neighbours, the boundary again,
# the inverse squares, and the inverse boundary generator.
SNAKE_STEP_MOVES = ((2,), (1, 1, 3, 3), (2,), (-3, -3, -1, -1), (-2,))


@functools.cache
def snake_word(d, n):
    """The snake half twist crossing the D/B boundary, as an Artin word.

    sigma_{4d} (sigma_{4d-1}^2 sigma_{4d+1}^2) sigma_{4d}
    (sigma_{4d+1}^{-2} sigma_{4d-1}^{-2}) sigma_{4d}^{-1}, an 11-letter
    word: SNAKE_STEP_MOVES with window slot k on strand k + 4d-2.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 4 * d + 2:
        raise ValueError(f"need n >= {4 * d + 2} strands, got {n}")
    s = snake_window(d).start
    steps = itertools.chain.from_iterable(SNAKE_STEP_MOVES)
    return BraidWord(n, [k + s if k > 0 else k - s for k in steps])


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
    for step in SNAKE_STEP_MOVES:
        lines.append(act_moves(lines[-1], step))
    return tuple(lines)


@functools.cache
def snake_table(b, d):
    """The snake on the 16 windows embedded in tau0(b, d), derived from
    `snake_via_word` once per (b, d), in read-only rows.  Row w is the
    window whose bit k is set where window slot k differs from tau0: its
    Perm `window`, whether `snake_direct` `agree`s with the word there, and
    the `flip` the snake xors onto the window bits.  AssertionError unless
    each output keeps every window slot in its block and every other slot
    as it was: the closure certificate that `HatBits` walks on.
    """
    base, win = tau0(b, d), snake_window(d)
    head, tail = base.factors[: win.start], base.factors[win.stop :]
    blocks = (D_VALUES, D_VALUES, B_VALUES, B_VALUES)  # tau0 has blocks[k][k & 1]
    rows = []
    for w in range(16):
        window = tuple(v[(k ^ w >> k) & 1] for k, v in enumerate(blocks))
        f = base.with_factors(head + window + tail)
        out = snake_via_word(f)
        moved = tuple(zip(out.factors[win], blocks))
        kept = out.factors[: win.start] == head and out.factors[win.stop :] == tail
        if not kept or not all(t in v for t, v in moved):
            raise AssertionError(f"snake leaves O-hat or its window on {window}")
        bits = sum((t != v[k & 1]) << k for k, (t, v) in enumerate(moved))
        row = {"window": window, "agree": snake_direct(f) == out, "flip": w ^ bits}
        rows.append(MappingProxyType(row))
    return tuple(rows)


class HatBits:
    """O-hat of (b, d) as n-bit ints (see the module docstring).

    `ops` runs parallel to `hat_generator_words(b, d)`: each word's first
    action, TRIVIAL, SNAKE, or the slot i of a chain twist.
    """

    def __init__(self, b, d):
        self.base = tau0(b, d)
        B = self.base.boundary
        self.lo = snake_window(d).start
        self.ops = [word[0] for word in hat_generator_words(b, d)]
        self.mask = sum(1 << i for i in range(B + 1, self.base.length, 2))
        # x ^ snake[window of x] is the snake of x
        self.snake = tuple(row["flip"] << self.lo for row in snake_table(b, d))

    def encode(self, f):
        """The bitset of a factorization in O-hat."""
        if not in_hat_orbit(f):
            raise ValueError("factorization is not in the orbit superset")
        return sum(1 << i for i in change_positions(f))

    def M(self, x):
        """invariant_M of the decoded state."""
        return x.bit_count() // 2 + (x & self.mask).bit_count()

    def walk(self, x, word):
        """The states after each op of `word` (entries of `ops`), from x."""
        snake, lo = self.snake, self.lo
        states = []
        append = states.append
        for op in word:
            if op > 0:  # chain twist at slot op: swap bits op-1, op+1
                if (x >> op - 1 ^ x >> op + 1) & 1:
                    x ^= 5 << op - 1
            elif op == SNAKE:
                x ^= snake[x >> lo & 15]
            append(x)
        return states


# `verify s7` at (b,d) = (6,6) takes 4.4-6.4 s at 1,000,000 trials (0.1 s
# at the default 10,000), and 20 s at the slot cap (2-core host); the time
# grows linearly with the trials.
TRIALS_MAX = 1_000_000


def _check_trials(trials):
    # zero or negative trials would pass on no evidence at all; more than
    # TRIALS_MAX is refused before anything is built
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > TRIALS_MAX:
        raise RuntimeError(f"{trials} trials exceed cap {TRIALS_MAX}")


PROPERTY_WORD_MAX_LEN = 8


def property_run(b, d, trials, seed):
    """Randomized conservation run from tau0: orbit-superset closure,
    change-count evenness and M-parity checked after every generator of
    every random word (up to PROPERTY_WORD_MAX_LEN generator words each)."""
    import random

    _check_trials(trials)
    rng = random.Random(seed)
    bits = HatBits(b, d)
    start = bits.encode(bits.base)
    parity = invariant_M(bits.base) % 2
    # every bitset is in O-hat (closure certificate, module docstring)
    walk, ops, M = bits.walk, bits.ops, bits.M
    violations = {"orbit": 0, "evenness": 0, "m_parity": 0}
    words_applied = 0
    for _ in range(trials):
        states = walk(start, random_action_word(rng, ops, PROPERTY_WORD_MAX_LEN))
        words_applied += len(states)
        for x in states:
            if x.bit_count() % 2:
                violations["evenness"] += 1
            if M(x) % 2 != parity:
                violations["m_parity"] += 1
    return {"generator_words": words_applied, "violations": violations}


def random_action_word(rng, gens, max_len=16):
    """Random word of at most max_len entries of gens.

    Draws from a `random.Random` the numbers that `randrange(max_len + 1)`
    and then one `choice(gens)` per letter draw: each is a `getrandbits(k)`,
    k the bit length of the range, drawn again while out of range.  So the
    word and the state of rng after it are theirs, and so are the
    ValueError and IndexError raised.
    """
    if max_len < 0:
        raise ValueError("empty range for randrange()")
    getrandbits = rng.getrandbits
    k = (max_len + 1).bit_length()
    length = getrandbits(k)
    while length > max_len:
        length = getrandbits(k)
    if not length:
        return []
    m = len(gens)
    if not m:
        raise IndexError("Cannot choose from an empty sequence")
    k = m.bit_length()
    word = []
    append = word.append
    for _ in range(length):
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        append(gens[r])
    return word


def apply_action_word(f, word):
    for a in word:
        f = apply_generator(f, a)
    return f


def verify_nonconjugacy(b, d, trials, seed, left=None, right=None):
    """Parity separation showing sigma_p^2 and sigma_q^2 are not conjugate.

    Samples tau0 . left . h for random generator words h and checks that
    the M-parity is constant and differs from M(tau0 . right).  By
    default left = sigma_p and right = sigma_q.  Returns a report dict.
    """
    import random

    _check_trials(trials)
    rng = random.Random(seed)
    left = sigma_p_action(b, d) if left is None else left
    right = sigma_q_action(b, d) if right is None else right
    bits = HatBits(b, d)

    m_right = invariant_M(apply_generator(bits.base, right))
    g = apply_generator(bits.base, left)
    m_left0 = invariant_M(g)
    start = bits.encode(g)
    left_parities = {m_left0 % 2}
    walk, ops, M = bits.walk, bits.ops, bits.M
    for _ in range(trials):
        states = walk(start, random_action_word(rng, ops))
        left_parities.add(M(states[-1] if states else start) % 2)

    separated = len(left_parities) == 1 and (m_right % 2) not in left_parities
    return {
        "convention": "D-block first, boundary 4d; labels p/q per this convention",
        "M_left": m_left0,
        "M_right": m_right,
        "left_parities": sorted(left_parities),
        "right_parity": m_right % 2,
        # every bitset is in O-hat (closure certificate, module docstring)
        "orbit_violations": 0,
        "verdict": "not conjugate in stabilized monodromy group"
        if separated
        else "inconclusive",
    }
