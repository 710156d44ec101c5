"""Walk through the parity argument that separates the two pair-twist classes.

The reference factorization tau0 lists 2d pairs (12),(34) followed by
2b pairs (13),(24).  Swapping one adjacent D-pair or one adjacent B-pair
gives two factorizations with the same product; the invariant M tells
them apart, and stays constant mod 2 under every generator of the
stabilized monodromy group.
"""

from braidmf.s4orbit import (
    apply_generator,
    invariant_M,
    sigma_p_action,
    sigma_q_action,
    snake_table,
    tau0,
    verify_nonconjugacy,
)

b, d = 1, 1
base = tau0(b, d)
print(f"tau0(b={b}, d={d}):")
print("  ", " ".join(repr(t) for t in base.factors))
print(f"  M(tau0) = {invariant_M(base)}")

left = apply_generator(base, sigma_p_action(b, d))
right = apply_generator(base, sigma_q_action(b, d))
print(f"  M after the B-side pair swap: {invariant_M(left)} (even)")
print(f"  M after the D-side pair swap: {invariant_M(right)} (odd)")

print("\nSnake twist sanity: direct case rule vs Hurwitz action of its word")
rows = snake_table(b, d)
print(f"  {sum(r['agree'] for r in rows)}/16 window states agree")

print("\nRandomized separation run:")
rep = verify_nonconjugacy(b, d, trials=2_000, seed=0)
print(f"  left parities seen: {rep['left_parities']}")
print(f"  right parity:       {rep['right_parity']}")
print(f"  verdict: {rep['verdict']}")
