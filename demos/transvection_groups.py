"""Transvection groups over F2: closures, Arf invariants and order formulas.

The homology of the horizontal fibre is a cross of cycle chains; the
fibre-cycle transvections generate either the full symplectic group or
the orthogonal group of the quadratic refinement, depending on the
parity of a+c.  At enumerable dimensions the closure sizes match the
classical order formulas exactly.
"""

from braidmf.f2sym import (
    arf,
    arf_oracle,
    build_cross_space,
    classify_cross,
    e6_form,
    form_from_edges,
    group_closure,
    orthogonal_group_order,
    q_eval,
    quadratic_from_basis,
    sp_group_order,
    transvection,
)

print("Cross-space classification:")
for a, c in ((2, 2), (2, 3), (3, 3)):
    info = classify_cross(a, c)
    print(f"  (a,c)=({a},{c}) dim={info['dim']:2d}: {info['verdict']}"
          + (f", Arf={info['arf']}" if info["arf"] is not None else ""))

print("\nArf invariant vs the exhaustive zero-count oracle:")
for a, c in ((2, 2), (2, 4), (3, 3)):
    q = quadratic_from_basis(build_cross_space(a, c))
    print(f"  (a,c)=({a},{c}): arf={arf(q)} oracle={arf_oracle(q)} (a mod 2 = {a % 2})")

print("\nClosure sizes at dim 4 (chain diagram, q = 1 on the basis):")
chain = form_from_edges(4, [(0, 1), (1, 2), (2, 3)])
gens = [transvection(1 << i, chain) for i in range(4)]
og = group_closure(gens)
print(f"  basis transvections:    {len(og):4d}  (|O^-(4,2)| = {orthogonal_group_order(2, -1)})")
q0 = 0b0101
assert q_eval(quadratic_from_basis(chain), q0) == 0
sp = group_closure(gens + [transvection(q0, chain)])
print(f"  plus a q-zero twist:    {len(sp):4d}  (|Sp(4,2)|   = {sp_group_order(2)})")

print("\nDim 6, non-special tree diagram:")
form = e6_form()
gens6 = [transvection(1 << i, form) for i in range(6)]
print(f"  basis transvections:  {len(group_closure(gens6)):8d}  "
      f"(|O^-(6,2)| = {orthogonal_group_order(3, -1)})")
