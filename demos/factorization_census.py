"""Generate a vertical braid-monodromy factorization and check its census.

The (1,2,2,1) toy case is small enough to print whole; the census must
match the closed-form singularity counts, and the (2,3,4)/(3,3,3)
comparison shows two surfaces with identical classical invariants that
the factorization arithmetic still tells apart.
"""

from braidmf.bmf import (
    SurfaceParams,
    distinguishable,
    factor_census,
    generate_bmf,
    stable_profile,
    surface_counts,
    twist_str,
)

p = SurfaceParams(1, 2, 2, 1)
f = generate_bmf(p)
counts = surface_counts(p)
print(f"params (a,b,c,d) = (1,2,2,1)   toy={p.toy}  excluded={p.excluded}")
print(f"formulas: m={counts.m} cusps={counts.k} nu={counts.nu} tangencies={counts.t}")
print(f"census:   {factor_census(f)}")
print(f"blocks ({len(f.blocks)}):")
for blk in f.blocks[:6]:
    names = " ".join(
        twist_str(fac.twist) + ("" if fac.exponent == 1 else f"^{fac.exponent}")
        for fac in blk.factors
    )
    print(f"  {blk.kind}[{blk.rep}]: {names}")
print("  ...")

print("\nTwo surfaces the classical invariants cannot separate:")
p1 = SurfaceParams(2, 3, 4, 3)
p2 = SurfaceParams(3, 3, 3, 3)
for q in (p1, p2):
    c = surface_counts(q)
    print(f"  (a,b,c,d)={q.a,q.b,q.c,q.d}: chi={c.chi} K2={c.K2} r={c.r} "
          f"ab={q.a*q.b} cd={q.c*q.d}")
print(f"verdict: {distinguishable(p1, p2)}")
print(f"profile fields compared: {sorted(k for k in stable_profile(p1) if k != 'depends_on')}")
