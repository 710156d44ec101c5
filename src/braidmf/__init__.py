"""Hurwitz actions, braid words, parity and Arf invariants for
braid-monodromy factorizations of bidouble covers of the quadric.

The package is seven modules: `perm`, `hurwitz`, `braid`, `s4orbit`,
`bmf`, `f2sym` and `cli`.  Import each name from its module, as in
``from braidmf.s4orbit import tau0``; the package root re-exports none.
"""

__version__ = "0.1.0"
