"""Hurwitz actions, braid words, parity and Arf invariants for
braid-monodromy factorizations of bidouble covers of the quadric."""

from .braid import (
    ArtinAuto,
    BraidWord,
    FreeWord,
    LetterCapExceeded,
    artin_rep,
    band_generator,
    braid_equal,
    snake_word,
    word_permutation,
)
from .bmf import (
    BmfFactor,
    BmfFactorization,
    Counts,
    SurfaceParams,
    cusp_cluster_factorization,
    distinguishable,
    factor_census,
    generate_bmf,
    realize_s4_trivial_action,
    stable_profile,
    surface_counts,
    tangent_cluster_factorization,
)
from .f2sym import (
    CrossSpace,
    F2BilinearForm,
    F2Operator,
    F2Quadratic,
    arf,
    arf_oracle,
    build_cross_space,
    classify_cross,
    group_closure,
    horizontal_obstruction,
    orthogonal_group_order,
    preserves_q,
    q_eval,
    quadratic_from_basis,
    sp_group_order,
    symplectic_basis,
    transvection,
    wajnryb_classify,
)
from .hurwitz import (
    SearchResult,
    act_moves,
    act_word,
    hurwitz_move,
    orbit_search,
    product,
)
from .perm import Perm, symmetric_group
from .s4orbit import (
    TauFactorization,
    apply_generator,
    in_hat_orbit,
    invariant_M,
    property_run,
    snake_direct,
    snake_table,
    snake_via_word,
    tau0,
    verify_nonconjugacy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
