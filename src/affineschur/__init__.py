"""Exact affine Schubert combinatorics at desk scale.

Affine permutations in window notation, bounded partitions and cores with
their bijections, canonical k-code decompositions, weak and set-valued
strips, the strong/weak order toolbox, and exact sparse arithmetic for
the affine Schubert bases of Z[h_1, ..., h_k], including the ideal-sum
Pieri rule and rectangle factorization together with their exhaustive
verification sweeps.
"""

from .affine import (
    AffinePermutation,
    BallCapExceeded,
    IndexSet,
    ReducedWord,
    ball,
    bruhat_leq,
    demazure,
    descents,
    flip,
    from_word,
    grassmannian_ball,
    identity,
    inverse,
    length,
    meet_LS,
    mul,
    psi_apply,
    reduced_word,
    s_join_L,
    weak_leq,
)
from .kcode import KCode, d_elem, rd, ri, sh, u_elem
from .orderlab import (
    Fiber,
    ZSets,
    fiber_X,
    fiber_Y,
    find_A0,
    forbidden_index,
    minus_forbidden_indices,
    signed_fiber_table,
    z_sets,
)
from .partitions import (
    CorePartition,
    KBoundedPartition,
    k_rectangle,
    kbounded_partitions,
    union_sort,
)
from .shapes import (
    WeakStrip,
    bounded_to_core,
    bounded_to_perm,
    core_action,
    core_to_bounded,
    is_weak_strip,
    k_transpose,
    perm_to_bounded,
    perm_to_core,
    setvalued_strips,
    strip_top,
    weak_strips,
)
from .symfunc import (
    SymElt,
    g_to_h,
    gtilde,
    gtilde_pieri,
    gtilde_pieri_direct,
    gtilde_pieri_ie,
    h_to_g,
    h_to_ks,
    ks_to_h,
    kschur_top_degree_check,
    pieri_kk,
    pieri_kschur,
    product_g,
    product_ks,
)

__version__ = "0.1.0"
