"""Brute-force comparators for order-theoretic claims.

Everything here enumerates; nothing is clever.  The breadth-first search
by `left_mul_s`, one value per step, is the oracle of `affine.ball`, the
search over windows.  Lower bounds in the strong
order live inside the length ball of the elements involved, so meets are
decided exactly.  Upper bounds are unbounded in an infinite group, but every
minimal common upper bound of v and w is at most l(v) + l(w) long (subword
property, Bjorner-Brenti, GTM 231, Thm 2.2.2): a ball of that radius decides
joins exactly, and a smaller one raises.  The greedy row-stripping k-code
decomposition lives here too: it is the definition the closed forms of
`kcode` are tested against.  So does the Bruhat scan of a strong lower ideal
of bounded partitions, which the core-containment ideals of `symfunc` are
tested against, the filter of all bounded partitions by core containment,
the oracle of their pruned enumeration, and the residue-action walk on
cores, the oracle of the conversions of `shapes`.
The products with d_A and d_A^{-1}, one full group product each, are the
oracles of the step-by-step strip, Z-set and fiber decisions, and the pair
scan is the oracle of the bitset closure check of `orderlab`.  The scans of
the residue subsets, one generator run each, are the oracles of the grown
Z-set families, weak strips and set-valued strips.  The product that
applies each h monomial on its own is the oracle of the table walk of
`symfunc`, forward substitution over whole h monomials is the oracle of
the h expansions that `symfunc.g_to_h` and `symfunc.ks_to_h` build one
Pieri row at a time, and the set-valued Pieri rule from the strips of one
size, grown afresh, is the oracle of the rows `symfunc.pieri_kk` reads off
one growth per partition.  The rotation s_i -> s_{i+t} of a reduced word is the oracle of
the rectangle-union lemma w_{R_t u lam} = f_t(w_lam) w_{R_t}, and the
whole products gtilde(R_t) gtilde(lam) and s_{R_t} s_lam are the oracles of
the sums the factorization sweep of `verify` reads off its shared tables.
"""

from __future__ import annotations

import itertools

from .affine import (
    AffinePermutation,
    IndexSet,
    bruhat_leq,
    demazure,
    from_word,
    identity,
    inverse,
    left_action,
    left_mul_s,
    mul,
    reduced_word,
    weak_leq,
)
from .kcode import KCode, d_elem, d_inverse_steps, d_steps, u_elem
from .orderlab import proper_subsets
from .partitions import (
    CorePartition,
    KBoundedPartition,
    k_rectangle,
    kbounded_partitions,
    union_sort,
)
from .shapes import (
    _core_rows,
    bounded_to_perm,
    core_action,
    is_weak_strip,
    perm_to_bounded,
    setvalued_strips,
)
from .symfunc import SymElt, gtilde, h_monomial_mult, product_g, product_ks

__all__ = [
    "ball_by_left_mul_s",
    "subword_lower_set",
    "bruhat_lower_set",
    "strong_meet",
    "strong_join_in_ball",
    "is_least_upper_bound_in_ball",
    "weak_join_in_ball",
    "saturated_chain_exists",
    "subset_chain_exists",
    "kcode_by_stripping",
    "strong_lower_ideal_by_bruhat",
    "strong_ideal_union_by_filter",
    "core_by_residue_action",
    "d_mul",
    "d_demazure",
    "d_inverse_mul",
    "closure_failure_by_pairs",
    "z_sets_by_scan",
    "weak_strips_by_scan",
    "pieri_kk_by_strips",
    "product_via_h_by_monomial",
    "h_expansions_by_monomials",
    "shift_ft",
    "gtilde_factorize_check",
    "kschur_rectangle_check",
]


def ball_by_left_mul_s(k: int, max_length: int) -> list[AffinePermutation]:
    """All elements of length <= max_length, sorted by (length, window):
    breadth-first search by left multiplication, keeping s_i w when it is
    one longer than w and new."""
    seen = {identity(k)}
    frontier = [identity(k)]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for i in range(k + 1):
                u = left_mul_s(w, i)
                if u.length == w.length + 1 and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=lambda w: (w.length, w.window))


def subword_lower_set(v: AffinePermutation) -> frozenset[AffinePermutation]:
    """All products of reduced subwords of one fixed reduced word of v."""
    word = reduced_word(v).letters
    out = set()
    for size in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), size):
            u = from_word(v.k, [word[p] for p in positions])
            if u.length == size:
                out.add(u)
    return frozenset(out)


def bruhat_lower_set(
    v: AffinePermutation, universe: list[AffinePermutation]
) -> frozenset[AffinePermutation]:
    """Elements of the universe below v; complete when the universe holds ball(l(v))."""
    return frozenset(z for z in universe if z.length <= v.length and bruhat_leq(z, v))


def strong_meet(
    v: AffinePermutation,
    w: AffinePermutation,
    universe: list[AffinePermutation],
) -> AffinePermutation | None:
    """Exact strong meet, or None when no maximum lower bound exists.

    The universe must contain every element of length <= min(l(v), l(w));
    lower bounds cannot escape it, so the answer is exact.
    """
    common = bruhat_lower_set(v, universe) & bruhat_lower_set(w, universe)
    top_len = max(z.length for z in common)
    tops = [z for z in common if z.length == top_len]
    if len(tops) != 1:
        return None
    m = tops[0]
    if all(bruhat_leq(z, m) for z in common):
        return m
    return None


def _reaches_upper_bounds(v: AffinePermutation, w: AffinePermutation, universe) -> None:
    """Raise unless the ball reaches l(v) + l(w), the most a minimal common
    upper bound of v and w is long (subword property)."""
    if v.length + w.length > max(z.length for z in universe):
        raise ValueError(f"joins of {v!r} and {w!r} need radius {v.length + w.length}")


def strong_join_in_ball(
    v: AffinePermutation,
    w: AffinePermutation,
    universe: list[AffinePermutation],
) -> AffinePermutation | None:
    """Exact strong join, or None; the universe must be a ball of radius at
    least l(v) + l(w), which holds every minimal common upper bound (subword
    property), and a smaller one raises."""
    _reaches_upper_bounds(v, w, universe)
    ubs = [z for z in universe if bruhat_leq(v, z) and bruhat_leq(w, z)]
    min_len = min(z.length for z in ubs)
    for m in (z for z in ubs if z.length == min_len):
        if all(bruhat_leq(m, z) for z in ubs):
            return m
    return None


def is_least_upper_bound_in_ball(
    candidate: AffinePermutation,
    v: AffinePermutation,
    w: AffinePermutation,
    universe: list[AffinePermutation],
) -> bool:
    """Whether `candidate` is the strong join of v and w; the universe must be
    a ball of radius at least l(v) + l(w), which holds every minimal common
    upper bound (subword property), and a smaller one raises."""
    _reaches_upper_bounds(v, w, universe)
    if not (bruhat_leq(v, candidate) and bruhat_leq(w, candidate)):
        return False
    return all(
        bruhat_leq(candidate, z)
        for z in universe
        if bruhat_leq(v, z) and bruhat_leq(w, z)
    )


def weak_join_in_ball(
    v: AffinePermutation,
    w: AffinePermutation,
    universe: list[AffinePermutation],
    side: str = "left",
) -> AffinePermutation | None:
    """Least common weak upper bound within the universe, if the search closes.

    Returns the unique minimum of the common upper bounds in the universe
    provided one upper bound lies strictly inside; None when uncertified.
    """
    ubs = [z for z in universe if weak_leq(v, z, side) and weak_leq(w, z, side)]
    if not ubs:
        return None
    radius = max(z.length for z in universe)
    min_len = min(z.length for z in ubs)
    if min_len >= radius:
        return None
    for m in (z for z in ubs if z.length == min_len):
        if all(weak_leq(m, z, side) for z in ubs):
            return m
    return None


def saturated_chain_exists(
    x: AffinePermutation,
    y: AffinePermutation,
    allowed: frozenset[AffinePermutation],
) -> bool:
    """Saturated strong chain from x to y staying inside `allowed`.

    `allowed` must contain every allowed element with length between l(x)
    and l(y); the search walks covers one length step at a time.
    """
    if x == y:
        return True
    if not bruhat_leq(x, y):
        return False
    frontier = {x}
    for _ in range(y.length - x.length):
        frontier = {
            z
            for c in frontier
            for z in allowed
            if z.length == c.length + 1 and bruhat_leq(c, z) and bruhat_leq(z, y)
        }
        if not frontier:
            return False
    return y in frontier


def subset_chain_exists(
    A: frozenset[int], B: frozenset[int], family: set[frozenset[int]]
) -> bool:
    """Chain from A to B adding one index at a time, staying inside family."""
    if A == B:
        return True
    if not A <= B:
        return False
    frontier = {A}
    for _ in range(len(B) - len(A)):
        frontier = {
            c | {i} for c in frontier for i in B - c if (c | {i}) in family
        }
        if not frontier:
            return False
    return B in frontier


def _max_strippable_row(w: AffinePermutation, increasing: bool) -> frozenset[int]:
    """Largest A whose (in/de)creasing element splits off w on the right.

    Splitting off means l(w x^-1) = l(w) - |A| for x = u_A or d_A.  The
    maximal decomposition theory guarantees a unique such A of maximal
    size; a tie would mean the implementation is broken, so it aborts.
    """
    n = w.k + 1
    for r in range(w.k, 0, -1):
        hits = []
        for combo in itertools.combinations(range(n), r):
            A = IndexSet._trusted(w.k, frozenset(combo))
            x = u_elem(A) if increasing else d_elem(A)
            if mul(w, inverse(x)).length == w.length - r:
                hits.append(A.members)
        if len(hits) > 1:
            raise RuntimeError(
                f"ambiguous maximal row for {w!r}: {sorted(map(sorted, hits))}"
            )
        if hits:
            return hits[0]
    return frozenset()


def kcode_by_stripping(w: AffinePermutation, increasing: bool) -> KCode:
    """k-code by the definition: strip the largest row off w, then recurse.

    Each row tries all 2^(k+1) residue subsets; test oracle for
    `kcode.rd` (decreasing) and `kcode.ri` (increasing).
    """
    n = w.k + 1
    if w.is_identity():
        return KCode(w.k, (0,) * n)
    row = _max_strippable_row(w, increasing)
    x = u_elem(IndexSet(w.k, row)) if increasing else d_elem(IndexSet(w.k, row))
    rest = kcode_by_stripping(mul(w, inverse(x)), increasing)
    # Stripping the bottom row shifts the remaining columns left by one.
    values = []
    for i in range(n):
        above = rest.values[(i - 1) % n]
        residue = i if not increasing else (-i) % n
        if above and residue not in row:
            raise RuntimeError(f"column {i} of {w!r} is not bottom-justified")
        values.append(above + (1 if residue in row else 0))
    return KCode(w.k, tuple(values))


def strong_lower_ideal_by_bruhat(lam: KBoundedPartition) -> tuple[KBoundedPartition, ...]:
    """All k-bounded mu with w_mu <= w_lam, by one strong-order test each.

    Test oracle for `symfunc.strong_ideal_parts`.
    """
    w = bounded_to_perm(lam)
    out = []
    for mu in kbounded_partitions(lam.k, lam.size):
        if bruhat_leq(bounded_to_perm(mu), w):
            out.append(mu)
    return tuple(out)


def strong_ideal_union_by_filter(tops: list[KBoundedPartition]) -> list[KBoundedPartition]:
    """Every mu below one of `tops` in the strong order, by one core
    containment test per k-bounded partition up to the largest top.

    Test oracle of `symfunc.strong_ideal_parts` and of the
    `symfunc.gtilde_pieri` union.
    """
    cores = [_core_rows(top) for top in tops]
    out = []
    for mu in kbounded_partitions(tops[0].k, max(top.size for top in tops)):
        rows = _core_rows(mu)
        if any(len(rows) <= len(c) and all(a <= b for a, b in zip(rows, c)) for c in cores):
            out.append(mu)
    return out


def core_by_residue_action(w: AffinePermutation) -> CorePartition:
    """Act on the empty core along a reduced word of a Grassmannian element;
    test oracle for `shapes.perm_to_bounded` and `shapes.bounded_to_core`."""
    if not w.is_grassmannian():
        raise ValueError(f"{w!r} is not affine Grassmannian")
    kappa = CorePartition(w.k, ())
    for i in reversed(reduced_word(w).letters):
        kappa = core_action(i, kappa)
    return kappa


def d_mul(A: IndexSet, w: AffinePermutation) -> AffinePermutation:
    """d_A w as one group product; oracle of `left_action` on `d_steps`."""
    return mul(d_elem(A), w)


def d_demazure(A: IndexSet, w: AffinePermutation) -> AffinePermutation:
    """Demazure product d_A * w along a reduced word of d_A; oracle of the
    "max" mode of `left_action`."""
    return demazure(d_elem(A), w)


def d_inverse_mul(B: IndexSet, u: AffinePermutation) -> AffinePermutation:
    """d_B^{-1} u as one group product; oracle of `left_action` on
    `d_inverse_steps`."""
    return mul(inverse(d_elem(B)), u)


def closure_failure_by_pairs(
    name: str, fam: frozenset[frozenset[int]], k: int
) -> str | None:
    """The first pair whose intersection, or proper union, leaves the family.

    Scans every pair of members as bitmasks; None when the family is closed.
    Oracle of `orderlab._closure_gaps`, and the witness of its failures.
    """
    full = (1 << (k + 1)) - 1
    masks = {sum(1 << i for i in A): A for A in fam}
    for a, A in masks.items():
        for b, B in masks.items():
            if a & b not in masks:
                return f"{name} not closed under intersection: {A}, {B}"
            u = a | b
            if u != full and u not in masks:
                return f"{name} not closed under proper union: {A}, {B}"
    return None


def z_sets_by_scan(
    u: AffinePermutation,
) -> tuple[
    frozenset[frozenset[int]], frozenset[frozenset[int]], frozenset[frozenset[int]] | None
]:
    """The plus, minus and Grassmannian plus families of u, each A decided by
    its own run of generator steps on u; oracle of `orderlab.z_sets`."""
    k = u.k
    plus, minus, plus_g = set(), set(), set()
    grass = u.is_grassmannian()
    for members in proper_subsets(k):
        A = IndexSet._trusted(k, members)
        up = left_action(u, d_steps(A), "ascent")
        if up is not None:
            plus.add(members)
            if grass and up.is_grassmannian():
                plus_g.add(members)
        if left_action(u, d_inverse_steps(A), "descent") is not None:
            minus.add(members)
    return frozenset(plus), frozenset(minus), frozenset(plus_g) if grass else None


def weak_strips_by_scan(lam: KBoundedPartition, r: int) -> list[IndexSet]:
    """`is_weak_strip` on every subset of size r; oracle of
    `shapes.weak_strips`."""
    out = []
    for combo in itertools.combinations(range(lam.k + 1), r):
        A = IndexSet._trusted(lam.k, frozenset(combo))
        if is_weak_strip(lam, A):
            out.append(A)
    return sorted(out, key=lambda a: a.sorted())


def setvalued_strips_by_scan(
    w: AffinePermutation, r: int
) -> list[tuple[IndexSet, AffinePermutation]]:
    """The Demazure run of d_A on w for every subset A of size r, kept when
    the product is Grassmannian; oracle of `shapes.setvalued_strips`."""
    if not w.is_grassmannian():
        raise ValueError(f"{w!r} is not affine Grassmannian")
    if not 1 <= r <= w.k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={w.k}")
    out = []
    for combo in itertools.combinations(range(w.k + 1), r):
        A = IndexSet._trusted(w.k, frozenset(combo))
        v = left_action(w, d_steps(A), "max")
        if v.is_grassmannian():
            out.append((A, v))
    return sorted(out, key=lambda av: av[0].sorted())


def pieri_kk_by_strips(lam: KBoundedPartition, r: int) -> SymElt:
    """h_r times the K-theoretic basis element of lam, from the set-valued
    strips of size r alone, grown afresh for this r; the oracle of
    `symfunc.pieri_kk`, which reads every r off one growth of lam."""
    w = bounded_to_perm(lam)
    acc: dict[tuple[int, ...], int] = {}
    for _, v in setvalued_strips(w, r):
        parts = perm_to_bounded(v).parts
        acc[parts] = acc.get(parts, 0) + (-1) ** (r + w.length - v.length)
    return SymElt(lam.k, "g", tuple(acc.items()))


def product_via_h_by_monomial(a: SymElt, b: SymElt, to_h) -> SymElt:
    """a*b with a expanded in h by `to_h` and each h monomial applied to b on
    its own; the oracle of `symfunc._product_via_h`, which reads them from a
    table of b h_nu built one Pieri step per entry."""
    in_h: dict[tuple[int, ...], int] = {}
    for parts, c in a.as_mapping().items():
        for hparts, hc in to_h(KBoundedPartition(a.k, parts)).as_mapping().items():
            in_h[hparts] = in_h.get(hparts, 0) + c * hc
    acc: dict[tuple[int, ...], int] = {}
    for hparts, hc in in_h.items():
        for q, v in h_monomial_mult(b, hparts).as_mapping().items():
            acc[q] = acc.get(q, 0) + hc * v
    return SymElt(a.k, a.basis, tuple(acc.items()))


def h_expansions_by_monomials(k: int, max_size: int, to_basis) -> dict[tuple[int, ...], SymElt]:
    """b_lam in the h basis for every k-bounded lam of size <= max_size, by
    forward substitution over whole h monomials in the term order: h_mu =
    b_mu + sum c_nu b_nu over earlier nu, with h_mu multiplied out in the b
    basis by `to_basis` (`symfunc.h_to_g` or `symfunc.h_to_ks`), gives
    b_mu = h_mu - sum c_nu (b_nu in h).  The oracle of `symfunc.g_to_h` and
    `symfunc.ks_to_h`, which read one Pieri row per partition instead."""
    rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for mu in kbounded_partitions(k, max_size):  # in the term order
        terms = to_basis(mu).as_mapping()
        if terms.pop(mu.parts, 0) != 1:
            raise RuntimeError(f"h monomial of {mu} has no unit diagonal")
        acc = {mu.parts: 1}
        for nu, c in terms.items():
            for q, v in rows[nu].items():  # KeyError: a term at or after mu
                acc[q] = acc.get(q, 0) - c * v
        rows[mu.parts] = {q: v for q, v in acc.items() if v}
    return {parts: SymElt(k, "h", tuple(row.items())) for parts, row in rows.items()}


def shift_ft(w: AffinePermutation, t: int) -> AffinePermutation:
    """Image under the rotation automorphism s_i -> s_{i+t}; length-preserving."""
    if not 0 <= t <= w.k:
        raise ValueError(f"need 0 <= t <= k, got t={t}, k={w.k}")
    n = w.k + 1
    word = [(a + t) % n for a in reduced_word(w).letters]
    out = from_word(w.k, word)
    if out.length != w.length:
        raise RuntimeError(f"rotation by {t} did not preserve length of {w!r}")
    return out


def gtilde_factorize_check(lam: KBoundedPartition, t: int) -> bool:
    """Whether gtilde of the rectangle-union equals the whole product of
    gtildes, gtilde(R_t) gtilde(lam)."""
    rect = k_rectangle(t, lam.k)
    lhs = gtilde(union_sort(rect, lam))
    rhs = product_g(gtilde(rect), gtilde(lam))
    return lhs == rhs


def kschur_rectangle_check(lam: KBoundedPartition, t: int) -> bool:
    """Whether the homogeneous basis element of the rectangle-union equals
    the whole product of the rectangle's and lam's elements."""
    rect = k_rectangle(t, lam.k)
    lhs = SymElt._trusted(lam.k, "ks", {union_sort(rect, lam).parts: 1})
    rhs = product_ks(*(SymElt._trusted(lam.k, "ks", {mu.parts: 1}) for mu in (rect, lam)))
    return lhs == rhs
