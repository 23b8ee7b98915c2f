"""Exhaustive desk-scale verification sweeps.

Each sweep pits a closed form against a brute-force oracle over explicit
length balls or partition ranges and reports every counterexample with a
JSON-able witness.  All identities are exact, so a sweep either finds
nothing or the build is wrong; there is no tolerance anywhere.  A failing
instance's witness values are computed and turned into JSON only in
`r.fail(...)`.  `order-props` adds each check's passing instances once,
from a local tally (`r.count(passed)`); the other suites call `r.count()`
once per passing instance.

This module holds the suites and their check predicates.  The order
suites read tables built once per sweep by `orderlab._BallOrder` and the
functions beside it (see `orderlab`): `fibers` over one length ball, and
`order-props` over one ball and the down-closure of what it asks beyond
it (`orderlab._down_closure`).

The symmetric-function suites share work too: each partition's
weak strips are grown once, to level k (`shapes.StripGrowth`), and every r
of both Pieri forms is read off that growth.  The rectangle factorization
reads gtilde(R_t) gtilde(lam) as the sum of the rows g_mu gtilde(R_t) over
the strong ideal below lam, one row per (t, mu), and s_{R_t} s_lam as one
sum per (t, lam).  Each expands its factor of lower top degree in h and
reads the other factor b times each h monomial from b's table of Pieri
products (`symfunc._h_combination`): one table per rectangle and basis for
the whole sweep and one per partition for its t loop, so each b h_nu is
one Pieri step per sweep.  A failing instance reports the row sum it
compared.  The whole products, `oracles.gtilde_factorize_check` and
`oracles.kschur_rectangle_check`, are the test oracles of the sums.
"""

from __future__ import annotations

import bisect
import itertools

from . import symfunc
from .affine import (
    AffinePermutation,
    IndexSet,
    ball,
    bruhat_leq,
    descents,
    inverse,
    is_affine_reflection,
    left_action,
    mul,
)
from .kcode import d_elem, d_inverse_steps, d_steps, eval_code, first_row, rd, ri
from .oracles import subword_lower_set
from .orderlab import (
    _BallOrder,
    _down_closure,
    _fiber_scan,
    _flip_images,
    _generator_steps,
    _growth_steps,
    _hecke_tables,
    _inversion_rows,
    _join_seed_sets,
    _mask,
    _positions,
    _prefix,
    _product_table,
    _quotient,
    _seed_tables,
    fiber_X,
    fiber_Y,
    find_A0,
    minus_forbidden_indices,
    forbidden_index,
    proper_subsets,
    z_sets,
)
from .partitions import KBoundedPartition, k_rectangle, kbounded_partitions, union_sort
from .shapes import StripGrowth, bounded_to_perm, is_weak_strip
from .symfunc import (
    SymElt,
    _accumulate,
    _gtilde_pieri_ie,
    _gtilde_pieri_union,
    _h_expansion,
    _in_term_order,
    expand_gtilde_combination,
    g_to_h,
    gtilde,
    h_mult,
    ks_to_h,
    kschur_top_degree_check,
    product_ks,
    strong_ideal_parts,
)

__all__ = [
    "CheckResult",
    "ball_radii",
    "verify_order_props",
    "verify_fibers",
    "verify_pieri_sum",
    "verify_factorization",
]


class CheckResult:
    """One named sweep: how many instances ran, and every failing witness.

    Passing instances are added by `count(n)`; each failing instance is one
    `fail`, which builds its witness, so a call site computes witness
    values in the failing branch alone.
    """

    __slots__ = ("name", "instances", "failures")

    def __init__(self, name: str):
        self.name, self.instances, self.failures = name, 0, []

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.instances, self.failures) == (
                other.name, other.instances, other.failures)
        return NotImplemented

    def __repr__(self):
        return (f"CheckResult(name={self.name!r}, instances={self.instances!r}, "
                f"failures={self.failures!r})")

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, n: int = 1) -> None:
        self.instances += n

    def fail(self, **witness) -> None:
        """Record a failing instance; elements and symmetric functions in the
        witness are turned into JSON here, so a passing instance builds none."""
        self.instances += 1
        self.failures.append({name: _json(value) for name, value in witness.items()})

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "ok": self.ok,
            "failures": self.failures,
        }


def _json(value):
    """JSON form of a witness value: an element's window, a symmetric
    function's terms, anything else as given."""
    if isinstance(value, AffinePermutation):
        return list(value.window)
    if isinstance(value, SymElt):
        return value.as_dict()["terms"]
    return value


def ball_radii(suite: str, k: int, max_size: int) -> tuple[int, ...]:
    """Radii of the length balls a verify suite builds its order rows over.

    The only place that knows how large a suite's balls get; the CLI sizes
    them before any work starts.  `fibers` enumerates one ball, at its
    radius.  `order-props` enumerates one, at the larger of its wide radius
    and the radius of its joins, and cuts every smaller ball from it with
    `_prefix`.  A join of v and w needs radius l(v) + l(w), the most a
    minimal common upper bound is long (subword property, Bjorner-Brenti,
    GTM 231, Thm 2.2.2); the joins of order-props join elements up to
    min(max_size, 6).  Its strip radius bounds the rest of its order, the
    down-closure of the d_A w_lam of its weak strips and of the d_A u of
    its Z-families (`orderlab._down_closure`), which is no ball: each of
    those is at most min(max_size + 1, 7) + k long, one shorter than the
    strip radius.  No sweep reads the strip radius; only the CLI guard
    (`cli.check_ball_sizes`) sizes a ball of it, and it stays as it is so
    that no configuration changes admission until the guard is redrawn.
    """
    if suite == "order-props":
        # the wide ball of verify_order_props, the bound of the elements
        # _verify_strip_props asks, and the ball of its joins and least
        # upper bounds
        return (max_size + 3, min(max_size + 1, 7) + k + 1, 2 * min(max_size, 6))
    if suite == "fibers":
        return (max_size,)
    if suite in ("pieri-sum", "factorization"):
        return ()
    raise ValueError(f"unknown suite {suite!r}")


def _length_slices(lengths: list[int]) -> list[int]:
    """slices[l], the positions of length l of a ball sorted by length, as a
    bitset, for l up to one past its radius, where the slice is empty."""
    slices, start = [], 0
    for ell in range(lengths[-1] + 2):
        end = bisect.bisect_right(lengths, ell)
        slices.append((1 << end) - (1 << start))
        start = end
    return slices


def _chain_gaps(
    members: int, down: list[int], up: list[int], lengths: list[int], slices: list[int]
) -> tuple[int, list[tuple[int, int]]]:
    """The pairs x <= y of a set of ball positions, given as a bitset: how
    many there are, and those with no first step of a saturated chain
    inside the set, as (x, y), x outermost.

    A first step is an element c of the set with x <= c <= y and
    l(c) = l(x) + 1, one bit of up[x] & members & slices[l(x) + 1] & down[y]
    (`_length_slices`).  Every pair x < y of the set has one exactly when
    each such pair is joined by a saturated chain inside the set: given the
    steps, go on from c <= y, by induction on l(y) - l(x); conversely a
    chain's first element after x is one.  So one AND per pair replaces the
    cover-by-cover chain search, which stays as the test oracle
    `oracles.saturated_chain_exists`.  On a set without the chain property
    the pairs flagged here are among those the chain search flags (a pair
    with no first step has no chain), and some pair is flagged whenever
    that search flags one (of the pairs it flags, one with l(y) - l(x)
    least has no first step).
    """
    pairs, gaps = 0, []
    for x in _positions(members):
        above = up[x] & members
        pairs += above.bit_count()
        steps = above & slices[lengths[x] + 1]
        gaps.extend((x, y) for y in _positions(above & ~(1 << x)) if not steps & down[y])
    return pairs, gaps


# ---------------------------------------------------------------------------
# order-theoretic property suites
# ---------------------------------------------------------------------------


def verify_order_props(k: int, max_length: int) -> list[CheckResult]:
    """Property suites for the strong/weak order machinery.

    Quantifier ranges scale with max_length but are clamped per suite so
    the triple-quantified checks stay within desk scale.  Every ball is a
    prefix of the one enumerated at radius R = max(L+3, 2 min(L,6)), the
    larger of the wide and the join radius of `ball_radii`.

    Every order question reads one order, `whole`, over D: the ball of
    radius R, then every element below a d_A w_lam of a weak strip or a
    d_A u of a plus family that is longer than R (`_asked_beyond`), sorted
    by (length, window) (`_down_closure`).  Its down-set questions (down
    rows, weak down rows, meets) range over all of D: such a question has
    the same answer in every down-closed set that holds x, since all below
    x is shorter than x and lifting stays inside the lower interval
    (Bjorner-Brenti, GTM 231, Prop. 2.2.7), and D is down-closed.  Its
    up-set questions (up rows, left-up rows, joins) range over the ball of
    radius R, D's first `within` elements.  The Z-families and the weak
    strips are built once, for D and for the checks that read them.
    Strong comparisons are bits of lifted rows, read from one list of
    them, `down`.  Meets are `meet_of` of the AND of two rows, read off
    `down` where it holds them, and joins `join_at`, at positions.

    No instance makes a kernel product or an oracle search, but the two
    checks whose subject a kernel call is: `bruhat-matches-subword-oracle`
    calls `bruhat_leq` and `strong-covers-are-reflections` forms v u^-1.
    Each check adds its passing instances once, from a local tally.  The
    weak-interval chain property is a first-step test per pair
    (`_chain_gaps`), with the chain search `oracles.saturated_chain_exists`
    as its test oracle; u^-1 z and w d_A^-1 are walks (`_quotient`), and
    so are d_A u and d_A^-1 u, along the letters of d_A (`_BallOrder.walk`),
    and d_A w_lam is read off its growth (`StripGrowth.perms`), placed in D.

    The six triple-ball checks (`weak-order-triple-splitting` through
    `demazure-monotone-in-actor`) and `generator-actions-preserve-meet-join`
    read tables built once per sweep along the ball's parents: Demazure
    values (`_hecke_tables`), products (`_product_table`), inversion rows
    over the prefix of radius 2 t, t the triple radius (`_inversion_rows`),
    quotient walks (`_quotient`) and generator steps (`_generator_steps`).
    They need only a down-closed prefix, not a ball.

    The join-seed block (`half-strong-join-minimal`, `half-strong-meet-maximal`,
    `join-seed-minimal-both-forms`) and `interval-flip-anti-isomorphism` work
    on positions only: the seed, join and meet of every pair come from one
    table over right parents (`_seed_tables`), the join-seed sets of each y
    (or x) are spread over every x (or y) at once (`_join_seed_sets`), and
    the flip images are right steps (`_flip_images`).  No pair there calls
    the kernel; `psi_apply`, `s_join_L`, `meet_LS` and `flip` are their
    test oracles.

    The ball of radius R decides `half-strong-join-minimal`: take z = a y
    reduced, with x <= z and y <=_L z.  x is a subword product of
    word(a) word(y); with Q the letters of a it uses, then word(y),
    dem(Q) = dem(Q_a) * y is >= x and >=_L y, below z, and at most
    l(x) + l(y) <= 2 min(L,4) long.  So a z not above j has one in that
    ball below it that is not above j either.
    """
    wide_radius, _, join_radius = ball_radii("order-props", k, max_length)
    radius = max(wide_radius, join_radius)
    elements = ball(k, radius)
    triple_radius = min(max_length, 4 if k <= 2 else 3)
    triple_ball = _prefix(elements, triple_radius)
    seed_ball = _prefix(elements, min(max_length, 4))
    pair_ball = _prefix(elements, min(max_length, 5))
    six_ball = _prefix(elements, min(max_length, 6))
    subword_ball = _prefix(elements, min(max_length, 7 if k <= 2 else 6))
    subsets = proper_subsets(k)
    # per index set, by its mask: the letters of d_A and of d_A^-1
    letters = {}
    for A in subsets:
        index_set = IndexSet._trusted(k, A)
        letters[sum(1 << i for i in A)] = d_steps(index_set), d_inverse_steps(index_set)
    # the Z-families of the six ball and the weak strips, built once for the
    # checks that read them and for what they ask beyond the ball
    families = [z_sets(u) for u in six_ball]  # construction asserts closure and maxima
    growths = [StripGrowth(lam, k) for lam in kbounded_partitions(k, min(max_length + 1, 7))]
    tables = [growth.perms() for growth in growths]
    beyond = _asked_beyond(radius, letters, six_ball, families, tables)
    whole = _BallOrder(_down_closure(elements, beyond), radius)
    elements = whole.elements
    results = []

    # strong comparisons are bits of the lifted down rows, which the ball
    # lifts for its up rows anyway
    down = [whole._lifted(p) for p in range(whole.within)]

    def leq(p, q):
        """Whether the element at ball position p is <= the one at q."""
        return bool(down[q] >> p & 1)

    r = CheckResult("bruhat-matches-subword-oracle")
    passed = 0
    for v in subword_ball:
        lower_v = subword_lower_set(v)
        for u in subword_ball:
            if bruhat_leq(u, v) == (u in lower_v):
                passed += 1
            else:
                r.fail(u=u, v=v)
    r.count(passed)
    results.append(r)

    r = CheckResult("strong-covers-are-reflections")
    passed = 0
    # pair_ball is a prefix of the whole ball, so its elements sit at their own indices
    for a, u in enumerate(pair_ball):
        for b, v in enumerate(pair_ball):
            if v.length != u.length + 1:
                continue
            if leq(a, b) == is_affine_reflection(mul(v, inverse(u))):
                passed += 1
            else:
                r.fail(u=u, v=v)
    r.count(passed)
    results.append(r)

    # The tables of the six triple-ball checks and of the generator actions
    # (see the docstring).  One `parents` call serves the Hecke maps, over
    # the wide ball, and the inversion rows, over the prefix of radius 2 t.
    size = len(triple_ball)
    parents = whole.parents(len(_prefix(elements, max(wide_radius, 2 * triple_radius))))
    # the word and the inverse of every six-ball element, off the left parents
    words = [()]  # (i_1, ..., i_l) for u = s_{i_1} ... s_{i_l}
    at_inverse = [0]  # (s_i u)^-1 = u^-1 s_i
    right = whole.right
    for q, i in parents[0][: len(six_ball) - 1]:
        words.append((i,) + words[q])
        r = at_inverse[q]
        at_inverse.append((right[r] or whole.fill_right(r))[i])
    backwards = [word[::-1] for word in words[:size]]
    dem_at, psi_at = _hecke_tables(whole, parents, size, at_inverse[:size])
    prod = _product_table(whole, parents[0], size)
    t_left, t_right = _inversion_rows(whole, parents, len(_prefix(elements, 2 * triple_radius)))
    psi = _generator_steps(whole, whole.within, up=False)

    r = CheckResult("weak-order-triple-splitting")
    passed = 0
    # z <=_L y z, y z <=_L x (y z), y <=_L x y and z <=_L (x y) z say that a
    # product is reduced, T_R & T_L = 0, even where x y z leaves the ball
    for a, x in enumerate(triple_ball):
        r_x, xys = t_right[a], prod[a]
        for b, y in enumerate(triple_ball):
            y_le = not r_x & t_left[b]
            r_y, r_xy = t_right[b], t_right[xys[b]]
            for z, l_z, yz in zip(triple_ball, t_left, prod[b]):
                lhs = not r_y & l_z and not r_x & t_left[yz]
                rhs = y_le and not r_xy & l_z
                if lhs == rhs:
                    passed += 1
                else:
                    r.fail(x=x, y=y, z=z)
    r.count(passed)
    results.append(r)

    r = CheckResult("demazure-product-factors")
    passed = 0
    # with z = x' y = x y', y <=_L z and x <=_R z hold iff the walks from z
    # to x' = z y^-1 and to y' = x^-1 z descend all the way
    for i, x in enumerate(triple_ball):
        for j, y in enumerate(triple_ball):
            z = dem_at[j][i]
            xp = _quotient(whole, "right", z, backwards[j])
            yp = _quotient(whole, "left", z, words[i])
            if xp is not None and yp is not None and leq(xp, i) and leq(yp, j):
                passed += 1
            else:
                r.fail(x=x, y=y, z=elements[z])
    r.count(passed)
    results.append(r)

    r = CheckResult("anti-demazure-factors")
    passed = 0
    # with y = x'^-1 z, z <=_L y iff the walk from y^-1 to x' = z y^-1 descends
    for i, x in enumerate(triple_ball):
        for j, y in enumerate(triple_ball):
            z = psi_at[j][i]  # no longer than y, so in the triple ball
            xp = _quotient(whole, "left", at_inverse[j], backwards[z])
            if xp is not None and leq(xp, i):
                passed += 1
            else:
                r.fail(x=x, y=y, z=elements[z])
    r.count(passed)
    results.append(r)

    r = CheckResult("demazure-actions-monotone")
    passed = 0
    # an anti-Demazure value is no longer than w, so it lies in the triple
    # ball; w <=_L demazure(x, w) and psi_apply(x, w) <=_L w are subset tests
    for i, x in enumerate(triple_ball):
        xi = at_inverse[i]
        for j, w in enumerate(triple_ball):
            up, r_w = dem_at[j][i], t_right[j]
            good = not r_w & ~t_right[up] and not t_right[psi_at[j][i]] & ~r_w
            if good:
                b = psi_at[j][xi]  # psi_apply(x^-1, w)
                good = leq(j, dem_at[b][i])
            if good:
                q = up  # psi_apply(x^-1, up): the psi steps along the word of x
                for letter in words[i]:
                    q = psi[letter][q]
                good = leq(q, j)
            if good:
                passed += 1
            else:
                r.fail(x=x, w=w)
    r.count(passed)
    results.append(r)

    r = CheckResult("demazure-preserves-order")
    passed = 0
    # the pairs v <= w of the triple ball, in the order of the loops over v and w
    pairs = sorted((v, w) for w in range(size) for v in _positions(down[w]))
    for i, x in enumerate(triple_ball):
        dem_x, psi_x = [row[i] for row in dem_at], [row[i] for row in psi_at]
        for v, w in pairs:
            if down[dem_x[w]] >> dem_x[v] & 1 and down[psi_x[w]] >> psi_x[v] & 1:
                passed += 1
            else:
                r.fail(x=x, v=triple_ball[v], w=triple_ball[w])
    r.count(passed)
    results.append(r)

    r = CheckResult("demazure-monotone-in-actor")
    passed = 0
    for i, j in pairs:
        for t, (dem_w, psi_w) in enumerate(zip(dem_at, psi_at)):
            if down[dem_w[j]] >> dem_w[i] & 1 and down[psi_w[i]] >> psi_w[j] & 1:
                passed += 1
            else:
                r.fail(x=triple_ball[i], y=triple_ball[j], w=triple_ball[t])
    r.count(passed)
    results.append(r)

    r = CheckResult("generator-actions-preserve-meet-join")
    passed = 0
    # phi_i(u) = demazure(s_i, u) = max(u, s_i u) and psi_i(u) = min(u, s_i u)
    # as position lists; meets are read off `down` and joins in the ball.  Both
    # maps are two-to-one, so each stepped pair is met or joined once per letter
    phi = _generator_steps(whole, len(pair_ball), up=True)
    meet_of, join_at = whole.meet_of, whole.join_at
    # the meet and the join of a pair do not depend on i
    pairs = []
    for a, v in enumerate(pair_ball):
        row_a = down[a]
        for b, w in enumerate(pair_ball):
            pairs.append((v, w, a, b, meet_of(row_a & down[b]), join_at(a, b)))
    for i, (phi_i, psi_i) in enumerate(zip(phi, psi)):
        stepped_meets, stepped_joins = {}, {}
        for v, w, a, b, m, top in pairs:
            if m is not None:
                pa, pb = phi_i[a], phi_i[b]
                key = pa, pb
                if key not in stepped_meets:
                    stepped_meets[key] = meet_of(down[pa] & down[pb])
                if stepped_meets[key] == phi_i[m]:
                    passed += 1
                else:
                    r.fail(kind="meet", i=i, v=v, w=w)
            if top is not None:
                key = psi_i[a], psi_i[b]
                if key not in stepped_joins:
                    stepped_joins[key] = join_at(*key)
                if stepped_joins[key] == psi_i[top]:
                    passed += 1
                else:
                    r.fail(kind="join", i=i, v=v, w=w)
    r.count(passed)
    results.append(r)

    r = CheckResult("reduced-factorization-comparison")
    passed = 0
    for c, z in enumerate(pair_ball):
        # the u <=_R z, in ball order, with the positions of u and u^-1 z: the
        # left steps along the word of u descend from z to u^-1 z
        factorizations = []
        for a in _positions(whole.row("right-down", c)):
            x = _quotient(whole, "left", c, words[a])
            if x is None:
                r.fail(z=z, u=elements[a], reason="u^-1 z is not a right factor of z")
            else:
                factorizations.append((a, x))
        for a, x in factorizations:
            row_a = down[a]
            for b, y in factorizations:
                if bool(row_a >> b & 1) == bool(down[y] >> x & 1):
                    passed += 1
                else:
                    r.fail(z=z, u=elements[a], v=elements[b])
    r.count(passed)
    results.append(r)

    r = CheckResult("half-strong-join-minimal")
    r2 = CheckResult("half-strong-meet-maximal")
    r3 = CheckResult("join-seed-minimal-both-forms")
    passed = passed2 = passed3 = 0
    # s_join_L(x, y) = z y and meet_LS(x, y) = z^-1 x for the seed
    # z = psi_apply(y^-1, x, "right"), all three at positions (`_seed_tables`);
    # y <=_L z y and z^-1 x <=_L x are length sums.  The join-seed sets of
    # both forms are rows over the ball of the 0-Hecke maps (`_join_seed_sets`).
    n = len(seed_ball)
    seeds, joins, meets = _seed_tables(whole, parents[1], n)
    wide = len(_prefix(elements, wide_radius))
    hecke_parents = tuple(side[: wide - 1] for side in parents)
    dsets, esets = _join_seed_sets(whole, hecke_parents, n, psi)
    up_rows = whole._up_rows()
    lengths = whole._lengths
    left_up = [whole.row("left-up", y) for y in range(n)]
    left_down = [whole.row("left-down", x) for x in range(n)]
    for x in range(n):
        up_x, row_x = up_rows[x], left_down[x]
        for y in range(n):
            z, j, m = seeds[y][x], joins[y][x], meets[y][x]
            ok = down[j] >> x & 1 and lengths[z] + lengths[y] == lengths[j]
            if ok and not up_x & left_up[y] & ~up_rows[j]:
                passed += 1
            else:
                r.fail(x=elements[x], y=elements[y], join=elements[j])

            ok = lengths[z] + lengths[m] == lengths[x] and down[y] >> m & 1
            if ok and not row_x & down[y] & ~down[m]:
                passed2 += 1
            else:
                r2.fail(x=elements[x], y=elements[y], meet=elements[m])

            dset = dsets[y][x]
            if dset == esets[x][y] and dset >> z & 1 and not dset & ~up_rows[z]:
                passed3 += 1
            else:
                r3.fail(x=elements[x], y=elements[y], seed=elements[z])
    r.count(passed)
    r2.count(passed2)
    r3.count(passed3)
    results.extend([r, r2, r3])

    r = CheckResult("interval-flip-anti-isomorphism")
    passed = 0
    # the flip x -> z x^-1 at positions (`_flip_images`); meets are read off
    # `down` and joins in the ball
    for c, z in enumerate(six_ball):
        left_row = whole.row("left-down", c)
        left_interval = _positions(left_row)
        right_interval = whole.row("right-down", c)
        images = _flip_images(whole, c)
        for x in left_interval:
            fx = images[x]
            if right_interval >> fx & 1 and lengths[fx] == lengths[c] - lengths[x]:
                passed += 1
            else:
                r.fail(z=z, x=elements[x])
        if _mask(sorted(set(images.values()))) == right_interval:
            passed += 1
        else:
            r.fail(z=z, reason="flip is not onto the right interval")
        for x in left_interval:
            row_x, fx = down[x], images[x]
            for y in left_interval:
                fy = images[y]
                if bool(down[y] >> x & 1) == bool(down[fx] >> fy & 1):
                    passed += 1
                else:
                    r.fail(z=z, x=elements[x], y=elements[y])
                m = meet_of(row_x & down[y])
                if m is not None and left_row >> m & 1:
                    if join_at(fx, fy) == images[m]:
                        passed += 1
                    else:
                        r.fail(z=z, x=elements[x], y=elements[y], kind="meet-to-join")
    r.count(passed)
    results.append(r)

    r = CheckResult("weak-interval-chain-property")
    passed = 0
    slices = _length_slices(lengths)
    for c, u in enumerate(six_ball):
        pairs, gaps = _chain_gaps(whole.row("left-down", c), down, up_rows, lengths, slices)
        passed += pairs - len(gaps)
        for x, y in gaps:
            r.fail(u=u, x=elements[x], y=elements[y])
    r.count(passed)
    results.append(r)

    def down_row(p):
        """Strong down row of the element at p, from `down` where it holds it."""
        return down[p] if p < len(down) else whole._lifted(p)

    inverses = [elements[p] for p in at_inverse]
    results.extend(
        _verify_z_families(k, letters, six_ball, families, inverses, whole, down_row)
    )
    results.extend(_verify_strongly_commutative(k, subsets, seed_ball))
    # the k-code ball is a quantifier range: its left-up rows stop at its radius
    kcode_order = _BallOrder(_prefix(elements, min(max_length, 6 if k <= 2 else 5)))
    results.extend(_verify_kcode_props(k, subsets, kcode_order))
    results.extend(_verify_strip_props(k, growths, tables, subsets, whole, down_row))
    return results


def _asked_beyond(radius, letters, six_ball, families, tables):
    """The elements longer than `radius` whose down rows the sweep reads:
    every d_A u of a plus-family member A of a u of `six_ball`, and every
    d_A w_lam of a weak strip of a table of `tables` (`StripGrowth.perms`).

    Both are steps up in the left weak order, so l(d_A u) = l(u) + |A| and
    l(d_A w_lam) = |lam| + |A|.  Only the d_A u longer than the radius are
    formed, by `left_action` along the letters of d_A.
    """
    for u, zs in zip(six_ball, families):
        for a in _positions(zs.plus_bits):
            if u.length + a.bit_count() > radius:
                yield left_action(u, letters[a][0])
    for table in tables:
        yield from (v for v in table.values() if v.length > radius)


def _verify_strip_props(k, growths, tables, subsets, whole, down_row) -> list[CheckResult]:
    """Weak-strip checks that read each growth's table in `tables`, index
    set -> d_A w_lam (`StripGrowth.perms`), and its one size-k top.

    `strip-criteria-agree` compares `is_weak_strip` with the parabolic
    criterion as the growth, which the Pieri rules run on, decides it:
    membership in the table.  Each d_A w_lam is placed in `whole` once
    (`whole.at` raises outside it), and A, B meet at the position of A & B,
    which fails where A & B is no strip.  Strips go by size, then index set.
    """
    forb = CheckResult("forbidden-index-never-in-a-strip")
    unique = CheckResult("unique-size-k-strip-adds-one-row")
    agree = CheckResult("strip-criteria-agree")
    meets = CheckResult("strip-meet-is-strip-of-intersection")
    passed_forb = passed_unique = passed_agree = passed_meets = 0
    all_subsets = [IndexSet._trusted(k, A) for A in subsets]
    for growth, table in zip(growths, tables):
        lam = growth.lam
        fi = forbidden_index(lam)
        if all(fi not in A for A in table):
            passed_forb += 1
        else:
            forb.fail(lam=list(lam.parts), forbidden=fi)
        top_k = list(growth.tops(k).values())
        if top_k == [union_sort(KBoundedPartition(k, (k,)), lam)]:
            passed_unique += 1
        else:
            unique.fail(lam=list(lam.parts))
        if all(is_weak_strip(lam, A) == (A.members in table) for A in all_subsets):
            passed_agree += 1
        else:
            agree.fail(lam=list(lam.parts))
        strips = sorted(table, key=lambda A: (len(A), sorted(A)))
        at = {A: whole.at(table[A]) for A in strips}
        below = [down_row(at[A]) for A in strips]
        for A, row_a in zip(strips, below):
            for B, row_b in zip(strips, below):
                cap = at.get(A & B)
                if cap is not None and whole.meet_of(row_a & row_b) == cap:
                    passed_meets += 1
                else:
                    meets.fail(lam=list(lam.parts), A=sorted(A), B=sorted(B))
    forb.count(passed_forb)
    unique.count(passed_unique)
    agree.count(passed_agree)
    meets.count(passed_meets)
    return [forb, unique, agree, meets]


def _extends_toward(a: int, b: int, family: int) -> bool:
    """Some i in B - A has A | {i} in the family.

    A and B are residue masks, A a proper subset of B, and the family is a
    bitset over residue masks, as `ZSets` holds it.  A family passes this
    test on every pair A < B of its members exactly when each such pair is
    joined by a chain inside the family that adds one index at a time, the
    `z-families-chain-property`: given the test, take such an i and go on
    from A | {i} < B, by induction on |B - A|; conversely the first step of
    a chain is such an i.  So one pass over B - A replaces the
    breadth-first chain search, which stays as the oracle
    `oracles.subset_chain_exists`.  On a broken family the pairs it flags
    are among those the chain search flags (a pair with no first step has
    no chain), and it flags at least one when that search does.
    """
    rest = b ^ a
    while rest:
        bit = rest & -rest  # {i} for the least i left in B - A
        if family >> (a | bit) & 1:
            return True
        rest ^= bit
    return False


def _verify_z_families(
    k, letters, elements, families, inverses, whole, down_row
) -> list[CheckResult]:
    """Z-family checks over `elements`, whose Z-families are `families` and
    whose inverses are `inverses`; `letters` maps the mask of each index set
    A to the letters of d_A and of d_A^-1.

    The families are read as `ZSets` holds them, bitsets over residue
    masks, and an index set A is its mask throughout.  `elements` are a
    prefix of `whole`, so u sits at its own index there.  d_A u and
    d_A^-1 u are positions in `whole`, walks (`_BallOrder.walk`) from
    that of u along the letters of d_A (`d_steps`, `d_inverse_steps`),
    once per member A; a walk that leaves the order raises.  d_{A & B} u
    is the meet of d_A u and d_B u exactly when the AND of their down rows
    (`down_row`, once per member) is its down row: a common lower bound
    that holds every other one.  Joins are `join_at`.  The member whose
    mask is A & B is read by index.
    """
    closure = CheckResult("z-families-closed-and-bounded")
    meets = CheckResult("plus-family-intersection-is-meet")
    joins = CheckResult("minus-family-intersection-is-join")
    chains = CheckResult("z-families-chain-property")
    confining = CheckResult("minus-family-confined-to-code-row")
    passed_meets = passed_joins = passed_chains = passed_confining = 0
    absent = [-1] * (1 << (k + 1))  # -1: no member has this mask
    join_at, walk = whole.join_at, whole.walk
    for c, (u, zs, u_inverse) in enumerate(zip(elements, families, inverses)):
        # the down row of d_A u, up to min(L, 6) + k long; closed under intersection
        plus = _positions(zs.plus_bits)
        row_at = absent.copy()
        rows = []
        for a in plus:
            row_at[a] = row = down_row(walk(c, letters[a][0]))
            rows.append(row)
        for i, (row_a, a) in enumerate(zip(rows, plus)):
            for j in range(i + 1, len(plus)):
                if row_a & rows[j] == row_at[a & plus[j]]:
                    passed_meets += 1
                else:
                    meets.fail(u=u, A=_positions(a), B=_positions(plus[j]))
        # d_A^-1 u, no longer than u
        minus = _positions(zs.minus_bits)
        at = absent.copy()
        for a in minus:
            at[a] = walk(c, letters[a][1])
        for i, a in enumerate(minus):
            for j in range(i + 1, len(minus)):
                if join_at(at[a], at[minus[j]]) == at[a & minus[j]]:
                    passed_joins += 1
                else:
                    joins.fail(u=u, A=_positions(a), B=_positions(minus[j]))
        for family, masks in ((zs.plus_bits, plus), (zs.minus_bits, minus)):
            for i, a in enumerate(masks):
                for b in masks[i + 1 :]:  # a proper superset of A has a larger mask
                    if a & b == a:
                        if _extends_toward(a, b, family):
                            passed_chains += 1
                        else:
                            chains.fail(u=u, A=_positions(a), B=_positions(b))
        row = first_row(ri(u_inverse), increasing=True)
        outside = (1 << (k + 1)) - 1 - sum(1 << i for i in row)
        forb = minus_forbidden_indices(u)
        if not any(a & outside for a in minus) and forb == frozenset(range(k + 1)) - row:
            passed_confining += 1
        else:
            confining.fail(u=u, row=sorted(row))
    closure.count(len(elements))
    meets.count(passed_meets)
    joins.count(passed_joins)
    chains.count(passed_chains)
    confining.count(passed_confining)
    return [closure, meets, joins, chains, confining]


def _verify_strongly_commutative(k, subsets, zb) -> list[CheckResult]:
    """Strongly disjoint d_A, d_B commute, and split z <=_L d_A d_B z.

    A is strongly disjoint from B when it misses B and B's residues
    shifted by one either way, a bitmask test.  Products are `left_action`
    along the letters of d_A; l(a z) is formed once per z and per d_A or
    product a = d_A d_B, not per pair.
    """
    disj = CheckResult("strongly-disjoint-elements-commute")
    split = CheckResult("strongly-commutative-splitting")
    n = k + 1
    full = (1 << n) - 1
    nonempty = [A for A in subsets if A]
    bits = [sum(1 << i for i in A) for A in nonempty]
    near = [b | (b << 1 | b >> k) & full | (b >> 1 | b << k) & full for b in bits]
    pairs = [
        (A, B)
        for A, bit in zip(nonempty, bits)
        for B, around in zip(nonempty, near)
        if not bit & around
    ]
    d, steps = {}, {}
    for A in {A for A, _ in pairs}:
        index_set = IndexSet._trusted(k, A)
        d[A], steps[A] = d_elem(index_set), d_steps(index_set)
    passed = 0
    products: dict[AffinePermutation, int] = {}  # d_A d_B -> its index
    words = []  # the letters of each product, those of d_B first
    at_product = []  # the index and length of each pair's product
    for A, B in pairs:
        x, y = d[A], d[B]
        xy = left_action(y, steps[A])
        if xy == left_action(x, steps[B]) and xy.length == x.length + y.length:
            passed += 1
        else:
            disj.fail(A=sorted(A), B=sorted(B))
        if xy not in products:
            products[xy] = len(words)
            words.append(steps[B] + steps[A])
        at_product.append((products[xy], xy.length))
    disj.count(passed)
    # z <=_L a z iff l(a) + l(z) = l(a z), and a z <=_L z iff l(a) + l(a z) = l(z)
    passed = 0
    by_set = [{A: left_action(z, steps[A]).length for A in steps} for z in zb]
    by_product = [[left_action(z, word).length for word in words] for z in zb]
    for (A, B), (xy, ab) in zip(pairs, at_product):
        a, b = d[A].length, d[B].length
        for z, set_lengths, product_lengths in zip(zb, by_set, by_product):
            c, xz, yz, xyz = z.length, set_lengths[A], set_lengths[B], product_lengths[xy]
            up = (ab + c == xyz) == (a + c == xz and b + c == yz)
            dn = (ab + xyz == c) == (a + xz == c and b + yz == c)
            if up and dn:
                passed += 1
            else:
                split.fail(A=sorted(A), B=sorted(B), z=z)
    split.count(passed)
    return [disj, split]


def _verify_kcode_props(k, subsets, order) -> list[CheckResult]:
    elems = order.elements
    bij = CheckResult("kcode-round-trip-and-injective")
    mono = CheckResult("kcodes-monotone-in-weak-order")
    dom = CheckResult("dominance-reads-off-code")
    rowmax = CheckResult("bottom-row-is-inclusion-maximal")
    passed_bij = passed_mono = passed_dom = passed_rowmax = 0
    steps = {A: d_steps(IndexSet._trusted(k, A)) for A in subsets}
    seen = {}
    codes = []
    for p, w in enumerate(elems):
        code = rd(w)
        cod2 = ri(w)
        codes.append((code, cod2))
        ok = (
            eval_code(code) == w
            and eval_code(cod2, increasing=True) == w
            and code.size == w.length == cod2.size
            and seen.setdefault(code.values, w) == w
        )
        if ok:
            passed_bij += 1
        else:
            bij.fail(w=w)
        right = descents(w, "right")
        for i in range(k + 1):
            cyc = [code.values[(i + t) % (k + 1)] for t in range(k + 1)]
            by_code = all(
                cyc[t] >= cyc[t + 1] for t in range(k)
            ) and code.values[(i - 1) % (k + 1)] == 0
            if by_code == (right <= {i}):
                passed_dom += 1
            else:
                dom.fail(w=w, i=i)
        row = first_row(code)
        # l(w d_A^-1) = l(w) - |A| iff the right steps along the letters of
        # d_A all shorten w
        if all(_quotient(order, "right", p, steps[A]) is None for A in subsets if row < A):
            passed_rowmax += 1
        else:
            rowmax.fail(w=w)
    for p, (x, (cx, ix)) in enumerate(zip(elems, codes)):
        for q in _positions(order.row("left-up", p)):
            cy, iy = codes[q]
            if cy.contains(cx) and iy.contains(ix):
                passed_mono += 1
            else:
                mono.fail(x=x, y=elems[q])
    bij.count(passed_bij)
    mono.count(passed_mono)
    dom.count(passed_dom)
    rowmax.count(passed_rowmax)
    return [bij, mono, dom, rowmax]


# ---------------------------------------------------------------------------
# fiber suites
# ---------------------------------------------------------------------------


def verify_fibers(k: int, max_length: int) -> list[CheckResult]:
    """Fibers of the Demazure action: labels, boolean intervals, uniqueness."""
    wide = ball(k, max(ball_radii("fibers", k, max_length)))
    gball = [w for w in wide if w.is_grassmannian()]
    order = _BallOrder(wide)
    labels = CheckResult("fiber-labels-match-element-scan")
    convex = CheckResult("fibers-convex-in-strong-order")
    caps = CheckResult("fiber-labels-closed-under-intersection")
    covers = CheckResult("corank-one-subsets-stay-in-fiber")
    seven = CheckResult("membership-characterizations-agree")
    singles = CheckResult("singleton-fiber-iff-found-index-set")
    a0r = CheckResult("strip-reachability-conditions-agree")
    subsets = proper_subsets(k)
    steps = {g: _growth_steps(order, g) for g in gball}
    scan = _fiber_scan(gball, max_length)
    for u in gball:
        minus = z_sets(u).minus  # decoded once per u
        occupied = []  # the A with a nonempty fiber over u
        for members in subsets:
            A = IndexSet._trusted(k, members)
            fib = fiber_X(A, u)  # constructor asserts the boolean interval
            if fib.members:
                occupied.append(members)
            via_labels = {
                mul(inverse(d_elem(IndexSet._trusted(k, B))), u) for B in fib.members
            }
            ok = scan.get((members, u), set()) == via_labels
            labels.count() if ok else labels.fail(u=u, A=sorted(members))
            # convex: no q outside the fiber, below v'' and longer than v, is above v
            elements = sorted(via_labels, key=lambda v: v.length)
            at = [order.position(v) for v in elements]
            below = [order._lifted(p) for p in at]
            outside = ~_mask(sorted(at))
            for v, p in zip(elements, at):
                longer = -1 << bisect.bisect_right(order._lengths, v.length)
                for row in below:
                    if row >> p & 1:
                        between = _positions(row & outside & longer)
                        ok = not any(order._lifted(q) >> p & 1 for q in between)
                        convex.count() if ok else convex.fail(u=u, A=sorted(members), v=v)
            for B, C in itertools.combinations(sorted(fib.members, key=sorted), 2):
                caps.count() if B & C in fib.members else caps.fail(u=u, A=sorted(members))
            if members in minus:
                for i in members:
                    Ap = members - {i}
                    if Ap in minus:
                        ok = Ap in fib.members
                        covers.count() if ok else covers.fail(u=u, A=sorted(members), i=i)
                for B in subsets:
                    if B <= members and B in minus:
                        ok = _seven_way_agreement(members, B, fib, minus)
                        seven.count() if ok else seven.fail(u=u, A=sorted(members), B=sorted(B))
        for w in gball:
            found = find_A0(u, w)
            # fiber_Y keeps part of fiber_X, so only an occupied A can have one element
            single_As = {
                members
                for members in occupied
                if len(fiber_Y(IndexSet._trusted(k, members), u, w).members) == 1
            }
            expect = set() if found is None else {found.members}
            singles.count() if single_As == expect else singles.fail(
                u=u, w=w, found=None if found is None else sorted(found.members)
            )
            conds_by_r = _a0_conditions(order, steps[u][0], steps[w][1], u, w, found)
            for r, conds in enumerate(conds_by_r):
                ok = len(set(conds)) == 1
                a0r.count() if ok else a0r.fail(u=u, w=w, r=r, conds=list(conds))
    return [labels, convex, caps, covers, seven, singles, a0r]


def _seven_way_agreement(A, B, fib, minus) -> bool:
    """The seven equivalent membership tests for B inside the fiber of A;
    minus is the minus family of the fiber's element."""
    between = [
        B | frozenset(extra)
        for r in range(len(A - B) + 1)
        for extra in itertools.combinations(sorted(A - B), r)
    ]
    c1 = B in fib.members
    c2 = all(B | {i} in minus for i in A - B)
    c3 = all(B | {i} in fib.members for i in A - B)
    c4 = all(A - {i} in minus for i in A - B)
    c5 = all(A - {i} in fib.members for i in A - B)
    c6 = all(C in minus for C in between)
    c7 = all(C in fib.members for C in between)
    return len({c1, c2, c3, c4, c5, c6, c7}) == 1


def _a0_conditions(order, u_down, w_up, u, w, found) -> list[tuple[bool, bool, bool, bool]]:
    """The four conditions for every r = 0..k, off the strict steps of u down
    and of w up (`_growth_steps`), none of which depends on r: d_A^-1 u <= w
    and u <= d_A w are bits of the down rows of w and of the lift of d_A w."""
    k = u.k
    pu, below_w = order.position(u), order._lifted(order.position(w))
    # least |A| with d_A^-1 u <= w, least |A| with u <= d_A w, and every such |A|
    least_down = min((size for size, p in u_down if below_w >> p & 1), default=k + 1)
    up_sizes = {size for size, letters, row in w_up if row >> order.lower(pu, letters) & 1}
    least_up = min(up_sizes, default=k + 1)
    return [
        (found is not None and len(found) <= r, least_down <= r, least_up <= r, r in up_sizes)
        for r in range(k + 1)
    ]


# ---------------------------------------------------------------------------
# symmetric-function suites
# ---------------------------------------------------------------------------


def verify_pieri_sum(k: int, max_size: int) -> list[CheckResult]:
    """Ideal-sum Pieri identity: signed product vs indicator sum vs IE form."""
    direct_vs_union = CheckResult("signed-product-equals-interval-union")
    zero_one = CheckResult("product-coefficients-are-zero-or-one")
    ie_form = CheckResult("inclusion-exclusion-expands-to-product")
    join_bound = CheckResult("product-support-above-weak-join")
    for lam in kbounded_partitions(k, max_size):
        growth = StripGrowth(lam, k)
        # gtilde_pieri_direct(lam, r) for r = 0..k, adding one h_r gtilde(lam) at a time
        base = gtilde(lam)
        direct = SymElt._trusted(k, "g", {})
        for r in range(0, k + 1):
            closed = _gtilde_pieri_union(growth, r)
            direct = direct + h_mult(base, r)
            ie = _gtilde_pieri_ie(growth, r)
            direct_vs_union.count() if closed == direct else direct_vs_union.fail(
                lam=list(lam.parts), r=r, direct=direct, closed=closed
            )
            ok = all(c == 1 for c in direct.as_mapping().values())
            zero_one.count() if ok else zero_one.fail(lam=list(lam.parts), r=r)
            if expand_gtilde_combination(k, ie) == closed:
                ie_form.count()
            else:
                ie_form.fail(
                    lam=list(lam.parts),
                    r=r,
                    ie={str(list(p)): c for p, c in _in_term_order(ie).items()},
                )

    # the left weak order is a meet-semilattice (Bjorner-Brenti, GTM 231,
    # Thm 3.2.1), so w_nu lies above the join of w_a and w_b iff above both
    small = kbounded_partitions(k, min(max_size, 3))
    for a in small:
        for b in small:
            factors = [(inverse(x), x.length) for x in (bounded_to_perm(a), bounded_to_perm(b))]
            prod_g = symfunc.product_g(
                SymElt._trusted(k, "g", {a.parts: 1}), SymElt._trusted(k, "g", {b.parts: 1})
            )
            prod_s = product_ks(
                SymElt._trusted(k, "ks", {a.parts: 1}), SymElt._trusted(k, "ks", {b.parts: 1})
            )
            not_above = []
            for parts in sorted({*prod_g.as_mapping(), *prod_s.as_mapping()}):
                w = bounded_to_perm(KBoundedPartition._trusted(k, parts))
                # x <=_L w iff l(w x^-1) + l(x) = l(w)
                if any(mul(w, x_inv).length + lx != w.length for x_inv, lx in factors):
                    not_above.append(list(parts))
            join_bound.count() if not not_above else join_bound.fail(
                a=list(a.parts), b=list(b.parts), not_above=not_above
            )
    return [direct_vs_union, zero_one, ie_form, join_bound]


def verify_factorization(k: int, max_size: int) -> list[CheckResult]:
    """Rectangle factorization for both bases, plus the strip-shift lemmas."""
    gt = CheckResult("ideal-sum-rectangle-factorization")
    ks = CheckResult("homogeneous-rectangle-factorization")
    top = CheckResult("inhomogeneous-top-degree-is-homogeneous")
    shift = CheckResult("rectangle-union-shifts-strips")
    ie_shift = CheckResult("rectangle-union-shifts-ie-labels")
    lams = kbounded_partitions(k, max_size)
    rects = {t: k_rectangle(t, k) for t in range(1, k + 1)}
    # gtilde(lam) is the sum of g_mu over mu below lam, so gtilde(R_t) gtilde(lam)
    # is the sum of the rows g_mu gtilde(R_t), each made once per (t, mu).  A
    # row, and s_{R_t} s_lam, expands its factor of lower top degree in h, as
    # `symfunc.product_g` does, and reads the other factor times each h
    # monomial from that factor's table: one table per rectangle and basis for
    # the whole sweep, one per partition for its t loop.
    g_rects = {t: {(): gtilde(rect)._terms} for t, rect in rects.items()}
    s_rects = {t: {(): {rect.parts: 1}} for t, rect in rects.items()}
    g_rects_in_h: dict[int, dict] = {}  # gtilde(R_t) in h, made where first needed
    rows: dict[tuple[int, tuple[int, ...]], dict] = {}  # by (t, parts of mu)
    for lam in lams:
        g_lam, s_lam = {(): {lam.parts: 1}}, {(): {lam.parts: 1}}
        for t, rect in rects.items():
            if lam.size <= rect.size:
                row = symfunc._h_combination(g_to_h(lam)._terms, g_rects[t], "g", k)
            else:
                if t not in g_rects_in_h:
                    g_rects_in_h[t] = _h_expansion(gtilde(rect), g_to_h)
                row = symfunc._h_combination(g_rects_in_h[t], g_lam, "g", k)
            rows[t, lam.parts] = {p: c for p, c in row.items() if c}
            if rect.size > lam.size:
                prod = symfunc._h_combination(ks_to_h(lam)._terms, s_rects[t], "ks", k)
            else:
                prod = symfunc._h_combination(ks_to_h(rect)._terms, s_lam, "ks", k)
            lhs = SymElt._trusted(k, "ks", {union_sort(rect, lam).parts: 1})
            rhs = SymElt._trusted(k, "ks", prod)
            ks.count() if lhs == rhs else ks.fail(lam=list(lam.parts), t=t)
    for lam in lams:
        for t, rect in rects.items():
            acc: dict[tuple[int, ...], int] = {}
            for mu in strong_ideal_parts(lam):
                _accumulate(acc, rows[t, mu])
            lhs, rhs = gtilde(union_sort(rect, lam)), SymElt._trusted(k, "g", acc)
            gt.count() if lhs == rhs else gt.fail(lam=list(lam.parts), t=t, lhs=lhs, rhs=rhs)

    for lam in lams:
        top.count() if kschur_top_degree_check(lam) else top.fail(lam=list(lam.parts))

    # the strip tops and the IE labels of lam do not depend on t; each
    # partition is grown once, to level k, and only its tables are kept
    small = {}
    for lam in lams:
        growth = StripGrowth(lam, k)
        for r in range(0, k + 1):
            labels = [
                (KBoundedPartition._trusted(k, parts), c)
                for parts, c in _gtilde_pieri_ie(growth, r).items()
            ]
            small[lam, r] = (growth.tops(r), labels)
    n = k + 1
    for t, rect in rects.items():
        for lam in lams:
            big = StripGrowth(union_sort(rect, lam), k)
            for r in range(0, k + 1):
                small_tops, ie_small = small[lam, r]
                big_tops = big.tops(r)
                # rotation by t is injective, so equal sizes and every rotated
                # set found with the shifted top make the tables equal
                ok = len(small_tops) == len(big_tops) and all(
                    union_sort(rect, top) == big_tops.get(frozenset((i + t) % n for i in A))
                    for A, top in small_tops.items()
                )
                shift.count() if ok else shift.fail(lam=list(lam.parts), t=t, r=r)
                ie_big = _gtilde_pieri_ie(big, r)
                expected = {}
                for label, c in ie_small:
                    key = union_sort(rect, label).parts
                    expected[key] = expected.get(key, 0) + c
                ok = {p: c for p, c in expected.items() if c} == ie_big
                ie_shift.count() if ok else ie_shift.fail(lam=list(lam.parts), t=t, r=r)
    return [gt, ks, top, shift, ie_shift]
