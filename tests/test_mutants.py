"""A fault table: which check catches which planted bug.

Each mutant replaces one function by a wrong version of it, and names the
suite configurations where it runs and the checks it must fail there.  The
unmutated suites pass at those configurations, so a mutant that stops
failing its checks means a refactor lost the sharing the check relied on:
the table records, for instance, that the meets of `generator-actions`
and of `interval-flip` both go through `orderlab._BallOrder.meet_of`.  A
failure beyond the recorded checks is allowed; a recorded check that
passes is not.

A mutant that no check kills is kept as a survivor, a row with no
recorded checks, and its test asserts that it still survives: a new check
that kills it turns the row into an ordinary one.

A mutant replaces the function wherever a module of the package holds it
by name, so a function that `verify` imports from `symfunc` or `orderlab`
is wrong in both.  A memo may hold values of the function under test, or
values computed from it, so every memo of the package (each `lru_cache`
and the h-basis transition tables of `symfunc`) is emptied before each
configuration and again after the mutant run: a row's checks do not
depend on the order the tests run in, and nothing computed under a mutant
outlives its test.
"""

from typing import Callable, NamedTuple

import pytest

from affineschur import affine, kcode, orderlab, partitions, shapes, symfunc, verify
from affineschur.affine import from_word, left_mul_s, reduced_word
from affineschur.kcode import KCode
from affineschur.orderlab import Fiber
from affineschur.partitions import KBoundedPartition
from affineschur.symfunc import SymElt
from affineschur.verify import (
    verify_factorization,
    verify_fibers,
    verify_order_props,
    verify_pieri_sum,
)

SUITES = {
    "order-props": verify_order_props,
    "factorization": verify_factorization,
    "pieri-sum": verify_pieri_sum,
    "fibers": verify_fibers,
}

# every lru_cache of the package, taken before any mutant replaces one
MEMOS = list(
    {
        id(value): value
        for module in (affine, kcode, orderlab, partitions, shapes, symfunc, verify)
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }.values()
)


def _empty_memos():
    for memo in MEMOS:
        memo.cache_clear()
    symfunc._G2H_TABLES.clear()
    symfunc._KS2H_TABLES.clear()


class Mutant(NamedTuple):
    name: str
    owner: object  # the module or class holding the function
    attribute: str
    mutate: Callable  # original function -> its wrong version
    suite: str
    configs: tuple[tuple[int, int], ...]
    checks: frozenset[str]


def _meet_without_meet_test(original):
    def meet_of(self, common):
        return common.bit_length() - 1  # a longest common lower bound, meet or not

    return meet_of


def _join_without_least_test(original):
    def join_at(self, a, b):
        up = self._up_rows()
        ubs = up[a] & up[b]
        return (ubs & -ubs).bit_length() - 1  # a shortest common upper bound

    return join_at


def _seeds_one_right_step_off(original):
    def seed_tables(order, right, size):
        seeds, joins, meets = original(order, right, size)

        def off(z):
            t = (order.right[z] or order.fill_right(z))[0]
            return z if t < 0 else t

        return [[off(z) for z in row] for row in seeds], joins, meets

    return seed_tables


def _inversion_rows_without_s0(original):
    def inversion_rows(order, parents, size):
        t_left, t_right = original(order, parents, size)
        s0 = t_left[order.position(from_word(order.elements[0].k, [0]))]  # T_L(s_0) = {s_0}
        return [row & ~s0 for row in t_left], [row & ~s0 for row in t_right]

    return inversion_rows


def _products_one_left_step_down(original):
    def product_table(order, left, size):
        def off(p):  # s_0 u where that is shorter, so the entry stays in the rows
            t = (order.left[p] or order.fill_left(p))[0]
            return t if 0 <= t < p else p

        return [[off(p) for p in row] for row in original(order, left, size)]

    return product_table


def _quotient_accepting_ascents(original):
    def quotient(order, side, p, letters):
        steps, fill = order.side(side)
        for i in letters:
            t = (steps[p] or fill(p))[i]
            if t < 0:
                return None
            p = t  # a longer element too
        return p

    return quotient


def _left_step_of_s0_s3_s0_to_its_right_step(original):
    def fill_left(self, p):
        # s_0 w read as w s_0 for w = s_0 s_3 s_0: the entry of the same
        # length, s_0 s_3 in place of s_3 s_0
        row = original(self, p)
        if self.elements[p] == from_word(3, [0, 3, 0]):
            row[0] = (self.right[p] or self.fill_right(p))[0]
        return row

    return fill_left


def _slices_one_length_too_long(original):
    def length_slices(lengths):
        return original(lengths)[1:]  # slices[l] holds the positions of length l + 1

    return length_slices


def _psi_one_letter_off(original):
    def generator_steps(order, size, up):
        steps = original(order, size, up)
        return steps if up else steps[1:] + steps[:1]  # psi_{i+1} read as psi_i

    return generator_steps


# The pieri_kk mutants replace the level reader of g rows,
# `symfunc._set_valued_levels`, so every caller of `symfunc.pieri_kk` and of
# `symfunc._h_products` reads the wrong rows.
def _pieri_kk_lower_signs_flipped(original):
    def _set_valued_levels(k, parts, rs):
        rows = original(k, parts, rs)
        if parts != (2, 1) or 1 not in rows:
            return rows
        top = sum(parts) + 1
        rows[1] = SymElt._trusted(
            k, "g", {p: c if sum(p) == top else -c for p, c in rows[1].as_mapping().items()}
        )
        return rows

    return _set_valued_levels


def _pieri_kk_top_degree_only(original):
    def _set_valued_levels(k, parts, rs):
        rows = original(k, parts, rs)
        for r, row in rows.items():
            top = sum(parts) + r
            rows[r] = SymElt._trusted(
                k, "g", {p: c for p, c in row.as_mapping().items() if sum(p) == top}
            )
        return rows

    return _set_valued_levels


def _levels_signed_by_the_top_level(original):
    # (-1)^(top - dl) for (-1)^(r - dl): a row asked alone is its own top,
    # so only a fill of several levels reads a wrong sign.  At (2,1) only,
    # as above: at every partition, the inversions of the weak-join check
    # read the wrong rows that the signed side kept, and pieri-sum raises
    # "not unitriangular" at (3,4) instead of failing a check
    def _set_valued_levels(k, parts, rs):
        rows = original(k, parts, rs)
        if parts != (2, 1):
            return rows
        top = max(rs)
        for r in rs:
            if (top - r) & 1:
                rows[r] = rows[r].scale(-1)
        return rows

    return _set_valued_levels


def _ideals_without_empty_partition(original):
    def strong_ideal_parts(lam):
        ideal = original(lam)
        return tuple(mu for mu in ideal if mu) if len(ideal) > 3 else ideal

    return strong_ideal_parts


def _ideal_shift_one_row_low(original):
    def strong_ideal_parts(lam):
        # the search of `symfunc.strong_ideal_parts`, sliding each part by the
        # placed row just below the (j - (k - p))-th
        k, core = lam.k, shapes._core_rows(lam)
        found = [()]

        def grow(parts, placed, row):
            for p in range(parts[-1] if parts else 1, k + 1):
                i = len(placed) - (k - p) - 2
                length = p + (placed[i] if i >= 0 else 0)
                if length > core[row]:
                    break
                if row:
                    grow(parts + [p], placed + [length], row - 1)
                else:
                    found.append(tuple(reversed(parts + [p])))

        for row in range(len(core)):
            grow([], [], row)
        return tuple(found)

    return strong_ideal_parts


def _growth_answering_with_the_level_below(original):
    # at (2,1) only, as for the pieri_kk mutants: wherever an inversion
    # reads the level below as its Pieri row, it raises "not unitriangular"
    def _set_valued_levels(k, parts, rs):
        if parts != (2, 1):
            return original(k, parts, rs)
        below = original(k, parts, sorted({max(r - 1, 1) for r in rs}))
        return {r: below[max(r - 1, 1)] for r in rs}

    return _set_valued_levels


def _table_entry_one_step_short(original):
    def h_combination(in_h, table, basis, k):
        if (2, 1) not in table:  # b h_(2,1) read as b h_(2)
            table[(2, 1)] = original({(2,): 1}, table, basis, k)
        return original(in_h, table, basis, k)

    return h_combination


def _fill_one_step_short(original):
    def fill(walk, rows, step):
        def short(r, terms):
            # b_(2,1) X formed from b_(2) X without its h_1 step
            return dict(terms) if r == 1 and terms is rows.get((2,)) else step(r, terms)

        return original(walk, rows, short)

    return fill


def _walk_skipping_one_lower_row(original):
    def walk(k, targets, rule, known=()):
        # b_(1,1) = h_1 b_(1) - b_(2) - ..., without the row of (2)
        def row_without_2(nu, r):
            row = rule(nu, r)
            if nu.parts != (1,) or r != 1:
                return row
            terms = row.as_mapping()
            del terms[(2,)]
            return SymElt._trusted(nu.k, row.basis, terms)

        return original(k, targets, row_without_2, known)

    return walk


def _window_shape_of_the_parent(original):
    def window_shape(k, window):
        # every window of shape (2,2) answers the shape of its parent (2,1)
        # in Young's lattice
        shape = original(k, window)
        return KBoundedPartition._trusted(k, (2, 1)) if shape.parts == (2, 2) else shape

    return window_shape


def _rectangle_one_row_short(original):
    def k_rectangle(t, k):
        return KBoundedPartition._trusted(k, original(t, k).parts[1:])  # k - t rows of t

    return k_rectangle


def _ri_columns_in_rd_order(original):
    def ri(w):
        # column m read at window position m, as in rd, not at position n-1-m
        return KCode(w.k, original(w).values[::-1])

    return ri


def _fiber_without_lone_top_label(original):
    def fiber_X(A, u):
        fib = original(A, u)
        # a fiber is the interval [bottom, A]; without its top it stays one
        # only where the top is all it holds
        return Fiber(A, u, frozenset()) if fib.members == {A.members} else fib

    return fiber_X


def _no_singleton_search(original):
    def find_A0(u, w):
        return None

    return find_A0


def _minus_family_without_a_silent_member(original):
    def z_sets(u):
        # drop the first member between the empty set and the maximum whose
        # loss the closure and maximum assertions of ZSets do not see
        zs = original(u)
        top = frozenset().union(*zs.minus)
        for middle in sorted(zs.minus, key=lambda A: (len(A), sorted(A))):
            if middle and middle != top:
                try:
                    minus = zs.minus_bits & ~(1 << sum(1 << i for i in middle))
                    return orderlab.ZSets(zs.u, zs.plus_bits, minus, zs.plus_grassmannian_bits)
                except RuntimeError:
                    continue
        return zs

    return z_sets


def _minus_decoded_without_residue_k(original):
    # ZSets holds its families as bitsets over residue masks; the slip is in
    # the decode that `minus` runs on each read
    def minus(self):
        k = self.u.k
        return frozenset(A - {k} for A in original.__get__(self))

    return property(minus)


def _plus_runs_never_starting_at_0(original):
    def plus_limits(key):
        return [0] + original(key)[1:]

    return plus_limits


def _demazure_keeping_the_smaller(original):
    def demazure(x, y):
        z = y
        for i in reversed(reduced_word(x).letters):
            sz = left_mul_s(z, i)
            if sz.length < z.length:  # min(z, s_i z), the anti-Demazure step
                z = sz
        return z

    return demazure


def _without_the_last_strips(original):
    def reader(self, *args):
        # of each size r >= 2 that holds more than one strip, the entry of
        # the largest sorted index set is dropped; a lone strip stays:
        # without the one strip of h_2 over the empty partition the h-basis
        # transitions are not unitriangular, and the suites raise instead
        # of failing a check
        out = original(self, *args)
        by_size = {}
        for A in out:
            by_size.setdefault(len(A), []).append(A)
        last = {max(level, key=sorted) for r, level in by_size.items() if r >= 2 and len(level) > 1}
        return {A: value for A, value in out.items() if A not in last}

    return reader


def _left_parent_letter_one_off(original):
    def _parent(self, side, p):
        q, i = original(self, side, p)
        if side == "left":  # the lifted row of p takes the image under s_{i+1}
            i = (i + 1) % (self.elements[0].k + 1)
        return q, i

    return _parent


def _down_closure_without_its_covers(original):
    def down_closure(elements, extras):
        # what the sweep asks beyond the ball, but not what lies below it
        radius = elements[-1].length
        beyond = {w for w in extras if w.length > radius}
        return elements + sorted(beyond, key=lambda w: (w.length, w.window))

    return down_closure


MUTANTS = [
    Mutant(
        "meet_of-without-meet-test",
        orderlab._BallOrder,
        "meet_of",
        _meet_without_meet_test,
        "order-props",
        ((2, 4),),
        frozenset({"interval-flip-anti-isomorphism", "generator-actions-preserve-meet-join"}),
    ),
    Mutant(
        "join_at-without-least-test",
        orderlab._BallOrder,
        "join_at",
        _join_without_least_test,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"generator-actions-preserve-meet-join"}),
    ),
    Mutant(
        "seed-table-one-right-step-off",
        orderlab,
        "_seed_tables",
        _seeds_one_right_step_off,
        "order-props",
        ((2, 4),),
        frozenset(
            {
                "half-strong-join-minimal",
                "half-strong-meet-maximal",
                "join-seed-minimal-both-forms",
            }
        ),
    ),
    Mutant(
        "inversion-rows-without-s0",
        orderlab,
        "_inversion_rows",
        _inversion_rows_without_s0,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"weak-order-triple-splitting"}),
    ),
    Mutant(
        "product-table-one-left-step-down",
        orderlab,
        "_product_table",
        _products_one_left_step_down,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"weak-order-triple-splitting"}),
    ),
    Mutant(
        "psi-steps-one-letter-off",
        orderlab,
        "_generator_steps",
        _psi_one_letter_off,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"demazure-actions-monotone", "join-seed-minimal-both-forms"}),
    ),
    # The walks of the triple-ball checks and of the factorization check
    # always descend, but `bottom-row-is-inclusion-maximal` asks whether
    # w d_A^-1 is |A| shorter than w for A above the bottom row, where the
    # walk must stop at an ascent.
    Mutant(
        "quotient-walk-accepting-ascents",
        orderlab,
        "_quotient",
        _quotient_accepting_ascents,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"bottom-row-is-inclusion-maximal"}),
    ),
    # Every table of `order-props` reads the step lists.  At 27 of the 34
    # elements of length 1 to 3 the same swap makes the sweep raise
    # (`_flip_images` finds no step up, or `_parent` no parent) instead of
    # failing a check, and at 3, where s_0 w = w s_0, it changes nothing.
    Mutant(
        "left-step-list-entry-read-on-the-right",
        orderlab._BallOrder,
        "fill_left",
        _left_step_of_s0_s3_s0_to_its_right_step,
        "order-props",
        ((3, 4),),
        frozenset(
            {
                "anti-demazure-factors",
                "demazure-actions-monotone",
                "demazure-monotone-in-actor",
                "demazure-preserves-order",
                "demazure-product-factors",
                "generator-actions-preserve-meet-join",
                "half-strong-join-minimal",
                "half-strong-meet-maximal",
                "interval-flip-anti-isomorphism",
                "join-seed-minimal-both-forms",
                "minus-family-confined-to-code-row",
                "minus-family-intersection-is-join",
                "plus-family-intersection-is-meet",
                "reduced-factorization-comparison",
                "strong-covers-are-reflections",
                "weak-interval-chain-property",
                "weak-order-triple-splitting",
            }
        ),
    ),
    Mutant(
        "cover-slice-one-length-too-long",
        verify,
        "_length_slices",
        _slices_one_length_too_long,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"weak-interval-chain-property"}),
    ),
    Mutant(
        "pieri-kk-lower-signs-flipped/factorization",
        symfunc,
        "_set_valued_levels",
        _pieri_kk_lower_signs_flipped,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "pieri-kk-lower-signs-flipped/pieri-sum",
        symfunc,
        "_set_valued_levels",
        _pieri_kk_lower_signs_flipped,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {
                "signed-product-equals-interval-union",
                "product-coefficients-are-zero-or-one",
                "product-support-above-weak-join",
            }
        ),
    ),
    Mutant(
        "pieri-kk-top-degree-only/factorization",
        symfunc,
        "_set_valued_levels",
        _pieri_kk_top_degree_only,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "pieri-kk-top-degree-only/pieri-sum",
        symfunc,
        "_set_valued_levels",
        _pieri_kk_top_degree_only,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {"signed-product-equals-interval-union", "product-coefficients-are-zero-or-one"}
        ),
    ),
    Mutant(
        "pieri-levels-signed-by-the-top-level/pieri-sum",
        symfunc,
        "_set_valued_levels",
        _levels_signed_by_the_top_level,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {
                "signed-product-equals-interval-union",
                "product-coefficients-are-zero-or-one",
                "product-support-above-weak-join",
            }
        ),
    ),
    Mutant(
        "ideals-without-empty-partition/factorization",
        symfunc,
        "strong_ideal_parts",
        _ideals_without_empty_partition,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "ideals-without-empty-partition/pieri-sum",
        symfunc,
        "strong_ideal_parts",
        _ideals_without_empty_partition,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {"signed-product-equals-interval-union", "inclusion-exclusion-expands-to-product"}
        ),
    ),
    Mutant(
        "ideal-shift-one-placed-row-low/factorization",
        symfunc,
        "strong_ideal_parts",
        _ideal_shift_one_row_low,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "ideal-shift-one-placed-row-low/pieri-sum",
        symfunc,
        "strong_ideal_parts",
        _ideal_shift_one_row_low,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {"signed-product-equals-interval-union", "product-coefficients-are-zero-or-one"}
        ),
    ),
    Mutant(
        "pieri-growth-answers-with-the-level-below/factorization",
        symfunc,
        "_set_valued_levels",
        _growth_answering_with_the_level_below,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "pieri-growth-answers-with-the-level-below/pieri-sum",
        symfunc,
        "_set_valued_levels",
        _growth_answering_with_the_level_below,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {
                "signed-product-equals-interval-union",
                "product-coefficients-are-zero-or-one",
                "product-support-above-weak-join",
            }
        ),
    ),
    # The inversions to h share the fill, so at (3,4) the top-degree check
    # fails too.
    Mutant(
        "table-entry-one-pieri-step-short/factorization",
        symfunc,
        "_unitriangular_fill",
        _fill_one_step_short,
        "factorization",
        ((3, 4),),
        frozenset(
            {"ideal-sum-rectangle-factorization", "homogeneous-rectangle-factorization"}
        ),
    ),
    Mutant(
        "table-entry-one-pieri-step-short/pieri-sum",
        symfunc,
        "_h_combination",
        _table_entry_one_step_short,
        "pieri-sum",
        ((3, 4),),
        frozenset({"product-support-above-weak-join"}),
    ),
    Mutant(
        "inversion-skipping-one-lower-row/factorization",
        symfunc,
        "_unitriangular_walk",
        _walk_skipping_one_lower_row,
        "factorization",
        ((2, 4), (3, 4)),
        frozenset(
            {"ideal-sum-rectangle-factorization", "homogeneous-rectangle-factorization"}
        ),
    ),
    Mutant(
        "inversion-skipping-one-lower-row/pieri-sum",
        symfunc,
        "_unitriangular_walk",
        _walk_skipping_one_lower_row,
        "pieri-sum",
        ((2, 4), (3, 4)),
        frozenset({"product-support-above-weak-join"}),
    ),
    # No factorization row: a wrong shape of (2,2) moves the diagonal term of
    # a Pieri row that the inversions read, and the sweep raises "not
    # unitriangular" instead of failing a check.  order-props sees it only
    # at (2,4), where (2,2) is a size-k strip top.
    Mutant(
        "window-shape-answering-the-parent-shape/pieri-sum",
        shapes,
        "_window_shape",
        _window_shape_of_the_parent,
        "pieri-sum",
        ((2, 4), (3, 4)),
        frozenset(
            {
                "signed-product-equals-interval-union",
                "product-coefficients-are-zero-or-one",
                "product-support-above-weak-join",
            }
        ),
    ),
    Mutant(
        "window-shape-answering-the-parent-shape/order-props",
        shapes,
        "_window_shape",
        _window_shape_of_the_parent,
        "order-props",
        ((2, 4),),
        frozenset({"unique-size-k-strip-adds-one-row"}),
    ),
    Mutant(
        "k-rectangle-one-row-short",
        partitions,
        "k_rectangle",
        _rectangle_one_row_short,
        "factorization",
        ((3, 4),),
        frozenset(
            {
                "ideal-sum-rectangle-factorization",
                "homogeneous-rectangle-factorization",
                "rectangle-union-shifts-strips",
                "rectangle-union-shifts-ie-labels",
            }
        ),
    ),
    # Only at (3,4): at (2,4) no check sees a strip table one short.
    Mutant(
        "strip-growth-dropping-its-last-strip/factorization",
        shapes.StripGrowth,
        "tops",
        _without_the_last_strips,
        "factorization",
        ((3, 4),),
        frozenset(
            {
                "homogeneous-rectangle-factorization",
                "inhomogeneous-top-degree-is-homogeneous",
                "rectangle-union-shifts-strips",
            }
        ),
    ),
    Mutant(
        "strip-growth-dropping-its-last-strip/pieri-sum",
        shapes.StripGrowth,
        "tops",
        _without_the_last_strips,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {
                "signed-product-equals-interval-union",
                "inclusion-exclusion-expands-to-product",
                "product-support-above-weak-join",
            }
        ),
    ),
    # Only at (3,4): at k = 2 the one size-2 strip is a lone strip and
    # stays.  Only the comparison of the two strip criteria sees the
    # dropped strip.
    Mutant(
        "strip-growth-dropping-its-last-strip/order-props",
        shapes.StripGrowth,
        "perms",
        _without_the_last_strips,
        "order-props",
        ((3, 4),),
        frozenset({"strip-criteria-agree"}),
    ),
    Mutant(
        "fiber-X-without-lone-top-label",
        orderlab,
        "fiber_X",
        _fiber_without_lone_top_label,
        "fibers",
        ((2, 4), (3, 3)),
        frozenset(
            {
                "fiber-labels-match-element-scan",
                "membership-characterizations-agree",
                "singleton-fiber-iff-found-index-set",
            }
        ),
    ),
    Mutant(
        "find-A0-never-finds",
        orderlab,
        "find_A0",
        _no_singleton_search,
        "fibers",
        ((2, 4), (3, 3)),
        frozenset(
            {"singleton-fiber-iff-found-index-set", "strip-reachability-conditions-agree"}
        ),
    ),
    Mutant(
        "minus-family-without-a-silent-member",
        orderlab,
        "z_sets",
        _minus_family_without_a_silent_member,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"z-families-chain-property"}),
    ),
    Mutant(
        "minus-decode-dropping-residue-k/fibers",
        orderlab.ZSets,
        "minus",
        _minus_decoded_without_residue_k,
        "fibers",
        ((2, 4), (3, 4)),
        frozenset({"corank-one-subsets-stay-in-fiber", "membership-characterizations-agree"}),
    ),
    # Survivor: order-props reads the Z-families as the bitsets that ZSets
    # holds, so a slip in decoding them never reaches its checks.
    Mutant(
        "minus-decode-dropping-residue-k/order-props",
        orderlab.ZSets,
        "minus",
        _minus_decoded_without_residue_k,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset(),
    ),
    # Survivor: without runs that start at residue 0, the plus family keeps
    # the members A with 0 in A only if k is in A; that family is still
    # closed under intersection and proper union, and no check asks whether
    # a Z-family holds every A that it should.
    Mutant(
        "plus-runs-never-starting-at-0",
        orderlab,
        "_plus_limits",
        _plus_runs_never_starting_at_0,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset(),
    ),
    Mutant(
        "ri-columns-in-rd-order",
        kcode,
        "ri",
        _ri_columns_in_rd_order,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"kcode-round-trip-and-injective", "minus-family-confined-to-code-row"}),
    ),
    # Survivor: the sweeps build their Demazure values by steps of their own
    # (`orderlab._hecke_values`), and no check compares them with
    # `affine.demazure`, which only the tests call.
    Mutant(
        "demazure-step-keeping-the-smaller",
        affine,
        "demazure",
        _demazure_keeping_the_smaller,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset(),
    ),
    # Only at (5,1): the order lacks elements below what the sweep asks,
    # and at the other small configurations where it goes beyond the ball a
    # lifted row steps outside it and the sweep raises instead.
    Mutant(
        "down-closure-without-its-lower-covers",
        orderlab,
        "_down_closure",
        _down_closure_without_its_covers,
        "order-props",
        ((5, 1),),
        frozenset({"strip-meet-is-strip-of-intersection"}),
    ),
    Mutant(
        "lifted-rows-by-the-next-letter",
        orderlab._BallOrder,
        "_parent",
        _left_parent_letter_one_off,
        "fibers",
        ((2, 4), (3, 3)),
        frozenset({"fibers-convex-in-strong-order"}),
    ),
]


@pytest.mark.parametrize(
    "suite,k,L", sorted({(m.suite, k, L) for m in MUTANTS for k, L in m.configs})
)
def test_unmutated_suites_pass(suite, k, L):
    assert [r.name for r in SUITES[suite](k, L) if not r.ok] == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_its_recorded_checks(monkeypatch, mutant):
    original = getattr(mutant.owner, mutant.attribute)
    mutated = mutant.mutate(original)
    monkeypatch.setattr(mutant.owner, mutant.attribute, mutated)
    for module in (verify, symfunc, orderlab):
        if getattr(module, mutant.attribute, None) is original:
            monkeypatch.setattr(module, mutant.attribute, mutated)
    try:
        for k, L in mutant.configs:
            _empty_memos()
            failing = {r.name for r in SUITES[mutant.suite](k, L) if not r.ok}
            if mutant.checks:
                assert mutant.checks <= failing, (k, L, sorted(failing))
            else:  # a survivor
                assert failing == set(), (k, L, sorted(failing))
    finally:
        _empty_memos()
