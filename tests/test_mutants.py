"""A fault table: which check catches which planted bug.

Each mutant replaces one function by a wrong version of it, and names the
suite configurations where it runs and the checks it must fail there.  The
unmutated suites pass at those configurations, so a mutant that stops
failing its checks means a refactor lost the sharing the check relied on:
the table records, for instance, that the meets of `generator-actions`
and of `interval-flip` both go through `_BallOrder.meet_of`.  A failure
beyond the recorded checks is allowed; a recorded check that passes is not.

A mutant that no check kills is kept as a survivor, a row with no
recorded checks, and its test asserts that it still survives: a new check
that kills it turns the row into an ordinary one.

A mutant replaces the function wherever a module of the package holds it
by name, so a function that `verify` imports from `symfunc` or `orderlab`
is wrong in both.  The h-basis transition tables of `symfunc`, its memo
of set-valued Pieri growths and the `orderlab.fiber_X` memo are memos of
the functions under test, so every mutant run starts them empty.
"""

import functools
from typing import Callable, NamedTuple

import pytest

from affineschur import kcode, orderlab, partitions, shapes, symfunc, verify
from affineschur.affine import from_word
from affineschur.kcode import KCode
from affineschur.orderlab import Fiber
from affineschur.partitions import KBoundedPartition
from affineschur.symfunc import SymElt
from affineschur.verify import (
    _BallOrder,
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
            t = order._neighbours("right", z)[0]
            return z if t < 0 else t

        return [[off(z) for z in row] for row in seeds], joins, meets

    return seed_tables


def _inversion_rows_without_s0(original):
    def inversion_rows(order, parents, size):
        t_left, t_right = original(order, parents, size)
        s0 = t_left[order.position(from_word(order._ball[0].k, [0]))]  # T_L(s_0) = {s_0}
        return [row & ~s0 for row in t_left], [row & ~s0 for row in t_right]

    return inversion_rows


def _products_one_left_step_down(original):
    def product_table(order, left, size):
        def off(p):  # s_0 u where that is shorter, so the entry stays in the rows
            t = order._neighbours("left", p)[0]
            return t if 0 <= t < p else p

        return [[off(p) for p in row] for row in original(order, left, size)]

    return product_table


def _quotient_accepting_ascents(original):
    def quotient(order, side, p, letters):
        for i in letters:
            t = order._neighbours(side, p)[i]
            if t < 0:
                return None
            p = t  # a longer element too
        return p

    return quotient


def _psi_one_letter_off(original):
    def generator_steps(order, size, up):
        steps = original(order, size, up)
        return steps if up else steps[1:] + steps[:1]  # psi_{i+1} read as psi_i

    return generator_steps


def _pieri_kk_lower_signs_flipped(original):
    def pieri_kk(lam, r):
        out = original(lam, r)
        if lam.parts != (2, 1) or r != 1:
            return out
        top = lam.size + r
        return SymElt._trusted(
            lam.k, "g", {p: c if sum(p) == top else -c for p, c in out.as_mapping().items()}
        )

    return pieri_kk


def _pieri_kk_top_degree_only(original):
    def pieri_kk(lam, r):
        top = lam.size + r
        return SymElt._trusted(
            lam.k, "g", {p: c for p, c in original(lam, r).as_mapping().items() if sum(p) == top}
        )

    return pieri_kk


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
    # at (2,1) only, as for the pieri_kk mutants: wherever an h_to_g
    # expansion reads the level below, the unitriangular transition raises
    def __missing__(self, r):
        return self[r - 1] if r > 1 and self.lam.parts == (2, 1) else original(self, r)

    return __missing__


def _table_entry_one_step_short(original):
    def h_combination(in_h, table, basis, k):
        if (2, 1) not in table:  # b h_(2,1) read as b h_(2)
            table[(2, 1)] = original({(2,): 1}, table, basis, k)
        return original(in_h, table, basis, k)

    return h_combination


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
                    return orderlab.ZSets(zs.u, zs.plus, zs.minus - {middle},
                                          zs.plus_grassmannian)
                except RuntimeError:
                    continue
        return zs

    return z_sets


def _plus_runs_never_starting_at_0(original):
    def plus_limits(key):
        return [0] + original(key)[1:]

    return plus_limits


def _left_parent_letter_one_off(original):
    def _parent(self, side, p):
        q, i = original(self, side, p)
        if side == "left":  # the lifted row of p takes the image under s_{i+1}
            i = (i + 1) % (self._ball[0].k + 1)
        return q, i

    return _parent


MUTANTS = [
    Mutant(
        "meet_of-without-meet-test",
        _BallOrder,
        "meet_of",
        _meet_without_meet_test,
        "order-props",
        ((2, 4),),
        frozenset({"interval-flip-anti-isomorphism", "generator-actions-preserve-meet-join"}),
    ),
    Mutant(
        "join_at-without-least-test",
        _BallOrder,
        "join_at",
        _join_without_least_test,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"generator-actions-preserve-meet-join"}),
    ),
    Mutant(
        "seed-table-one-right-step-off",
        verify,
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
        verify,
        "_inversion_rows",
        _inversion_rows_without_s0,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"weak-order-triple-splitting"}),
    ),
    Mutant(
        "product-table-one-left-step-down",
        verify,
        "_product_table",
        _products_one_left_step_down,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"weak-order-triple-splitting"}),
    ),
    Mutant(
        "psi-steps-one-letter-off",
        verify,
        "_generator_steps",
        _psi_one_letter_off,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset({"demazure-actions-monotone", "join-seed-minimal-both-forms"}),
    ),
    # Survivor: every quotient walk of the triple-ball checks starts at a
    # Demazure or anti-Demazure value, which is above its factor in the weak
    # order, so the walk always descends and its failure branch never runs
    # unless a value table is wrong.
    Mutant(
        "quotient-walk-accepting-ascents",
        verify,
        "_quotient",
        _quotient_accepting_ascents,
        "order-props",
        ((2, 4), (3, 4)),
        frozenset(),
    ),
    Mutant(
        "pieri-kk-lower-signs-flipped/factorization",
        symfunc,
        "pieri_kk",
        _pieri_kk_lower_signs_flipped,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "pieri-kk-lower-signs-flipped/pieri-sum",
        symfunc,
        "pieri_kk",
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
        "pieri_kk",
        _pieri_kk_top_degree_only,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "pieri-kk-top-degree-only/pieri-sum",
        symfunc,
        "pieri_kk",
        _pieri_kk_top_degree_only,
        "pieri-sum",
        ((3, 4),),
        frozenset(
            {"signed-product-equals-interval-union", "product-coefficients-are-zero-or-one"}
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
        symfunc._SetValuedRows,
        "__missing__",
        _growth_answering_with_the_level_below,
        "factorization",
        ((3, 4),),
        frozenset({"ideal-sum-rectangle-factorization"}),
    ),
    Mutant(
        "pieri-growth-answers-with-the-level-below/pieri-sum",
        symfunc._SetValuedRows,
        "__missing__",
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
    Mutant(
        "table-entry-one-pieri-step-short/factorization",
        symfunc,
        "_h_combination",
        _table_entry_one_step_short,
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
    Mutant(
        "lifted-rows-by-the-next-letter",
        _BallOrder,
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
    fiber_memo = orderlab.fiber_X
    original = getattr(mutant.owner, mutant.attribute)
    mutated = mutant.mutate(original)
    monkeypatch.setattr(mutant.owner, mutant.attribute, mutated)
    for module in (verify, symfunc, orderlab):
        if getattr(module, mutant.attribute, None) is original:
            monkeypatch.setattr(module, mutant.attribute, mutated)
    monkeypatch.setattr(symfunc, "_G2H_TABLES", {})
    monkeypatch.setattr(symfunc, "_KS2H_TABLES", {})
    growths = functools.lru_cache(maxsize=None)(symfunc._set_valued_rows.__wrapped__)
    monkeypatch.setattr(symfunc, "_set_valued_rows", growths)
    for k, L in mutant.configs:
        fiber_memo.cache_clear()
        growths.cache_clear()
        failing = {r.name for r in SUITES[mutant.suite](k, L) if not r.ok}
        if mutant.checks:
            assert mutant.checks <= failing, (k, L, sorted(failing))
        else:  # a survivor
            assert failing == set(), (k, L, sorted(failing))
