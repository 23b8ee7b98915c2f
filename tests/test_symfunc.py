"""Exact basis arithmetic, Pieri rules, ideal sums, and factorization."""

import itertools
import json
import random

import pytest

from affineschur import shapes, symfunc
from affineschur.affine import IndexSet, ball, weak_leq
from affineschur.oracles import (
    gtilde_factorize_check,
    h_expansions_by_monomials,
    kschur_rectangle_check,
    pieri_kk_by_strips,
    product_via_h_by_monomial,
    strong_ideal_union_by_filter,
    strong_lower_ideal_by_bruhat,
    weak_join_in_ball,
    weak_strips_by_scan,
)
from affineschur.partitions import (
    KBoundedPartition,
    k_rectangle,
    kbounded_partitions,
    union_sort,
)
from affineschur.shapes import StripGrowth, WeakStrip, bounded_to_perm, strip_top, weak_strips
from affineschur.symfunc import (
    SymElt,
    _gtilde_pieri_ie,
    _gtilde_pieri_union,
    _invert_unitriangular,
    bruhat_lower_partitions,
    partition_sort_key,
    expand_gtilde_combination,
    g_to_h,
    gtilde,
    gtilde_pieri,
    gtilde_pieri_direct,
    gtilde_pieri_ie,
    h_monomial_mult,
    h_mult,
    h_to_g,
    h_to_ks,
    ks_to_h,
    kschur_top_degree_check,
    pieri_kk,
    pieri_kschur,
    product_g,
    product_ks,
    strong_ideal_parts,
)
from affineschur.verify import verify_factorization


def P(k, *parts):
    return KBoundedPartition(k, parts)


def in_term_order(elt):
    parts = [p for p, _ in elt.coeffs]
    return parts == sorted(parts, key=partition_sort_key)


def test_symelt_normalization():
    elt = SymElt(3, "g", (((1,), 2), ((1,), -2), ((2,), 1)))
    assert elt.as_mapping() == {(2,): 1}
    with pytest.raises(ValueError):
        SymElt(3, "mystery", ())
    with pytest.raises(ValueError):
        SymElt(3, "g", (((4,), 1),))
    a = SymElt.single(3, "g", (2, 1))
    assert (a + a.scale(-1)).is_zero()


def test_symelt_term_order():
    elt = SymElt(3, "h", (((1, 1), 1), ((2,), 1), ((1,), 1), ((), 1)))
    assert [p for p, _ in elt.coeffs] == [(), (1,), (2,), (1, 1)]
    blob = elt.as_dict()
    assert blob["terms"][0] == {"parts": [], "coeff": "1"}
    json.dumps(blob)  # serializable


def test_symelt_equality_ignores_insertion_order():
    terms = [((2, 1), 3), ((), -1), ((1,), 2), ((3,), 0)]
    a = SymElt(3, "g", terms)
    b = SymElt(3, "g", list(reversed(terms)))
    c = SymElt._trusted(3, "g", dict(reversed(terms)))
    assert list(a.as_mapping()) != list(b.as_mapping())
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a.coeffs == b.coeffs == c.coeffs == (((), -1), ((1,), 2), ((2, 1), 3))
    assert a != SymElt(3, "ks", terms) and a != SymElt(4, "g", terms)
    assert a != a.coeffs
    with pytest.raises(AttributeError):
        a.k = 4


def test_pieri_kschur_examples():
    for r in (1, 2, 3):
        assert pieri_kschur(P(3), r).as_mapping() == {(r,): 1}
    assert pieri_kschur(P(3, 3, 2, 1), 1).as_mapping() == {
        (3, 2, 2): 1,
        (3, 2, 1, 1): 1,
    }
    assert pieri_kschur(P(3, 3, 2, 1), 0).as_mapping() == {(3, 2, 1): 1}


def test_pieri_kk_examples():
    assert pieri_kk(P(3), 1).as_mapping() == {(1,): 1}
    assert pieri_kk(P(3, 2, 1), 1).as_mapping() == {
        (2, 2): 1,
        (2, 1, 1): 1,
        (2, 1): -2,
    }
    with pytest.raises(ValueError):
        pieri_kk(P(3), 0)


def test_h_to_g_golden():
    # frozen from the set-valued strip enumeration over s_0:
    # the four singleton index sets give (2), (1,1) and one absorption
    assert h_to_g(P(3)).as_mapping() == {(): 1}
    assert h_to_g(P(3, 1)).as_mapping() == {(1,): 1}
    assert h_to_g(P(3, 1, 1)).as_mapping() == {(2,): 1, (1, 1): 1, (1,): -1}
    # k=2: over the two-box row only {1} absorbs and only {2} grows the shape
    assert h_to_g(P(2, 2, 1)).as_mapping() == {(2, 1): 1, (2,): -1}


def test_g_to_h_round_trip():
    # both inverted transitions, g and ks, composed back to the identity
    for k, degree in ((2, 6), (3, 6), (4, 8)):
        for lam in kbounded_partitions(k, degree):
            for to_h, from_h, basis in ((g_to_h, h_to_g, "g"), (ks_to_h, h_to_ks, "ks")):
                acc = SymElt.zero(k, basis)
                for parts, c in to_h(lam).coeffs:
                    acc = acc + from_h(KBoundedPartition(k, parts)).scale(c)
                assert acc.as_mapping() == {lam.parts: 1}
    assert g_to_h(P(3)).as_mapping() == {(): 1}
    assert g_to_h(P(3, 1)).as_mapping() == {(1,): 1}


def test_transition_unit_diagonal():
    # empirical unitriangularity of both transitions
    for k in (2, 3):
        for lam in kbounded_partitions(k, 6):
            assert h_to_g(lam).coefficient(lam.parts) == 1
            assert g_to_h(lam).coefficient(lam.parts) == 1
            assert h_to_ks(lam).coefficient(lam.parts) == 1
            assert ks_to_h(lam).coefficient(lam.parts) == 1


def test_each_pieri_row_is_unitriangular_at_its_last_part():
    # the one row the inversions read per partition: h_r b_nu, with lam = (nu, r)
    rows = 0
    for k in range(1, 8):
        for lam in kbounded_partitions(k, 9 if k <= 4 else 7)[1:]:
            nu, r, key = P(k, *lam.parts[:-1]), lam.parts[-1], partition_sort_key(lam.parts)
            for rule in (pieri_kk, pieri_kschur):
                row = rule(nu, r).as_mapping()
                assert row.pop(lam.parts) == 1, (lam, rule)
                assert all(partition_sort_key(p) < key for p in row), (lam, rule, row)
                rows += 1
    assert rows == 576


def test_inversions_equal_forward_substitution_over_h_monomials():
    for k in range(1, 9):
        size = 9 if k <= 4 else 7
        for to_h, to_basis in ((g_to_h, h_to_g), (ks_to_h, h_to_ks)):
            oracle = h_expansions_by_monomials(k, size, to_basis)
            for lam in kbounded_partitions(k, size):
                assert to_h(lam) == oracle[lam.parts], (lam, to_h)


def test_inversion_rejects_non_triangular_transition():
    # fake Pieri rules at k = 2.  With the one term h_r b_nu = b_(nu, r) the
    # b basis is the h basis; h_1 b_() = b_(1) + b_(1,1) puts a term after
    # (1) in the term order, and h_1 b_(2) = b_(2,1) + b_(1,1,1) one after
    # (2,1); a row whose diagonal is 2 is no unitriangular row either
    def late(after):
        def rule(nu, r):
            terms = {(*nu.parts, r): 1}
            if (*nu.parts, r) == after[0]:
                terms[after[1]] = 1
            return SymElt.from_dict(2, "g", terms)

        return rule

    for lam in kbounded_partitions(2, 4):
        assert _invert_unitriangular(lam, late(((), ())), {}).as_mapping() == {lam.parts: 1}
    for lam, after in ((P(2, 1, 1), ((1,), (1, 1))), (P(2, 2, 1), ((2, 1), (1, 1, 1)))):
        with pytest.raises(RuntimeError, match="unitriangular"):
            _invert_unitriangular(lam, late(after), {})
    with pytest.raises(RuntimeError, match="unitriangular"):
        _invert_unitriangular(
            P(2, 2, 1), lambda nu, r: SymElt.single(2, "g", (*nu.parts, r), 2), {}
        )


def test_inversion_handles_long_chains():
    # h_n b_() = b_(n) + b_(n-1): each row rests on a chain of 1500 earlier rows
    k = 1500

    def row(n):
        return (n,) if n else ()

    def chain(nu, r):
        assert nu.parts == ()
        return SymElt.from_dict(k, "g", {row(r): 1, row(r - 1): 1})

    inverse = _invert_unitriangular(P(k, k), chain, {})
    assert inverse.as_mapping() == {row(j): (-1) ** (k - j) for j in range(k + 1)}


def test_gtilde_examples():
    assert gtilde(P(3)).as_mapping() == {(): 1}
    assert gtilde(P(3, 1)).as_mapping() == {(): 1, (1,): 1}
    assert gtilde(P(3, 2, 1)).as_mapping() == {
        (): 1,
        (1,): 1,
        (2,): 1,
        (1, 1): 1,
        (2, 1): 1,
    }


def test_gtilde_pieri_examples():
    assert gtilde_pieri(P(3), 1).as_mapping() == {(): 1, (1,): 1}
    assert gtilde_pieri(P(3, 1), 1).as_mapping() == {
        (): 1,
        (1,): 1,
        (2,): 1,
        (1, 1): 1,
    }
    assert gtilde_pieri(P(3, 1), 0) == gtilde(P(3, 1))


def _assert_ideal_is_the_bruhat_scan(lam):
    # core containment against one strong-order comparison per candidate:
    # the memoised parts, in no order and each once, and their sorted view
    expected = strong_lower_ideal_by_bruhat(lam)
    assert sorted(strong_ideal_parts(lam)) == sorted(mu.parts for mu in expected), lam
    assert bruhat_lower_partitions(lam) == expected, lam


def test_strong_ideal_equals_bruhat_scan_oracle():
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 10):
            _assert_ideal_is_the_bruhat_scan(lam)


def test_strong_ideal_equals_bruhat_scan_oracle_at_k8():
    # strip tops of the k = 8 gtilde queries reach size 17
    candidates = [lam for lam in kbounded_partitions(8, 17) if lam.size >= 9]
    smaller = [lam for lam in kbounded_partitions(8, 14) if lam.size >= 6]
    for lam in random.Random(8).sample(candidates, 12) + random.Random(14).sample(smaller, 12):
        _assert_ideal_is_the_bruhat_scan(lam)


def test_pruned_ideal_equals_the_filter_oracle():
    """The ideal search gives the filter's partitions in its (size, revlex)
    order, and the support of `gtilde_pieri` is the filter over the strip
    tops."""
    ranges = [(k, 8) for k in range(1, 5)] + [(5, 7), (6, 7)]
    for k, max_size in ranges:
        for lam in kbounded_partitions(k, max_size):
            assert list(bruhat_lower_partitions(lam)) == strong_ideal_union_by_filter([lam]), lam
            for r in range(k + 1):
                tops = [s.top for s in weak_strips(lam, r)]
                assert set(gtilde_pieri(lam, r).as_mapping()) == {
                    mu.parts for mu in strong_ideal_union_by_filter(tops)
                }, (lam, r)


def test_pieri_union_reads_the_memoised_ideals():
    # once every strip top's ideal is in the memo, the union searches nothing
    lams = [lam for k in range(1, 5) for lam in kbounded_partitions(k, 5)]
    for lam in lams:
        for r in range(lam.k + 1):
            for s in weak_strips(lam, r):
                strong_ideal_parts(s.top)
    searched = strong_ideal_parts.cache_info().misses
    for lam in lams:
        for r in range(lam.k + 1):
            _gtilde_pieri_union(StripGrowth(lam, lam.k), r)
    assert strong_ideal_parts.cache_info().misses == searched


def test_gtilde_pieri_equals_union_of_top_ideals():
    # the union of the tops' ideals, each top walked by the validating strip_top
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 5):
            for r in range(k + 1):
                union = {
                    mu.parts
                    for s in weak_strips(lam, r)
                    for mu in bruhat_lower_partitions(strip_top(lam, s.indices))
                }
                assert gtilde_pieri(lam, r).as_mapping() == dict.fromkeys(union, 1), (lam, r)


@pytest.mark.parametrize("k", [2, 3])
def test_gtilde_pieri_forms_agree(k):
    for lam in kbounded_partitions(k, 5):
        for r in range(k + 1):
            closed = gtilde_pieri(lam, r)
            assert closed == gtilde_pieri_direct(lam, r)
            assert all(c == 1 for _, c in closed.coeffs)
            assert expand_gtilde_combination(k, gtilde_pieri_ie(lam, r)) == closed


def test_expand_gtilde_combination_is_the_sum_of_the_gtildes():
    # it reads each label's memoised ideal; its definition sums gtilde elements
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 5):
            for r in range(k + 1):
                combo = gtilde_pieri_ie(lam, r)
                total = SymElt.zero(k, "g")
                for parts, c in combo.items():
                    total = total + gtilde(P(k, *parts)).scale(c)
                assert expand_gtilde_combination(k, combo) == total, (k, lam, r)


def test_gtilde_pieri_ie_examples():
    assert gtilde_pieri_ie(P(3, 1), 1) == {(2,): 1, (1, 1): 1, (1,): -1}
    assert gtilde_pieri_ie(P(3), 2) == {(2,): 1}
    assert gtilde_pieri_ie(P(3, 2, 1), 3) == {(3, 2, 1): 1}


def ie_by_strip_tops(lam, r):
    """The inclusion-exclusion sum with each label walked by `strip_top`."""
    strips = [s.indices.members for s in weak_strips(lam, r)]
    tops = {}
    acc = {}
    for m in range(1, len(strips) + 1):
        for combo in itertools.combinations(strips, m):
            inter = frozenset.intersection(*combo)
            if inter not in tops:
                tops[inter] = strip_top(lam, IndexSet(lam.k, inter)).parts
            acc[tops[inter]] = acc.get(tops[inter], 0) + (-1) ** (m - 1)
    return {p: c for p, c in acc.items() if c}


def test_gtilde_pieri_ie_labels_are_strip_tops():
    # the labels read off the growth windows against a walk per intersection
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 7):
            for r in range(k + 1):
                assert gtilde_pieri_ie(lam, r) == ie_by_strip_tops(lam, r), (lam, r)
    rng = random.Random(22)
    for lam in rng.sample(kbounded_partitions(8, 12), 16):
        r = rng.randint(2, 6)
        assert gtilde_pieri_ie(lam, r) == ie_by_strip_tops(lam, r), (lam, r)


def test_one_growth_reads_every_level():
    # one growth to level k, read from the top level down, so the lower
    # levels find the tops their intersections already read
    def check(lam):
        growth = StripGrowth(lam, lam.k)
        for r in range(lam.k, -1, -1):
            ie = _gtilde_pieri_ie(growth, r)
            assert ie == gtilde_pieri_ie(lam, r) == ie_by_strip_tops(lam, r), (lam, r)
            assert _gtilde_pieri_union(growth, r) == gtilde_pieri(lam, r), (lam, r)
            strips = weak_strips(lam, r)
            assert growth.tops(r) == {s.indices.members: s.top for s in strips}, (lam, r)
            assert [s.indices for s in strips] == weak_strips_by_scan(lam, r), (lam, r)
            members = [s.indices.members for s in strips]
            inters = {
                frozenset.intersection(*combo)
                for m in range(1, len(members) + 1)
                for combo in itertools.combinations(members, m)
            }
            for inter in inters:
                assert growth.top(inter) == strip_top(lam, IndexSet(lam.k, inter)), (lam, inter)

    for k in range(1, 5):
        for lam in kbounded_partitions(k, 7):
            check(lam)
    for lam in random.Random(23).sample(kbounded_partitions(8, 12), 12):
        check(lam)


def test_strip_tables_are_the_subset_scan():
    # the table of each level is the scan with each top walked by strip_top,
    # and weak_strips is the table sorted
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 6):
            growth = StripGrowth(lam, k)
            for r in range(k + 1):
                scan = weak_strips_by_scan(lam, r)
                table = growth.tops(r)
                assert table == {A.members: strip_top(lam, A) for A in scan}, (lam, r)
                assert weak_strips(lam, r) == [
                    WeakStrip(lam, A, table[A.members]) for A in scan
                ], (lam, r)


def test_a_growth_raises_on_a_set_it_did_not_grow():
    # over (3,2,1) the strips are {}, {1}, {3}, {1,2}, {1,3} and {1,2,3}
    lam = P(3, 3, 2, 1)
    growth = StripGrowth(lam, 2)
    assert growth.top(frozenset({1})) == strip_top(lam, IndexSet(3, {1}))
    with pytest.raises(KeyError):
        growth.top(frozenset({2}))  # no strip
    with pytest.raises(KeyError):
        growth.top(frozenset({1, 2, 3}))  # beyond the level
    with pytest.raises(ValueError, match=r"need 0 <= r <= k, got r=4, k=3"):
        StripGrowth(lam, 4)


def test_gtilde_pieri_ie_raises_on_a_missing_intersection(monkeypatch):
    # over (3,2,1) the size-2 strips {1,2} and {1,3} meet in the strip {1}
    grow = shapes.left_growth

    def dropping(window, mode, size, within=None):
        levels = grow(window, mode, size, within)
        levels[1] = [entry for entry in levels[1] if entry[0] != {1}]
        return levels

    monkeypatch.setattr(shapes, "left_growth", dropping)
    with pytest.raises(RuntimeError, match=r"size-2 strips over .*\(3, 2, 1\).* meet in \[1\]"):
        gtilde_pieri_ie(P(3, 3, 2, 1), 2)


def test_rectangle_rows_sum_to_the_gtilde_product():
    # gtilde(lam) is the sum of g_mu over the ideal below lam, so the rows
    # g_mu gtilde(R_t) that verify_factorization makes once per (t, mu) sum
    # to gtilde(R_t) gtilde(lam)
    for k in range(1, 5):
        lams = kbounded_partitions(k, 5)
        for t in range(1, k + 1):
            g_rect = gtilde(k_rectangle(t, k))
            rows = {}
            for lam in lams:
                total = SymElt.zero(k, "g")
                for mu in bruhat_lower_partitions(lam):
                    if mu not in rows:
                        rows[mu] = product_g(SymElt.single(k, "g", mu.parts), g_rect)
                    total = total + rows[mu]
                assert total == product_g(g_rect, gtilde(lam)), (k, t, lam)


def test_gtilde_factorization_examples():
    assert gtilde_factorize_check(P(3), 2)
    assert gtilde_factorize_check(P(2, 1), 1)
    # k=2, t=1: the length-3 column against the single box
    lhs = gtilde(P(2, 1, 1, 1))
    rhs = product_g(gtilde(P(2, 1, 1)), gtilde(P(2, 1)))
    assert lhs == rhs
    for t in (0, 4):
        with pytest.raises(ValueError):
            gtilde_factorize_check(P(3, 1), t)


def test_kschur_rectangle_examples():
    assert kschur_rectangle_check(P(2, 1), 1)
    assert kschur_rectangle_check(P(3, 2, 1), 2)
    assert product_ks(
        SymElt.unit(3, "ks"), SymElt.single(3, "ks", (2,))
    ).as_mapping() == {(2,): 1}
    for t in (0, 4):
        with pytest.raises(ValueError):
            kschur_rectangle_check(P(3, 1), t)


def test_top_degree_examples():
    for k in (2, 3):
        for lam in kbounded_partitions(k, 6):
            assert kschur_top_degree_check(lam)


def test_h_mult_against_monomial_fold():
    # multiplying by h_r one letter at a time matches the monomial expansion
    for k in (2, 3):
        for lam in kbounded_partitions(k, 4):
            acc = SymElt.unit(k, "g")
            for r in sorted(lam.parts, reverse=True):
                acc = h_mult(acc, r)
            assert acc == h_to_g(lam)


def test_h_monomial_mult_equals_stepwise_h_mult():
    # one sort at the end gives the same element as sorting after every h_r
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 6):
            for basis in ("ks", "g"):
                start = SymElt(k, basis, (((), 1), ((1,), -1)))
                stepwise = start
                for r in sorted(lam.parts, reverse=True):
                    stepwise = h_mult(stepwise, r)
                assert h_monomial_mult(start, lam.parts) == stepwise, (lam, basis)


def test_product_support_dominates_weak_join():
    for k in (2, 3):
        wide = ball(k, 8)
        for a in kbounded_partitions(k, 3):
            for b in kbounded_partitions(k, 3):
                va, vb = bounded_to_perm(a), bounded_to_perm(b)
                join = weak_join_in_ball(va, vb, wide)
                assert join is not None, (a, b)
                # above the join iff above both factors, the form `verify pieri-sum` tests
                for z in wide:
                    assert weak_leq(join, z, "left") == (
                        weak_leq(va, z, "left") and weak_leq(vb, z, "left")
                    ), (a, b, z)
                for elt in (
                    product_g(SymElt.single(k, "g", a.parts), SymElt.single(k, "g", b.parts)),
                    product_ks(SymElt.single(k, "ks", a.parts), SymElt.single(k, "ks", b.parts)),
                ):
                    for parts, c in elt.coeffs:
                        assert weak_leq(
                            join, bounded_to_perm(KBoundedPartition(k, parts)), "left"
                        )


def test_product_commutes():
    a = SymElt.single(3, "g", (2, 1))
    b = SymElt.single(3, "g", (1, 1))
    assert product_g(a, b) == product_g(b, a)


def kschur_by_scan(lam, r):
    """The weak-strip Pieri rule over the subset scan, each top walked by
    `strip_top`."""
    acc = {}
    for A in weak_strips_by_scan(lam, r):
        top = strip_top(lam, A).parts
        acc[top] = acc.get(top, 0) + 1
    return SymElt(lam.k, "ks", tuple(acc.items()))


def test_memoised_pieri_rules_match_the_uncached_rules():
    # both rules read their row memos, and the per-r strip rules are their
    # uncached forms
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 6):
            for rule, uncached, rs in (
                (pieri_kk, pieri_kk_by_strips, range(1, k + 1)),
                (pieri_kschur, kschur_by_scan, range(k + 1)),
            ):
                for r in rs:
                    got = rule(lam, r)
                    assert got == uncached(lam, r), (rule, lam, r)
                    assert got == SymElt(k, got.basis, got.coeffs)
                    assert in_term_order(got)
                    assert rule(lam, r) is got


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_shared_growth_answers_every_r_in_any_order(order):
    # each partition gets a fresh growth, asked for every r in the given order
    rng = random.Random(order)
    lams = [lam for k in range(1, 5) for lam in kbounded_partitions(k, 6)]
    lams += rng.sample(kbounded_partitions(8, 8), 15)
    for lam in lams:
        rs = list(range(1, lam.k + 1))
        if order == "descending":
            rs.reverse()
        elif order == "shuffled":
            rng.shuffle(rs)
        rows = symfunc._SetValuedRows(lam)
        for r in rs:
            assert rows[r] == pieri_kk_by_strips(lam, r), (lam, r)


def test_one_r_grows_no_further_than_itself():
    lam = P(5, 3, 2, 1)
    rows = symfunc._SetValuedRows(lam)
    assert rows[3] == pieri_kk_by_strips(lam, 3)
    assert rows._growth.depth == 3
    assert rows[1] == pieri_kk_by_strips(lam, 1)  # off a growth of its own
    assert rows._growth.depth == 3
    assert rows[4] == pieri_kk_by_strips(lam, 4)  # one level on from the parked one
    assert rows._growth.depth == 4
    with pytest.raises(ValueError, match=r"need 1 <= r <= k, got r=6, k=5"):
        rows[6]


def test_a_row_interrupted_while_built_is_built_again(monkeypatch):
    # the growth has reached level r when its row fails; asking r again must
    # not read the level after it
    lam = P(5, 3, 2, 1)
    rows = symfunc._SetValuedRows(lam)
    assert rows[1] == pieri_kk_by_strips(lam, 1)

    def interrupted(k, window):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(symfunc, "_window_shape", interrupted)
        with pytest.raises(KeyboardInterrupt):
            rows[2]
    assert 2 not in rows
    for r in (2, 3, 5, 4):
        assert rows[r] == pieri_kk_by_strips(lam, r), r


def test_products_are_valid_symelts(monkeypatch):
    # every trusted sum the factorization sweep compares survives the
    # validating constructor unchanged
    compared = []
    eq = SymElt.__eq__

    def recording(self, other):
        compared.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(SymElt, "__eq__", recording)
    assert all(r.ok for r in verify_factorization(3, 3))
    monkeypatch.undo()
    lams = kbounded_partitions(3, 3)
    bases = [lhs.basis for lhs, _ in compared]
    assert bases.count("g") == bases.count("ks") == 3 * len(lams)
    assert bases.count("h") == len(lams)
    for pair in compared:
        for elt in pair:
            assert SymElt(elt.k, elt.basis, elt.coeffs) == elt
            assert in_term_order(elt)


def test_products_equal_the_per_monomial_oracle():
    for k in range(1, 5):
        lams = kbounded_partitions(k, 5)
        for basis, product, to_h in (("g", product_g, g_to_h), ("ks", product_ks, ks_to_h)):
            elts = [SymElt.single(k, basis, lam.parts) for lam in lams]
            if basis == "g":
                elts += [gtilde(lam) for lam in lams]
            for a in elts:
                for b in elts:
                    assert product(a, b) == product_via_h_by_monomial(a, b, to_h), (a, b)


def test_products_equal_the_per_monomial_oracle_at_k8():
    # the rectangle factorization's products: the oracle expands its first
    # factor, so the factor of lower degree goes first
    k, rng = 8, random.Random(8)
    for _ in range(4):
        size = rng.randint(1, 6)
        lam = rng.choice([mu for mu in kbounded_partitions(k, size) if mu.size == size])
        rect = k_rectangle(rng.randint(1, k), k)
        got = product_g(gtilde(rect), gtilde(lam))
        assert got == product_via_h_by_monomial(gtilde(lam), gtilde(rect), g_to_h), (rect, lam)
        a = SymElt.single(k, "ks", lam.parts)
        b = SymElt.single(k, "ks", rect.parts)
        assert product_ks(b, a) == product_via_h_by_monomial(a, b, ks_to_h), (rect, lam)


def test_trusted_partitions_pass_validation(monkeypatch):
    made = []
    trusted = KBoundedPartition._trusted

    def recording(cls, k, parts):
        lam = trusted(k, parts)
        made.append(lam)
        return lam

    monkeypatch.setattr(KBoundedPartition, "_trusted", classmethod(recording))
    assert all(r.ok for r in verify_factorization(3, 3))
    assert made
    for lam in made:
        assert KBoundedPartition(lam.k, lam.parts) == lam
    # union_sort results are trusted values too
    made.clear()
    for k in range(1, 5):
        lams = kbounded_partitions(k, 5)
        unions = [union_sort(mu, lam) for mu in lams for lam in lams]
        recorded = {id(m) for m in made}
        assert all(id(u) in recorded for u in unions)
        for u in unions:
            assert KBoundedPartition(u.k, u.parts) == u
    with pytest.raises(ValueError):
        union_sort(P(2, 1), P(3, 1))


def test_kbounded_partitions_pass_validation():
    for k in range(1, 9):
        made = kbounded_partitions(k, 10)
        assert len(set(made)) == len(made)
        for lam in made:
            assert KBoundedPartition(lam.k, lam.parts) == lam
    with pytest.raises(ValueError):
        kbounded_partitions(0, 3)


def test_pieri_memos_can_be_cleared():
    # benchmark sessions empty every memo they find by its cache_clear
    # attribute; both rules keep their rows in a memo keyed by parts, and
    # read their shapes through the memo keyed by window
    found = [v for m in (shapes, symfunc) for v in vars(m).values() if hasattr(v, "cache_clear")]
    for rule, rows in ((pieri_kk, symfunc._set_valued_rows), (pieri_kschur, symfunc._weak_row)):
        for memo in (rows, shapes._window_shape):
            assert any(v is memo for v in found)
            rule(P(3, 2, 1), 1)
            assert memo.cache_info().currsize > 0
            memo.cache_clear()
            assert memo.cache_info().currsize == 0
