"""Index-set families, Demazure fibers, and the singleton-fiber search."""

import itertools
import random
import re

import pytest

from affineschur import orderlab
from affineschur.affine import (
    IndexSet,
    ball,
    bruhat_leq,
    from_word,
    grassmannian_ball,
    identity,
    inverse,
    mul,
)
from affineschur.kcode import d_elem
from affineschur.orderlab import (
    fiber_X,
    fiber_Y,
    find_A0,
    forbidden_index,
    minus_forbidden_indices,
    signed_fiber_table,
    z_sets,
)
from affineschur.oracles import closure_failure_by_pairs, proper_subsets, strong_meet
from affineschur.partitions import KBoundedPartition, kbounded_partitions
from affineschur.shapes import bounded_to_perm, is_weak_strip, strip_top, weak_strips


def P(k, *parts):
    return KBoundedPartition(k, parts)


def members(sets):
    return sorted(tuple(sorted(A)) for A in sets)


def test_z_sets_identity():
    zs = z_sets(identity(3))
    assert len(zs.plus) == 15
    assert zs.minus == frozenset({frozenset()})
    assert members(zs.plus_grassmannian) == [(), (0,), (0, 1), (0, 1, 2)]


def test_z_sets_worked_example():
    u = bounded_to_perm(P(3, 3, 2, 1))
    zs = z_sets(u)
    assert members(zs.plus_grassmannian) == [
        (),
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (3,),
    ]
    assert frozenset({0}) in zs.minus
    # the minus side is a weak-order statement; check one member directly
    v = mul(inverse(d_elem(IndexSet(3, frozenset({0})))), u)
    assert v.length == u.length - 1


def test_strips_meet_examples():
    # the strong meet of two weak-strip tops over lam is the top of the
    # strip of the intersection of their index sets
    wide = ball(3, 8)
    for lam, a, b, cap in [
        (P(3, 3, 2, 1), {1, 2}, {1, 3}, {1}),
        (P(3, 1), {1}, {3}, set()),
        (P(3, 3, 2, 1), {1}, {1}, {1}),
    ]:
        A, B = IndexSet(3, frozenset(a)), IndexSet(3, frozenset(b))
        assert is_weak_strip(lam, A) and is_weak_strip(lam, B)
        C = IndexSet(3, A.members & B.members)
        assert C == IndexSet(3, frozenset(cap))
        w = bounded_to_perm(lam)
        m = strong_meet(mul(d_elem(A), w), mul(d_elem(B), w), wide)
        assert m == bounded_to_perm(strip_top(lam, C))
    assert strip_top(P(3, 1), IndexSet(3, frozenset())) == P(3, 1)


def test_strips_meet_is_strong_meet():
    # certified against the brute-force meet inside the Grassmannian poset
    for k in (2, 3):
        wide = ball(k, 8)
        for lam in kbounded_partitions(k, 4):
            w = bounded_to_perm(lam)
            labels = [s.indices for r in range(k + 1) for s in weak_strips(lam, r)]
            for A in labels:
                for B in labels:
                    m = strong_meet(mul(d_elem(A), w), mul(d_elem(B), w), wide)
                    C = IndexSet(k, A.members & B.members)
                    assert m == bounded_to_perm(strip_top(lam, C))


def test_forbidden_index_examples():
    assert forbidden_index(P(3, 3, 2, 1)) == 0
    assert forbidden_index(P(3)) == 3
    for k in (2, 3, 4):
        for lam in kbounded_partitions(k, 7):
            fi = forbidden_index(lam)
            for r in range(k + 1):
                assert all(fi not in s.indices for s in weak_strips(lam, r))


def test_minus_forbidden_indices():
    u = bounded_to_perm(KBoundedPartition(5, (5, 3, 2, 1)))
    assert 2 in minus_forbidden_indices(u)
    for k in (2, 3):
        for u in ball(k, 5):
            forb = minus_forbidden_indices(u)
            assert forb
            for A in z_sets(u).minus:
                assert not (A & forb)


def test_fiber_worked_example():
    u = bounded_to_perm(KBoundedPartition(5, (5, 3, 2, 1)))
    w = bounded_to_perm(KBoundedPartition(5, (5, 2, 2, 2)))
    A = IndexSet(5, frozenset({5, 0, 1}))
    X = fiber_X(A, u)
    Y = fiber_Y(A, u, w)
    boxes = {frozenset({1}), frozenset({0, 1}), frozenset({1, 5}), frozenset({0, 1, 5})}
    assert X.members == Y.members == boxes
    assert set(X.elements()) == {
        mul(inverse(d_elem(IndexSet(5, B))), u) for B in boxes
    }
    A2 = IndexSet(5, frozenset({3, 5, 1}))
    X2, Y2 = fiber_X(A2, u), fiber_Y(A2, u, w)
    assert X2.bottom() == frozenset() and len(X2.members) == 8
    assert Y2.bottom() == frozenset({1}) and len(Y2.members) == 4
    assert find_A0(u, w) == IndexSet(5, frozenset({1}))
    assert find_A0(u, u) == IndexSet(5, frozenset())


def test_fiber_empty_index_set():
    for u in grassmannian_ball(3, 4):
        fib = fiber_X(IndexSet(3, frozenset()), u)
        assert fib.members == frozenset({frozenset()})


def test_singleton_fiber_search_exhaustive():
    k = 2
    subsets = [
        frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(k + 1), r)
    ]
    for u in grassmannian_ball(k, 6):
        for w in grassmannian_ball(k, 6):
            found = find_A0(u, w)
            singles = {
                A
                for A in subsets
                if len(fiber_Y(IndexSet(k, A), u, w).members) == 1
            }
            assert singles == (set() if found is None else {found.members})


def test_signed_fiber_table_is_pieri_fiber():
    u = from_word(3, [3, 1, 0])
    rows = signed_fiber_table(u)
    assert len(rows) == 9
    s30, s10, s0 = from_word(3, [3, 0]), from_word(3, [1, 0]), from_word(3, [0])
    got = {(v.window, A.sorted(), s) for v, A, s in rows}
    assert got == {
        (u.window, (), 1),
        (s30.window, (1,), 1),
        (u.window, (1,), -1),
        (s10.window, (3,), 1),
        (u.window, (3,), -1),
        (s0.window, (1, 3), 1),
        (s10.window, (1, 3), -1),
        (s30.window, (1, 3), -1),
        (u.window, (1, 3), 1),
    }
    filtered = signed_fiber_table(u, from_word(3, [2, 1, 0]))
    assert {(v.window, A.sorted()) for v, A, _ in filtered} == {
        (s10.window, (3,)),
        (s0.window, (1, 3)),
        (s10.window, (1, 3)),
    }
    # the window-level filter agrees with a direct order comparison
    for v, A, _ in rows:
        assert bruhat_leq(v, u)


def test_fiber_rank_validation():
    with pytest.raises(ValueError):
        fiber_X(IndexSet(2, frozenset({0})), identity(3))
    with pytest.raises(ValueError):
        find_A0(from_word(3, [1]), identity(3))


@pytest.mark.parametrize(
    "dropped, message",
    [
        (frozenset(), "plus not closed under intersection: frozenset({"),
        (frozenset({0, 1, 2}), "plus not closed under proper union: frozenset({"),
    ],
)
def test_family_closure_failure_is_reported(dropped, message):
    # every proper subset is in the plus family of the identity; drop one
    zs = z_sets(identity(3))
    assert zs.plus == frozenset(proper_subsets(3))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        orderlab.ZSets(zs.u, zs.plus - {dropped}, zs.minus, zs.plus_grassmannian)


def test_a_run_limit_that_breaks_closure_is_reported(monkeypatch):
    # plus runs of length one only: {0} and {1} are members, {0, 1} is not
    monkeypatch.setattr(orderlab, "_plus_limits", lambda key: [1] * len(key))
    message = "plus not closed under proper union: "
    with pytest.raises(RuntimeError, match=re.escape(message)) as raised:
        z_sets(identity(3))
    A, B = (
        frozenset(map(int, filter(None, found.split(", "))))
        for found in re.findall(r"frozenset\(\{([\d, ]*)\}\)", str(raised.value))
    )
    spaced = frozenset(C for C in proper_subsets(3) if all((i + 1) % 4 not in C for i in C))
    assert A in spaced and B in spaced and A | B not in spaced
    # the checking constructor refuses the same family with the same report
    with pytest.raises(RuntimeError, match=re.escape(message)):
        orderlab.ZSets(identity(3), spaced, frozenset({frozenset()}), None)


def test_as_dict_lists_members_by_size_then_lexicographically():
    rng = random.Random(5)
    for k in (2, 4, 8):
        for w in rng.sample(ball(k, 3), 6):
            zs = z_sets(w)
            blob = zs.as_dict()
            for which in ("plus", "minus", "plus_grassmannian"):
                fam = getattr(zs, which)
                if fam is None:
                    assert which not in blob
                    continue
                assert blob[which] == sorted(map(sorted, fam), key=lambda a: (len(a), a))
                assert all(type(a) is list for a in blob[which])


def _closed_by_transforms(fam, k):
    has = orderlab._residue_patterns(k + 1)
    return orderlab._closure_gaps([orderlab._bitset(fam)], has) == [(0, 0)]


def test_closure_transforms_equal_pair_scan_exhaustively():
    # every family of proper subsets at k = 1 and k = 2
    for k in (1, 2):
        subsets = proper_subsets(k)
        for r in range(len(subsets) + 1):
            for fam in itertools.combinations(subsets, r):
                fam = frozenset(fam)
                by_pairs = closure_failure_by_pairs("F", fam, k) is None
                assert _closed_by_transforms(fam, k) == by_pairs, fam


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_closure_transforms_equal_pair_scan_on_damaged_families(k):
    rng = random.Random(k)
    subsets = proper_subsets(k)
    outcomes = set()
    for w in rng.sample(ball(k, 4), 12):
        zs = z_sets(w)
        for fam in (zs.plus, zs.minus, zs.plus_grassmannian):
            if fam is None:
                continue
            assert _closed_by_transforms(fam, k)
            for _ in range(4):
                drop = set(rng.sample(sorted(fam, key=sorted), rng.randint(0, min(3, len(fam)))))
                add = set(rng.sample(subsets, rng.randint(0, 2)))
                damaged = frozenset((fam - drop) | add)
                by_pairs = closure_failure_by_pairs("F", damaged, k) is None
                assert _closed_by_transforms(damaged, k) == by_pairs, (w, damaged)
                outcomes.add(by_pairs)
    assert outcomes == {True, False}


def test_closure_gaps_side_by_side_equal_one_at_a_time():
    rng = random.Random(9)
    for n in (1, 2, 3, 5):
        has = orderlab._residue_patterns(n)
        fams = [rng.getrandbits(1 << n) for _ in range(4)] + [0, (1 << (1 << n)) - 1]
        alone = [orderlab._closure_gaps([f], has)[0] for f in fams]
        assert orderlab._closure_gaps(fams, has) == alone
