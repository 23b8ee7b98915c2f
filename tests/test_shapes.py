"""Bounded/core/permutation bijections, strips, and the rotation lemma."""

import itertools
import random

import pytest

from affineschur import shapes, symfunc
from affineschur.affine import (
    AffinePermutation,
    IndexSet,
    ball,
    bruhat_leq,
    from_word,
    identity,
    mul,
    weak_leq,
)
from affineschur.kcode import d_elem, rd, ri, sh
from affineschur.oracles import core_by_residue_action, shift_ft
from affineschur.partitions import (
    CorePartition,
    KBoundedPartition,
    k_rectangle,
    kbounded_partitions,
    union_sort,
)
from affineschur.shapes import (
    StripGrowth,
    WeakStrip,
    _core_rows,
    bounded_to_core,
    bounded_to_perm,
    core_action,
    core_to_bounded,
    is_weak_strip,
    is_weak_strip_parabolic,
    k_transpose,
    perm_to_bounded,
    reading_word,
    setvalued_strips,
    strip_top,
    weak_strips,
)


def P(k, *parts):
    return KBoundedPartition(k, parts)


def test_partition_type_validation():
    with pytest.raises(ValueError):
        KBoundedPartition(3, (4, 1))
    with pytest.raises(ValueError):
        KBoundedPartition(3, (1, 2))
    with pytest.raises(ValueError):
        CorePartition(3, (4,))  # cell (1,1) has hook length 4
    CorePartition(3, (5, 2, 1))
    with pytest.raises(ValueError):
        union_sort(P(2, 1), P(3, 1))


def test_rectangle():
    assert k_rectangle(2, 3).parts == (2, 2)
    assert k_rectangle(1, 3).parts == (1, 1, 1)
    with pytest.raises(ValueError):
        k_rectangle(4, 3)
    assert union_sort(P(3), P(3, 2, 1)) == P(3, 2, 1)
    assert union_sort(P(3, 2, 2), P(3, 3, 1)).parts == (3, 2, 2, 1)


def test_figure_triple():
    lam = P(3, 3, 2, 1)
    assert reading_word(lam) == (2, 0, 3, 2, 1, 0)
    assert bounded_to_core(lam).parts == (5, 2, 1)
    assert bounded_to_perm(lam) == from_word(3, [2, 0, 3, 2, 1, 0])
    assert core_to_bounded(CorePartition(3, (5, 2, 1))) == lam
    assert bounded_to_core(perm_to_bounded(bounded_to_perm(lam))).parts == (5, 2, 1)


def test_core_to_bounded_examples():
    assert core_to_bounded(CorePartition(3, (4, 1))).parts == (3, 1)
    assert core_to_bounded(CorePartition(3, ())).parts == ()
    assert bounded_to_core(P(3, 2, 2, 2, 1, 1, 1)).parts == (5, 3, 3, 1, 1, 1)
    assert bounded_to_core(P(3)).parts == ()


def test_core_action_examples():
    assert core_action(0, CorePartition(3, (2, 1))).parts == (2, 2)
    assert core_action(2, CorePartition(3, (2, 1))).parts == (3, 1, 1)
    assert core_action(2, CorePartition(3, (1,))).parts == (1,)
    kappa = CorePartition(3, (5, 2, 1))
    for i in range(4):
        assert core_action(i, core_action(i, kappa)) == kappa  # involution


def test_perm_to_core_examples():
    assert bounded_to_core(perm_to_bounded(identity(3))).parts == ()
    assert bounded_to_core(perm_to_bounded(from_word(3, [0, 3, 1, 0]))).parts == (2, 2)
    with pytest.raises(ValueError):
        perm_to_bounded(from_word(3, [1]))
    with pytest.raises(ValueError):
        core_by_residue_action(from_word(3, [1]))


def test_k_transpose():
    a, b = P(3, 3, 2, 2, 1, 1), P(3, 2, 2, 2, 1, 1, 1)
    assert k_transpose(a) == b and k_transpose(b) == a
    assert k_transpose(P(3)).parts == ()
    for k in (2, 3, 4):
        for lam in kbounded_partitions(k, 8):
            assert k_transpose(k_transpose(lam)) == lam


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bijection_coherence(k):
    for lam in kbounded_partitions(k, 8):
        core = bounded_to_core(lam)
        assert core_to_bounded(core) == lam
        w = bounded_to_perm(lam)
        assert w.is_grassmannian() and w.length == lam.size
        assert core_by_residue_action(w) == core
        assert bounded_to_core(perm_to_bounded(w)) == core
        assert perm_to_bounded(w) == lam


def _assert_window_routes_match_walk(lam):
    # row sliding and the k-code shape against acting on the empty core
    # along the reading word
    w = bounded_to_perm(lam)
    walked = core_by_residue_action(w)
    assert _core_rows(lam) == walked.parts, lam
    assert perm_to_bounded(w) == core_to_bounded(walked) == lam, lam


def test_core_rows_equal_reading_word_route():
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 10):
            _assert_window_routes_match_walk(lam)


def test_core_rows_equal_reading_word_route_at_k8():
    for lam in random.Random(17).sample(kbounded_partitions(8, 17), 80):
        _assert_window_routes_match_walk(lam)


def test_codes_of_grassmannian_elements():
    for k in (2, 3):
        for w in [v for v in ball(k, 6) if v.is_grassmannian()]:
            assert sh(rd(w)) == core_to_bounded(core_by_residue_action(w))
            assert sh(ri(w)) == k_transpose(sh(rd(w)))


def test_perm_to_bounded_equals_shape_of_rd():
    # the increasing-window code against the general k-code, on every w_lam
    # and every grown set-valued product of the set-valued strip ranges
    for k, size in [(k, 8) for k in range(1, 7)] + [(7, 6), (8, 6)]:
        for lam in kbounded_partitions(k, size):
            w = bounded_to_perm(lam)
            assert perm_to_bounded(w) == sh(rd(w)) == lam
            for r in range(1, k + 1):
                for _, v in setvalued_strips(w, r):
                    assert perm_to_bounded(v) == sh(rd(v)), (lam, r, v)


def test_grown_windows_read_their_shape_through_the_window_memo(monkeypatch):
    # every weak-strip top and every set-valued row window is read off its
    # grown window by the memo, which must give the shape of the k-code
    read = {"weak": [], "set-valued": []}
    memo = shapes._window_shape

    def recording(kind):
        def window_shape(k, window):
            shape = memo(k, window)
            read[kind].append((k, window, shape))
            return shape

        return window_shape

    monkeypatch.setattr(shapes, "_window_shape", recording("weak"))
    monkeypatch.setattr(symfunc, "_window_shape", recording("set-valued"))
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 6):
            growth = StripGrowth(lam, k)
            perms = growth.perms()
            for r in range(k + 1):
                for A, top in growth.tops(r).items():
                    assert top == sh(rd(perms[A])), (lam, A)
            symfunc._set_valued_levels(k, lam.parts, range(1, k + 1))
    assert read["weak"] and read["set-valued"]
    for k, window, shape in read["weak"] + read["set-valued"]:
        assert shape == sh(rd(AffinePermutation(k, window))), (k, window)


def test_weak_strip_lists():
    lam = P(3, 3, 2, 1)
    expected = {0: [()], 1: [(1,), (3,)], 2: [(1, 2), (1, 3)], 3: [(1, 2, 3)]}
    for r, sets in expected.items():
        assert [s.indices.sorted() for s in weak_strips(lam, r)] == sets
    with pytest.raises(ValueError):
        weak_strips(lam, 4)


def test_weak_strip_poset_covers():
    """Cover relations among the strip tops over (3,2,1) at k=3."""
    lam = P(3, 3, 2, 1)
    labels = [
        s.indices for r in range(4) for s in weak_strips(lam, r)
    ]
    tops = {A.sorted(): mul(d_elem(A), bounded_to_perm(lam)) for A in labels}
    keys = sorted(tops, key=lambda a: (len(a), a))
    assert keys == [(), (1,), (3,), (1, 2), (1, 3), (1, 2, 3)]

    strong_covers = set()
    weak_covers = {}
    for a in keys:
        for b in keys:
            va, vb = tops[a], tops[b]
            if vb.length == va.length + 1 and bruhat_leq(va, vb):
                strong_covers.add((a, b))
                if weak_leq(va, vb, "left"):
                    quotient = mul(vb, va.inverse())
                    (letter,) = [i for i in range(4) if quotient == from_word(3, [i])]
                    weak_covers[(a, b)] = letter
    # inclusion covers within the six labels, with the edge letters shown
    assert weak_covers == {
        ((), (1,)): 1,
        ((), (3,)): 3,
        ((1,), (1, 3)): 3,
        ((3,), (1, 3)): 1,
        ((1,), (1, 2)): 2,
        ((1, 2), (1, 2, 3)): 3,
    }
    assert strong_covers - set(weak_covers) == {((1, 3), (1, 2, 3))}
    assert not weak_leq(tops[(1, 3)], tops[(1, 2, 3)], "left")


def test_weak_strip_criteria_cross_check():
    for k in (2, 3):
        for lam in kbounded_partitions(k, 5):
            for r in range(k + 1):
                for combo in itertools.combinations(range(k + 1), r):
                    A = IndexSet(k, frozenset(combo))
                    assert is_weak_strip(lam, A) == is_weak_strip_parabolic(lam, A)


def test_weak_strip_value_type():
    lam = P(3, 3, 2, 1)
    strip = WeakStrip.build(lam, IndexSet(3, frozenset({3})))
    assert strip.top == P(3, 3, 2, 2) and strip.size == 1
    with pytest.raises(ValueError):
        WeakStrip.build(lam, IndexSet(3, frozenset({0})))
    with pytest.raises(ValueError):
        WeakStrip(lam, IndexSet(3, frozenset({3})), lam)


def test_strip_tops():
    lam = P(3, 3, 2, 1)
    strips = weak_strips(lam, 1)
    tops = {s.indices.sorted(): strip_top(lam, s.indices).parts for s in strips}
    assert tops == {(1,): (3, 2, 1, 1), (3,): (3, 2, 2)}
    assert {s.indices.sorted(): s.top.parts for s in strips} == tops


def test_setvalued_strips_examples():
    w = from_word(3, [3, 1, 0])
    got = {
        (A.sorted(), v.window) for A, v in setvalued_strips(w, 1)
    }
    assert got == {
        ((0,), from_word(3, [0, 3, 1, 0]).window),
        ((1,), w.window),
        ((2,), from_word(3, [2, 3, 1, 0]).window),
        ((3,), w.window),
    }
    for r in (1, 2, 3):
        pairs = setvalued_strips(identity(3), r)
        assert len(pairs) == 1
        A, v = pairs[0]
        assert A.sorted() == tuple(range(r))
        assert v == bounded_to_perm(P(3, r))
    with pytest.raises(ValueError):
        setvalued_strips(from_word(3, [1]), 1)
    with pytest.raises(ValueError):
        setvalued_strips(w, 0)


def test_setvalued_strip_tops_are_weak_strips():
    # the product of a set-valued strip is a weak strip of size <= r
    for lam in kbounded_partitions(3, 4):
        w = bounded_to_perm(lam)
        for r in range(1, 4):
            for A, v in setvalued_strips(w, r):
                assert weak_leq(w, v, "left")
                size = v.length - w.length
                assert size <= r
                witnesses = [
                    B
                    for B in map(
                        lambda c: IndexSet(3, frozenset(c)),
                        itertools.combinations(range(4), size),
                    )
                    if mul(d_elem(B), w) == v
                ]
                assert witnesses and all(is_weak_strip(lam, B) for B in witnesses)


def test_shift_ft():
    w = from_word(3, [2, 0, 3, 2, 1, 0])
    assert shift_ft(w, 0) == w
    assert shift_ft(identity(3), 2).is_identity()
    for k in (2, 3):
        for t in range(1, k + 1):
            rect = k_rectangle(t, k)
            w_rect = bounded_to_perm(rect)
            for lam in kbounded_partitions(k, 5):
                assert bounded_to_perm(union_sort(rect, lam)) == mul(
                    shift_ft(bounded_to_perm(lam), t), w_rect
                )


def test_rectangle_union_shifts_strips():
    for k in (2, 3):
        for t in range(1, k + 1):
            rect = k_rectangle(t, k)
            for lam in kbounded_partitions(k, 4):
                big = union_sort(rect, lam)
                for r in range(k + 1):
                    small = [s.indices for s in weak_strips(lam, r)]
                    shifted = [IndexSet(k, {(i + t) % (k + 1) for i in A}) for A in small]
                    assert sorted(A.sorted() for A in shifted) == sorted(
                        s.indices.sorted() for s in weak_strips(big, r)
                    )
                    for A, B in zip(small, shifted):
                        assert union_sort(rect, strip_top(lam, A)) == strip_top(big, B)


def test_monotone_codes_on_grassmannian_chains():
    for k in (2, 3):
        elems = [w for w in ball(k, 6) if w.is_grassmannian()]
        for x in elems:
            cx, ix = rd(x), ri(x)
            for y in elems:
                if weak_leq(x, y, "left"):
                    assert rd(y).contains(cx)
                    assert ri(y).contains(ix)
