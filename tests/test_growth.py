"""The growth kernel, and the weak strips, set-valued strips, Z-set families
and fiber labels grown with it, against the subset scans of `oracles`."""

import itertools
import random

import pytest

from affineschur.affine import (
    AffinePermutation,
    IndexSet,
    LeftGrowth,
    ball,
    identity,
    left_action,
    left_growth,
    left_mul_s,
)
from affineschur.kcode import d_inverse_steps, d_steps
from affineschur.orderlab import fiber_X, proper_subsets, signed_fiber_table, z_sets
from affineschur.oracles import (
    setvalued_strips_by_scan,
    weak_strips_by_scan,
    z_sets_by_scan,
)
from affineschur.partitions import kbounded_partitions
from affineschur.shapes import (
    StripGrowth,
    WeakStrip,
    bounded_to_perm,
    is_weak_strip,
    is_weak_strip_parabolic,
    setvalued_strips,
    strip_top,
    weak_strips,
)

# every k <= 6 up to size 8, then k = 7 and 8 up to size 6
SETVALUED_GRID = [(k, 8) for k in range(1, 7)] + [(7, 6), (8, 6)]


def test_weak_strips_equal_subset_scan():
    grid = [(k, 8) for k in range(1, 5)] + [(k, 5) for k in range(5, 9)]
    for k, size in grid:
        for lam in kbounded_partitions(k, size):
            for r in range(k + 1):
                strips = weak_strips(lam, r)
                assert [s.indices for s in strips] == weak_strips_by_scan(lam, r), (lam, r)
                for s in strips:
                    A = s.indices
                    assert is_weak_strip(lam, A) and is_weak_strip_parabolic(lam, A)
                    assert IndexSet(k, A.members) == A
                    # the grown top, replayed through the validating constructor
                    assert WeakStrip(lam, A, s.top) == s
                    assert s.top == strip_top(lam, A), (lam, A)


def test_strip_perms_are_the_subset_scan_walked():
    # one table for every size: the scan of each size, each set mapped to
    # d_A w_lam as the walk along the letters of d_A gives it, with its length
    for k in range(1, 5):
        for lam in kbounded_partitions(k, 6):
            w = bounded_to_perm(lam)
            table = StripGrowth(lam, k).perms()
            sizes = [len(A) for A in table]
            assert sizes == sorted(sizes), lam
            for r in range(k + 1):
                scan = weak_strips_by_scan(lam, r)
                assert {A for A in table if len(A) == r} == {A.members for A in scan}, (lam, r)
                for A in scan:
                    v = table[A.members]
                    assert v == left_action(w, d_steps(A)), (lam, A)
                    assert v.length == lam.size + r == AffinePermutation(k, v.window).length


def test_setvalued_strips_equal_subset_scan():
    # AffinePermutation equality ignores the length, and the Pieri signs
    # read it, so each grown length is re-derived by the public constructor
    for k, size in SETVALUED_GRID:
        for lam in kbounded_partitions(k, size):
            w = bounded_to_perm(lam)
            for r in range(1, k + 1):
                strips = setvalued_strips(w, r)
                scan = setvalued_strips_by_scan(w, r)
                assert strips == scan, (lam, r)
                for (_, v), (_, u) in zip(strips, scan):
                    assert v.length == u.length == AffinePermutation(k, v.window).length


def test_setvalued_pruning_follows_run_tops_only():
    # d_A * w is Grassmannian for the admissible A.  Dropping a run top a
    # (a+1 not in A) keeps A admissible, which the growth relies on;
    # dropping any element does not, so plain subset closure is false.
    not_closed = 0
    for k in range(1, 7):
        n = k + 1
        for lam in kbounded_partitions(k, 6 if k == 6 else 8):
            w = bounded_to_perm(lam)
            admissible = {
                A
                for A in proper_subsets(k)
                if left_action(w, d_steps(IndexSet(k, A)), "max").is_grassmannian()
            }
            for A in admissible:
                for b in A:
                    if A - {b} not in admissible:
                        assert (b + 1) % n in A, (lam, A, b)
                        not_closed += 1
    assert not_closed == 1936


def test_z_sets_equal_subset_scan_on_grassmannian_elements():
    for k in range(1, 9):
        for lam in kbounded_partitions(k, 8):
            u = bounded_to_perm(lam)
            zs = z_sets(u)
            assert (zs.plus, zs.minus, zs.plus_grassmannian) == z_sets_by_scan(u), lam


def test_z_sets_equal_subset_scan_on_balls():
    for k in range(1, 5):
        for u in ball(k, 4):
            zs = z_sets(u)
            assert (zs.plus, zs.minus, zs.plus_grassmannian) == z_sets_by_scan(u), u


def test_z_sets_equal_subset_scan_on_random_words_at_k8():
    rng = random.Random(8)
    grassmannian = 0
    for _ in range(120):
        u = identity(8)
        for _ in range(rng.randint(0, 40)):
            u = left_mul_s(u, rng.randint(0, 8))
        grassmannian += u.is_grassmannian()
        zs = z_sets(u)
        assert (zs.plus, zs.minus, zs.plus_grassmannian) == z_sets_by_scan(u), u
    assert 0 < grassmannian < 120


def test_z_sets_equal_subset_scan_on_random_words():
    rng = random.Random(12)
    seen = 0
    for _ in range(500):
        k = rng.randint(1, 8)
        u = identity(k)
        for _ in range(rng.randint(0, 25)):
            u = left_mul_s(u, rng.randint(0, k))
        if u.is_grassmannian():
            continue
        seen += 1
        zs = z_sets(u)
        assert zs.plus_grassmannian is None
        assert (zs.plus, zs.minus, None) == z_sets_by_scan(u), u
    assert seen > 300


def test_growth_windows_are_the_left_action_runs():
    # each kept set carries the window of d_A w (ascent), d_A^{-1} w
    # (descent) or d_A * w (max, kept when Grassmannian) and its length
    # change; the public constructor re-derives the length
    for k, L in ((1, 4), (2, 4), (3, 3), (5, 2)):
        for w in ball(k, L):
            for mode, steps in (("ascent", d_steps), ("descent", d_inverse_steps), ("max", d_steps)):
                if mode == "max" and not w.is_grassmannian():
                    continue
                levels = left_growth(w.window, mode, k)
                grown = {}
                for r, level in enumerate(levels):
                    for A, win, dl in level:
                        assert len(A) == r and A not in grown
                        v = AffinePermutation(k, win)
                        assert v.length == w.length + dl, (w, A)
                        if mode != "max":
                            assert dl == (r if mode == "ascent" else -r), (w, A)
                        grown[A] = v
                for members in proper_subsets(k):
                    v = left_action(w, steps(IndexSet(k, members)), mode)
                    if mode == "max" and not v.is_grassmannian():
                        v = None
                    assert grown.get(members) == v, (w, members)


def test_parked_growth_grows_the_same_levels():
    # a growth kept between levels grows the levels of the eager growth,
    # parked or not: parking drops the index sets and position tables
    for k, L in ((2, 4), (3, 3), (5, 2)):
        for w in ball(k, L):
            for mode in ("ascent", "descent", "max"):
                if mode == "max" and not w.is_grassmannian():
                    continue
                levels = left_growth(w.window, mode, k)
                kept, parked = LeftGrowth(w.window, mode), LeftGrowth(w.window, mode)
                for r in range(1, k + 1):
                    parked.park()
                    assert parked.grow() == kept.grow() == levels[r], (w, mode, r)
                    assert parked.depth == kept.depth == r


def test_max_growth_rejects_a_window_that_is_not_increasing():
    with pytest.raises(ValueError, match="increasing"):
        left_growth((2, 1, 3), "max", 1)
    with pytest.raises(ValueError, match="mode"):
        left_growth((1, 2, 3), "plain", 1)


def test_growth_stays_within_the_given_residues():
    w = bounded_to_perm(kbounded_partitions(4, 6)[-1])
    for within in ({0, 2}, {1, 2, 3}, set()):
        for size in range(len(within) + 1):
            levels = left_growth(w.window, "descent", size, within)
            assert len(levels) == size + 1
            assert all(A <= within for level in levels for A, _, _ in level)


def test_fiber_labels_and_table_equal_subset_scan():
    for k, L in ((2, 4), (3, 3)):
        for u in ball(k, L):
            rows = []
            for members in proper_subsets(k):
                A = IndexSet(k, members)
                steps = d_steps(A)
                scan = set()
                for r in range(len(members) + 1):
                    for B in map(frozenset, itertools.combinations(sorted(members), r)):
                        v = left_action(u, d_inverse_steps(IndexSet(k, B)), "descent")
                        if v is not None and left_action(v, steps, "max") == u:
                            scan.add(B)
                            rows.append((v, A, (-1) ** (len(A) - (u.length - v.length))))
                assert fiber_X(A, u).members == scan, (u, members)
            rows.sort(key=lambda r: (len(r[1]), r[1].sorted(), r[0].length, r[0].window))
            assert signed_fiber_table(u) == rows, u
