"""The left-action kernel, and the strip, Z-set and fiber decisions built on it,
against a fold of single generator steps and against full group products."""

import itertools
import random

import pytest

from affineschur.affine import (
    AffinePermutation,
    IndexSet,
    ball,
    identity,
    left_action,
    left_mul_s,
)
from affineschur.kcode import d_inverse_steps, d_steps
from affineschur.orderlab import fiber_X, z_sets
from affineschur.oracles import d_demazure, d_inverse_mul, d_mul
from affineschur.partitions import kbounded_partitions
from affineschur.shapes import (
    bounded_to_perm,
    is_weak_strip,
    setvalued_strips,
    strip_top,
    weak_strips,
)


def proper_index_sets(k):
    for r in range(k + 1):
        for combo in itertools.combinations(range(k + 1), r):
            yield IndexSet(k, frozenset(combo))


def validated(w):
    """The element the public constructor builds from w's window; its length
    is re-derived by the inversion formula."""
    ref = AffinePermutation(w.k, w.window)
    assert ref == w and ref.length == w.length, w


def fold(w, letters, mode):
    """The four modes by one `left_mul_s` per letter."""
    for i in letters:
        v = left_mul_s(w, i)
        up = v.length > w.length
        if mode == "ascent" and not up or mode == "descent" and up:
            return None
        if mode == "max" and not up:
            continue
        w = v
    return w


def random_element(rng, k, steps):
    w = identity(k)
    for _ in range(steps):
        w = left_mul_s(w, rng.randint(0, k))
    return w


@pytest.mark.parametrize("k", range(1, 9))
def test_kernel_modes_equal_fold_of_generator_steps(k):
    rng = random.Random(k)
    seen = dict.fromkeys(("plain", "ascent", "descent", "max"), 0)
    for _ in range(150):
        w = random_element(rng, k, rng.randint(0, 25))
        letters = [rng.randint(0, k) for _ in range(rng.randint(0, 12))]
        for mode in seen:
            got = left_action(w, letters, mode)
            assert got == fold(w, letters, mode), (w, letters, mode)
            if got is not None:
                validated(got)
                seen[mode] += 1
    # every mode produced values, not only rejections
    assert all(seen.values()), seen


def test_kernel_rejects_bad_input():
    w = identity(3)
    with pytest.raises(ValueError):
        left_action(w, [4])
    with pytest.raises(ValueError):
        left_action(w, [-1])
    with pytest.raises(ValueError):
        left_action(w, [0], "min")
    assert left_action(w, []) == w


def assert_steps_match_products(A, w):
    up = d_mul(A, w)
    assert left_action(w, d_steps(A)) == up
    ascent = left_action(w, d_steps(A), "ascent")
    assert ascent == (up if up.length == w.length + len(A) else None)
    down = d_inverse_mul(A, w)
    assert left_action(w, d_inverse_steps(A)) == down
    descent = left_action(w, d_inverse_steps(A), "descent")
    assert descent == (down if down.length == w.length - len(A) else None)
    assert left_action(w, d_steps(A), "max") == d_demazure(A, w)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_steps_equal_products_on_ball(k):
    sets = list(proper_index_sets(k))
    for w in ball(k, 5):
        for A in sets:
            assert_steps_match_products(A, w)


def test_steps_equal_products_at_k8():
    rng = random.Random(8)
    sets = list(proper_index_sets(8))
    for _ in range(60):
        w = random_element(rng, 8, rng.randint(0, 30))
        for A in rng.sample(sets, 40):
            assert_steps_match_products(A, w)


def families_by_products(u):
    """The three Z-set families through one full group product per A."""
    plus, minus, plus_g = set(), set(), set()
    for A in proper_index_sets(u.k):
        up = d_mul(A, u)
        if up.length == u.length + len(A):
            plus.add(A.members)
            if up.is_grassmannian():
                plus_g.add(A.members)
        if d_inverse_mul(A, u).length == u.length - len(A):
            minus.add(A.members)
    return plus, minus, plus_g if u.is_grassmannian() else None


def fiber_by_products(A, u):
    return {
        frozenset(B)
        for r in range(len(A) + 1)
        for B in itertools.combinations(A.sorted(), r)
        if d_demazure(A, d_inverse_mul(IndexSet(u.k, frozenset(B)), u)) == u
    }


@pytest.mark.parametrize("k, L", [(2, 5), (3, 4)])
def test_z_sets_and_fibers_equal_product_routes(k, L):
    for u in ball(k, L):
        zs = z_sets(u)
        assert (zs.plus, zs.minus, zs.plus_grassmannian) == families_by_products(u)
        if u.is_grassmannian():
            for A in proper_index_sets(k):
                fib = fiber_X(A, u)
                assert fib.members == fiber_by_products(A, u)
                assert fib.elements() == [
                    d_inverse_mul(IndexSet(k, B), u)
                    for B in sorted(fib.members, key=lambda b: (len(b), sorted(b)))
                ]


def test_z_sets_equal_product_routes_at_k8():
    rng = random.Random(88)
    for _ in range(4):
        u = random_element(rng, 8, rng.randint(5, 30))
        zs = z_sets(u)
        assert (zs.plus, zs.minus, zs.plus_grassmannian) == families_by_products(u)
    u = bounded_to_perm(kbounded_partitions(8, 9)[40])
    zs = z_sets(u)
    assert (zs.plus, zs.minus, zs.plus_grassmannian) == families_by_products(u)


@pytest.mark.parametrize("k, size", [(2, 6), (3, 5), (4, 4)])
def test_strips_equal_product_routes(k, size):
    for lam in kbounded_partitions(k, size):
        w = bounded_to_perm(lam)
        for r in range(k + 1):
            scan = []
            for A in proper_index_sets(k):
                if len(A) != r:
                    continue
                v = d_mul(A, w)
                additive = v.length == w.length + r and v.is_grassmannian()
                assert is_weak_strip(lam, A) == additive
                if additive:
                    scan.append(A)
                    assert bounded_to_perm(strip_top(lam, A)) == v
            assert [s.indices for s in weak_strips(lam, r)] == scan
            if r:
                # lengths too: equality of elements ignores them
                assert [(A, v, v.length) for A, v in setvalued_strips(w, r)] == [
                    (A, d_demazure(A, w), d_demazure(A, w).length)
                    for A in proper_index_sets(k)
                    if len(A) == r and d_demazure(A, w).is_grassmannian()
                ]


def test_strips_equal_product_routes_at_k8():
    rng = random.Random(18)
    for lam in rng.sample(kbounded_partitions(8, 12), 12):
        w = bounded_to_perm(lam)
        for r in (1, rng.randint(2, 8)):
            assert [s.indices.sorted() for s in weak_strips(lam, r)] == [
                A.sorted()
                for A in proper_index_sets(8)
                if len(A) == r
                and d_mul(A, w).length == w.length + r
                and d_mul(A, w).is_grassmannian()
            ]
            assert [(A.sorted(), v, v.length) for A, v in setvalued_strips(w, r)] == [
                (A.sorted(), d_demazure(A, w), d_demazure(A, w).length)
                for A in proper_index_sets(8)
                if len(A) == r and d_demazure(A, w).is_grassmannian()
            ]


def test_fibers_on_grassmannian_elements_at_k5():
    rng = random.Random(5)
    sets = list(proper_index_sets(5))
    for u in rng.sample([w for w in ball(5, 7) if w.is_grassmannian()], 6):
        for A in rng.sample(sets, 12):
            assert fiber_X(A, u).members == fiber_by_products(A, u)
