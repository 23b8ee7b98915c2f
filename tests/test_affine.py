"""Window arithmetic, orders, and the Demazure toolbox."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineschur import affine
from affineschur.affine import (
    AffinePermutation,
    IndexSet,
    ReducedWord,
    ball,
    ball_size,
    bruhat_leq,
    demazure,
    descents,
    flip,
    from_word,
    identity,
    inverse,
    is_affine_reflection,
    least_left_descent,
    left_mul_s,
    meet_LS,
    mul,
    psi_apply,
    reduced_word,
    right_mul_s,
    s_join_L,
    weak_leq,
)
from affineschur.kcode import KCode, code_rows, rd, ri
from affineschur.orderlab import Fiber, ZSets, fiber_X, signed_fiber_table, z_sets
from affineschur.oracles import ball_by_left_mul_s, subword_lower_set
from affineschur.partitions import CorePartition, KBoundedPartition, kbounded_partitions
from affineschur.shapes import WeakStrip, bounded_to_perm, setvalued_strips, weak_strips
from affineschur.verify import verify_fibers


def bfs_lengths(k, max_length):
    """Cayley-graph distance from the identity; the independent length oracle."""
    dist = {identity(k): 0}
    frontier = [identity(k)]
    for d in range(1, max_length + 1):
        nxt = []
        for w in frontier:
            for i in range(k + 1):
                u = left_mul_s(w, i)
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 2, 3))  # wrong arity
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 2, 3, 5))  # wrong sum
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 5, 3, 1))  # repeated residues
    with pytest.raises(ValueError):
        AffinePermutation(0, (1,))


def test_from_word_examples():
    w = from_word(3, [2, 0, 3, 2, 1, 0])
    assert w.length == 6
    assert from_word(3, []).is_identity()
    assert from_word(3, [1, 1]).is_identity()
    with pytest.raises(ValueError):
        from_word(3, [4])


def test_identity_window():
    assert identity(3).window == (1, 2, 3, 4)
    assert identity(3).length == 0


def test_length_matches_bfs_oracle():
    for k in (1, 2, 3):
        dist = bfs_lengths(k, 6)
        for w, d in dist.items():
            assert w.length == d
    assert from_word(3, [3, 1, 0]).length == 3
    assert from_word(3, [2, 0, 3, 2, 1, 0]).length == 6


def test_mul_inverse():
    e = identity(3)
    w = from_word(3, [2, 0, 3, 2, 1, 0])
    assert mul(e, w) == w and mul(w, e) == w
    assert mul(inverse(w), w) == e and mul(w, inverse(w)) == e
    for i in range(4):
        s = from_word(3, [i])
        assert inverse(s) == s
    dropped = mul(from_word(3, [1]), from_word(3, [3, 1, 0]))
    assert dropped == from_word(3, [3, 0]) and dropped.length == 2
    with pytest.raises(ValueError):
        mul(identity(2), identity(3))


def test_descents():
    e = identity(3)
    assert descents(e, "left") == descents(e, "right") == frozenset()
    assert descents(from_word(3, [3, 1, 0]), "left") == frozenset({1, 3})
    for lam in kbounded_partitions(3, 5):
        if lam.parts:
            assert descents(bounded_to_perm(lam), "right") == frozenset({0})
    for w in ball(2, 6):
        assert len(descents(w, "left")) <= 2
        assert len(descents(w, "right")) <= 2
    with pytest.raises(ValueError):
        descents(e, "up")


def test_least_left_descent_reads_the_window():
    """The least left descent, read off the window, is min(descents(w, "left"))."""
    for k in (1, 2, 3, 4):
        for w in ball(k, 5)[1:]:
            assert least_left_descent(w) == min(descents(w, "left")), w
        with pytest.raises(ValueError, match="identity"):
            least_left_descent(identity(k))


def test_bruhat_examples():
    for w in ball(3, 4):
        assert bruhat_leq(identity(3), w)
    assert bruhat_leq(from_word(3, [1, 0]), from_word(3, [2, 1, 0]))
    assert not bruhat_leq(from_word(3, [3, 0]), from_word(3, [2, 1, 0]))


@pytest.mark.parametrize("k,L", [(2, 7), (3, 6)])
def test_bruhat_matches_subword_oracle(k, L):
    elems = ball(k, L)
    for v in elems:
        lower = subword_lower_set(v)
        for u in elems:
            assert bruhat_leq(u, v) == (u in lower), (u.window, v.window)


def test_strong_covers_are_reflection_steps():
    for k in (2, 3):
        elems = ball(k, 5)
        for u in elems:
            for v in elems:
                if v.length == u.length + 1:
                    assert bruhat_leq(u, v) == is_affine_reflection(mul(v, inverse(u)))


def test_weak_order_examples():
    w = from_word(3, [2, 0, 3, 2, 1, 0])
    for x in ball(3, 3):
        assert weak_leq(identity(3), x, "left")
        assert weak_leq(identity(3), x, "right")
    assert weak_leq(w, left_mul_s(w, 1), "left")
    assert weak_leq(from_word(3, [0]), from_word(3, [3, 1, 0]), "left")
    assert not weak_leq(from_word(3, [1]), from_word(3, [3, 1, 0]), "left")


def test_length_additivity_is_weak_order():
    elems = ball(2, 4)
    for u in elems:
        for v in elems:
            uv = mul(u, v)
            assert uv.length <= u.length + v.length
            assert (uv.length == u.length + v.length) == weak_leq(v, uv, "left")


def test_reduced_word_examples():
    assert reduced_word(identity(3)).letters == ()
    assert reduced_word(from_word(3, [0])).letters == (0,)
    w = from_word(3, [2, 0, 3, 2, 1, 0])
    rw = reduced_word(w)
    assert len(rw) == 6 and from_word(3, rw.letters) == w


@pytest.mark.parametrize("k,L", [(1, 8), (2, 8), (3, 8)])
def test_reduced_word_round_trip(k, L):
    for w in ball(k, L):
        assert from_word(k, reduced_word(w).letters) == w


def test_reduced_words_pass_public_validation():
    # reduced_word skips re-validation; the public constructor must agree
    for w in ball(3, 5):
        letters = reduced_word(w).letters
        assert ReducedWord(3, letters).letters == letters


def test_reduced_word_strips_the_smallest_left_descent():
    for k, L in ((1, 6), (2, 6), (3, 5), (4, 4)):
        for w in ball(k, L):
            x = w
            for letter in reduced_word(w).letters:
                assert letter == min(descents(x, "left"))
                x = left_mul_s(x, letter)
            assert x.is_identity()


def test_ball_size_matches_enumeration():
    for k in range(1, 5):
        for L in range(7):
            assert ball_size(k, L) == len(ball(k, L))
    assert ball_size(8, 15) == 1_302_499
    assert ball_size(8, 16) == 2_031_535


def test_reduced_word_type_rejects_unreduced():
    with pytest.raises(ValueError):
        ReducedWord(3, (1, 1))
    ReducedWord(3, (2, 0, 3, 2, 1, 0))


def test_demazure_examples():
    d1 = from_word(3, [1])
    s310 = from_word(3, [3, 1, 0])
    assert demazure(d1, from_word(3, [3, 0])) == s310
    assert demazure(d1, s310) == s310
    assert demazure(identity(3), s310) == s310


def test_psi_examples():
    s310 = from_word(3, [3, 1, 0])
    for i in range(4):
        assert psi_apply(from_word(3, [i]), identity(3)) == identity(3)
    assert psi_apply(from_word(3, [1]), s310) == from_word(3, [3, 0])
    # letterwise idempotence: one generator applied twice equals once
    for i in range(3):
        s = from_word(2, [i])
        for y in ball(2, 4):
            assert psi_apply(s, psi_apply(s, y)) == psi_apply(s, y)
            assert demazure(s, demazure(s, y)) == demazure(s, y)


def test_join_and_meet_against_brute_force():
    small = ball(2, 4)
    wide = ball(2, 9)
    e = identity(2)
    for x in small:
        assert s_join_L(e, x) == x and s_join_L(x, e) == x
        assert meet_LS(x, x) == x and meet_LS(x, e) == e
    for x in small:
        for y in small:
            j = s_join_L(x, y)
            assert bruhat_leq(x, j) and weak_leq(y, j, "left")
            m = meet_LS(x, y)
            assert weak_leq(m, x, "left") and bruhat_leq(m, y)
            for z in wide:
                if bruhat_leq(x, z) and weak_leq(y, z, "left"):
                    assert bruhat_leq(j, z)
                if weak_leq(z, x, "left") and bruhat_leq(z, y):
                    assert bruhat_leq(z, m)


def test_join_worked_instance():
    x, y = from_word(2, [1, 2]), from_word(2, [0])
    cands = [
        z for z in ball(2, 8) if bruhat_leq(x, z) and weak_leq(y, z, "left")
    ]
    minima = [z for z in cands if all(bruhat_leq(z, c) for c in cands)]
    assert minima == [s_join_L(x, y)]


def test_flip_is_anti_isomorphism():
    for z in ball(2, 6):
        interval = [x for x in ball(2, z.length) if weak_leq(x, z, "left")]
        images = {x: flip(z, x) for x in interval}
        assert images[identity(2)] == z and images[z] == identity(2)
        for x in interval:
            assert images[x].length == z.length - x.length
            assert weak_leq(images[x], z, "right")
        for x in interval:
            for y in interval:
                assert bruhat_leq(x, y) == bruhat_leq(images[y], images[x])
    with pytest.raises(ValueError):
        flip(from_word(2, [0]), from_word(2, [1]))


def test_ball_examples():
    assert ball(3, 0) == [identity(3)]
    assert len([w for w in ball(3, 4) if w.is_grassmannian()]) == 11
    for L in range(7):
        assert len(ball(1, L)) == 2 * L + 1


def test_ball_cap(monkeypatch):
    from affineschur.affine import BallCapExceeded

    monkeypatch.setattr(affine, "BALL_CAP", 10)
    with pytest.raises(BallCapExceeded):
        ball(2, 6)


def test_ball_is_the_search_by_left_mul_s():
    """The search over windows gives the elements, order and lengths of the
    search by `left_mul_s`, one value per step."""
    for k, top in [(1, 6), (2, 6), (3, 6), (4, 6), (8, 3)]:
        for L in range(top + 1):
            got, want = ball(k, L), ball_by_left_mul_s(k, L)
            assert got == want, (k, L)
            assert [w.length for w in got] == [w.length for w in want], (k, L)


def test_an_over_cap_ball_raises_before_any_step(monkeypatch):
    """The cap is checked against Bott's count, so not one generator step runs."""
    from affineschur.affine import BallCapExceeded

    steps = []

    def counted(window):
        steps.append(window)
        return original(window)

    original = affine._left_steps
    monkeypatch.setattr(affine, "_left_steps", counted)
    monkeypatch.setattr(affine, "BALL_CAP", ball_size(2, 6) - 1)
    with pytest.raises(BallCapExceeded, match="of 64 elements exceeds cap=63"):
        ball(2, 6)
    assert steps == []


def test_a_ball_that_loses_elements_raises(monkeypatch):
    """With the edits of the left-step rule lost, every step gives w back and
    the search stops at the identity; the count against Bott's formula makes
    `ball`, and a sweep over it, raise instead of passing on a one-element
    ball."""

    def unedited(window):
        return [window] * len(window)

    monkeypatch.setattr(affine, "_left_steps", unedited)
    with pytest.raises(RuntimeError, match="holds 1 elements, not the 31"):
        ball(2, 4)
    with pytest.raises(RuntimeError, match="Bott's formula"):
        verify_fibers(2, 4)


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(3, frozenset({0, 1, 2, 3}))
    with pytest.raises(ValueError):
        IndexSet(3, frozenset({4}))
    assert IndexSet(3, frozenset({2, 0})).sorted() == (0, 2)


words = st.lists(st.integers(min_value=0, max_value=3), max_size=12)


@settings(max_examples=200, deadline=None)
@given(words)
def test_random_words_roundtrip(word):
    w = from_word(3, word)
    assert w.length <= len(word)
    assert (w.length - len(word)) % 2 == 0
    assert from_word(3, reduced_word(w).letters) == w
    assert mul(w, inverse(w)) == identity(3)


@settings(max_examples=100, deadline=None)
@given(words, words)
def test_random_demazure_facts(wa, wb):
    x, y = from_word(3, wa), from_word(3, wb)
    z = demazure(x, y)
    assert weak_leq(x, z, "right") and weak_leq(y, z, "left")
    assert bruhat_leq(psi_apply(x, y, "left"), y)
    assert psi_apply(x, y, "left") == inverse(psi_apply(inverse(x), inverse(y), "right"))


def assert_passes_validation(w):
    """A kernel output equals the element the validating constructor builds."""
    ref = AffinePermutation(w.k, w.window)
    assert ref == w and hash(ref) == hash(w)
    assert ref.length == w.length, w


@pytest.mark.parametrize("k, L", [(1, 6), (2, 6), (3, 5), (4, 5)])
def test_trusted_kernel_values_pass_validation(k, L):
    elems = ball(k, L)
    for w in elems:
        assert_passes_validation(inverse(w))
        for i in range(k + 1):
            assert_passes_validation(left_mul_s(w, i))
            assert_passes_validation(right_mul_s(w, i))
    rng = random.Random(k)
    for _ in range(400):
        assert_passes_validation(mul(rng.choice(elems), rng.choice(elems)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=30),
       st.lists(st.integers(min_value=0, max_value=8), max_size=30))
def test_trusted_kernel_values_at_k8(wa, wb):
    # n = 9, where the longest cold CLI queries live
    x = y = identity(8)
    for a in wa:
        x = right_mul_s(x, a)
        assert_passes_validation(x)
    for b in wb:
        y = left_mul_s(y, b)
        assert_passes_validation(y)
    assert_passes_validation(inverse(x))
    assert_passes_validation(mul(x, y))
    assert_passes_validation(mul(y, inverse(x)))


def test_elements_are_immutable_and_have_no_dict():
    w = AffinePermutation(3, (5, -1, 2, 4))
    made = [w, left_mul_s(w, 1), right_mul_s(w, 0), mul(w, w), inverse(w), identity(3)]
    for x in made:
        before = (x.k, x.window, x.length, hash(x))
        assert not hasattr(x, "__dict__")
        for name, value in (("k", 4), ("window", (1, 2, 3, 4)), ("length", 0), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert (x.k, x.window, x.length, hash(x)) == before


def test_value_types_are_immutable_hashable_values_without_a_dict():
    u = from_word(2, [0])
    lam = KBoundedPartition(2, (1,))
    # each value twice: once from the checking constructor, once as the library builds it
    pairs = [
        (IndexSet(2, [1, 0]), IndexSet._trusted(2, frozenset({0, 1}))),
        (ReducedWord(2, [1, 0]), reduced_word(from_word(2, [1, 0]))),
        (KBoundedPartition(2, [2, 1]), KBoundedPartition._trusted(2, (2, 1))),
        (CorePartition(2, [2]), CorePartition(2, (2,))),
        (KCode(2, [1, 0, 0]), KCode(2, (1, 0, 0))),
        (WeakStrip.build(lam, IndexSet(2, {1})), weak_strips(lam, 1)[0]),
        (ZSets(u, z_sets(u).plus_bits, z_sets(u).minus_bits, z_sets(u).plus_grassmannian_bits),
         z_sets(u)),
        (Fiber(IndexSet(2, {0}), u, fiber_X(IndexSet(2, {0}), u).members),
         fiber_X(IndexSet(2, {0}), u)),
    ]
    for made, built in pairs:
        assert made is not built and made == built and hash(made) == hash(built)
        assert not hasattr(made, "__dict__")
        assert made.__eq__(object()) is NotImplemented
        for name in (*type(made).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(made, name, None)
            with pytest.raises(AttributeError):
                delattr(made, name)
        assert made == built
    assert KBoundedPartition(2, (2,)) != CorePartition(2, (2,))
    assert len({KBoundedPartition(2, (2,)), CorePartition(2, (2,))}) == 2


def test_value_type_reprs_name_every_field():
    u = identity(2)
    lam = KBoundedPartition(2, (1,))
    assert repr(ReducedWord(2, (1, 0))) == "ReducedWord(k=2, letters=(1, 0))"
    assert repr(WeakStrip.build(lam, IndexSet(2, {1}))) == (
        "WeakStrip(base=KBoundedPartition(k=2, parts=(1,)), indices=IndexSet(k=2, {1}), "
        "top=KBoundedPartition(k=2, parts=(2,)))"
    )
    empty = 1  # the family whose one member is the empty set, bit 0 for its mask
    assert repr(ZSets(u, empty, empty)) == (
        "ZSets(u=AffinePermutation(k=2, window=(1, 2, 3)), plus=frozenset({frozenset()}), "
        "minus=frozenset({frozenset()}), plus_grassmannian=None)"
    )
    assert repr(Fiber(IndexSet(2, {0}), u, frozenset())) == (
        "Fiber(A=IndexSet(k=2, {0}), u=AffinePermutation(k=2, window=(1, 2, 3)), "
        "members=frozenset())"
    )


def test_trusted_index_sets_pass_validation(monkeypatch):
    made = []
    trusted = IndexSet._trusted

    def recording(cls, k, members):
        A = trusted(k, members)
        made.append(A)
        return A

    monkeypatch.setattr(IndexSet, "_trusted", classmethod(recording))
    for w in ball(3, 4):
        for code in (rd(w), ri(w)):
            code_rows(code)
            code_rows(code, increasing=True)
        signed_fiber_table(w)
    for lam in kbounded_partitions(3, 6):
        w = bounded_to_perm(lam)
        for r in range(4):
            weak_strips(lam, r)
            if r:
                setvalued_strips(w, r)
    assert len(made) > 1000
    for A in made:
        assert IndexSet(A.k, A.members) == A
