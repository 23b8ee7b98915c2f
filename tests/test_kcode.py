"""Cyclically decreasing elements and the canonical code decompositions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineschur.affine import (
    IndexSet,
    ball,
    from_word,
    identity,
    inverse,
    mul,
    weak_leq,
)
from affineschur import kcode
from affineschur.kcode import (
    KCode,
    code_rows,
    cyclically_decreasing_word,
    d_elem,
    d_inverse_steps,
    d_steps,
    eval_code,
    rd,
    ri,
    sh,
    u_elem,
)
from affineschur.oracles import kcode_by_stripping


def all_index_sets(k, sizes=None):
    for r in sizes if sizes is not None else range(k + 1):
        for combo in itertools.combinations(range(k + 1), r):
            yield IndexSet(k, frozenset(combo))


def test_code_validation():
    with pytest.raises(ValueError):
        KCode(3, (1, 1, 1, 1))  # no zero column
    with pytest.raises(ValueError):
        KCode(3, (1, 0, 0))  # wrong arity
    with pytest.raises(ValueError):
        KCode(3, (1, 0, 0, -1))


def test_cyclically_decreasing_word_property():
    # letters distinct and no j appearing before j+1 (cyclically)
    for k in (3, 5):
        n = k + 1
        for A in all_index_sets(k):
            word = cyclically_decreasing_word(A)
            assert sorted(word) == sorted(A.members)
            for pos, j in enumerate(word):
                succ = (j + 1) % n
                assert succ not in word[pos + 1 :]


def test_d_elem_examples():
    A = IndexSet(5, frozenset({0, 1, 3, 5}))
    assert d_elem(A) == from_word(5, [1, 0, 5, 3])
    assert d_elem(A).length == 4
    assert d_elem(IndexSet(3, frozenset())).is_identity()
    for k in (2, 3):
        for A in all_index_sets(k):
            assert u_elem(A) == inverse(d_elem(A))
            assert d_elem(A).length == len(A)


def test_letters_of_d_do_not_build_d():
    """The step letters come from the memo without building d_A, which is
    built once when first asked for."""
    A = IndexSet(6, frozenset({0, 2, 3, 6}))
    memo = kcode._d_from_frozen(A.k, A.members)
    memo._elem = None
    assert d_inverse_steps(A) == d_steps(A)[::-1] == (3, 2, 0, 6)
    assert memo._elem is None
    assert d_elem(A) == from_word(6, d_inverse_steps(A))
    assert d_elem(A) is memo._elem


def test_d_elem_order_independent():
    # every cyclically decreasing arrangement evaluates to the same element
    k = 5
    A = IndexSet(k, frozenset({0, 1, 3, 5}))
    n = k + 1
    target = d_elem(A)
    count = 0
    for perm in itertools.permutations(sorted(A.members)):
        if all((perm[i] + 1) % n not in perm[i + 1 :] for i in range(len(perm))):
            assert from_word(k, perm) == target
            count += 1
    assert count == 4  # the arrangements listed for this example


def test_rd_ri_worked_example():
    w = from_word(3, [0, 1, 3, 2, 0, 3, 2, 1, 0])
    assert w.length == 9
    assert rd(w).values == (5, 3, 1, 0)
    assert ri(w).values == (6, 3, 0, 0)
    assert sh(rd(w)).parts == (3, 2, 2, 1, 1)
    assert sh(ri(w)).parts == (2, 2, 2, 1, 1, 1)


def test_rd_identity_and_indicators():
    assert rd(identity(3)).values == (0, 0, 0, 0)
    assert sh(rd(identity(3))).parts == ()
    for k in (2, 3):
        n = k + 1
        for A in all_index_sets(k):
            indicator = tuple(int(i in A.members) for i in range(n))
            assert rd(d_elem(A)).values == indicator
            # the increasing code stores residue -i in column i
            mirrored = tuple(int((-i) % n in A.members) for i in range(n))
            assert ri(u_elem(A)).values == mirrored


@pytest.mark.parametrize("k,L", [(1, 8), (2, 8), (3, 8)])
def test_rd_bijective_on_ball(k, L):
    seen = {}
    for w in ball(k, L):
        code = rd(w)
        assert code.size == w.length
        assert eval_code(code) == w
        assert code.values not in seen
        seen[code.values] = w
        codei = ri(w)
        assert codei.size == w.length
        assert eval_code(codei, increasing=True) == w


def assert_codes_match_stripping(w):
    code, codei = rd(w), ri(w)
    assert code == kcode_by_stripping(w, increasing=False)
    assert codei == kcode_by_stripping(w, increasing=True)
    assert 0 in code.values and 0 in codei.values


@pytest.mark.parametrize("k,L", [(1, 6), (2, 6), (3, 6), (4, 5)])
def test_codes_equal_stripping_oracle_on_ball(k, L):
    # the inversion-count closed forms against the greedy definition
    for w in ball(k, L):
        assert_codes_match_stripping(w)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=14))
def test_codes_equal_stripping_oracle_at_k8(word):
    # n = 9, where the longest cold CLI queries live
    assert_codes_match_stripping(from_word(8, word))


def all_codes(k, max_sum):
    """Every k-code with the given total, i.e. height vectors with a zero."""
    n = k + 1

    def gen(i, left):
        if i == n:
            if left == 0:
                yield ()
            return
        for v in range(left + 1):
            for rest in gen(i + 1, left - v):
                yield (v,) + rest

    for total in range(max_sum + 1):
        for values in gen(0, total):
            if 0 in values:
                yield KCode(k, values)


@pytest.mark.parametrize("k,L", [(1, 8), (2, 8), (3, 8)])
def test_every_code_is_realized(k, L):
    for code in all_codes(k, L):
        w = eval_code(code)
        assert w.length == code.size  # the row decomposition is reduced
        assert rd(w) == code


def test_code_rows_are_nested_columns():
    w = from_word(3, [0, 1, 3, 2, 0, 3, 2, 1, 0])
    rows = code_rows(rd(w))
    assert [sorted(r.members) for r in rows] == [
        [0, 1, 2],
        [0, 3],
        [2, 3],
        [1],
        [0],
    ]
    rows = code_rows(ri(w), increasing=True)
    assert [sorted(r.members) for r in rows] == [
        [0, 3],
        [0, 1],
        [1, 2],
        [3],
        [0],
        [1],
    ]


def test_sh_zero_code():
    assert sh(KCode(3, (0, 0, 0, 0))).parts == ()


def justify_rows(k, rows):
    """Two-row justification oracle for the canonical decreasing code.

    Rows are residue sets, bottom row first.  One move takes a cyclic run
    [i, j] in an upper row sitting over [i+1, j] in the row below (with
    i-1 absent above and i, j+1 absent below) and drops the run's low end:
    the upper row loses j, the lower row gains i.  Iterating to a fixpoint
    bottom-justifies the diagram; products are preserved throughout.
    """
    n = k + 1
    rows = [set(r) for r in rows]

    def one_move():
        for a in range(len(rows) - 1):
            low, up = rows[a], rows[a + 1]
            for i in range(n):
                if (i - 1) % n in up:
                    continue
                run = []
                for step in range(n - 1):
                    j = (i + step) % n
                    if j not in up:
                        break
                    run.append(j)
                    if (
                        all(x in low for x in run[1:])
                        and i not in low
                        and (j + 1) % n not in low
                    ):
                        low.add(i)
                        up.remove(j)
                        return True
        return False

    while one_move():
        pass
    while rows and not rows[-1]:
        rows.pop()
    assert all(rows), "empty row stuck below a nonempty one"
    return [frozenset(r) for r in rows]


@pytest.mark.parametrize("k,L", [(2, 6), (3, 4)])
def test_maximizing_moves_oracle(k, L):
    from affineschur.affine import reduced_word

    for w in ball(k, L):
        letters = reduced_word(w).letters
        rows = [frozenset({a}) for a in reversed(letters)]
        justified = justify_rows(k, rows)
        assert justified == [r.members for r in code_rows(rd(w))]


words = st.lists(st.integers(min_value=0, max_value=3), max_size=10)


@settings(max_examples=150, deadline=None)
@given(words)
def test_random_code_roundtrip(word):
    w = from_word(3, word)
    code = rd(w)
    assert code.size == w.length
    assert eval_code(code) == w
    assert sh(code).size == w.length


@settings(max_examples=100, deadline=None)
@given(words, words)
def test_codes_monotone_under_weak_order(wa, wb):
    x = from_word(3, wa)
    y = mul(from_word(3, wb), x)
    if weak_leq(x, y, "left"):
        assert rd(y).contains(rd(x))
        assert ri(y).contains(ri(x))
