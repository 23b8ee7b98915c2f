"""Acceptance suite: every identity exact, every sweep exhaustive on its range.

Each test prints one pass/fail line (bypassing capture) with its elapsed
time and hard budget.  All arithmetic is integer arithmetic; there are no
tolerances anywhere.
"""

import time

from affineschur.affine import (
    IndexSet,
    bruhat_leq,
    from_word,
    inverse,
    mul,
    weak_leq,
)
from affineschur.kcode import d_elem, rd, ri, sh
from affineschur.oracles import gtilde_factorize_check, kschur_rectangle_check
from affineschur.orderlab import fiber_X, fiber_Y, find_A0, signed_fiber_table
from affineschur.partitions import CorePartition, KBoundedPartition, kbounded_partitions
from affineschur.shapes import (
    bounded_to_core,
    bounded_to_perm,
    core_to_bounded,
    k_transpose,
    perm_to_bounded,
    reading_word,
    weak_strips,
)
from affineschur.symfunc import (
    expand_gtilde_combination,
    gtilde_pieri,
    gtilde_pieri_direct,
    gtilde_pieri_ie,
    kschur_top_degree_check,
)
from affineschur.verify import (
    verify_factorization,
    verify_fibers,
    verify_order_props,
    verify_pieri_sum,
)


REPORT_LINES: list[str] = []


class budget:
    """Context manager: report one pass/fail line and enforce the time cap."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.seconds
        line = (
            f"[{'PASS' if ok else 'FAIL'}] {self.label} "
            f"({elapsed:.2f}s, budget {self.seconds:.0f}s)"
        )
        REPORT_LINES.append(line)
        print(line)
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


def assert_all_ok(results):
    bad = [r for r in results if not r.ok]
    assert not bad, "counterexamples: " + "; ".join(
        f"{r.name}: {r.failures[0]}" for r in bad
    )


def test_01_figure_triple_roundtrips():
    with budget("01 bounded/core/word triple and round trips", 1):
        lam = KBoundedPartition(3, (3, 2, 1))
        core = CorePartition(3, (5, 2, 1))
        word = (2, 0, 3, 2, 1, 0)
        w = from_word(3, word)
        assert bounded_to_core(lam) == core
        assert reading_word(lam) == word
        assert bounded_to_perm(lam) == w
        assert core_to_bounded(core) == lam
        assert bounded_to_core(perm_to_bounded(w)) == core
        assert perm_to_bounded(w) == lam


def test_02_code_decomposition_example():
    with budget("02 canonical code decompositions", 1):
        w = from_word(3, [0, 1, 3, 2, 0, 3, 2, 1, 0])
        assert rd(w).values == (5, 3, 1, 0)
        assert ri(w).values == (6, 3, 0, 0)
        assert sh(rd(w)).parts == (3, 2, 2, 1, 1)
        assert sh(ri(w)).parts == (2, 2, 2, 1, 1, 1)
        assert k_transpose(KBoundedPartition(3, (2, 2, 2, 1, 1, 1))).parts == (
            3, 2, 2, 1, 1,
        )


def test_03_weak_strip_poset():
    with budget("03 weak-strip index sets and cover relations", 1):
        lam = KBoundedPartition(3, (3, 2, 1))
        labels = [s.indices.sorted() for r in range(4) for s in weak_strips(lam, r)]
        assert sorted(labels, key=lambda a: (len(a), a)) == [
            (), (1,), (3,), (1, 2), (1, 3), (1, 2, 3),
        ]
        w = bounded_to_perm(lam)
        tops = {a: mul(d_elem(IndexSet(3, frozenset(a))), w) for a in labels}
        weak_edges = {
            (a, b)
            for a in labels
            for b in labels
            if tops[b].length == tops[a].length + 1 and weak_leq(tops[a], tops[b], "left")
        }
        strong_edges = {
            (a, b)
            for a in labels
            for b in labels
            if tops[b].length == tops[a].length + 1 and bruhat_leq(tops[a], tops[b])
        }
        assert weak_edges == {
            ((), (1,)), ((), (3,)),
            ((1,), (1, 3)), ((3,), (1, 3)), ((1,), (1, 2)),
            ((1, 2), (1, 2, 3)),
        }
        assert strong_edges == weak_edges | {((1, 3), (1, 2, 3))}


def test_04_signed_fiber_table():
    with budget("04 signed fiber table and its filtration", 1):
        u = from_word(3, [3, 1, 0])
        s30, s10, s0 = from_word(3, [3, 0]), from_word(3, [1, 0]), from_word(3, [0])
        rows = {(v.window, A.sorted(), s) for v, A, s in signed_fiber_table(u)}
        assert rows == {
            (u.window, (), 1),
            (s30.window, (1,), 1), (u.window, (1,), -1),
            (s10.window, (3,), 1), (u.window, (3,), -1),
            (s0.window, (1, 3), 1), (s10.window, (1, 3), -1),
            (s30.window, (1, 3), -1), (u.window, (1, 3), 1),
        }
        filtered = signed_fiber_table(u, from_word(3, [2, 1, 0]))
        assert {(v.window, A.sorted()) for v, A, _ in filtered} == {
            (s10.window, (3,)), (s0.window, (1, 3)), (s10.window, (1, 3)),
        }


def test_05_demazure_fibers_rank_five():
    with budget("05 rank-5 fibers and the singleton search", 5):
        u = bounded_to_perm(KBoundedPartition(5, (5, 3, 2, 1)))
        w = bounded_to_perm(KBoundedPartition(5, (5, 2, 2, 2)))
        A = IndexSet(5, frozenset({5, 0, 1}))
        expected = {
            frozenset({1}), frozenset({0, 1}), frozenset({1, 5}), frozenset({0, 1, 5}),
        }
        assert fiber_X(A, u).members == expected
        assert fiber_Y(A, u, w).members == expected
        elements = {mul(inverse(d_elem(IndexSet(5, B))), u) for B in expected}
        assert set(fiber_X(A, u).elements()) == elements
        A2 = IndexSet(5, frozenset({3, 5, 1}))
        assert fiber_X(A2, u).bottom() == frozenset() and len(fiber_X(A2, u).members) == 8
        y2 = fiber_Y(A2, u, w)
        assert y2.bottom() == frozenset({1}) and len(y2.members) == 4
        assert find_A0(u, w) == IndexSet(5, frozenset({1}))


def test_06_ideal_sum_pieri_signed_vs_union():
    with budget("06 ideal-sum Pieri: signed product equals indicator sum", 600):
        for k in (2, 3):
            for lam in kbounded_partitions(k, 6):
                for r in range(1, k + 1):
                    closed = gtilde_pieri(lam, r)
                    assert closed == gtilde_pieri_direct(lam, r), (k, lam, r)
                    assert all(c == 1 for _, c in closed.coeffs)


def test_07_ideal_sum_pieri_inclusion_exclusion():
    with budget("07 ideal-sum Pieri: inclusion-exclusion form", 600):
        for k in (2, 3):
            for lam in kbounded_partitions(k, 6):
                for r in range(1, k + 1):
                    combo = gtilde_pieri_ie(lam, r)
                    assert expand_gtilde_combination(k, combo) == gtilde_pieri(lam, r)


def test_08_ideal_sum_rectangle_factorization():
    with budget("08 ideal-sum rectangle factorization", 900):
        for k in (2, 3):
            for t in range(1, k + 1):
                for lam in kbounded_partitions(k, 5):
                    assert gtilde_factorize_check(lam, t), (k, t, lam)
        # spot check at the largest admitted rank
        assert_all_ok(verify_factorization(8, 1))


def test_09_homogeneous_factorization_and_top_degree():
    with budget("09 homogeneous factorization and top degrees", 300):
        for k in (2, 3):
            for t in range(1, k + 1):
                for lam in kbounded_partitions(k, 5):
                    assert kschur_rectangle_check(lam, t), (k, t, lam)
            for lam in kbounded_partitions(k, 6):
                assert kschur_top_degree_check(lam), (k, lam)


def test_10_order_theory_property_suites():
    with budget("10 order-theory suites, exhaustive plus spot sweeps", 1200):
        assert_all_ok(verify_order_props(2, 6))
        assert_all_ok(verify_fibers(2, 6))
        assert_all_ok(verify_order_props(3, 5))
        assert_all_ok(verify_fibers(3, 5))


def test_sweep_commands_match_library():
    # the CLI "verify" suites are the same sweeps the acceptance run uses
    assert_all_ok(verify_pieri_sum(2, 4))
    assert_all_ok(verify_factorization(2, 4))
