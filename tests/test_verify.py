"""The sweep harness itself: counters, witnesses, and small-rank runs."""

import json
import random
from pathlib import Path

import pytest

from affineschur import affine, cli, orderlab, symfunc, verify
from affineschur.affine import (
    IndexSet,
    ball,
    bruhat_leq,
    demazure,
    flip,
    from_word,
    identity,
    inverse,
    left_action,
    left_mul_s,
    meet_LS,
    mul,
    psi_apply,
    reduced_word,
    right_mul_s,
    s_join_L,
    weak_leq,
)
from affineschur.kcode import d_elem
from affineschur.oracles import (
    d_demazure,
    gtilde_factorize_check,
    is_least_upper_bound_in_ball,
    kschur_rectangle_check,
    saturated_chain_exists,
    strong_join_in_ball,
    strong_meet,
    subset_chain_exists,
)
from affineschur.orderlab import (
    _BallOrder,
    _fiber_scan,
    _flip_images,
    _generator_steps,
    _growth_steps,
    _hecke_tables,
    _hecke_values,
    _inversion_rows,
    _join_seed_sets,
    _mask,
    _positions,
    _prefix,
    _product_table,
    _quotient,
    _seed_tables,
    find_A0,
    proper_subsets,
    z_sets,
)
from affineschur.partitions import KBoundedPartition, k_rectangle, kbounded_partitions, union_sort
from affineschur.shapes import bounded_to_perm
from affineschur.symfunc import SymElt
from affineschur.verify import (
    CheckResult,
    _chain_gaps,
    _extends_toward,
    _length_slices,
    ball_radii,
    verify_factorization,
    verify_fibers,
    verify_order_props,
    verify_pieri_sum,
)

GOLDEN = Path(__file__).parent / "data" / "order_props_golden.json"
SUITE_GOLDEN = Path(__file__).parent / "data" / "suite_golden.json"
SUITES = {
    "factorization": verify_factorization,
    "pieri-sum": verify_pieri_sum,
    "fibers": verify_fibers,
}


def test_check_result_bookkeeping():
    r = CheckResult("demo")
    r.count()
    assert r.instances == 1 and r.ok
    r.fail(a=2)
    r.count()
    assert r.instances == 3 and not r.ok
    assert r.failures == [{"a": 2}]
    blob = r.as_dict()
    assert blob["name"] == "demo" and blob["ok"] is False
    assert not hasattr(r, "check")
    # elements and symmetric functions become JSON only in a failing witness
    w = from_word(2, [0, 1])
    g = SymElt.single(2, "g", (2, 1))
    r = CheckResult("demo")
    r.count()
    r.fail(w=w, g=g, i=3)
    assert r.instances == 2
    assert r.failures == [{"w": list(w.window), "g": g.as_dict()["terms"], "i": 3}]
    assert json.loads(json.dumps(r.as_dict()))["failures"] == r.failures


def test_failing_order_props_checks_keep_their_witnesses(monkeypatch, capsys):
    k, L = 2, 3
    clean = {r.name: r.instances for r in verify_order_props(k, L)}
    pair_ball = ball(k, min(L, 5))
    covers = [
        [list(u.window), list(v.window)]
        for u in pair_ball
        for v in pair_ball
        if v.length == u.length + 1
    ]
    reflection = verify.is_affine_reflection
    monkeypatch.setattr(verify, "is_affine_reflection", lambda w: not reflection(w))
    monkeypatch.setattr(verify, "_extends_toward", lambda A, B, family: False)
    got = {r.name: r for r in verify_order_props(k, L)}
    assert {name: r.instances for name, r in got.items()} == clean
    strong = got["strong-covers-are-reflections"]
    assert len(strong.failures) == strong.instances == len(covers) > 0
    assert [[w["u"], w["v"]] for w in strong.failures] == covers
    assert all(w.keys() == {"u", "v"} for w in strong.failures)
    chains = got["z-families-chain-property"]
    assert len(chains.failures) == chains.instances > 0
    for w in chains.failures:
        assert w.keys() == {"u", "A", "B"}
        assert len(w["u"]) == k + 1 and all(type(x) is int for x in w["u"])
        assert w["A"] == sorted(w["A"]) and w["B"] == sorted(w["B"])
        assert set(w["A"]) < set(w["B"])
    # every other check passes as before
    assert all(r.ok for name, r in got.items() if name not in (strong.name, chains.name))

    assert cli.main(["verify", "order-props", "--k", str(k), "--max-size", str(L)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(strong.failures) + len(chains.failures)
    assert err[0] == (
        "counterexample [strong-covers-are-reflections]: "
        + json.dumps(strong.failures[0], sort_keys=True)
    )
    assert all(line.startswith("counterexample [") for line in err)


@pytest.mark.parametrize(
    "fn,args",
    [
        (verify_order_props, (1, 4)),
        (verify_fibers, (1, 4)),
        (verify_pieri_sum, (1, 4)),
        (verify_factorization, (1, 4)),
    ],
)
def test_small_rank_sweeps(fn, args):
    for result in fn(*args):
        assert result.ok, result.as_dict()


def test_strong_meet_reports_missing_maximum():
    # common lower bounds {e, s0, s1} have two maximal members: no meet
    universe = ball(2, 6)
    s01 = from_word(2, [0, 1])
    s10 = from_word(2, [1, 0])
    assert strong_meet(s01, s10, universe) is None
    # two distinct generators share only the identity
    assert strong_meet(from_word(2, [0]), from_word(2, [1]), universe) == identity(2)


def test_join_certification_levels():
    universe = ball(2, 4)
    s0, s1 = from_word(2, [0]), from_word(2, [1])
    # s0 and s1 have the two upper bounds s0 s1 and s1 s0 of length 2: no join
    assert strong_join_in_ball(s0, s1, universe) is None
    assert strong_join_in_ball(s0, s0, universe) == s0
    # a ball shorter than l(v) + l(w) raises rather than guess
    tight = ball(2, 3)
    top = from_word(2, [0, 1])
    with pytest.raises(ValueError, match="need radius 4"):
        strong_join_in_ball(top, top, tight)
    with pytest.raises(ValueError, match="need radius 4"):
        is_least_upper_bound_in_ball(top, top, top, tight)
    assert strong_join_in_ball(top, top, universe) == top
    assert is_least_upper_bound_in_ball(top, top, top, universe)


def test_a_join_that_a_short_ball_would_certify_is_refused_in_a_wide_one():
    """Two elements of length 4 at k = 4: ball(4,7) holds one shortest common
    upper bound below all the others there, but ball(4,8) holds one that is
    not above it, so the pair has no join."""
    v = affine.AffinePermutation(4, [0, 1, 7, 3, 4])
    w = affine.AffinePermutation(4, [0, 6, 2, 3, 4])
    wide = ball(4, 8)
    assert _join(_BallOrder(wide), v, w) is None
    assert strong_join_in_ball(v, w, wide) is None
    assert _join(_BallOrder(wide), v, w) != affine.AffinePermutation(4, [0, 7, 1, 3, 4])
    with pytest.raises(ValueError, match="need radius 8"):
        _join(_BallOrder(ball(4, 7)), v, w)


def test_chain_helpers():
    universe = frozenset(ball(2, 3))
    e = identity(2)
    s010 = from_word(2, [0, 1, 0])
    assert saturated_chain_exists(e, s010, universe)
    assert not saturated_chain_exists(s010, e, universe)
    fam = {frozenset(), frozenset({0}), frozenset({0, 1})}
    assert subset_chain_exists(frozenset(), frozenset({0, 1}), fam)
    assert not subset_chain_exists(frozenset(), frozenset({1}), fam)


def _failing_pairs(rule, fam):
    return {(A, B) for A in fam for B in fam if A < B and not rule(A, B, fam)}


def _one_step(A, B, fam):
    """`_extends_toward` on sets, through the masks that it reads."""
    family = _mask(sorted(_mask(sorted(C)) for C in fam))
    return _extends_toward(_mask(sorted(A)), _mask(sorted(B)), family)


def test_one_step_extensions_decide_the_chain_property():
    # every pair of every Z-family agrees; on a family with a member
    # dropped, the one-step rule flags only pairs the chain search flags,
    # and some pair exactly when the chain search flags one
    rng = random.Random(22)
    pairs = verdicts = 0
    for k, L in ((1, 4), (2, 4), (3, 4), (4, 4)):
        for u in ball(k, L):
            zs = z_sets(u)
            for fam in (zs.plus, zs.minus, zs.plus_grassmannian):
                if fam is None:
                    continue
                assert _failing_pairs(_one_step, fam) == set()
                assert _failing_pairs(subset_chain_exists, fam) == set()
                pairs += sum(A < B for A in fam for B in fam)
                damaged = fam - {rng.choice(sorted(fam, key=sorted))}
                one_step = _failing_pairs(_one_step, damaged)
                chains = _failing_pairs(subset_chain_exists, damaged)
                assert one_step <= chains and bool(one_step) == bool(chains), (u, damaged)
                verdicts += bool(chains)
    assert pairs > 10_000 and verdicts > 0, pairs


def _chain_search(elements, members):
    """The pairs x <= y of a set of ball positions, and those that no
    saturated chain inside the set joins, by `saturated_chain_exists`."""
    allowed = frozenset(elements[p] for p in _positions(members))
    pairs, gaps = 0, set()
    for x in _positions(members):
        for y in _positions(members):
            if bruhat_leq(elements[x], elements[y]):
                pairs += 1
                if not saturated_chain_exists(elements[x], elements[y], allowed):
                    gaps.add((x, y))
    return pairs, gaps


def test_first_steps_decide_the_weak_interval_chain_property():
    # every left-weak interval agrees with the chain search; on an interval
    # with a member dropped, the first-step rule flags only pairs the chain
    # search flags, and some pair exactly when the chain search flags one
    rng = random.Random(39)
    pairs = verdicts = 0
    for k in (1, 2, 3, 4):
        elements = ball(k, 4)
        order = _BallOrder(elements)
        down = [order._lifted(p) for p in range(len(elements))]
        up, lengths = order._up_rows(), order._lengths
        slices = _length_slices(lengths)
        for c, u in enumerate(elements):
            interval = order.row("left-down", c)
            assert _chain_gaps(interval, down, up, lengths, slices) == (
                _chain_search(elements, interval)[0], [])
            damaged = interval & ~(1 << rng.choice(_positions(interval)))
            count, gaps = _chain_gaps(damaged, down, up, lengths, slices)
            searched, chains = _chain_search(elements, damaged)
            assert count == searched and len(set(gaps)) == len(gaps), u
            assert set(gaps) <= chains and bool(gaps) == bool(chains), u
            pairs += count
            verdicts += bool(chains)
    assert pairs > 3_000 and verdicts > 50, (pairs, verdicts)


def test_verify_runs_no_chain_search():
    """The chain search is the test oracle of `_chain_gaps`, not a sweep step."""
    assert not hasattr(verify, "saturated_chain_exists")


def _down_row(order, x):
    """The strong down row of a ball element, lifted at its position."""
    return order._lifted(order.at(x))


def _meet(order, v, w):
    """The meet of two ball elements, as an element, by `meet_of`."""
    m = order.meet_of(_down_row(order, v) & _down_row(order, w))
    return None if m is None else order.elements[m]


def _join(order, v, w):
    """The join of two ball elements, as an element, by `join_at`; an
    element outside the ball has no position, and `at` raises."""
    m = order.join_at(order.at(v), order.at(w))
    return None if m is None else order.elements[m]


def _leq(order, u, v):
    """u <= v in the strong order, as the sweeps compare: v is lifted into
    the ball (`lift`), u lowered through the same letters (`lower`), and one
    bit of the lift's row decides.  u must lie in the ball (`at`)."""
    letters, q = order.lift(v)
    return bool(order._lifted(q) >> order.lower(order.at(u), letters) & 1)


def _up_row(order, x):
    return order._up_rows()[order.position(x)]


def _assert_rows_match_oracles(order, pairs, candidates):
    universe = order.elements
    for v, w in pairs:
        assert _join(order, v, w) == strong_join_in_ball(v, w, universe), (v, w)
        assert _meet(order, v, w) == strong_meet(v, w, universe), (v, w)
        for c in candidates(v, w):
            assert (_join(order, v, w) == c) == is_least_upper_bound_in_ball(
                c, v, w, universe
            ), (c, v, w)


@pytest.mark.parametrize("k,L", [(2, 4), (3, 3)])
def test_ball_order_agrees_with_oracles(k, L):
    order = _BallOrder(ball(k, 2 * L))
    small = ball(k, L)

    def candidates(v, w):
        # the join when there is one, an upper bound that may leave the
        # ball, and an element that is usually no upper bound at all
        j = _join(order, v, w)
        return [c for c in (j, demazure(v, w), w) if c is not None]

    _assert_rows_match_oracles(
        order, [(v, w) for v in small for w in small], candidates
    )
    # Grassmannian pairs of size <= 3, in a ball wider than twice their lengths
    order = _BallOrder(ball(k, 8))
    grass = [bounded_to_perm(lam) for lam in kbounded_partitions(k, 3)]
    _assert_rows_match_oracles(
        order, [(v, w) for v in grass for w in grass], candidates
    )


@pytest.mark.parametrize("k,L", [(2, 5), (3, 4), (5, 4)])
def test_weak_rows_equal_the_weak_order_scan(k, L):
    """The generator searches find what one `weak_leq` per element finds."""
    elements = ball(k, L)
    order = _BallOrder(elements)
    relations = {
        "left-up": lambda x, z: weak_leq(x, z, "left"),
        "left-down": lambda x, z: weak_leq(z, x, "left"),
        "right-down": lambda x, z: weak_leq(z, x, "right"),
    }
    for p, x in enumerate(elements):
        for kind, related in relations.items():
            scan = _mask([i for i, z in enumerate(elements) if related(x, z)])
            assert order.row(kind, p) == scan, (kind, x)


def _strong_scan(elements, x):
    return {
        "down": _mask([i for i, z in enumerate(elements) if bruhat_leq(z, x)]),
        "up": _mask([i for i, z in enumerate(elements) if bruhat_leq(x, z)]),
    }


@pytest.mark.parametrize("k,L", [(2, 6), (3, 5), (4, 4)])
def test_lifted_strong_rows_equal_the_bruhat_scan(k, L):
    """Lifting [e, s_i y] = [e, y] u s_i [e, y] finds what `bruhat_leq` finds."""
    elements = ball(k, L)
    order = _BallOrder(elements)
    # longest first, so that each row is lifted through ancestors without rows
    for x in reversed(elements):
        scan = _strong_scan(elements, x)
        assert _down_row(order, x) == scan["down"], x
        assert _up_row(order, x) == scan["up"], x
        for z in elements:
            assert _leq(order, z, x) == bruhat_leq(z, x), (z, x)


@pytest.mark.parametrize("k,L", [(3, 0), (3, 1), (4, 1)])
def test_an_order_over_a_down_closure_answers_up_sets_in_its_ball(monkeypatch, k, L):
    """The order of `verify_order_props` over D, the ball of radius R and
    what lies below the elements the sweep asks past it, which is no ball
    here: its up rows, left-up rows and joins are those of the order over
    the ball, its down rows and meets range over all of D as `bruhat_leq`
    and `strong_meet` say, and a join that needs a radius past R raises.
    The quantifier balls cut from D (`_prefix`) are balls up to R, and a
    radius past D is refused."""
    built = []

    def recording(elements, *args):
        built.append((elements, *args))
        return _BallOrder(elements, *args)

    monkeypatch.setattr(verify, "_BallOrder", recording)
    verify_order_props(k, L)
    elements, radius = built[0]
    order, alone = _BallOrder(elements, radius), _BallOrder(ball(k, radius))
    longest = elements[-1].length
    assert longest > radius and len(elements) < len(ball(k, longest))
    for r in range(radius + 1):
        assert _prefix(elements, r) == ball(k, r)
    with pytest.raises(ValueError, match="not declared in ball_radii"):
        _prefix(elements, longest + 1)

    n = order.within
    assert elements[:n] == alone.elements
    assert order._up_rows() == alone._up_rows()
    for p in range(n):
        assert order.row("left-up", p) == alone.row("left-up", p), p
    lengths = order._lengths
    for a in range(n):
        for b in range(n):
            if lengths[a] + lengths[b] <= radius:
                assert order.join_at(a, b) == alone.join_at(a, b), (a, b)
            else:  # neither order holds every minimal common upper bound
                for each in (order, alone):
                    with pytest.raises(ValueError, match="need radius"):
                        each.join_at(a, b)
    with pytest.raises(ValueError, match="outside"):
        order.row("left-up", n)

    # past the ball, down rows and meets are D's, which the ball has not
    for p, x in enumerate(elements):
        scan = _mask([q for q, z in enumerate(elements) if bruhat_leq(z, x)])
        assert order._lifted(p) == scan, x
    for v in elements[n:]:
        with pytest.raises(ValueError, match="outside"):
            _down_row(alone, v)
        for w in elements[::3]:
            assert _meet(order, v, w) == strong_meet(v, w, elements), (v, w)


@pytest.mark.parametrize("k,L", [(2, 4), (3, 4), (3, 0), (3, 1), (4, 1)])
def test_step_lists_are_the_generator_steps(monkeypatch, k, L):
    """Every entry of the left and right step lists of the orders of
    `verify_order_props` is the position of `left_mul_s(u, i)` or
    `right_mul_s(u, i)`, -1 outside the order: those the sweep built and,
    filled afterwards, the rest.  At (3,0), (3,1) and (4,1) the whole
    order, D, is no ball."""
    built = []

    def recording(elements, *args):
        built.append(_BallOrder(elements, *args))
        return built[-1]

    monkeypatch.setattr(verify, "_BallOrder", recording)
    assert all(r.ok for r in verify_order_props(k, L))
    for order in built:
        index = {w: p for p, w in enumerate(order.elements)}
        sides = ((order.left, order.fill_left, left_mul_s),
                 (order.right, order.fill_right, right_mul_s))
        for steps, fill, step in sides:
            for p, u in enumerate(order.elements):
                want = [index.get(step(u, i), -1) for i in range(k + 1)]
                assert (steps[p] or fill(p)) == want, (p, u)
    longest = built[0].elements[-1].length
    if (k, L) in ((3, 0), (3, 1), (4, 1)):
        assert len(built[0].elements) < len(ball(k, longest))


def test_a_walk_leaving_the_order_raises():
    """`walk` reaches s_{i_m} ... s_{i_1} u, as `left_action` does; a step
    out of the order raises as `at` does, where the -1 of its entry, used
    as a position, would read the last element."""
    order = _BallOrder(ball(2, 3))
    words = [(i, j, m) for i in range(3) for j in range(3) for m in range(3)]
    for p, u in enumerate(order.elements):
        for word in words:
            path = [left_action(u, word[:t]) for t in range(1, 4)]
            if all(order.position(v) is not None for v in path):
                assert order.walk(p, word) == order.at(path[-1]), (u, word)
            else:
                with pytest.raises(ValueError, match="lies outside the order"):
                    order.walk(p, word)


@pytest.mark.parametrize("k", [2, 3])
def test_elements_outside_the_ball(k):
    """They have no down row, and comparing a ball element with them lifts
    into the ball; an outside element has no position to lower, so
    comparing it with a longer one raises."""
    elements = ball(k, 3)
    order = _BallOrder(elements)
    for x in ball(k, 6)[len(elements) :]:
        with pytest.raises(ValueError, match="outside"):
            _down_row(order, x)
        letters, q = order.lift(x)
        assert len(letters) == x.length - 3 and elements[q].length == 3
        for z in elements:
            assert _leq(order, z, x) == bruhat_leq(z, x), (z, x)
    outside = ball(k, 5)[len(elements) :]
    for u in outside:
        for v in outside:
            if u.length < v.length:
                with pytest.raises(ValueError, match="outside"):
                    _leq(order, u, v)


def test_pieri_sum_builds_no_strong_table(monkeypatch):
    built = []
    lifted = _BallOrder._lifted

    def recording(self, p):
        built.append(p)
        return lifted(self, p)

    monkeypatch.setattr(_BallOrder, "_lifted", recording)
    verify_pieri_sum(5, 6)
    assert not built
    verify_order_props(1, 2)  # the recording itself works
    assert built


def test_a_wrong_rectangle_row_fails_the_ideal_sum_factorization(monkeypatch):
    # one wrong coefficient in the sweep's table entry gtilde(R_2) h_(1) at k = 3
    k, t = 3, 2
    rect = k_rectangle(t, k)
    g_rect = symfunc.gtilde(rect).as_mapping()
    top = union_sort(rect, KBoundedPartition(k, (1,))).parts
    combination = symfunc._h_combination

    def damaged(in_h, table, basis, k_):
        if basis == "g" and table[()] == g_rect and (1,) not in table:
            # fill the entries h_1^n that are built from h_(1) first, so
            # that the damage stays in one entry
            combination({(1,) * n: 1 for n in range(1, 5)}, table, basis, k_)
            table[(1,)] = {**table[(1,)], top: table[(1,)].get(top, 0) + 1}
        return combination(in_h, table, basis, k_)

    monkeypatch.setattr(symfunc, "_h_combination", damaged)
    gt = verify_factorization(k, 4)[0]
    lams = kbounded_partitions(k, 4)
    assert gt.name == "ideal-sum-rectangle-factorization" and gt.instances == k * len(lams)
    # gtilde(R_2) gtilde(lam) reads the entry with the h_(1) coefficient of gtilde(lam)
    reads = {
        lam: symfunc._h_expansion(symfunc.gtilde(lam), symfunc.g_to_h).get((1,), 0)
        for lam in lams
    }
    assert [(w["lam"], w["t"]) for w in gt.failures] == [
        (list(lam.parts), t) for lam in lams if reads[lam]
    ]
    assert len(gt.failures) > 1
    for w in gt.failures:
        lam = KBoundedPartition(k, tuple(w["lam"]))
        # the witness shows the sum that was compared: off by the damaged term
        lhs = symfunc.gtilde(union_sort(rect, lam))
        rhs = lhs + SymElt.single(k, "g", top, reads[lam])
        assert w == {
            "lam": w["lam"],
            "t": t,
            "lhs": lhs.as_dict()["terms"],
            "rhs": rhs.as_dict()["terms"],
        }
        assert w["rhs"] != w["lhs"]


def test_factorization_sums_equal_the_whole_products(monkeypatch):
    """The sums the sweep reads off its shared tables equal the products
    its oracles form whole, on both routes: where the partition's factor
    is expanded in h and where the rectangle's is."""
    compared = []
    eq = SymElt.__eq__

    def recording(self, other):
        compared.append((self, other))
        return eq(self, other)

    for k, L in [(1, 5), (2, 5), (3, 5), (4, 5), (2, 8), (3, 8)]:
        compared.clear()
        monkeypatch.setattr(SymElt, "__eq__", recording)
        assert all(r.ok for r in verify_factorization(k, L))
        monkeypatch.undo()
        pairs = [(lam, t) for lam in kbounded_partitions(k, L) for t in range(1, k + 1)]
        sums = {basis: [rhs for lhs, rhs in compared if lhs.basis == basis] for basis in ("g", "ks")}
        assert len(sums["g"]) == len(sums["ks"]) == len(pairs)
        routes = set()
        for (lam, t), g_sum, ks_sum in zip(pairs, sums["g"], sums["ks"]):
            rect = k_rectangle(t, k)
            routes.add(lam.size <= rect.size)
            assert g_sum == symfunc.product_g(symfunc.gtilde(rect), symfunc.gtilde(lam)), (lam, t)
            assert gtilde_factorize_check(lam, t)
            single = [SymElt.single(k, "ks", mu.parts) for mu in (rect, lam)]
            assert ks_sum == symfunc.product_ks(*single), (lam, t)
            assert kschur_rectangle_check(lam, t)
        assert routes == {True, False}, (k, L)


def test_factorization_forms_each_pieri_product_once_per_sweep(monkeypatch):
    """Every b h_nu of a Pieri-side factor is one table entry for the whole
    sweep, not one per row: 768 Pieri steps before the tables were shared.
    The inversions read one Pieri row per partition and take no step."""
    calls = []
    step = symfunc._pieri_step

    def counting(terms, rule, k, r):
        calls.append(r)
        return step(terms, rule, k, r)

    # cold transitions, which must not add steps of their own
    monkeypatch.setattr(symfunc, "_G2H_TABLES", {})
    monkeypatch.setattr(symfunc, "_KS2H_TABLES", {})
    monkeypatch.setattr(symfunc, "_pieri_step", counting)
    verify_factorization(4, 5)
    assert len(calls) == 289


def test_weak_row_of_an_element_outside_the_ball_raises():
    order = _BallOrder(ball(2, 3))
    outside = from_word(2, [0, 1, 2, 0])
    assert order.position(outside) is None  # so it has no row to ask for
    for kind in ("left-up", "left-down", "right-down"):
        for p in (-1, len(order.elements)):
            with pytest.raises(ValueError, match="outside"):
                order.row(kind, p)


def test_pieri_sum_joins_leave_no_weak_order_memo():
    affine.weak_leq.cache_clear()
    verify_pieri_sum(5, 6)
    assert affine.weak_leq.cache_info().currsize == 0


def test_a_support_term_below_a_factor_fails_the_join_bound(monkeypatch):
    # g_(1) g_(1) at k = 3 gains the term (), whose element is below w_(1)
    k = 3
    one = SymElt.single(k, "g", (1,))
    product_g = symfunc.product_g

    def damaged(a, b):
        out = product_g(a, b)
        if a == one and b == one:
            return out + SymElt.single(k, "g", ())
        return out

    clean = [r.as_dict() for r in verify_pieri_sum(k, 3)]
    monkeypatch.setattr(symfunc, "product_g", damaged)
    got = [r.as_dict() for r in verify_pieri_sum(k, 3)]
    assert got[:3] == clean[:3]
    assert got[3]["name"] == "product-support-above-weak-join"
    assert got[3]["instances"] == clean[3]["instances"]
    assert got[3]["failures"] == [{"a": [1], "b": [1], "not_above": [[]]}]


def test_ball_order_on_a_tight_universe():
    order = _BallOrder(ball(2, 3))
    small = order.elements
    pairs = [(v, w) for v in small for w in small]
    beyond = [(v, w) for v, w in pairs if v.length + w.length > order.radius]
    assert beyond
    for v, w in beyond:  # both sides raise rather than guess
        c = demazure(v, w)
        for query in (
            lambda: _join(order, v, w),
            lambda: strong_join_in_ball(v, w, small),
            lambda: is_least_upper_bound_in_ball(c, v, w, small),
        ):
            with pytest.raises(ValueError, match="need radius"):
                query()
    within = [(v, w) for v, w in pairs if v.length + w.length <= order.radius]
    _assert_rows_match_oracles(order, within, lambda v, w: [demazure(v, w)])


def test_ball_order_candidate_outside_the_ball():
    order = _BallOrder(ball(2, 3))
    outside = [c for c in ball(2, 5) if c.length > 3]
    v, w = from_word(2, [0]), from_word(2, [1])
    # some of these are common upper bounds, so their up rows are consulted
    assert any(bruhat_leq(v, c) and bruhat_leq(w, c) for c in outside)
    for c in outside:
        assert (_join(order, v, w) == c) == is_least_upper_bound_in_ball(
            c, v, w, order.elements
        )


def test_ball_order_reports_missing_meet():
    order = _BallOrder(ball(2, 6))
    assert _meet(order, from_word(2, [0, 1]), from_word(2, [1, 0])) is None
    assert _meet(order, from_word(2, [0]), from_word(2, [1])) == identity(2)


def test_order_props_behaviour_lock():
    """Check names, instance counts and ok flags, frozen before the bitset rows."""
    golden = json.loads(GOLDEN.read_text())
    for config in golden["configs"]:
        results = verify_order_props(config["k"], config["max_size"])
        got = [
            {"name": r.name, "instances": r.instances, "ok": r.ok} for r in results
        ]
        assert got == config["results"], (config["k"], config["max_size"])


@pytest.mark.parametrize("k,L", [(k, 0) for k in range(1, 8)] + [(5, 1), (4, 4)])
def test_order_props_find_no_counterexample(k, L):
    """The Z-family meets are read in the whole ball, which holds every d_A u,
    and the joins in a ball of radius l(v) + l(w) at least."""
    affine.weak_leq.cache_clear()
    assert [r.name for r in verify_order_props(k, L) if not r.ok] == []
    # its weak comparisons are length sums and rows, not memoised calls
    assert affine.weak_leq.cache_info().currsize == 0


def test_fibers_make_no_per_pair_demazure_call():
    affine.demazure.cache_clear()
    verify_fibers(4, 6)
    assert affine.demazure.cache_info().currsize == 0


def _fiber_scan_by_ball(k, L):
    """(A, u) -> the v of ball(k, L) with d_A * v = u, for every proper
    subset A and Grassmannian u of the ball: one Demazure product per
    (A, v) over the whole ball."""
    scan = {}
    for members in proper_subsets(k):
        A = IndexSet(k, members)
        for v in ball(k, L):
            u = d_demazure(A, v)
            if u.is_grassmannian() and u.length <= L:
                scan.setdefault((members, u), set()).add(v)
    return scan


@pytest.mark.parametrize("k,L", [(2, 6), (3, 6), (4, 5), (5, 4)])
def test_grown_fiber_scan_equals_the_whole_ball_scan(k, L):
    """d_A * v grown from the Grassmannian v only, against the whole ball."""
    gball = [w for w in ball(k, L) if w.is_grassmannian()]
    assert _fiber_scan(gball, L) == _fiber_scan_by_ball(k, L)


def test_fibers_call_no_bruhat_leq_transpose_or_hecke_pass(monkeypatch):
    """Every order question of the sweep is a bit of a lifted down row, and
    every index set comes from a growth, not from a pass over the ball."""

    def refusing(*args):
        raise AssertionError("called")

    monkeypatch.setattr(verify, "bruhat_leq", refusing)
    monkeypatch.setattr(orderlab, "_transpose", refusing)
    monkeypatch.setattr(orderlab, "_hecke_values", refusing)
    monkeypatch.setattr(_BallOrder, "parents", refusing)
    for k, L in [(2, 6), (3, 5), (4, 4)]:
        assert all(r.ok for r in verify_fibers(k, L))


def test_symmetric_function_suites_behaviour_lock():
    """Check names, instance counts and ok flags, frozen before the Pieri memos."""
    golden = json.loads(SUITE_GOLDEN.read_text())
    assert sorted(s["suite"] for s in golden["suites"]) == sorted(SUITES)
    for suite in golden["suites"]:
        for config in suite["configs"]:
            results = SUITES[suite["suite"]](config["k"], config["max_size"])
            got = [
                {"name": r.name, "instances": r.instances, "ok": r.ok} for r in results
            ]
            assert got == config["results"], (suite["suite"], config["k"], config["max_size"])


@pytest.mark.parametrize(
    "suite,fn,k,size",
    [
        ("order-props", verify_order_props, 2, 1),
        ("order-props", verify_order_props, 1, 5),
        ("fibers", verify_fibers, 2, 2),
        ("pieri-sum", verify_pieri_sum, 2, 2),
        ("factorization", verify_factorization, 2, 2),
    ],
)
def test_ball_radii_cover_every_ball_a_sweep_builds(monkeypatch, suite, fn, k, size):
    seen, orders = [], []

    def recording(k, max_length, *args, **kwargs):
        seen.append(max_length)
        return ball(k, max_length, *args, **kwargs)

    def recording_order(elements, *args):
        orders.append(elements)
        return _BallOrder(elements, *args)

    monkeypatch.setattr(verify, "ball", recording)
    monkeypatch.setattr(verify, "_BallOrder", recording_order)
    fn(k, size)
    radii = ball_radii(suite, k, size)
    if suite == "order-props":
        # one enumeration, at the radius of the quantifier balls and the up
        # rows; beyond it the order holds only the down-closure of what the
        # strip and Z-family checks ask, which the strip radius bounds
        wide, strip, joins = radii
        assert seen == [max(wide, joins)]
        elements, kcode = orders  # and the k-code ball's own order
        assert all(w.length <= strip for w in elements if w.length > max(wide, joins))
        assert kcode == _prefix(elements, kcode[-1].length)
    else:
        # one enumeration per suite, at the largest declared radius
        assert seen == ([max(radii)] if radii else [])


def _values_as_elements(order, values):
    """The elements that `_hecke_values` positions stand for."""
    return [order.elements[v] if type(v) is int else v for v in values]


@pytest.mark.parametrize("k,L", [(1, 4), (2, 5), (3, 4)])
def test_hecke_recurrences_match_the_per_pair_products(k, L):
    """One generator step per ball element gives what the per-pair calls give."""
    elements = ball(k, L)
    order = _BallOrder(elements)
    left, right = order.parents(len(elements))
    left_the_ball = 0
    for start, x in enumerate(_prefix(elements, 4)):
        up_left = _hecke_values(order, left, start, up=True)
        up_right = _hecke_values(order, right, start, up=True)
        down_right = _hecke_values(order, right, start, up=False)
        assert _values_as_elements(order, up_left) == [demazure(u, x) for u in elements]
        assert _values_as_elements(order, up_right) == [
            demazure(inverse(u), x) for u in elements
        ]
        assert _values_as_elements(order, down_right) == [
            psi_apply(inverse(u), x, "left") for u in elements
        ]
        # a value is its ball position, an element only where it leaves the
        # ball, which only Demazure values do
        assert all(type(v) is int for v in down_right), x
        for values in (up_left, up_right):
            outside = [v for v in values if type(v) is not int]
            assert all(order.position(v) is None for v in outside), x
            left_the_ball += len(outside)
    assert left_the_ball


def test_join_seed_maps_leave_no_per_pair_memo():
    affine.demazure.cache_clear()
    affine.psi_apply.cache_clear()
    verify_order_props(3, 4)
    wide_radius = ball_radii("order-props", 3, 4)[0]
    pairs = len(ball(3, wide_radius)) * len(ball(3, 4))  # 295 * 69
    assert affine.demazure.cache_info().currsize < pairs / 2
    assert affine.psi_apply.cache_info().currsize < pairs / 2


def test_a0_conditions_read_every_r_off_one_pass():
    """Against a scan of the subsets of size <= r for each r on its own."""
    k = 3
    subsets = proper_subsets(k)
    elements = ball(k, 4)
    order = _BallOrder(elements)
    gball = [w for w in elements if w.is_grassmannian()]
    steps = {g: _growth_steps(order, g) for g in gball}
    # some d_A w leave the ball, and are lifted into it
    assert any(letters for g in gball for _, letters, _ in steps[g][1])
    for u in gball:
        for w in gball:
            found = find_A0(u, w)
            got = verify._a0_conditions(order, steps[u][0], steps[w][1], u, w, found)
            for r in range(k + 1):
                small = [IndexSet(k, A) for A in subsets if len(A) <= r]
                down = [(A, mul(inverse(d_elem(A)), u)) for A in small]
                up = [(A, mul(d_elem(A), w)) for A in small]
                assert got[r] == (
                    found is not None and len(found) <= r,
                    any(v.length == u.length - len(A) and bruhat_leq(v, w) for A, v in down),
                    any(t.length == w.length + len(A) and bruhat_leq(u, t) for A, t in up),
                    any(
                        t.length == w.length + r and len(A) == r and bruhat_leq(u, t)
                        for A, t in up
                    ),
                ), (u, w, r)


@pytest.mark.parametrize("k,L", [(1, 4), (2, 5), (3, 3), (3, 4)])
def test_triple_ball_tables_match_the_per_pair_products(k, L):
    """The tables of the triple-ball checks, where some values leave the ball
    of the parents at (1,4); the whole ball, which reaches the radius of the
    joins, holds them all.  The inversion rows, the products, the quotient
    walks and the generator steps against the kernel, over the prefix of
    radius 2 t, t the triple radius."""
    wide_radius, strip_radius, join_radius = ball_radii("order-props", k, L)
    elements = ball(k, max(wide_radius, strip_radius, join_radius))
    whole = _BallOrder(elements)
    triple_radius = min(L, 4 if k <= 2 else 3)
    triple_ball = _prefix(elements, triple_radius)
    double = _prefix(elements, 2 * triple_radius)
    at_inverse = [whole.position(inverse(x)) for x in triple_ball]
    parents = whole.parents(len(_prefix(elements, max(wide_radius, 2 * triple_radius))))
    dem, psi = _hecke_tables(whole, parents, len(triple_ball), at_inverse)
    for j, w in enumerate(triple_ball):
        assert _values_as_elements(whole, dem[j]) == [demazure(x, w) for x in triple_ball], w
        assert _values_as_elements(whole, psi[j]) == [
            psi_apply(x, w, "left") for x in triple_ball
        ], w
    assert all(type(v) is int for values in dem for v in values)
    if k == 1:
        assert any(whole._lengths[v] > wide_radius for values in dem for v in values)

    # l(u v) = l(u) + l(v) - 2 |T_R(u) & T_L(v)|, and u <=_L v iff T_R(u) <= T_R(v)
    t_left, t_right = _inversion_rows(whole, parents, len(double))
    for a, u in enumerate(double):
        for b, v in enumerate(double):
            common = (t_right[a] & t_left[b]).bit_count()
            assert u.length + v.length - 2 * common == mul(u, v).length, (u, v)
            assert (not t_right[a] & ~t_right[b]) == weak_leq(u, v, "left"), (u, v)
    prod = _product_table(whole, parents[0], len(triple_ball))
    for b, y in enumerate(triple_ball):
        assert [elements[p] for p in prod[b]] == [mul(y, z) for z in triple_ball], y
    # z y^-1 where y <=_L z and x^-1 z where x <=_R z, else no quotient
    for c, z in enumerate(double):
        for x in triple_ball:
            word = reduced_word(x).letters
            right = _quotient(whole, "right", c, word[::-1])
            left = _quotient(whole, "left", c, word)
            if weak_leq(x, z, "left"):
                assert elements[right] == mul(z, inverse(x)), (z, x)
            else:
                assert right is None, (z, x)
            if weak_leq(x, z, "right"):
                assert elements[left] == mul(inverse(x), z), (z, x)
            else:
                assert left is None, (z, x)
    # a max step from the longest elements leaves the ball
    inner = _prefix(elements, elements[-1].length - 1)
    phi = _generator_steps(whole, len(inner), up=True)
    psi = _generator_steps(whole, len(elements), up=False)
    for p, u in enumerate(elements):
        for i in range(k + 1):
            pair = (u, left_mul_s(u, i))
            if p < len(inner):
                assert elements[phi[i][p]] == max(pair, key=lambda v: v.length), (u, i)
            assert elements[psi[i][p]] == min(pair, key=lambda v: v.length), (u, i)
    with pytest.raises(ValueError, match="leaves the ball"):
        _generator_steps(whole, len(elements), up=True)


def _join_seed_setup(k, L):
    """The order, 0-Hecke parents and seed-ball size of the join-seed block;
    the order's up rows stop at the radius of its joins."""
    radii = ball_radii("order-props", k, L)
    elements = ball(k, max(radii))
    whole = _BallOrder(elements, max(radii[0], radii[2]))
    parents = whole.parents(len(_prefix(elements, radii[0])))
    return whole, parents, len(_prefix(elements, min(L, 4)))


@pytest.mark.parametrize("k,L", [(2, 5), (3, 4)])
def test_seed_tables_equal_the_right_anti_demazure_seed(k, L):
    """One right step per entry from the right parent's row gives the seed,
    and so the half-strong join and meet, of every pair of the seed ball."""
    whole, parents, n = _join_seed_setup(k, L)
    seeds, joins, meets = _seed_tables(whole, parents[1], n)
    elements = whole.elements
    for y in elements[:n]:
        for x in elements[:n]:
            b, a = whole.position(y), whole.position(x)
            seed = psi_apply(inverse(y), x, "right")
            assert elements[seeds[b][a]] == seed, (x, y)
            assert elements[joins[b][a]] == s_join_L(x, y) == mul(seed, y), (x, y)
            assert elements[meets[b][a]] == meet_LS(x, y) == mul(inverse(seed), x), (x, y)


@pytest.mark.parametrize("k,L", [(2, 5), (3, 4)])
def test_join_seed_sets_equal_the_per_group_scan(k, L):
    """The spread rows against one order test per (x, y, value group), with
    the values from the per-pair `demazure` and `psi_apply` calls."""
    whole, parents, n = _join_seed_setup(k, L)
    dsets, esets = _join_seed_sets(whole, parents, n, _generator_steps(whole, n, up=False))
    domain, seed_ball = whole.elements[: len(parents[0]) + 1], whole.elements[:n]

    def groups(value_of):
        by_value = {}
        for u, element in enumerate(domain):
            by_value.setdefault(value_of(element), []).append(u)
        return [(whole.lift(value), _mask(us)) for value, us in by_value.items()]

    lifted = 0
    for b, y in enumerate(seed_ball):
        dem = groups(lambda u: demazure(u, y))
        lifted += sum(bool(letters) for (letters, _), _ in dem)
        for a in range(n):
            scan = 0
            for (letters, q), row in dem:
                if whole._lifted(q) >> whole.lower(a, letters) & 1:
                    scan |= row
            assert dsets[b][a] == scan, (a, b)
    assert lifted  # some Demazure values leave the whole ball
    for a, x in enumerate(seed_ball):
        psi = groups(lambda u: psi_apply(inverse(u), x, "left"))
        for b, y in enumerate(seed_ball):
            scan = 0
            for (letters, q), row in psi:
                assert not letters
                if bruhat_leq(whole.elements[q], y):
                    scan |= row
            assert esets[a][b] == scan, (a, b)


@pytest.mark.parametrize("k,L", [(2, 5), (3, 4)])
def test_flip_images_equal_the_kernel_flip(k, L):
    elements = ball(k, L)
    order = _BallOrder(elements)
    for c, z in enumerate(elements):
        images = _flip_images(order, c)
        interval = [x for x in elements if weak_leq(x, z, "left")]
        assert sorted(images) == [order.position(x) for x in interval], z
        for x in interval:
            assert elements[images[order.position(x)]] == flip(z, x), (z, x)


def test_weak_order_against_a_product_is_a_length_sum():
    elements = ball(2, 4)
    for a in elements:
        for u in elements:
            au, ua = mul(a, u), mul(u, a)
            assert weak_leq(u, au, "left") == (a.length + u.length == au.length), (a, u)
            assert weak_leq(u, ua, "right") == (u.length + a.length == ua.length), (a, u)


def test_join_seed_reads_the_half_strong_join_and_meet_off_one_seed():
    elements = ball(3, 3)
    for x in elements:
        for y in elements:
            seed = psi_apply(inverse(y), x, "right")
            j, m = mul(seed, y), mul(inverse(seed), x)
            assert s_join_L(x, y) == j and meet_LS(x, y) == m, (x, y)
            assert weak_leq(y, j, "left") == (seed.length + y.length == j.length)
            assert weak_leq(m, x, "left") == (seed.length + m.length == x.length)


@pytest.mark.parametrize("k,L", [(2, 5), (3, 5)])
def test_left_up_rows_of_the_kcode_ball_equal_weak_leq(k, L):
    """The k-code ball gets an order of its own, cut from the sweep's ball;
    its rows stop at its own radius."""
    elements = ball(k, max(ball_radii("order-props", k, L)))
    kcode_order = _BallOrder(_prefix(elements, min(L, 6 if k <= 2 else 5)))
    elements = kcode_order.elements
    for p, x in enumerate(elements):
        scan = _mask([q for q, y in enumerate(elements) if weak_leq(x, y, "left")])
        assert kcode_order.row("left-up", p) == scan, x


def test_triple_ball_checks_make_no_memoised_call_per_instance():
    """The memos keep what the rest of the suite asks, not one entry per pair."""
    for memo in (affine.demazure, affine.weak_leq):
        memo.cache_clear()
    verify_order_props(2, 4)
    assert affine.demazure.cache_info().currsize == 0
    assert affine.weak_leq.cache_info().currsize == 0


def test_order_props_forms_no_kernel_product_per_triple(monkeypatch):
    """The triple-ball checks and the generator actions read tables built
    once per sweep; the products left belong to other checks."""
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return mul(u, v)

    monkeypatch.setattr(verify, "mul", counting)
    verify_order_props(2, 5)
    assert len(calls) < 1500


def test_order_props_forms_kernel_products_only_where_they_are_the_subject(monkeypatch):
    """`strong-covers-are-reflections` forms v u^-1 per instance, since that
    is what it checks; every other instance reads the sweep's tables.  d_A
    is formed once per index set at most."""
    calls = {"mul": 0, "inverse": 0, "d_elem": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))

    k = 3
    results = {r.name: r for r in verify_order_props(k, 4)}
    covers = results["strong-covers-are-reflections"].instances
    assert calls["mul"] == calls["inverse"] == covers > 0
    assert results["strongly-disjoint-elements-commute"].instances > 0
    assert 0 < calls["d_elem"] <= len(proper_subsets(k))


def test_order_props_transposes_one_table(monkeypatch):
    """Every up row is read from one order, so one transpose serves the sweep."""
    sizes = []
    transpose = orderlab._transpose

    def counting(rows):
        sizes.append(len(rows))
        return transpose(rows)

    monkeypatch.setattr(orderlab, "_transpose", counting)
    verify_order_props(2, 5)
    assert len(sizes) == 1


def test_order_props_calls_bruhat_leq_only_where_it_is_the_subject(monkeypatch):
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return bruhat_leq(u, v)

    monkeypatch.setattr(verify, "bruhat_leq", counting)
    results = verify_order_props(2, 4)
    subword = next(r for r in results if r.name == "bruhat-matches-subword-oracle")
    assert len(calls) == subword.instances > 0


def test_half_strong_upper_bounds_are_decided_at_radius_l_x_plus_l_y():
    """Each minimal z with x <= z and y <=_L z is at most l(x) + l(y) long,
    so `half-strong-join-minimal` reads its upper bounds at that radius;
    some pair needs all of it."""
    small, wide = ball(2, 3), ball(2, 8)
    slack = []
    for x in small:
        for y in small:
            bounds = [z for z in wide if bruhat_leq(x, z) and weak_leq(y, z, "left")]
            minimal = [
                z
                for z in bounds
                if not any(c.length < z.length and bruhat_leq(c, z) for c in bounds)
            ]
            assert minimal, (x, y)
            slack += [x.length + y.length - z.length for z in minimal]
    assert min(slack) == 0
