"""Exhaustive desk-scale verification sweeps.

Each sweep pits a closed form against a brute-force oracle over explicit
length balls or partition ranges and reports every counterexample with a
JSON-able witness.  All identities are exact, so a sweep either finds
nothing or the build is wrong; there is no tolerance anywhere.  A passing
instance costs one count (`r.count() if ok else r.fail(...)`); its witness
values are computed and turned into JSON only in `fail`.

A suite enumerates one length ball, at the largest radius it declares in
`ball_radii`, and cuts every smaller ball from it as a prefix; the
symmetric-function suites declare none and enumerate none.  A map over
a whole ball, such as u -> demazure(u, y) or u -> psi_apply(u^-1, x), is built by one
generator step per element from its parent's value (`_BallOrder.parents`,
`_hecke_values`), not by one kernel call per pair; the per-pair calls are
its test oracle.  Its values are positions in the ball, stepped along the
ball's step table, and only values that leave the ball are elements.  The
strong order rows are lifted the same way, with `bruhat_leq` as their test
oracle, and exist only for the elements an order holds.  All below x is shorter than x, so down rows and meets are
read in the whole ball; only up rows and joins depend on a radius.

So a check computes each product, Demazure value and order row once per
element or index set and reads its instances off them: two values in the
ball compare by one bit of a lifted row, and a weak comparison is a test
of inversion rows (`_inversion_rows`), l(u v) = l(u) + l(v) iff
T_R(u) & T_L(v) = 0, or the length sum l(a) + l(x) = l(a x) where a x is
formed anyway.  The per-pair kernel calls, `mul` and the memoised
`demazure`, `psi_apply`, `weak_leq` and `bruhat_leq`, stay the oracles
these readings are tested against.

The symmetric-function suites share work the same way: each partition's
weak strips are grown once, to level k (`shapes.StripGrowth`), and every r
of both Pieri forms is read off that growth.  The rectangle factorization
reads gtilde(R_t) gtilde(lam) as the sum of the rows g_mu gtilde(R_t) over
the strong ideal below lam, one row per (t, mu), and s_{R_t} s_lam as one
sum per (t, lam).  Each expands its factor of lower top degree in h and
reads the other factor b times each h monomial from b's table of Pieri
products (`symfunc._h_combination`): one table per rectangle and basis for
the whole sweep and one per partition for its t loop, so each b h_nu is
one Pieri step per sweep.  A failing instance reports the row sum it
compared.  The whole products, `oracles.gtilde_factorize_check` and
`oracles.kschur_rectangle_check`, are the test oracles of the sums.
"""

from __future__ import annotations

import bisect
import copy
import itertools

from . import symfunc
from .affine import (
    AffinePermutation,
    IndexSet,
    ball,
    bruhat_leq,
    descents,
    inverse,
    is_affine_reflection,
    left_growth,
    left_mul_s,
    mul,
)
from .kcode import d_elem, eval_code, first_row, rd, ri
from .oracles import (
    proper_subsets,
    saturated_chain_exists,
    subword_lower_set,
)
from .orderlab import (
    fiber_X,
    fiber_Y,
    find_A0,
    minus_forbidden_indices,
    forbidden_index,
    z_sets,
)
from .partitions import KBoundedPartition, k_rectangle, kbounded_partitions, union_sort
from .shapes import (
    StripGrowth,
    bounded_to_perm,
    is_weak_strip,
    is_weak_strip_parabolic,
)
from .symfunc import (
    SymElt,
    _accumulate,
    _gtilde_pieri_ie,
    _gtilde_pieri_union,
    _h_expansion,
    _in_term_order,
    expand_gtilde_combination,
    g_to_h,
    gtilde,
    h_mult,
    ks_to_h,
    kschur_top_degree_check,
    product_ks,
    strong_ideal_parts,
)

__all__ = [
    "CheckResult",
    "ball_radii",
    "verify_order_props",
    "verify_fibers",
    "verify_pieri_sum",
    "verify_factorization",
]


class CheckResult:
    """One named sweep: how many instances ran, and every failing witness.

    A passing instance costs one `count`; a witness is built only in `fail`,
    so a call site computes its witness values in the failing branch alone.
    """

    __slots__ = ("name", "instances", "failures")

    def __init__(self, name: str, instances: int = 0, failures: list[dict] | None = None):
        self.name, self.instances = name, instances
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.instances, self.failures) == (
                other.name, other.instances, other.failures)
        return NotImplemented

    def __repr__(self):
        return (f"CheckResult(name={self.name!r}, instances={self.instances!r}, "
                f"failures={self.failures!r})")

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self) -> None:
        self.instances += 1

    def fail(self, **witness) -> None:
        """Record a failing instance; elements and symmetric functions in the
        witness are turned into JSON here, so a passing instance builds none."""
        self.instances += 1
        self.failures.append({name: _json(value) for name, value in witness.items()})

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "ok": self.ok,
            "failures": self.failures,
        }


def _json(value):
    """JSON form of a witness value: an element's window, a symmetric
    function's terms, anything else as given."""
    if isinstance(value, AffinePermutation):
        return list(value.window)
    if isinstance(value, SymElt):
        return value.as_dict()["terms"]
    return value


def ball_radii(suite: str, k: int, max_size: int) -> tuple[int, ...]:
    """Radii of the length balls a verify suite builds its order rows over.

    The only place that knows how large a suite's balls get: the suite
    enumerates one ball, at the largest of these radii, and cuts every
    smaller ball from it with `_prefix`; the CLI sizes them before any work
    starts.  A join of v and w needs radius l(v) + l(w), the most a minimal
    common upper bound is long (subword property, Bjorner-Brenti, GTM 231,
    Thm 2.2.2); the joins of order-props join elements up to min(max_size, 6).
    """
    if suite == "order-props":
        # the wide ball of verify_order_props, that of _verify_strip_props, and
        # that of its joins and least upper bounds
        return (max_size + 3, min(max_size + 1, 7) + k + 1, 2 * min(max_size, 6))
    if suite == "fibers":
        return (max_size,)
    if suite in ("pieri-sum", "factorization"):
        return ()
    raise ValueError(f"unknown suite {suite!r}")


def _prefix(elements: list[AffinePermutation], radius: int) -> list[AffinePermutation]:
    """`ball(k, radius)`, cut from a `ball()` list, which is sorted by (length,
    window); a radius beyond the list's own was never declared, so it raises."""
    if radius > elements[-1].length:
        raise ValueError(f"ball radius {radius} is not declared in ball_radii")
    return elements[: bisect.bisect_right(elements, radius, key=lambda w: w.length)]


def _mask(positions: list[int]) -> int:
    """Bitset with the given bits set, built in time linear in its size."""
    if not positions:
        return 0
    buf = bytearray(positions[-1] // 8 + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


# the set bits of each byte value, so that a byte costs one step per set bit
_BYTE_BITS = [tuple(j for j in range(8) if byte >> j & 1) for byte in range(256)]


def _positions(row: int) -> list[int]:
    """Positions of the set bits of a bitset, in increasing order."""
    data = row.to_bytes((row.bit_length() + 7) // 8, "little")
    return [8 * b + j for b, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


# weak row kind -> (side of its generator steps, whether the row lies above x)
_WEAK = {
    "left-up": ("left", True),
    "left-down": ("left", False),
    "right-down": ("right", False),
}


class _BallOrder:
    """Strong and weak order relations over one length ball, as bitset rows.

    The ball is kept as `ball()` returns it, sorted by (length, window), and
    bit i of a row stands for its i-th element.  A row of x is one Python
    int.  Joins, meets and least upper bounds then become ANDs and subset
    tests of rows, and give the same answers as the scans in `oracles` over
    the same universe.

    The strong down row of a ball element is lifted, the first time it or
    an element above it is asked for: for x = s_i y with y its left parent,
    [e, x] = [e, y] u s_i [e, y] (lifting property, Bjorner-Brenti, GTM 231,
    Prop. 2.2.7), so the down row of x is the row of y OR its image under
    the left step s_i, which stays in the ball.  The up rows are the
    transpose of the down rows, built on the first request (`_up_rows`).
    An element beyond the order's own elements is longer than all
    of them, and has no down row (asking raises).  Comparing a ball
    element with it needs no row (`leq`): `lift` strips its least left
    descents until it lies in the ball, and `lower` takes the ball element
    through the same letters to a bit test.

    A weak row is a search along generator steps: a left weak cover is
    u -> s_i u with the length up by one, so every z with x <=_L z and
    l(z) <= radius is reached through ball elements, and so are the lower
    sets and the right side; x must lie in the ball.  The steps are read
    from a table of the positions of s_i u and u s_i, built per element as
    the searches and the lifting reach it.

    `prefix(r)` gives the order over the elements of length <= r, which
    keep their positions there.  It shares the index, the step table and
    the down rows, and answers only for its own elements.  Its down-set
    answers are the whole ball's, since all below x is shorter than x; its
    up rows, left-up rows and joins stop at r.
    """

    def __init__(self, elements: list[AffinePermutation]):
        self.elements = elements
        self.radius = elements[-1].length
        self._rows: dict[tuple, int] = {}  # weak rows, by (kind, x)
        self._up: list[int] | None = None
        # shared with every prefix
        self._ball = elements
        self._index = {w.window: i for i, w in enumerate(elements)}  # by window
        self._lengths = [w.length for w in elements]
        self._steps: dict[str, dict[int, list[int]]] = {"left": {}, "right": {}}
        self._down: dict[int, int] = {0: 1}  # the identity comes first

    def prefix(self, radius: int) -> _BallOrder:
        """The order over `_prefix(self.elements, radius)`, sharing this one's tables."""
        view = copy.copy(self)
        view.elements = _prefix(self.elements, radius)
        view.radius = view.elements[-1].length
        view._rows = {}
        view._up = None
        return view

    def row(self, kind: str, x: AffinePermutation) -> int:
        if kind in _WEAK:
            if (kind, x) not in self._rows:
                self._rows[kind, x] = self._weak_row(*_WEAK[kind], x)
            return self._rows[kind, x]
        i = self._index.get(x.window, len(self._ball))
        if i >= len(self.elements):
            raise ValueError(f"strong down rows are lifted inside the ball; {x!r} is outside")
        return self._lifted(i)

    def position(self, w: AffinePermutation) -> int | None:
        """Position of w in the whole ball, None outside it."""
        return self._index.get(w.window)

    def lift(self, v: AffinePermutation) -> tuple[list[int], int]:
        """v as (letters, position q): stripping the least left descent of v,
        one letter at a time, until what is left lies in the ball leaves the
        element at q; a ball element has no letters."""
        letters = []
        q = self._index.get(v.window)
        while q is None:
            i = min(descents(v, "left"))
            letters.append(i)
            v = left_mul_s(v, i)
            q = self._index.get(v.window)
        return letters, q

    def lower(self, p: int, letters: list[int]) -> int:
        """Position that x, the element at p, reaches through the letters of
        `lift(v)`, each step kept when it shortens x.  For s a left descent
        of v, x <= v iff min(x, s x) <= s v (the recursion of `bruhat_leq`),
        so x <= v iff that position is in the down row of the lift's."""
        lengths = self._lengths
        for i in letters:
            t = self._neighbours("left", p)[i]
            if t >= 0 and lengths[t] < lengths[p]:
                p = t
        return p

    def leq(self, u: AffinePermutation, v: AffinePermutation) -> bool:
        """u <= v in the strong order, by `lift` and `lower`; a u shorter
        than v must lie in the ball."""
        if u.length >= v.length:
            return u == v
        p = self._index.get(u.window)
        if p is None:
            raise ValueError(f"strong comparisons lower inside the ball; {u!r} is outside")
        letters, q = self.lift(v)
        return bool(self._lifted(q) >> self.lower(p, letters) & 1)

    def _lifted(self, p: int) -> int:
        """Strong down row of the element at position p of the whole ball,
        lifted from those of its left ancestors that have none yet."""
        rows = self._down
        row = rows.get(p)
        if row is None:
            chain = []
            while row is None:
                q, i = self._parent("left", p)
                chain.append((p, i))
                p = q
                row = rows.get(p)
            lengths = self._lengths
            for p, i in reversed(chain):
                # every element below p is at most as long as p
                end = bisect.bisect_right(lengths, lengths[p])
                buf = bytearray(row.to_bytes((end + 7) // 8, "little"))
                for z in _positions(row):
                    t = self._neighbours("left", z)[i]
                    buf[t >> 3] |= 1 << (t & 7)
                row = rows[p] = int.from_bytes(buf, "little")
        return row

    def _up_rows(self) -> list[int]:
        if self._up is None:
            self._up = _transpose([self._lifted(p) for p in range(len(self.elements))])
        return self._up

    def _weak_row(self, side: str, above: bool, x: AffinePermutation) -> int:
        size = len(self.elements)
        start = self._index.get(x.window, size)
        if start >= size:
            raise ValueError(f"weak rows are searched inside the ball; {x!r} is outside")
        lengths = self._lengths
        seen = {start}
        todo = [start]
        while todo:
            p = todo.pop()
            for q in self._neighbours(side, p):
                if 0 <= q < size and (lengths[q] > lengths[p]) == above and q not in seen:
                    seen.add(q)
                    todo.append(q)
        return _mask(sorted(seen))

    def _neighbours(self, side: str, p: int) -> list[int]:
        """Positions of s_i u (left) or u s_i (right) for u at position p and
        i = 0..k, with -1 for an element outside the whole ball."""
        table = self._steps[side]
        out = table.get(p)
        if out is None:
            win = self._ball[p].window
            n = len(win)
            windows = []
            if side == "left":  # s_i adds one to residue i, takes one from i+1
                at = [0] * n
                for pos, v in enumerate(win):
                    at[v % n] = pos
                for i in range(n):
                    w = list(win)
                    w[at[i]] += 1
                    w[at[(i + 1) % n]] -= 1
                    windows.append(w)
            else:  # s_i swaps window positions i and i+1, cyclically for i = 0
                w = list(win)
                w[0], w[-1] = win[-1] - n, win[0] + n
                windows.append(w)
                for i in range(1, n):
                    w = list(win)
                    w[i - 1], w[i] = win[i], win[i - 1]
                    windows.append(w)
            index = self._index
            out = table[p] = [index.get(tuple(w), -1) for w in windows]
        return out

    def members(self, row: int) -> list[AffinePermutation]:
        """Elements of a row, in ball order."""
        elements = self.elements
        return [elements[i] for i in _positions(row)]

    def join(self, v: AffinePermutation, w: AffinePermutation) -> AffinePermutation | None:
        """Exact strong join of two ball elements, or None (`join_at`); same
        answers as `strong_join_in_ball`, and a radius below l(v) + l(w) raises."""
        m = self.join_at(self._index[v.window], self._index[w.window])
        return None if m is None else self._ball[m]

    def join_at(self, a: int, b: int) -> int | None:
        """Position of the exact strong join of the elements at a and b, or None.

        Every minimal common upper bound is at most l(v) + l(w) long (subword
        property, Bjorner-Brenti, GTM 231, Thm 2.2.2); a smaller radius raises.
        """
        lengths = self._lengths
        if lengths[a] + lengths[b] > self.radius:
            v, w = self._ball[a], self._ball[b]
            raise ValueError(f"joins of {v!r} and {w!r} need radius {lengths[a] + lengths[b]}")
        up = self._up_rows()
        ubs = up[a] & up[b]
        # the first common upper bound is a shortest one; any other of its
        # length is incomparable to it, so it is the join or there is none
        m = (ubs & -ubs).bit_length() - 1
        return None if ubs & ~up[m] else m

    def is_least_upper_bound(
        self, candidate: AffinePermutation, v: AffinePermutation, w: AffinePermutation
    ) -> bool:
        """Whether `candidate` is the strong join, read off `join`: the radius
        must reach l(v) + l(w) (subword property) or this raises; same
        answers as `is_least_upper_bound_in_ball`."""
        return self.join(v, w) == candidate

    def meet_at(self, a: int, b: int) -> int | None:
        """Position of the exact meet of the elements at a and b, or None."""
        return self.meet_of(self._lifted(a) & self._lifted(b))

    def meet_of(self, common: int) -> int | None:
        """Position of the exact meet of the elements whose down rows AND to
        `common`, or None."""
        # the last common lower bound is a longest one; any other of its
        # length is incomparable to it, so it is the meet or there is none
        m = common.bit_length() - 1
        return None if common & ~self._lifted(m) else m

    def _parent(self, side: str, p: int) -> tuple[int, int]:
        return next((q, i) for i, q in enumerate(self._neighbours(side, p)) if 0 <= q < p)

    def parents(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Left and right parents of every element of the ball but e.

        Entry t of each list belongs to element t+1 and holds (position of
        the parent, letter): the left parent of u is s_i u for the least left
        descent i, the right parent u s_j for the least right descent j.  The
        ball is closed downwards and sorted by length, so every parent comes
        earlier, and a step to an earlier position is a descent.
        `reduced_word` strips the least left descent first, so the left
        parents of u spell its reduced word and the right parents that of
        u^-1.
        """
        left, right = (
            [self._parent(side, p) for p in range(1, len(self.elements))]
            for side in ("left", "right")
        )
        return left, right


def _transpose(rows: list[int]) -> list[int]:
    """Column bitsets of a square bit matrix given by its rows."""
    columns: list[list[int]] = [[] for _ in rows]
    for p, row in enumerate(rows):
        for z in _positions(row):
            columns[z].append(p)
    return [_mask(ps) for ps in columns]


def _hecke_values(
    order: _BallOrder, parents: list[tuple[int, int]], start: int, up: bool
) -> list[int | AffinePermutation]:
    """A 0-Hecke map over a ball, one generator step per element.

    The identity maps to the element at position `start` of the ball; an
    element whose parent maps to z, by the letter i, maps to max(z, s_i z)
    if `up` and to min(z, s_i z) otherwise.  Over the left parents from y
    this is u -> demazure(u, y), over the right parents from x it is
    u -> psi_apply(u^-1, x, "left"), or u -> demazure(u^-1, x) if `up`: the
    same letters in the same order as those calls apply, with every prefix
    shared.

    A value is its position in `order`'s whole ball, stepped along the
    step table (`_neighbours`).  Only an `up` step leaves the ball, which
    is closed downwards; such a value, and every later `up` value from it,
    is an element.
    """
    lengths, ball = order._lengths, order._ball
    values: list[int | AffinePermutation] = [start]
    for p, i in parents:
        z = values[p]
        if type(z) is int:
            t = order._neighbours("left", z)[i]
            if t < 0:  # s_i z is longer than z and outside the ball
                values.append(left_mul_s(ball[z], i) if up else z)
            else:
                values.append(t if (lengths[t] > lengths[z]) == up else z)
        else:
            sz = left_mul_s(z, i)
            values.append(sz if sz.length > z.length else z)
    return values


def _hecke_tables(
    order: _BallOrder,
    parents: tuple[list[tuple[int, int]], list[tuple[int, int]]],
    size: int,
    at_inverse: list[int],
) -> tuple[list[list[int | AffinePermutation]], list[list[int | AffinePermutation]]]:
    """Demazure and anti-Demazure values over the first `size` elements of
    `order`'s ball, by `_hecke_values`.

    `parents` are the ball's (`_BallOrder.parents`), and `at_inverse[i]` is
    the position of the inverse of element i.  The first size - 1 parents
    belong to the prefix, so for its j-th element w, dem[j][i] is
    demazure(u, w) and psi[j][i] is psi_apply(u, w, "left") for u its i-th
    element, the latter read at the position of u^-1.
    """
    left, right = (side[: size - 1] for side in parents)
    dem = [_hecke_values(order, left, w, up=True) for w in range(size)]
    psi = []
    for w in range(size):
        values = _hecke_values(order, right, w, up=False)
        psi.append([values[q] for q in at_inverse])
    return dem, psi


def _inversion_rows(
    order: _BallOrder,
    parents: tuple[list[tuple[int, int]], list[tuple[int, int]]],
    size: int,
) -> tuple[list[int], list[int]]:
    """Left and right inversion sets of the first `size` elements of
    `order`'s ball, as bitsets over an index of affine reflections.

    T_L(u) = {t : l(t u) < l(u)} and T_R(u) = {t : l(u t) < l(u)}.  For u s_j
    longer than u, T_L(u s_j) is T_L(u) with u s_j u^-1 added, and for s_i u
    longer than u, T_R(s_i u) is T_R(u) with u^-1 s_i u added (Bjorner-Brenti,
    GTM 231, Sec. 1.4), so each row is its right (left) parent's row and one
    bit; `parents` are the ball's (`_BallOrder.parents`).  Then
    l(u v) = l(u) + l(v) - 2 |T_R(u) & T_L(v)|, and u <=_L v iff T_R(u) is a
    subset of T_R(v) (ibid., Sec. 3.1).  The reflection that swaps a + m n
    and b + m n for every m is labelled by (a, b), a < b, shifted so that
    1 <= a <= n.  The prefix need only be closed downwards.
    """
    ball, (left, right) = order._ball, parents
    n = len(ball[0].window)
    index: dict[tuple[int, int], int] = {}

    def bit(a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        shift = (a - 1) // n * n
        return 1 << index.setdefault((a - shift, b - shift), len(index))

    t_left, t_right = [0], [0]
    for (r, j), (q, i) in zip(right[: size - 1], left[: size - 1]):
        # u s_j u^-1 swaps u(j) and u(j+1), where u(0) = u(n) - n
        win = ball[r].window
        t = bit(win[-1] - n, win[0]) if j == 0 else bit(win[j - 1], win[j])
        t_left.append(t_left[r] | t)
        # u^-1 s_i u swaps u^-1(i) and u^-1(i+1); u(c) = v gives
        # u^-1(v + m n) = c + m n
        offset = {v % n: c + 1 - v for c, v in enumerate(ball[q].window)}
        t_right.append(t_right[q] | bit(i + offset[i], i + 1 + offset[(i + 1) % n]))
    return t_left, t_right


def _product_table(
    order: _BallOrder, left: list[tuple[int, int]], size: int
) -> list[list[int]]:
    """prod[y][z], the position of y z for y and z among the first `size`
    elements of `order`'s ball.

    `left` are the ball's left parents (`_BallOrder.parents`): for y = s_i y',
    y z = s_i (y' z) is one left step from the row of y'.  Each entry is at
    most twice the prefix's radius long, so a ball of that radius holds it.
    """
    prod = [list(range(size))]
    for q, i in left[: size - 1]:
        prod.append([order._neighbours("left", p)[i] for p in prod[q]])
    return prod


def _quotient(order: _BallOrder, side: str, p: int, letters) -> int | None:
    """Position that the element u at p reaches by one generator step per
    letter on `side`, or None at the first step that does not shorten it.

    Each step changes the length by one.  So for a = s_{i_1} ... s_{i_l}
    reduced, the right steps i_l, ..., i_1 reach u a^-1 and all shorten iff
    a <=_L u, and the left steps i_1, ..., i_l reach a^-1 u and all shorten
    iff a <=_R u.  Shorter elements come earlier in any ball that holds u.
    """
    for i in letters:
        t = order._neighbours(side, p)[i]
        if not 0 <= t < p:
            return None
        p = t
    return p


def _generator_steps(order: _BallOrder, size: int, up: bool) -> list[list[int]]:
    """phi_i(u) = max(u, s_i u) if `up`, else psi_i(u) = min(u, s_i u), as
    positions: steps[i][p] for every letter i and the element u at each
    p < size of `order`'s ball.

    A psi_i value is no longer than u, so it lies in the prefix, which is
    closed downwards; a phi_i value outside the ball raises.
    """
    columns = list(zip(*(order._neighbours("left", p) for p in range(size))))
    if up and any(t < 0 for column in columns for t in column):
        raise ValueError("a generator step leaves the ball")
    # the ball is sorted by length, so s_i u is longer than u iff it comes later
    return [
        [t if (t > p if up else 0 <= t < p) else p for p, t in enumerate(column)]
        for column in columns
    ]


def _seed_tables(
    order: _BallOrder, right: list[tuple[int, int]], size: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Positions of the join seed z = psi_apply(y^-1, x, "right"), of z y and
    of z^-1 x, for x and y among the first `size` elements of `order`'s
    ball, as tables indexed [y][x].

    `right` are the ball's right parents (`_BallOrder.parents`).
    `reduced_word(y^-1)` starts with the least right descent j of y, whose
    right parent is y' = y s_j, so z(x, y) = z(x', y') with x' = min(x, x s_j),
    z y = (z(x', y') y') s_j, and z^-1 x is z(x', y')^-1 x' times s_j when
    x' = x s_j, else itself: one right step per entry from the parent's row.
    Each entry is at most l(x) + l(y) long, so it lies in a ball of twice
    the prefix's radius.
    """
    # x' = min(x, x s_j) by j; an x s_j shorter than x lies in the ball, earlier
    mins = [
        [t if 0 <= t < x else x for t in order._neighbours("right", x)] for x in range(size)
    ]
    seeds, joins, meets = [list(range(size))], [list(range(size))], [[0] * size]
    for q, j in right[: size - 1]:
        s_row, j_row, m_row = seeds[q], joins[q], meets[q]
        seed, join, meet = [], [], []
        for x in range(size):
            p = mins[x][j]
            seed.append(s_row[p])
            join.append(order._neighbours("right", j_row[p])[j])
            meet.append(m_row[p] if p == x else order._neighbours("right", m_row[p])[j])
        seeds.append(seed)
        joins.append(join)
        meets.append(meet)
    return seeds, joins, meets


def _spread(groups: list[tuple[int, int]], size: int) -> list[int]:
    """For each i < size, the OR of the rows of the groups whose mask holds i.

    `groups` are (mask, row) pairs with disjoint rows.  A group is ORed
    into the i its mask holds, or, when those are more than half, into
    the i it does not hold, as a row to take out of the union of such
    groups: the rows are disjoint, so that is exact.
    """
    everyone = (1 << size) - 1
    held = [0] * size
    missed = [0] * size
    dense = 0
    for mask, row in groups:
        mask &= everyone
        if 2 * mask.bit_count() <= size:
            for i in _positions(mask):
                held[i] |= row
        else:
            dense |= row
            for i in _positions(everyone & ~mask):
                missed[i] |= row
    return [h | dense & ~m for h, m in zip(held, missed)]


def _join_seed_sets(
    whole: _BallOrder,
    upper: _BallOrder,
    parents: tuple[list[tuple[int, int]], list[tuple[int, int]]],
    size: int,
    psi: list[list[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """The join-seed sets, both forms, as rows over the ball of `parents`,
    for x and y among the first `size` elements of `whole`'s ball:
    dsets[y][x] holds the u with x <= demazure(u, y), and esets[x][y] the
    u with psi_apply(u^-1, x, "left") <= y.

    The u are grouped by their value (`_hecke_values`), and each group is
    spread (`_spread`) over every x below its value at once, read off the
    value's down row, or over every y above it, read off its up row in
    `upper`.  A Demazure value outside the whole ball is lifted into it
    (`lift`), and compared with every x at once: the x are lowered through
    the lift's letters, as `lower` does, by the psi_i lists `psi`
    (`_generator_steps` over at least the prefix), once per distinct
    letter sequence.
    """

    def groups(values):
        us: dict[int | AffinePermutation, list[int]] = {}
        for u, value in enumerate(values):
            us.setdefault(value, []).append(u)
        return us.items()

    left, right = parents
    lowered: dict[tuple[int, ...], list[int]] = {}  # letters -> where each x goes
    prefix = (1 << size) - 1
    dsets = []
    for y in range(size):
        spread = []
        for value, us in groups(_hecke_values(whole, left, y, up=True)):
            if type(value) is int:
                xs = whole._lifted(value)
            else:
                letters, q = whole.lift(value)
                key = tuple(letters)
                if key not in lowered:
                    ps = list(range(size))
                    for i in letters:
                        step = psi[i]
                        ps = [step[p] for p in ps]
                    lowered[key] = ps
                below = whole._lifted(q) & prefix  # the x are lowered inside the prefix
                xs = _mask([x for x, p in enumerate(lowered[key]) if below >> p & 1])
            spread.append((xs, _mask(us)))
        dsets.append(_spread(spread, size))
    up = upper._up_rows()
    esets = []
    for x in range(size):
        values = _hecke_values(whole, right, x, up=False)  # each no longer than x
        esets.append(_spread([(up[q], _mask(us)) for q, us in groups(values)], size))
    return dsets, esets


def _flip_images(order: _BallOrder, c: int) -> dict[int, int]:
    """The interval flip x -> z x^-1 (`affine.flip`) at positions, for z the
    element at c and every x <=_L z, keyed by the position of x.

    z maps to e.  For x = s_i x' with x' <=_L z longer than x,
    z x^-1 = (z x'^-1) s_i, one right step from the image of x'; the
    interval is taken longest first, so x' has its image already.
    """
    left_row = order.row("left-down", order._ball[c])
    images = {c: 0}  # z is the longest, and last, element of its interval
    for x in reversed(_positions(left_row)[:-1]):
        steps = enumerate(order._neighbours("left", x))
        i, t = next((i, t) for i, t in steps if t > x and left_row >> t & 1)
        images[x] = order._neighbours("right", images[t])[i]
    return images


# ---------------------------------------------------------------------------
# order-theoretic property suites
# ---------------------------------------------------------------------------


def verify_order_props(k: int, max_length: int) -> list[CheckResult]:
    """Property suites for the strong/weak order machinery.

    Quantifier ranges scale with max_length but are clamped per suite so
    the triple-quantified checks stay within desk scale.  Every ball is a
    prefix of the one enumerated at the largest radius `ball_radii` declares.

    Every order question reads one of two tables.  Down-set questions (down
    rows, weak down rows, meets, members) read `whole`: all below x is
    shorter than x, so no order holding x answers them otherwise.  Up-set
    questions (up rows, left-up rows, joins) read `upper`, of radius
    max(L+3, 2 min(L,6)).  Strong comparisons are bits of lifted rows, read
    from one list of them; only `bruhat-matches-subword-oracle`, whose
    subject it is, calls `bruhat_leq`.  Meets and joins are
    `meet_at`/`meet_of` and `join_at`, at positions.

    The six triple-ball checks (`weak-order-triple-splitting` through
    `demazure-monotone-in-actor`) and `generator-actions-preserve-meet-join`
    make no kernel call per instance.  They read tables built once per sweep
    along the ball's parents: Demazure values (`_hecke_tables`), products
    (`_product_table`), inversion rows over the prefix of radius 2 t, t the
    triple radius, with l(u v) = l(u) + l(v) - 2 |T_R(u) & T_L(v)| and
    u <=_L v iff T_R(u) <= T_R(v) (`_inversion_rows`; Bjorner-Brenti, GTM 231,
    Secs. 1.4 and 3.1), quotient walks (`_quotient`) and generator steps
    (`_generator_steps`).  They need only a down-closed prefix, not a ball.

    The join-seed block (`half-strong-join-minimal`, `half-strong-meet-maximal`,
    `join-seed-minimal-both-forms`) and `interval-flip-anti-isomorphism` work
    on positions only: the seed, join and meet of every pair come from one
    table over right parents (`_seed_tables`), the join-seed sets of each y
    (or x) are spread over every x (or y) at once (`_join_seed_sets`), and
    the flip images are right steps (`_flip_images`).  No pair there calls
    the kernel; `psi_apply`, `s_join_L`, `meet_LS` and `flip` are their
    test oracles.

    `upper` decides `half-strong-join-minimal`: take z = a y reduced, with
    x <= z and y <=_L z.  x is a subword product of word(a) word(y); with Q
    the letters of a it uses, then word(y), dem(Q) = dem(Q_a) * y is >= x
    and >=_L y, below z, and at most l(x) + l(y) <= 2 min(L,4) long.  So a
    z not above j has one in `upper` below it that is not above j either.
    """
    wide_radius, strip_radius, upper_radius = ball_radii("order-props", k, max_length)
    elements = ball(k, max(wide_radius, strip_radius, upper_radius))
    triple_radius = min(max_length, 4 if k <= 2 else 3)
    triple_ball = _prefix(elements, triple_radius)
    seed_ball = _prefix(elements, min(max_length, 4))
    pair_ball = _prefix(elements, min(max_length, 5))
    six_ball = _prefix(elements, min(max_length, 6))
    subword_ball = _prefix(elements, min(max_length, 7 if k <= 2 else 6))
    whole = _BallOrder(elements)
    upper = whole.prefix(max(wide_radius, upper_radius))
    subsets = proper_subsets(k)
    results = []

    # strong comparisons are bits of the lifted down rows, which `upper`
    # lifts for its up rows anyway
    down = [whole._lifted(p) for p in range(len(upper.elements))]

    def leq(p, q):
        """Whether the element at ball position p is <= the one at q."""
        return bool(down[q] >> p & 1)

    r = CheckResult("bruhat-matches-subword-oracle")
    for v in subword_ball:
        lower_v = subword_lower_set(v)
        for u in subword_ball:
            r.count() if bruhat_leq(u, v) == (u in lower_v) else r.fail(u=u, v=v)
    results.append(r)

    r = CheckResult("strong-covers-are-reflections")
    # pair_ball is a prefix of the whole ball, so its elements sit at their own indices
    for a, u in enumerate(pair_ball):
        for b, v in enumerate(pair_ball):
            if v.length != u.length + 1:
                continue
            by_reflection = is_affine_reflection(mul(v, inverse(u)))
            r.count() if leq(a, b) == by_reflection else r.fail(u=u, v=v)
    results.append(r)

    # The tables of the six triple-ball checks and of the generator actions
    # (see the docstring).  One parents() call serves the Hecke maps, over
    # the wide ball, and the inversion rows, over the prefix of radius 2 t.
    size = len(triple_ball)
    parents = whole.prefix(max(wide_radius, 2 * triple_radius)).parents()
    words = [()]  # (i_1, ..., i_l) for u = s_{i_1} ... s_{i_l}, off the left parents
    at_inverse = [0]  # (s_i u)^-1 = u^-1 s_i
    for q, i in parents[0][: size - 1]:
        words.append((i,) + words[q])
        at_inverse.append(whole._neighbours("right", at_inverse[q])[i])
    backwards = [word[::-1] for word in words]
    dem_at, psi_at = _hecke_tables(whole, parents, size, at_inverse)
    prod = _product_table(whole, parents[0], size)
    t_left, t_right = _inversion_rows(whole, parents, len(_prefix(elements, 2 * triple_radius)))
    psi = _generator_steps(whole, len(upper.elements), up=False)

    r = CheckResult("weak-order-triple-splitting")
    # z <=_L y z, y z <=_L x (y z), y <=_L x y and z <=_L (x y) z say that a
    # product is reduced, T_R & T_L = 0, even where x y z leaves the ball
    for a, x in enumerate(triple_ball):
        r_x, xys = t_right[a], prod[a]
        for b, y in enumerate(triple_ball):
            y_le = not r_x & t_left[b]
            r_y, r_xy = t_right[b], t_right[xys[b]]
            for z, l_z, yz in zip(triple_ball, t_left, prod[b]):
                lhs = not r_y & l_z and not r_x & t_left[yz]
                rhs = y_le and not r_xy & l_z
                r.count() if lhs == rhs else r.fail(x=x, y=y, z=z)
    results.append(r)

    r = CheckResult("demazure-product-factors")
    # with z = x' y = x y', y <=_L z and x <=_R z hold iff the walks from z
    # to x' = z y^-1 and to y' = x^-1 z descend all the way
    for i, x in enumerate(triple_ball):
        for j, y in enumerate(triple_ball):
            z = dem_at[j][i]
            xp = _quotient(whole, "right", z, backwards[j])
            yp = _quotient(whole, "left", z, words[i])
            good = xp is not None and yp is not None and leq(xp, i) and leq(yp, j)
            r.count() if good else r.fail(x=x, y=y, z=elements[z])
    results.append(r)

    r = CheckResult("anti-demazure-factors")
    # with y = x'^-1 z, z <=_L y iff the walk from y^-1 to x' = z y^-1 descends
    for i, x in enumerate(triple_ball):
        for j, y in enumerate(triple_ball):
            z = psi_at[j][i]  # no longer than y, so in the triple ball
            xp = _quotient(whole, "left", at_inverse[j], backwards[z])
            good = xp is not None and leq(xp, i)
            r.count() if good else r.fail(x=x, y=y, z=elements[z])
    results.append(r)

    r = CheckResult("demazure-actions-monotone")
    # an anti-Demazure value is no longer than w, so it lies in the triple
    # ball; w <=_L demazure(x, w) and psi_apply(x, w) <=_L w are subset tests
    for i, x in enumerate(triple_ball):
        xi = at_inverse[i]
        for j, w in enumerate(triple_ball):
            up, r_w = dem_at[j][i], t_right[j]
            good = not r_w & ~t_right[up] and not t_right[psi_at[j][i]] & ~r_w
            if good:
                b = psi_at[j][xi]  # psi_apply(x^-1, w)
                good = leq(j, dem_at[b][i])
            if good:
                q = up  # psi_apply(x^-1, up): the psi steps along the word of x
                for letter in words[i]:
                    q = psi[letter][q]
                good = leq(q, j)
            r.count() if good else r.fail(x=x, w=w)
    results.append(r)

    r = CheckResult("demazure-preserves-order")
    # the pairs v <= w of the triple ball, in the order of the loops over v and w
    pairs = sorted((v, w) for w in range(size) for v in _positions(down[w]))
    for i, x in enumerate(triple_ball):
        for v, w in pairs:
            good = leq(dem_at[v][i], dem_at[w][i]) and leq(psi_at[v][i], psi_at[w][i])
            r.count() if good else r.fail(x=x, v=triple_ball[v], w=triple_ball[w])
    results.append(r)

    r = CheckResult("demazure-monotone-in-actor")
    for i, j in pairs:
        x, y = triple_ball[i], triple_ball[j]
        for t, w in enumerate(triple_ball):
            good = leq(dem_at[t][i], dem_at[t][j]) and leq(psi_at[t][j], psi_at[t][i])
            r.count() if good else r.fail(x=x, y=y, w=w)
    results.append(r)

    r = CheckResult("generator-actions-preserve-meet-join")
    # phi_i(u) = demazure(s_i, u) = max(u, s_i u) and psi_i(u) = min(u, s_i u)
    # as position lists; meets are read in `whole` and joins in `upper`.  Both
    # maps are two-to-one, so each stepped pair is met or joined once per letter
    phi = _generator_steps(whole, len(pair_ball), up=True)
    # the meet and the join of a pair do not depend on i
    pairs = []
    for a, v in enumerate(pair_ball):
        for b, w in enumerate(pair_ball):
            pairs.append((v, w, a, b, whole.meet_at(a, b), upper.join_at(a, b)))
    for i, (phi_i, psi_i) in enumerate(zip(phi, psi)):
        stepped_meets, stepped_joins = {}, {}
        for v, w, a, b, m, top in pairs:
            if m is not None:
                key = phi_i[a], phi_i[b]
                if key not in stepped_meets:
                    stepped_meets[key] = whole.meet_at(*key)
                good = stepped_meets[key] == phi_i[m]
                r.count() if good else r.fail(kind="meet", i=i, v=v, w=w)
            if top is not None:
                key = psi_i[a], psi_i[b]
                if key not in stepped_joins:
                    stepped_joins[key] = upper.join_at(*key)
                good = stepped_joins[key] == psi_i[top]
                r.count() if good else r.fail(kind="join", i=i, v=v, w=w)
    results.append(r)

    r = CheckResult("reduced-factorization-comparison")
    for z in pair_ball:
        # the u <=_R z, in ball order, with the positions of u and u^-1 z
        factorizations = [
            (elements[p], p, whole.position(mul(inverse(elements[p]), z)))
            for p in _positions(whole.row("right-down", z))
        ]
        for u, a, x in factorizations:
            for v, b, y in factorizations:
                r.count() if leq(b, a) == leq(x, y) else r.fail(z=z, u=u, v=v)
    results.append(r)

    r = CheckResult("half-strong-join-minimal")
    r2 = CheckResult("half-strong-meet-maximal")
    r3 = CheckResult("join-seed-minimal-both-forms")
    # s_join_L(x, y) = z y and meet_LS(x, y) = z^-1 x for the seed
    # z = psi_apply(y^-1, x, "right"), all three at positions (`_seed_tables`);
    # y <=_L z y and z^-1 x <=_L x are length sums.  The join-seed sets of
    # both forms are rows over the ball of the 0-Hecke maps (`_join_seed_sets`).
    n = len(seed_ball)
    seeds, joins, meets = _seed_tables(whole, parents[1], n)
    wide = len(_prefix(elements, wide_radius))
    hecke_parents = tuple(side[: wide - 1] for side in parents)
    dsets, esets = _join_seed_sets(whole, upper, hecke_parents, n, psi)
    up_rows = upper._up_rows()
    lengths = whole._lengths
    left_up = [upper.row("left-up", y) for y in seed_ball]
    left_down = [whole.row("left-down", x) for x in seed_ball]
    for x in range(n):
        for y in range(n):
            z, j, m = seeds[y][x], joins[y][x], meets[y][x]
            ok = down[j] >> x & 1 and lengths[z] + lengths[y] == lengths[j]
            ok = ok and not up_rows[x] & left_up[y] & ~up_rows[j]
            r.count() if ok else r.fail(x=elements[x], y=elements[y], join=elements[j])

            ok = lengths[z] + lengths[m] == lengths[x] and down[y] >> m & 1
            ok = ok and not left_down[x] & down[y] & ~down[m]
            r2.count() if ok else r2.fail(x=elements[x], y=elements[y], meet=elements[m])

            dset = dsets[y][x]
            ok = dset == esets[x][y] and dset >> z & 1 and not dset & ~up_rows[z]
            r3.count() if ok else r3.fail(x=elements[x], y=elements[y], seed=elements[z])
    results.extend([r, r2, r3])

    r = CheckResult("interval-flip-anti-isomorphism")
    # the flip x -> z x^-1 at positions (`_flip_images`); meets are read in
    # `whole` and joins in `upper`
    for c, z in enumerate(six_ball):
        left_row = whole.row("left-down", z)
        left_interval = _positions(left_row)
        right_interval = whole.row("right-down", z)
        images = _flip_images(whole, c)
        for x in left_interval:
            fx = images[x]
            ok = right_interval >> fx & 1 and lengths[fx] == lengths[c] - lengths[x]
            r.count() if ok else r.fail(z=z, x=elements[x])
        ok = _mask(sorted(set(images.values()))) == right_interval
        r.count() if ok else r.fail(z=z, reason="flip is not onto the right interval")
        for x in left_interval:
            for y in left_interval:
                ok = leq(x, y) == leq(images[y], images[x])
                r.count() if ok else r.fail(z=z, x=elements[x], y=elements[y])
                m = whole.meet_at(x, y)
                if m is not None and left_row >> m & 1:
                    ok = upper.join_at(images[x], images[y]) == images[m]
                    r.count() if ok else r.fail(
                        z=z, x=elements[x], y=elements[y], kind="meet-to-join"
                    )
    results.append(r)

    r = CheckResult("weak-interval-chain-property")
    for u in six_ball:
        interval = frozenset(whole.members(whole.row("left-down", u)))
        for x in interval:
            for y in interval:
                if whole.leq(x, y):
                    ok = saturated_chain_exists(x, y, interval)
                    r.count() if ok else r.fail(u=u, x=x, y=y)
    results.append(r)

    results.extend(_verify_z_families(k, six_ball, upper, whole))
    results.extend(_verify_strongly_commutative(k, subsets, seed_ball))
    # the k-code ball is a quantifier range: its left-up rows stop at its radius
    kcode_order = whole.prefix(min(max_length, 6 if k <= 2 else 5))
    results.extend(_verify_kcode_props(k, subsets, kcode_order))
    results.extend(_verify_strip_props(k, min(max_length + 1, 7), subsets, whole))
    return results


def _verify_strip_props(k, max_size, subsets, whole) -> list[CheckResult]:
    forb = CheckResult("forbidden-index-never-in-a-strip")
    unique = CheckResult("unique-size-k-strip-adds-one-row")
    agree = CheckResult("strip-criteria-agree")
    meets = CheckResult("strip-meet-is-strip-of-intersection")
    all_subsets = [IndexSet._trusted(k, A) for A in subsets]
    for lam in kbounded_partitions(k, max_size):
        fi = forbidden_index(lam)
        growth = StripGrowth(lam, k)
        strips_by_r = {r: growth.strips(r) for r in range(k + 1)}
        ok = all(fi not in s.indices for r in strips_by_r.values() for s in r)
        forb.count() if ok else forb.fail(lam=list(lam.parts), forbidden=fi)
        top_k = strips_by_r[k]
        ok = len(top_k) == 1 and top_k[0].top == union_sort(KBoundedPartition(k, (k,)), lam)
        unique.count() if ok else unique.fail(lam=list(lam.parts))
        ok = all(is_weak_strip(lam, A) == is_weak_strip_parabolic(lam, A) for A in all_subsets)
        agree.count() if ok else agree.fail(lam=list(lam.parts))
        w = bounded_to_perm(lam)
        qualifying = [s.indices for r in strips_by_r.values() for s in r]
        # d_A w with its down row once per strip, d_C w (at its position: the
        # whole ball holds it) and the strip test once per intersection C
        below = [whole.row("down", mul(d_elem(A), w)) for A in qualifying]
        caps = {}
        for A, row_a in zip(qualifying, below):
            for B, row_b in zip(qualifying, below):
                members = A.members & B.members
                if members not in caps:
                    cap = IndexSet._trusted(k, members)
                    cand = whole.position(mul(d_elem(cap), w))
                    caps[members] = is_weak_strip(lam, cap), cand
                is_strip, cand = caps[members]
                ok = is_strip and whole.meet_of(row_a & row_b) == cand
                meets.count() if ok else meets.fail(
                    lam=list(lam.parts), A=list(A.sorted()), B=list(B.sorted())
                )
    return [forb, unique, agree, meets]


def _extends_toward(A: frozenset[int], B: frozenset[int], family) -> bool:
    """Some i in B - A has A | {i} in the family.

    A family passes this test on every pair A < B of its members exactly
    when each such pair is joined by a chain inside the family that adds
    one index at a time, the `z-families-chain-property`: given the test,
    take such an i and go on from A | {i} < B, by induction on |B - A|;
    conversely the first step of a chain is such an i.  So one pass over
    B - A replaces the breadth-first chain search, which stays as the
    oracle `oracles.subset_chain_exists`.  On a broken family the pairs
    it flags are among those the chain search flags (a pair with no first
    step has no chain), and it flags at least one when that search does.
    """
    return any(A | {i} in family for i in B - A)


def _verify_z_families(k, elements, upper, whole) -> list[CheckResult]:
    closure = CheckResult("z-families-closed-and-bounded")
    meets = CheckResult("plus-family-intersection-is-meet")
    joins = CheckResult("minus-family-intersection-is-join")
    chains = CheckResult("z-families-chain-property")
    confining = CheckResult("minus-family-confined-to-code-row")
    for u in elements:
        zs = z_sets(u)  # construction asserts closure and maxima
        closure.count()
        # d_A u, up to min(L, 6) + k long, at its position in the whole ball,
        # and d_A^-1 u, once per member A; closed under intersection
        plus = {A: whole.position(mul(d_elem(IndexSet._trusted(k, A)), u)) for A in zs.plus}
        for A, B in itertools.combinations(sorted(zs.plus, key=sorted), 2):
            m = whole.meet_at(plus[A], plus[B])
            meets.count() if m == plus[A & B] else meets.fail(u=u, A=sorted(A), B=sorted(B))
        minus = {A: mul(inverse(d_elem(IndexSet._trusted(k, A))), u) for A in zs.minus}
        for A, B in itertools.combinations(sorted(zs.minus, key=sorted), 2):
            ok = upper.is_least_upper_bound(minus[A & B], minus[A], minus[B])
            joins.count() if ok else joins.fail(u=u, A=sorted(A), B=sorted(B))
        for fam in (zs.plus, zs.minus):
            for A in fam:
                for B in fam:
                    if A < B:
                        ok = _extends_toward(A, B, fam)
                        chains.count() if ok else chains.fail(u=u, A=sorted(A), B=sorted(B))
        row = first_row(ri(inverse(u)), increasing=True)
        forb = minus_forbidden_indices(u)
        ok = all(A <= row for A in zs.minus) and forb == frozenset(range(k + 1)) - row
        confining.count() if ok else confining.fail(u=u, row=sorted(row))
    return [closure, meets, joins, chains, confining]


def _verify_strongly_commutative(k, subsets, zb) -> list[CheckResult]:
    disj = CheckResult("strongly-disjoint-elements-commute")
    split = CheckResult("strongly-commutative-splitting")
    n = k + 1
    nonempty = [A for A in subsets if A]
    pairs = [
        (A, B)
        for A in nonempty
        for B in nonempty
        if all((i - j) % n not in (0, 1, n - 1) for i in A for j in B)
    ]
    for A, B in pairs:
        x = d_elem(IndexSet._trusted(k, A))
        y = d_elem(IndexSet._trusted(k, B))
        ok = mul(x, y) == mul(y, x) and mul(x, y).length == x.length + y.length
        disj.count() if ok else disj.fail(A=sorted(A), B=sorted(B))
    # z <=_L a z iff l(a) + l(z) = l(a z), and a z <=_L z iff l(a) + l(a z) = l(z)
    for A, B in pairs:
        x = d_elem(IndexSet._trusted(k, A))
        y = d_elem(IndexSet._trusted(k, B))
        xy = mul(x, y)
        a, b, ab = x.length, y.length, xy.length
        for z in zb:
            c, xz, yz, xyz = z.length, mul(x, z).length, mul(y, z).length, mul(xy, z).length
            up = (ab + c == xyz) == (a + c == xz and b + c == yz)
            dn = (ab + xyz == c) == (a + xz == c and b + yz == c)
            split.count() if up and dn else split.fail(A=sorted(A), B=sorted(B), z=z)
    return [disj, split]


def _verify_kcode_props(k, subsets, order) -> list[CheckResult]:
    elems = order.elements
    bij = CheckResult("kcode-round-trip-and-injective")
    mono = CheckResult("kcodes-monotone-in-weak-order")
    dom = CheckResult("dominance-reads-off-code")
    rowmax = CheckResult("bottom-row-is-inclusion-maximal")
    seen = {}
    codes = []
    for w in elems:
        code = rd(w)
        cod2 = ri(w)
        codes.append((code, cod2))
        ok = (
            eval_code(code) == w
            and eval_code(cod2, increasing=True) == w
            and code.size == w.length == cod2.size
            and seen.setdefault(code.values, w) == w
        )
        bij.count() if ok else bij.fail(w=w)
        for i in range(k + 1):
            cyc = [code.values[(i + t) % (k + 1)] for t in range(k + 1)]
            by_code = all(
                cyc[t] >= cyc[t + 1] for t in range(k)
            ) and code.values[(i - 1) % (k + 1)] == 0
            by_descent = descents(w, "right") <= {i}
            dom.count() if by_code == by_descent else dom.fail(w=w, i=i)
        row = first_row(code)
        bigger = [A for A in subsets if row < A]
        ok = all(
            mul(w, inverse(d_elem(IndexSet._trusted(k, A)))).length != w.length - len(A)
            for A in bigger
        )
        rowmax.count() if ok else rowmax.fail(w=w)
    for x, (cx, ix) in zip(elems, codes):
        for q in _positions(order.row("left-up", x)):
            cy, iy = codes[q]
            ok = cy.contains(cx) and iy.contains(ix)
            mono.count() if ok else mono.fail(x=x, y=elems[q])
    return [bij, mono, dom, rowmax]


# ---------------------------------------------------------------------------
# fiber suites
# ---------------------------------------------------------------------------


def verify_fibers(k: int, max_length: int) -> list[CheckResult]:
    """Fibers of the Demazure action: labels, boolean intervals, uniqueness."""
    wide = ball(k, max(ball_radii("fibers", k, max_length)))
    gball = [w for w in wide if w.is_grassmannian()]
    order = _BallOrder(wide)
    labels = CheckResult("fiber-labels-match-element-scan")
    convex = CheckResult("fibers-convex-in-strong-order")
    caps = CheckResult("fiber-labels-closed-under-intersection")
    covers = CheckResult("corank-one-subsets-stay-in-fiber")
    seven = CheckResult("membership-characterizations-agree")
    singles = CheckResult("singleton-fiber-iff-found-index-set")
    a0r = CheckResult("strip-reachability-conditions-agree")
    subsets = proper_subsets(k)
    steps = {g: _growth_steps(order, g) for g in gball}
    scan = _fiber_scan(gball, max_length)
    for u in gball:
        zs = z_sets(u)
        occupied = []  # the A with a nonempty fiber over u
        for members in subsets:
            A = IndexSet._trusted(k, members)
            fib = fiber_X(A, u)  # constructor asserts the boolean interval
            if fib.members:
                occupied.append(members)
            via_labels = {
                mul(inverse(d_elem(IndexSet._trusted(k, B))), u) for B in fib.members
            }
            ok = scan.get((members, u), set()) == via_labels
            labels.count() if ok else labels.fail(u=u, A=sorted(members))
            # convex: no q outside the fiber, below v'' and longer than v, is above v
            elements = sorted(via_labels, key=lambda v: v.length)
            at = [order.position(v) for v in elements]
            below = [order._lifted(p) for p in at]
            outside = ~_mask(sorted(at))
            for v, p in zip(elements, at):
                longer = -1 << bisect.bisect_right(order._lengths, v.length)
                for row in below:
                    if row >> p & 1:
                        between = _positions(row & outside & longer)
                        ok = not any(order._lifted(q) >> p & 1 for q in between)
                        convex.count() if ok else convex.fail(u=u, A=sorted(members), v=v)
            for B, C in itertools.combinations(sorted(fib.members, key=sorted), 2):
                caps.count() if B & C in fib.members else caps.fail(u=u, A=sorted(members))
            if members in zs.minus:
                for i in members:
                    Ap = members - {i}
                    if Ap in zs.minus:
                        ok = Ap in fib.members
                        covers.count() if ok else covers.fail(u=u, A=sorted(members), i=i)
                for B in subsets:
                    if B <= members and B in zs.minus:
                        ok = _seven_way_agreement(k, u, members, B, fib, zs)
                        seven.count() if ok else seven.fail(u=u, A=sorted(members), B=sorted(B))
        for w in gball:
            found = find_A0(u, w)
            # fiber_Y keeps part of fiber_X, so only an occupied A can have one element
            single_As = {
                members
                for members in occupied
                if len(fiber_Y(IndexSet._trusted(k, members), u, w).members) == 1
            }
            expect = set() if found is None else {found.members}
            singles.count() if single_As == expect else singles.fail(
                u=u, w=w, found=None if found is None else sorted(found.members)
            )
            conds_by_r = _a0_conditions(order, steps[u][0], steps[w][1], u, w, found)
            for r, conds in enumerate(conds_by_r):
                ok = len(set(conds)) == 1
                a0r.count() if ok else a0r.fail(u=u, w=w, r=r, conds=list(conds))
    return [labels, convex, caps, covers, seven, singles, a0r]


def _fiber_scan(gball: list[AffinePermutation], max_length: int) -> dict:
    """(A, u) -> the v with d_A * v = u, for every index set A and every u in
    `gball`, the Grassmannian elements of length <= max_length; its test
    oracle is one Demazure product per (A, v) of the whole ball.

    Each left Demazure step z -> max(z, s_i z) is z or a left weak cover, so
    v <=_L d_A * v = u.  If u = a v, l(u) = l(a) + l(v), and s is a right
    descent of v, then l(u s) <= l(a) + l(v s) < l(u): s is one of u.  So v
    is Grassmannian whenever u is, and the "max" growth of each Grassmannian
    v (`left_growth`) lists every such A beside d_A * v.
    """
    scan = {}
    for v in gball:
        for members, win, dl in itertools.chain.from_iterable(left_growth(v.window, "max", v.k)):
            if v.length + dl <= max_length:
                u = AffinePermutation._trusted(v.k, tuple(win), v.length + dl)
                scan.setdefault((members, u), set()).add(v)
    return scan


def _growth_steps(order: _BallOrder, w: AffinePermutation) -> tuple[list, list]:
    """(|A|, position of d_A^-1 w) for the A with l(d_A^-1 w) = l(w) - |A|, and
    (|A|, letters, down row) of d_A w lifted into the ball (`lift`) for the A
    with l(d_A w) = l(w) + |A|, off the growth levels of w (`left_growth`)."""
    k = w.k
    grown = itertools.chain.from_iterable(left_growth(w.window, "descent", k))
    down = [(len(A), order._index[tuple(win)]) for A, win, _ in grown]
    up = []
    for A, win, dl in itertools.chain.from_iterable(left_growth(w.window, "ascent", k)):
        letters, q = order.lift(AffinePermutation._trusted(k, tuple(win), w.length + dl))
        up.append((len(A), letters, order._lifted(q)))
    return down, up


def _seven_way_agreement(k, u, A, B, fib, zs) -> bool:
    """The seven equivalent membership tests for B inside the fiber of A."""
    between = [
        B | frozenset(extra)
        for r in range(len(A - B) + 1)
        for extra in itertools.combinations(sorted(A - B), r)
    ]
    c1 = B in fib.members
    c2 = all(B | {i} in zs.minus for i in A - B)
    c3 = all(B | {i} in fib.members for i in A - B)
    c4 = all(A - {i} in zs.minus for i in A - B)
    c5 = all(A - {i} in fib.members for i in A - B)
    c6 = all(C in zs.minus for C in between)
    c7 = all(C in fib.members for C in between)
    return len({c1, c2, c3, c4, c5, c6, c7}) == 1


def _a0_conditions(order, u_down, w_up, u, w, found) -> list[tuple[bool, bool, bool, bool]]:
    """The four conditions for every r = 0..k, off the strict steps of u down
    and of w up (`_growth_steps`), none of which depends on r: d_A^-1 u <= w
    and u <= d_A w are bits of the down rows of w and of the lift of d_A w."""
    k = u.k
    pu, below_w = order.position(u), order._lifted(order.position(w))
    # least |A| with d_A^-1 u <= w, least |A| with u <= d_A w, and every such |A|
    least_down = min((size for size, p in u_down if below_w >> p & 1), default=k + 1)
    up_sizes = {size for size, letters, row in w_up if row >> order.lower(pu, letters) & 1}
    least_up = min(up_sizes, default=k + 1)
    return [
        (found is not None and len(found) <= r, least_down <= r, least_up <= r, r in up_sizes)
        for r in range(k + 1)
    ]


# ---------------------------------------------------------------------------
# symmetric-function suites
# ---------------------------------------------------------------------------


def verify_pieri_sum(k: int, max_size: int) -> list[CheckResult]:
    """Ideal-sum Pieri identity: signed product vs indicator sum vs IE form."""
    direct_vs_union = CheckResult("signed-product-equals-interval-union")
    zero_one = CheckResult("product-coefficients-are-zero-or-one")
    ie_form = CheckResult("inclusion-exclusion-expands-to-product")
    join_bound = CheckResult("product-support-above-weak-join")
    for lam in kbounded_partitions(k, max_size):
        growth = StripGrowth(lam, k)
        # gtilde_pieri_direct(lam, r) for r = 0..k, adding one h_r gtilde(lam) at a time
        base = gtilde(lam)
        direct = SymElt._trusted(k, "g", {})
        for r in range(0, k + 1):
            closed = _gtilde_pieri_union(growth, r)
            direct = direct + h_mult(base, r)
            ie = _gtilde_pieri_ie(growth, r)
            direct_vs_union.count() if closed == direct else direct_vs_union.fail(
                lam=list(lam.parts), r=r, direct=direct, closed=closed
            )
            ok = all(c == 1 for c in direct.as_mapping().values())
            zero_one.count() if ok else zero_one.fail(lam=list(lam.parts), r=r)
            if expand_gtilde_combination(k, ie) == closed:
                ie_form.count()
            else:
                ie_form.fail(
                    lam=list(lam.parts),
                    r=r,
                    ie={str(list(p)): c for p, c in _in_term_order(ie).items()},
                )

    # the left weak order is a meet-semilattice (Bjorner-Brenti, GTM 231,
    # Thm 3.2.1), so w_nu lies above the join of w_a and w_b iff above both
    small = kbounded_partitions(k, min(max_size, 3))
    for a in small:
        for b in small:
            factors = [(inverse(x), x.length) for x in (bounded_to_perm(a), bounded_to_perm(b))]
            prod_g = symfunc.product_g(
                SymElt._trusted(k, "g", {a.parts: 1}), SymElt._trusted(k, "g", {b.parts: 1})
            )
            prod_s = product_ks(
                SymElt._trusted(k, "ks", {a.parts: 1}), SymElt._trusted(k, "ks", {b.parts: 1})
            )
            not_above = []
            for parts in sorted({*prod_g.as_mapping(), *prod_s.as_mapping()}):
                w = bounded_to_perm(KBoundedPartition._trusted(k, parts))
                # x <=_L w iff l(w x^-1) + l(x) = l(w)
                if any(mul(w, x_inv).length + lx != w.length for x_inv, lx in factors):
                    not_above.append(list(parts))
            join_bound.count() if not not_above else join_bound.fail(
                a=list(a.parts), b=list(b.parts), not_above=not_above
            )
    return [direct_vs_union, zero_one, ie_form, join_bound]


def verify_factorization(k: int, max_size: int) -> list[CheckResult]:
    """Rectangle factorization for both bases, plus the strip-shift lemmas."""
    gt = CheckResult("ideal-sum-rectangle-factorization")
    ks = CheckResult("homogeneous-rectangle-factorization")
    top = CheckResult("inhomogeneous-top-degree-is-homogeneous")
    shift = CheckResult("rectangle-union-shifts-strips")
    ie_shift = CheckResult("rectangle-union-shifts-ie-labels")
    lams = kbounded_partitions(k, max_size)
    rects = {t: k_rectangle(t, k) for t in range(1, k + 1)}
    # gtilde(lam) is the sum of g_mu over mu below lam, so gtilde(R_t) gtilde(lam)
    # is the sum of the rows g_mu gtilde(R_t), each made once per (t, mu).  A
    # row, and s_{R_t} s_lam, expands its factor of lower top degree in h, as
    # `symfunc.product_g` does, and reads the other factor times each h
    # monomial from that factor's table: one table per rectangle and basis for
    # the whole sweep, one per partition for its t loop.
    g_rects = {t: {(): gtilde(rect)._terms} for t, rect in rects.items()}
    s_rects = {t: {(): {rect.parts: 1}} for t, rect in rects.items()}
    g_rects_in_h: dict[int, dict] = {}  # gtilde(R_t) in h, made where first needed
    rows: dict[tuple[int, tuple[int, ...]], dict] = {}  # by (t, parts of mu)
    for lam in lams:
        g_lam, s_lam = {(): {lam.parts: 1}}, {(): {lam.parts: 1}}
        for t, rect in rects.items():
            if lam.size <= rect.size:
                row = symfunc._h_combination(g_to_h(lam)._terms, g_rects[t], "g", k)
            else:
                if t not in g_rects_in_h:
                    g_rects_in_h[t] = _h_expansion(gtilde(rect), g_to_h)
                row = symfunc._h_combination(g_rects_in_h[t], g_lam, "g", k)
            rows[t, lam.parts] = {p: c for p, c in row.items() if c}
            if rect.size > lam.size:
                prod = symfunc._h_combination(ks_to_h(lam)._terms, s_rects[t], "ks", k)
            else:
                prod = symfunc._h_combination(ks_to_h(rect)._terms, s_lam, "ks", k)
            lhs = SymElt._trusted(k, "ks", {union_sort(rect, lam).parts: 1})
            rhs = SymElt._trusted(k, "ks", prod)
            ks.count() if lhs == rhs else ks.fail(lam=list(lam.parts), t=t)
    for lam in lams:
        for t, rect in rects.items():
            acc: dict[tuple[int, ...], int] = {}
            for mu in strong_ideal_parts(lam):
                _accumulate(acc, rows[t, mu])
            lhs, rhs = gtilde(union_sort(rect, lam)), SymElt._trusted(k, "g", acc)
            gt.count() if lhs == rhs else gt.fail(lam=list(lam.parts), t=t, lhs=lhs, rhs=rhs)

    for lam in lams:
        top.count() if kschur_top_degree_check(lam) else top.fail(lam=list(lam.parts))

    # the strips, their tops and the IE labels of lam do not depend on t;
    # each partition is grown once, to level k
    small = {}
    for lam in lams:
        growth = StripGrowth(lam, k)
        for r in range(0, k + 1):
            labels = [
                (KBoundedPartition._trusted(k, parts), c)
                for parts, c in _gtilde_pieri_ie(growth, r).items()
            ]
            small[lam, r] = (growth.strips(r), labels)
    for t, rect in rects.items():
        for lam in lams:
            big = StripGrowth(union_sort(rect, lam), k)
            for r in range(0, k + 1):
                small_strips, ie_small = small[lam, r]
                shifted = {s.indices.shift(t): s.top for s in small_strips}
                big_tops = {s.indices: s.top for s in big.strips(r)}
                ok = shifted.keys() == big_tops.keys() and all(
                    union_sort(rect, top) == big_tops[A] for A, top in shifted.items()
                )
                shift.count() if ok else shift.fail(lam=list(lam.parts), t=t, r=r)
                ie_big = _gtilde_pieri_ie(big, r)
                expected = {}
                for label, c in ie_small:
                    key = union_sort(rect, label).parts
                    expected[key] = expected.get(key, 0) + c
                ok = {p: c for p, c in expected.items() if c} == ie_big
                ie_shift.count() if ok else ie_shift.fail(lam=list(lam.parts), t=t, r=r)
    return [gt, ks, top, shift, ie_shift]
