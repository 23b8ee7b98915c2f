"""Weak strips, fibers of the Demazure action, and the orders of a length ball.

For a fixed u, the families of index sets A with d_A u >=_L u (the plus
side) and with d_A^{-1} u <=_L u (the minus side) are closed under
intersection, and under union as long as the union stays proper.  The
fiber of the Demazure action of d_A over u is labelled by subsets of A
and always forms a full interval in the boolean lattice.

The plus and minus families and the weak-strip labels are read off a few
limits per residue, computed once from the window of u (the run lemma of
`z_sets`), and enumerated run by run, as bitsets over residue masks, so no
subset outside a family is tried and no window is stepped.  The fiber
labels are grown from the empty set one residue at a time
(`affine.left_growth`), adding run bottoms, each child decided by one
generator step on its parent's window.
The closure of a family is decided by bitset transforms over all 2^(k+1)
residue masks.  The subset scan `oracles.z_sets_by_scan`, the pair scan
and the products are the test oracles in `oracles`.

The strong and weak orders of a length ball (`_BallOrder`), and the
tables read along it, serve the `verify` suites.  A suite enumerates one
ball, at a radius it declares in `verify.ball_radii`, and cuts every
smaller ball that it quantifies over from it as a prefix (`_prefix`).
`order-props` extends it by the down-closure of the elements beyond it
that it asks about (`_down_closure`), which is much smaller than the
ball that would hold them, and builds one order over the result.  A map
over a whole ball, such as u -> demazure(u, y) or
u -> psi_apply(u^-1, x), is built by one generator step per element from
its parent's value (`_BallOrder.parents`, `_hecke_values`), not by one
kernel call per pair; the per-pair calls are its test oracle.  Its values
are positions in the order, stepped along its step lists, and only values
that leave it are elements.  The strong order rows are lifted the same
way, with `bruhat_leq` as their test oracle, and exist only for the
elements an order holds.  All below x is shorter than x, so down rows and
meets are read in any down-closed order that holds x; only up rows and
joins depend on a radius, and an order answers them up to its own.

So a check computes each product, Demazure value and order row once per
element or index set and reads its instances off them: two values in the
ball compare by one bit of a lifted row, and a weak comparison is a test
of inversion rows (`_inversion_rows`), l(u v) = l(u) + l(v) iff
T_R(u) & T_L(v) = 0, or the length sum l(a) + l(x) = l(a x) where a x is
formed anyway.  The per-pair kernel calls, `mul` and the memoised
`demazure`, `psi_apply`, `weak_leq` and `bruhat_leq`, stay the oracles
these readings are tested against.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Callable, Iterable, Sequence

from .affine import (
    AffinePermutation,
    IndexSet,
    _frozen,
    _left_steps,
    bruhat_leq,
    inverse,
    least_left_descent,
    left_action,
    left_growth,
    left_mul_s,
    meet_LS,
    mul,
    reduced_word,
)
from .kcode import d_elem, d_inverse_steps, d_steps, first_row, ri
from .partitions import KBoundedPartition
from .shapes import _core_rows

__all__ = [
    "ZSets",
    "Fiber",
    "z_sets",
    "forbidden_index",
    "minus_forbidden_indices",
    "fiber_X",
    "fiber_Y",
    "find_A0",
    "signed_fiber_table",
    "proper_subsets",
]


def proper_subsets(k: int) -> list[frozenset[int]]:
    """Every proper subset of the residues 0..k, by size: the range the
    sweeps quantify over."""
    out = []
    for r in range(k + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(k + 1), r))
    return out


def _residue_patterns(n: int) -> list[int]:
    """has[i]: the bitset, over the 2^n residue masks, of the masks holding i.

    Bit m of a family bitset stands for the residue mask m.
    """
    size = 1 << n
    has = []
    for i in range(n):
        block = 1 << i
        pattern, width = ((1 << block) - 1) << block, 2 * block
        while width < size:
            pattern |= pattern << width
            width *= 2
        has.append(pattern)
    return has


def _closure_gaps(fams: Sequence[int], has: list[int]) -> list[tuple[int, int]]:
    """For each family bitset of `fams`, the bitsets over the 2^n residue
    masks of the masks that it would need for closure under intersection
    and under proper union but lacks; has is `_residue_patterns(n)`.

    The intersection of the members above m is m exactly when some member
    lies above m and, for each residue outside m, some member above m
    avoids it: the superset-AND transform, taken one residue at a time as
    shifts of whole bitsets.  Dually the union of the members below m is m
    exactly when each residue of m lies in some member below m (the
    subset-OR transform).  A family is closed iff no such m is missing from
    it; the empty mask and the full one are exempt from the union side, as
    they are no proper union.  The families are transformed side by side,
    2^n bits apart in one integer: a shift by 2^i moves a mask with (or
    without) residue i to the one without (or with) it, inside its block.
    """
    size = 1 << len(has)
    block = (1 << size) - 1
    fam = tile = 0  # the families, and bit 0 of each block
    for f in reversed(fams):
        fam = fam << size | f
        tile = tile << size | 1
    everything = block * tile
    steps = [(h * tile, everything ^ h * tile, 1 << i) for i, h in enumerate(has)]

    def below(bits: int) -> int:  # every subset of a member
        for inside, _, shift in steps:
            bits |= (bits & inside) >> shift
        return bits

    def above(bits: int) -> int:  # every superset of a member
        for _, outside, shift in steps:
            bits |= (bits & outside) << shift
        return bits

    meets = below(fam)
    joins = everything ^ tile ^ tile << (size - 1)
    for inside, outside, _ in steps:
        meets &= below(fam & outside) | inside
        joins &= above(fam & inside) | outside
    meets &= everything ^ fam
    joins &= everything ^ fam
    return [(meets >> j * size & block, joins >> j * size & block) for j in range(len(fams))]


# the assertions of ZSets in the order it makes them: (family, kind)
_FAMILY_CHECKS = (
    (0, "closed"),
    (1, "closed"),
    (1, "bounded"),
    (0, "bounded"),
    (2, "closed"),
    (2, "bounded"),
)
_FAMILY_NAMES = (
    ("plus", "plus family"),
    ("minus", "minus family"),
    ("plus_grassmannian", "grassmannian plus family"),
)


def _family_fault(u: AffinePermutation, bitsets: Sequence[int]) -> str | None:
    """The first assertion of `ZSets` that its families fail, or None.

    bitsets holds plus, minus and, when it is present, the Grassmannian
    plus family, each as a bitset over residue masks.  Each family is
    closed under intersection and proper union, decided by `_closure_gaps`
    in O((k+1)^2) bitset operations; only a broken family is decoded, for
    the pair scan `oracles.closure_failure_by_pairs`, which names the first
    failing pair.  Minus and Grassmannian plus have a maximum, the union of
    their members; plus has one unless its members cover every residue.
    The union holds residue i iff the family meets has[i].
    """
    k = u.k
    has = _residue_patterns(k + 1)
    gaps = _closure_gaps(bitsets, has)
    for i, kind in _FAMILY_CHECKS:
        if i == len(bitsets):
            break
        name, title = _FAMILY_NAMES[i]
        if kind == "closed":
            if gaps[i] != (0, 0):
                from .oracles import closure_failure_by_pairs

                return closure_failure_by_pairs(name, _family(bitsets[i]), k) or (
                    f"{name}: closure transforms disagree with the pair scan"
                )
            continue
        union = sum(1 << r for r, pattern in enumerate(has) if bitsets[i] & pattern)
        if not bitsets[i] >> union & 1 and (i or union != (1 << (k + 1)) - 1):
            return f"{title} of {u!r} has no maximum"
    return None


def _residue_lists(masks: list[int]) -> list[list[int]]:
    """The residues of each mask, in increasing order.

    A mask below 2^9, the masks of k <= 8, costs one or two lookups in
    `_BYTE_BITS`.
    """
    return [
        list(_BYTE_BITS[m]) if m < 256
        else [*_BYTE_BITS[m & 255], 8] if m < 512
        else _positions(m)
        for m in masks
    ]


def _family(bits: int) -> frozenset[frozenset[int]]:
    """The family that a bitset over residue masks stands for: bit m for
    the residue mask m."""
    return frozenset(map(frozenset, _residue_lists(_positions(bits))))


def _size_lex_keys(n: int) -> list[int]:
    """keys[m]: a sort key of the residue mask m that orders the 2^n masks
    as `ZSets.as_dict` lists them, by size and then lexicographically.

    keys[m] adds 2^n for each residue of m and 2^(n-1-r) for each residue
    r outside it: the size term dominates, and of two masks of one size
    the one holding the least residue where they differ misses fewer of the
    heavier terms.  Built one residue at a time: after step r, the second
    half of the list holds the masks with residue r.
    """
    keys = [0]
    for r in range(n):
        keys = [key + (1 << (n - 1 - r)) for key in keys] + [key + (1 << n) for key in keys]
    return keys


class ZSets:
    """The index-set families attached to u.

    plus: A with d_A u >=_L u.  minus: A with d_A^{-1} u <=_L u.
    plus_grassmannian: weak-strip labels, i.e. plus with a 0-dominant top
    (only populated when u itself is 0-dominant).  Intersection/union
    closure is asserted on construction; the minus family and the
    Grassmannian plus family also carry a unique maximum.  The bare plus
    family has one exactly when the union of its members stays proper
    (near the identity it does not: every proper subset qualifies).

    Each family is given and held as its bitset over residue masks, bit m
    for the mask m (`plus_bits`, `minus_bits`, and `plus_grassmannian_bits`,
    None unless u is 0-dominant).  Reading `plus`, `minus` or
    `plus_grassmannian` decodes a frozenset of frozensets on each read, so
    a caller that tests many members binds it once; `as_dict` writes the
    member lists from the bits.
    """

    __slots__ = ("u", "plus_bits", "minus_bits", "plus_grassmannian_bits")

    def __init__(self, u, plus_bits, minus_bits, plus_grassmannian_bits=None):
        bitsets = [plus_bits, minus_bits]
        if plus_grassmannian_bits is not None:
            bitsets.append(plus_grassmannian_bits)
        fault = _family_fault(u, bitsets)
        if fault is not None:
            raise RuntimeError(fault)
        _set_u(self, u)
        _set_plus(self, plus_bits)
        _set_minus(self, minus_bits)
        _set_plus_g(self, plus_grassmannian_bits)

    __setattr__ = __delattr__ = _frozen

    @property
    def plus(self) -> frozenset[frozenset[int]]:
        return _family(self.plus_bits)

    @property
    def minus(self) -> frozenset[frozenset[int]]:
        return _family(self.minus_bits)

    @property
    def plus_grassmannian(self) -> frozenset[frozenset[int]] | None:
        bits = self.plus_grassmannian_bits
        return None if bits is None else _family(bits)

    def _key(self):
        return (self.u, self.plus_bits, self.minus_bits, self.plus_grassmannian_bits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ZSets(u={self.u!r}, plus={self.plus!r}, minus={self.minus!r}, "
                f"plus_grassmannian={self.plus_grassmannian!r})")

    def as_dict(self) -> dict:
        """Each family as sorted member lists, by size and then lexicographically."""
        out = {"u": self.u.as_dict()}
        rank = _size_lex_keys(self.u.k + 1).__getitem__
        for which in ("plus", "minus", "plus_grassmannian"):
            bits = getattr(self, which + "_bits")
            if bits is not None:
                masks = _positions(bits)
                masks.sort(key=rank)
                out[which] = _residue_lists(masks)
        return out


_set_u, _set_plus, _set_minus, _set_plus_g = (
    ZSets.u.__set__,
    ZSets.plus_bits.__set__,
    ZSets.minus_bits.__set__,
    ZSets.plus_grassmannian_bits.__set__,
)


def _run_keys(u: AffinePermutation) -> tuple[list[int], list[int]]:
    """key[r] = u^-1(r) - r - 1 and pos[r], the window position of residue r.

    u^-1(x) = key[x mod n] + x + 1 for every integer x, so u^-1(x) < u^-1(x+d)
    iff key[x mod n] < key[(x+d) mod n] + d: each comparison of the run
    lemma (see `z_sets`) is one comparison of keys.
    """
    n = u.k + 1
    key, pos = [0] * n, [0] * n
    for p, x in enumerate(u.window):
        r = x % n
        key[r], pos[r] = p - x, p
    return key, pos


def _plus_limits(key: list[int]) -> list[int]:
    """up[b]: the longest run [b, b+L-1] with u^-1(b) < u^-1(b+d) for
    d = 1..L, at most k."""
    n = len(key)
    limits = []
    for b, kb in enumerate(key):
        d = 1
        while d < n and kb < key[(b + d) % n] + d:
            d += 1
        limits.append(d - 1)
    return limits


def _minus_limits(key: list[int]) -> list[int]:
    """down[x]: the longest run [x-L, x-1] with u^-1(x-d) > u^-1(x) for
    d = 1..L, at most k; indexed by the residue x above the run's top."""
    n = len(key)
    limits = []
    for x, kx in enumerate(key):
        d = 1
        while d < n and key[(x - d) % n] - d > kx:
            d += 1
        limits.append(d - 1)
    return limits


def _grassmannian_limits(up: list[int], pos: list[int], window) -> list[int]:
    """The plus limits cut where a run's travelling value would meet the
    value one position to its right: for u Grassmannian, a step up keeps
    the window increasing unless residue c+1 sits right after residue c
    (`affine.left_growth`), and along a run from b residue c sits where b
    did."""
    n = len(up)
    limits = []
    for b, limit in enumerate(up):
        p = pos[b] + 1
        if p < n:  # the residue right after b blocks the run that reaches it
            limit = min(limit, (window[p] - b) % n - 1)
        limits.append(limit)
    return limits


def _run_family(limits: list[int], reflected: bool = False) -> int:
    """The proper subsets of the residues 0..n-1 whose every maximal cyclic
    run [b, b+L-1] has L <= limits[b], as a bitset over residue masks;
    reflected, the mirror images r -> n-1-r of those subsets, whose every
    run [t-L+1, t] has L <= limits[n-1-t].

    A subset either misses residue 0, and is then a subset of the line
    1..n-1, or has one run [b, t] through 0 (b <= 0 <= t as integers), and
    the rest of it is a subset of the line t+2..b+n-2 between the run's two
    gaps.  The subsets of a line ending at j are read off one right-to-left
    pass: those starting at i are those starting at i+1 and, for each run
    [i, i+L-1] that fits, that run beside each one starting at i+L+1.  Each
    subset comes out once, from its run through 0 and its runs left to
    right.  A run and the rest of its subset are disjoint, so their union's
    mask is the sum of theirs, and beside a run of mask r the bitset of the
    rest is shifted by r.
    """
    n = len(limits)
    runs = []  # runs[b]: (length, mask) of each run allowed at b
    for b, limit in enumerate(limits):
        row, mask = [], 0
        for d in range(limit):
            mask |= 1 << ((n - 1 - b - d if reflected else b + d) % n)
            row.append((d + 1, mask))
        runs.append(row)
    bits = 0
    for b in range(1, 1 - n, -1):
        # b = 1: residue 0 is missed; b <= 0: the run through 0 starts at b
        # (runs[b] is runs[b % n]), and its shortest comes first
        if b == 1:
            heads = [(0, 1)]
        else:
            heads = [(m, b + L + 1) for L, m in runs[b][-b:]]
            if not heads:
                continue
        j = b + n - 2  # the line ends before the gap at b-1
        tails = [1] * (j + 3)  # bit 0: the empty subset
        for i in range(j, heads[0][1] - 1, -1):
            tail = tails[i + 1]
            for L, rm in runs[i][: j + 1 - i]:
                tail |= tails[i + L + 1] << rm
            tails[i] = tail
        for hm, start in heads:
            bits |= tails[start] << hm
    return bits


def _minus_family(key: list[int]) -> int:
    """The minus family: the runs [x-L, x-1] with L <= down[x].

    Enumerated in the mirror image r -> n-1-r, where a run's bottom b is
    the image of its top n-1-b, and the residue x above that top is -b mod
    n; so the limit at b is down[-b].
    """
    down = _minus_limits(key)
    return _run_family([down[-b] for b in range(len(down))], reflected=True)


def z_sets(u: AffinePermutation) -> ZSets:
    """The three families, read off a few limits per residue.

    The run lemma (Bjorner-Brenti, GTM 231, on u^-1).  Split A into its
    maximal cyclic runs [b, t]; a proper A has a gap, so t - b <= k - 1.
    The runs commute, and each moves only the positions of its own
    residues b..t+1, so each is decided on u alone.  Along a run d_A moves
    the value b up (s_b, ..., s_t), and step s_c goes up iff
    u^-1(b) < u^-1(c+1); d_A^-1 moves t+1 down, and step s_c goes down iff
    u^-1(c) > u^-1(t+1).  So A is a plus member iff every run has
    u^-1(b) < u^-1(c) for b < c <= t+1, one limit per bottom b
    (`_plus_limits`), and a minus member iff every run has
    u^-1(c) > u^-1(t+1) for b <= c <= t, one limit per residue t+1
    (`_minus_limits`).  For u Grassmannian the weak-strip labels are the
    plus members whose steps keep the window increasing (`affine.left_growth`),
    a second limit per bottom (`_grassmannian_limits`).  Closure under
    intersection and proper union follows by transitivity of <; the
    assertions of `ZSets` still run, on the family bitsets that the
    enumeration builds, and the families stay bitsets in the result.
    """
    key, pos = _run_keys(u)
    up = _plus_limits(key)
    bitsets = [_run_family(up), _minus_family(key)]
    if u.is_grassmannian():
        bitsets.append(_run_family(_grassmannian_limits(up, pos, u.window)))
    return ZSets(u, *bitsets)


def forbidden_index(lam: KBoundedPartition) -> int:
    """The residue that never appears in a weak-strip index set over lam.

    It is the residue of the rightmost box in the first row of the core,
    read off the row sliding (`shapes._core_rows`) without building the
    validated core; the empty shape degenerates to k, matching its unique
    size-k strip d_{{0,...,k-1}} . empty.
    """
    rows = _core_rows(lam)
    if not rows:
        return lam.k
    return (rows[0] - 1) % (lam.k + 1)


def minus_forbidden_indices(w: AffinePermutation) -> frozenset[int]:
    """Residues missing from every A with d_A^{-1} w <=_L w.

    The minus family is confined to the bottom row of the increasing code
    of w^{-1}; the complement of that row is returned in full because no
    single index is canonical here.
    """
    row = first_row(ri(inverse(w)), increasing=True)
    return frozenset(range(w.k + 1)) - row


class Fiber:
    """Fiber of the Demazure action of d_A over u, stored by subset labels.

    members holds the B with d_A * (d_B^{-1} u) = u; the element behind a
    label is d_B^{-1} u.  A nonempty fiber is a full boolean interval
    [intersection of members, A], which is asserted on construction.
    """

    __slots__ = ("A", "u", "members")

    def __init__(self, A: IndexSet, u: AffinePermutation, members: frozenset[frozenset[int]]):
        amem = A.members
        if any(not B <= amem for B in members):
            raise RuntimeError(f"fiber labels {members} escape {A!r}")
        if members:
            bottom = frozenset.intersection(*members)
            interval = {
                bottom | frozenset(extra)
                for r in range(len(amem - bottom) + 1)
                for extra in itertools.combinations(sorted(amem - bottom), r)
            }
            if members != frozenset(interval):
                raise RuntimeError(
                    f"fiber over {u!r} with A={A!r} is not the "
                    f"interval [{sorted(bottom)}, {sorted(amem)}]"
                )
        _set_fiber_A(self, A)
        _set_fiber_u(self, u)
        _set_fiber_members(self, members)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.A, self.u, self.members) == (other.A, other.u, other.members)
        return NotImplemented

    def __hash__(self):
        return hash((self.A, self.u, self.members))

    def __repr__(self):
        return f"Fiber(A={self.A!r}, u={self.u!r}, members={self.members!r})"

    def elements(self) -> list[AffinePermutation]:
        return [
            _below(IndexSet(self.A.k, B), self.u)
            for B in sorted(self.members, key=lambda b: (len(b), sorted(b)))
        ]

    def bottom(self) -> frozenset[int] | None:
        return frozenset.intersection(*self.members) if self.members else None

    def as_dict(self) -> dict:
        return {
            "A": list(self.A.sorted()),
            "u": self.u.as_dict(),
            "members": [sorted(B) for B in sorted(self.members, key=lambda b: (len(b), sorted(b)))],
        }


_set_fiber_A, _set_fiber_u, _set_fiber_members = (
    Fiber.A.__set__, Fiber.u.__set__, Fiber.members.__set__
)


def _below(B: IndexSet, u: AffinePermutation) -> AffinePermutation | None:
    """d_B^{-1} u when every letter of d_B^{-1} lowers the length, else None.

    Only such B can label a fiber element: d_A * v lies above v in the left
    weak order, so d_A * v = u forces l(u) - l(v) = l(u v^{-1}) = |B|.
    """
    return left_action(u, d_inverse_steps(B), "descent")


@functools.lru_cache(maxsize=None)
def fiber_X(A: IndexSet, u: AffinePermutation) -> Fiber:
    """All labels B with d_A * (d_B^{-1} u) = u.

    The candidates B are the subsets of A grown by `left_growth` with every
    step going down (see `_below`); each is kept when the Demazure run of
    d_A climbs back to u.
    """
    if A.k != u.k:
        raise ValueError(f"rank mismatch: k={A.k} vs k={u.k}")
    k = u.k
    steps = d_steps(A)
    members = set()
    for level in left_growth(u.window, "descent", len(A), A.members):
        for B, win, dl in level:
            v = AffinePermutation._trusted(k, tuple(win), u.length + dl)
            if left_action(v, steps, "max") == u:
                members.add(B)
    return Fiber(A, u, frozenset(members))


def fiber_Y(A: IndexSet, u: AffinePermutation, w: AffinePermutation) -> Fiber:
    """The part of the fiber lying below w in the strong order."""
    if w.k != u.k:
        raise ValueError(f"rank mismatch: k={w.k} vs k={u.k}")
    big = fiber_X(A, u)
    members = frozenset(
        B for B in big.members if bruhat_leq(_below(IndexSet._trusted(u.k, B), u), w)
    )
    return Fiber(A, u, members)


def find_A0(u: AffinePermutation, w: AffinePermutation) -> IndexSet | None:
    """The unique A whose fiber below w is a single element, if any.

    Take the maximum m of {z : z <=_L u, z <= w}; when u m^{-1} is a
    cyclically decreasing element d_A, that A is the answer, otherwise
    no fiber below w is a singleton.
    """
    if not (u.is_grassmannian() and w.is_grassmannian()):
        raise ValueError("both arguments must be affine Grassmannian")
    m = meet_LS(u, w)
    c = mul(u, inverse(m))
    support = frozenset(reduced_word(c).letters)
    if len(support) != c.length or len(support) > u.k:
        return None
    A = IndexSet(u.k, support)
    if d_elem(A) != c:
        return None
    return A


def signed_fiber_table(
    u: AffinePermutation, w: AffinePermutation | None = None
) -> list[tuple[AffinePermutation, IndexSet, int]]:
    """Rows (v, A, sign) with d_A * v = u, optionally filtered by v <= w.

    The sign is (-1)^(|A| - (l(u) - l(v))), the one weighting the
    inhomogeneous Pieri rule.  Rows are sorted by (|A|, A, l(v), window).
    """
    rows = []
    # a nonempty fiber is the interval [bottom, A], so it holds A itself:
    # only the A of the minus family of u can have one
    for members in _residue_lists(_positions(_minus_family(_run_keys(u)[0]))):
        A = IndexSet._trusted(u.k, frozenset(members))
        for B in fiber_X(A, u).members:
            v = _below(IndexSet._trusted(u.k, B), u)
            if w is not None and not bruhat_leq(v, w):
                continue
            sign = (-1) ** (len(A) - (u.length - v.length))
            rows.append((v, A, sign))
    rows.sort(key=lambda r: (len(r[1]), r[1].sorted(), r[0].length, r[0].window))
    return rows


def _prefix(elements: list[AffinePermutation], radius: int) -> list[AffinePermutation]:
    """`ball(k, radius)`, cut from a `ball()` list, which is sorted by (length,
    window); a radius beyond the list's own was never declared, so it raises."""
    if radius > elements[-1].length:
        raise ValueError(f"ball radius {radius} is not declared in ball_radii")
    return elements[: bisect.bisect_right(elements, radius, key=lambda w: w.length)]


def _pair_terms(win: tuple[int, ...] | list[int], p: int, q: int) -> int:
    """The terms of the affine inversion formula (`affine._inversion_length`)
    of the window pairs that hold position p or q."""
    n = len(win)
    wp, wq = win[p], win[q]
    total = abs((wq - wp) // n if p < q else (wp - wq) // n)
    for j, wj in enumerate(win):
        if j != p and j != q:
            total += abs((wj - wp) // n if p < j else (wp - wj) // n)
            total += abs((wj - wq) // n if q < j else (wq - wj) // n)
    return total


def _lower_covers(win: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Windows of the elements that the element w with window `win` covers
    in the strong order.

    They are among the w t_ab, t_ab the affine reflection that swaps a + m n
    and b + m n for every m, with a < b and w(a) > w(b), each of them below
    w (Bjorner-Brenti, GTM 231, Sec. 8.3); take a in the window.  If some c
    strictly between a and b has w(b) < w(c) < w(a), then c is congruent to
    neither, and w t_ab < w t_ac t_cb < w t_ac < w, so w t_ab is no cover:
    at the positions a, c, b these four hold (w(b), w(c), w(a)),
    (w(c), w(b), w(a)), (w(c), w(a), w(b)) and (w(a), w(c), w(b)), and each
    swaps an inversion of the next.  So scanning b upward from a, with top
    the largest value below w(a) seen since a, only a b with
    top < w(b) < w(a) is tried, and it is kept when the swap takes exactly
    one from the length, read off the inversion-formula terms of the two
    positions it changes (`_pair_terms`): the first test alone keeps some
    w t_ab with b - a > n that are three shorter.  No b at or past the
    period whose least value reaches w(a), and none once top = w(a) - 1,
    can pass.
    """
    n = len(win)
    least = min(win)
    covers = []
    for a, wa in enumerate(win):
        top = least - 1  # below every value
        b = a + 1
        while top < wa - 1 and b // n * n + least < wa:
            m, c = divmod(b, n)
            wb = win[c] + m * n
            if top < wb < wa:
                top = wb
                cover = list(win)
                cover[a], cover[c] = wb, wa - m * n  # the swap, and its period
                if _pair_terms(win, a, c) - _pair_terms(cover, a, c) == 1:
                    covers.append(tuple(cover))
            b += 1
    return covers


def _down_closure(
    elements: list[AffinePermutation], extras: Iterable[AffinePermutation]
) -> list[AffinePermutation]:
    """`elements`, a ball as `ball()` returns it, followed by every element
    longer than its radius that lies below one of `extras`, sorted by
    (length, window): a down-closed list whose prefix up to that radius is
    the ball.

    The part beyond the ball is closed one length at a time, longest first,
    by lower covers (`_lower_covers`): every element below x is reached from
    x through covers, each one shorter, and the covers no longer than the
    radius are ball elements already.  Only windows are kept, one per
    element, so the memory is linear in the size of the result.
    """
    k, radius = elements[0].k, elements[-1].length
    levels: dict[int, set[tuple[int, ...]]] = {}
    for w in extras:
        if w.length > radius:
            levels.setdefault(w.length, set()).add(w.window)
    closed = []
    for ell in range(max(levels, default=radius), radius, -1):
        level = levels.pop(ell, set())
        if ell - 1 > radius:
            below = levels.setdefault(ell - 1, set())
            for win in level:
                below.update(_lower_covers(win))
        closed.extend(
            AffinePermutation._trusted(k, win, ell) for win in sorted(level, reverse=True)
        )
    closed.reverse()
    return elements + closed


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
    """Strong and weak order relations over a down-closed set, as bitset rows.

    The elements are kept sorted by (length, window), and bit i of a row
    stands for the i-th.  They are a ball as `ball()` returns it, or a
    `_down_closure`: down-closed, and a ball up to `radius`, the length up
    to which every element is held (by default the longest).  The first
    `within` elements are that ball.  A row of x is one Python int.  Joins,
    meets and least upper bounds then become ANDs and subset tests of rows,
    and give the same answers as the scans in `oracles` over the same
    universe.

    Down-set questions (down rows, meets, left-down and right-down rows)
    are answered over every element: all below x is shorter than x, so
    their answers are the same in every down-closed set that holds x.
    Up-set questions (up rows, left-up rows, joins) are answered over the
    ball only: an up row holds all above x up to `radius`, and a join that
    needs a larger radius raises.

    The strong down row of an element is lifted, the first time it or an
    element above it is asked for: for x = s_i y with y its left parent,
    [e, x] = [e, y] u s_i [e, y] (lifting property, Bjorner-Brenti, GTM 231,
    Prop. 2.2.7), so the down row of x is the row of y OR its image under
    the left step s_i, which stays in any down-closed set.  The up rows are
    the transpose of the ball's down rows, built on the first request
    (`_up_rows`).  An element outside the order has no position, so no
    down row.  Comparing an element of the order with it needs no row of
    it: `lift` strips its least left descents until it lies in the order,
    and `lower` takes the element through the same letters to a bit of the
    lifted row.

    A weak row is a search along generator steps: a left weak cover is
    u -> s_i u with the length up by one, so every z with x <=_L z and
    l(z) <= radius is reached through the ball's elements, and so are the
    lower sets and the right side.  Every generator step of every reader
    (searches, lifting, walks, parents and the tables of this module) is
    read from the step lists `left` and `right`, indexed by position:
    entry p holds the positions of s_i u (left) or u s_i (right) for u at
    p and i = 0..k, -1 for an element outside the order.  An entry is
    built the first time it is read, by `fill_left` or `fill_right`, which
    edit one copy of the window in place; until then it is None, so a
    reader takes `left[p] or order.fill_left(p)`.  A sweep that reads
    few entries of a large order keeps only those.
    """

    def __init__(self, elements: list[AffinePermutation], radius: int | None = None):
        self.elements = elements
        self.radius = elements[-1].length if radius is None else radius
        self._lengths = [w.length for w in elements]
        self.within = bisect.bisect_right(self._lengths, self.radius)
        self._index = {w.window: i for i, w in enumerate(elements)}  # by window
        self.left: list[list[int] | None] = [None] * len(elements)
        self.right: list[list[int] | None] = [None] * len(elements)
        self._down: dict[int, int] = {0: 1}  # the identity comes first
        self._up: list[int] | None = None
        self._rows: dict[tuple[str, int], int] = {}  # weak rows, by (kind, position)

    def row(self, kind: str, p: int) -> int:
        """The weak row of a kind of `_WEAK` of the element at position p;
        strong down rows are `_lifted`."""
        key = kind, p
        if key not in self._rows:
            self._rows[key] = self._weak_row(*_WEAK[kind], p)
        return self._rows[key]

    def position(self, w: AffinePermutation) -> int | None:
        """Position of w in the order, None outside it."""
        return self._index.get(w.window)

    def at(self, w: AffinePermutation) -> int:
        """Position of w in the order; outside it this raises."""
        p = self._index.get(w.window)
        if p is None:
            raise ValueError(f"{w!r} lies outside the order")
        return p

    def lift(self, v: AffinePermutation) -> tuple[list[int], int]:
        """v as (letters, position q): stripping the least left descent of v,
        one letter at a time, until what is left lies in the order leaves the
        element at q; an element of the order has no letters."""
        letters = []
        q = self._index.get(v.window)
        while q is None:
            i = least_left_descent(v)
            letters.append(i)
            v = left_mul_s(v, i)
            q = self._index.get(v.window)
        return letters, q

    def lower(self, p: int, letters: list[int]) -> int:
        """Position that x, the element at p, reaches through the letters of
        `lift(v)`, each step kept when it shortens x.  For s a left descent
        of v, x <= v iff min(x, s x) <= s v (the recursion of `bruhat_leq`),
        so x <= v iff that position is in the down row of the lift's."""
        lengths, left = self._lengths, self.left
        for i in letters:
            t = (left[p] or self.fill_left(p))[i]
            if t >= 0 and lengths[t] < lengths[p]:
                p = t
        return p

    def walk(self, p: int, letters) -> int:
        """Position of s_{i_m} ... s_{i_1} u, for u the element at p and the
        letters i_1, ..., i_m, first letter first (as `left_action` reads
        them); a step that leaves the order raises, as `at` does."""
        left = self.left
        for i in letters:
            t = (left[p] or self.fill_left(p))[i]
            if t < 0:
                raise ValueError(f"s_{i} {self.elements[p]!r} lies outside the order")
            p = t
        return p

    def _lifted(self, p: int) -> int:
        """Strong down row of the element at position p, lifted from those
        of its left ancestors that have none yet."""
        rows = self._down
        row = rows.get(p)
        if row is None:
            chain = []
            while row is None:
                q, i = self._parent("left", p)
                chain.append((p, i))
                p = q
                row = rows.get(p)
            lengths, left, fill = self._lengths, self.left, self.fill_left
            for p, i in reversed(chain):
                # every element below p is at most as long as p
                end = bisect.bisect_right(lengths, lengths[p])
                buf = bytearray(row.to_bytes((end + 7) // 8, "little"))
                for z in _positions(row):
                    t = (left[z] or fill(z))[i]
                    buf[t >> 3] |= 1 << (t & 7)
                row = rows[p] = int.from_bytes(buf, "little")
        return row

    def _up_rows(self) -> list[int]:
        if self._up is None:
            self._up = _transpose([self._lifted(p) for p in range(self.within)])
        return self._up

    def _weak_row(self, side: str, above: bool, start: int) -> int:
        size = self.within if above else len(self.elements)
        if not 0 <= start < size:
            kind = "up" if above else "down"
            raise ValueError(f"{kind} rows search the first {size} elements; {start} is outside")
        lengths = self._lengths
        steps, fill = self.side(side)
        seen = {start}
        todo = [start]
        while todo:
            p = todo.pop()
            for q in steps[p] or fill(p):
                if 0 <= q < size and (lengths[q] > lengths[p]) == above and q not in seen:
                    seen.add(q)
                    todo.append(q)
        return _mask(sorted(seen))

    def side(self, side: str) -> tuple[list[list[int] | None], Callable[[int], list[int]]]:
        """The step list of a side, "left" or "right", and its builder."""
        return (self.left, self.fill_left) if side == "left" else (self.right, self.fill_right)

    def fill_left(self, p: int) -> list[int]:
        """Build, keep and return entry p of `left` (`affine._left_steps`)."""
        get = self._index.get
        row = self.left[p] = [get(step, -1) for step in _left_steps(self.elements[p].window)]
        return row

    def fill_right(self, p: int) -> list[int]:
        """Build, keep and return entry p of `right`: s_i swaps window
        positions i and i+1, cyclically for i = 0, one copy of the window
        edited in place and restored after each letter."""
        win = self.elements[p].window
        n, get = len(win), self._index.get
        w = list(win)
        w[0], w[-1] = win[-1] - n, win[0] + n
        row = [get(tuple(w), -1)]
        w[0], w[-1] = win[0], win[-1]
        for i in range(1, n):
            w[i - 1], w[i] = win[i], win[i - 1]
            row.append(get(tuple(w), -1))
            w[i - 1], w[i] = win[i - 1], win[i]
        self.right[p] = row
        return row

    def join_at(self, a: int, b: int) -> int | None:
        """Position of the exact strong join of the elements at a and b, or None.

        Every minimal common upper bound is at most l(v) + l(w) long (subword
        property, Bjorner-Brenti, GTM 231, Thm 2.2.2); a smaller radius raises.
        """
        lengths = self._lengths
        if lengths[a] + lengths[b] > self.radius:
            v, w = self.elements[a], self.elements[b]
            raise ValueError(f"joins of {v!r} and {w!r} need radius {lengths[a] + lengths[b]}")
        up = self._up_rows()
        ubs = up[a] & up[b]
        # the first common upper bound is a shortest one; any other of its
        # length is incomparable to it, so it is the join or there is none
        m = (ubs & -ubs).bit_length() - 1
        return None if ubs & ~up[m] else m

    def meet_of(self, common: int) -> int | None:
        """Position of the exact meet of the elements whose down rows AND to
        `common`, or None."""
        # the last common lower bound is a longest one; any other of its
        # length is incomparable to it, so it is the meet or there is none
        m = common.bit_length() - 1
        return None if common & ~self._lifted(m) else m

    def _parent(self, side: str, p: int) -> tuple[int, int]:
        steps, fill = self.side(side)
        for i, q in enumerate(steps[p] or fill(p)):
            if 0 <= q < p:
                return q, i
        raise RuntimeError(f"the element at {p} has no {side} parent in the order")

    def parents(self, size: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Left and right parents of the first `size` elements but e.

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
            [self._parent(side, p) for p in range(1, size)] for side in ("left", "right")
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

    A value is its position in `order`, stepped along its left step list
    (`_BallOrder.left`).  Only an `up` step leaves the order, which is
    closed downwards; such a value, and every later `up` value from it, is
    an element.
    """
    lengths, elements = order._lengths, order.elements
    left, fill = order.left, order.fill_left
    values: list[int | AffinePermutation] = [start]
    for p, i in parents:
        z = values[p]
        if type(z) is int:
            t = (left[z] or fill(z))[i]
            if t < 0:  # s_i z is longer than z and outside the order
                values.append(left_mul_s(elements[z], i) if up else z)
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
    elements, (left, right) = order.elements, parents
    n = len(elements[0].window)
    index: dict[tuple[int, int], int] = {}

    def bit(a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        shift = (a - 1) // n * n
        return 1 << index.setdefault((a - shift, b - shift), len(index))

    t_left, t_right = [0], [0]
    for (r, j), (q, i) in zip(right[: size - 1], left[: size - 1]):
        # u s_j u^-1 swaps u(j) and u(j+1), where u(0) = u(n) - n
        win = elements[r].window
        t = bit(win[-1] - n, win[0]) if j == 0 else bit(win[j - 1], win[j])
        t_left.append(t_left[r] | t)
        # u^-1 s_i u swaps u^-1(i) and u^-1(i+1); u(c) = v gives
        # u^-1(v + m n) = c + m n
        offset = {v % n: c + 1 - v for c, v in enumerate(elements[q].window)}
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
    steps, fill = order.left, order.fill_left
    prod = [list(range(size))]
    for q, i in left[: size - 1]:
        prod.append([(steps[p] or fill(p))[i] for p in prod[q]])
    return prod


def _quotient(order: _BallOrder, side: str, p: int, letters) -> int | None:
    """Position that the element u at p reaches by one generator step per
    letter on `side`, or None at the first step that does not shorten it.

    Each step changes the length by one.  So for a = s_{i_1} ... s_{i_l}
    reduced, the right steps i_l, ..., i_1 reach u a^-1 and all shorten iff
    a <=_L u, and the left steps i_1, ..., i_l reach a^-1 u and all shorten
    iff a <=_R u.  Shorter elements come earlier in any ball that holds u.
    """
    steps, fill = order.side(side)
    for i in letters:
        t = (steps[p] or fill(p))[i]
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
    left, fill = order.left, order.fill_left
    columns = list(zip(*(left[p] or fill(p) for p in range(size))))
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
    steps, fill = order.right, order.fill_right
    # x' = min(x, x s_j) by j; an x s_j shorter than x lies in the ball, earlier
    mins = [[t if 0 <= t < x else x for t in steps[x] or fill(x)] for x in range(size)]
    seeds, joins, meets = [list(range(size))], [list(range(size))], [[0] * size]
    for q, j in right[: size - 1]:
        s_row, j_row, m_row = seeds[q], joins[q], meets[q]
        seed, join, meet = [], [], []
        for x in range(size):
            p = mins[x][j]
            seed.append(s_row[p])
            z = j_row[p]
            join.append((steps[z] or fill(z))[j])
            z = m_row[p]
            meet.append(z if p == x else (steps[z] or fill(z))[j])
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
    order: _BallOrder,
    parents: tuple[list[tuple[int, int]], list[tuple[int, int]]],
    size: int,
    psi: list[list[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """The join-seed sets, both forms, as rows over the ball of `parents`,
    for x and y among the first `size` elements of `order`:
    dsets[y][x] holds the u with x <= demazure(u, y), and esets[x][y] the
    u with psi_apply(u^-1, x, "left") <= y.

    The u are grouped by their value (`_hecke_values`), and each group is
    spread (`_spread`) over every x below its value at once, read off the
    value's down row, or over every y above it, read off its up row (each
    value is no longer than x, so it lies in the order's ball).  A Demazure
    value outside the order is lifted into it (`lift`), and compared with
    every x at once: the x are lowered through the lift's letters, as
    `lower` does, by the psi_i lists `psi` (`_generator_steps` over at
    least the first `size` elements), once per distinct letter sequence,
    and the x below it are kept by its window, since many y share it.
    """

    def groups(values):
        """The u of each value, as a bitset built by OR while grouping."""
        us: dict[int | AffinePermutation, int] = {}
        for u, value in enumerate(values):
            us[value] = us.get(value, 0) | 1 << u
        return us.items()

    left, right = parents
    lowered: dict[tuple[int, ...], list[int]] = {}  # letters -> where each x goes
    outside: dict[tuple[int, ...], int] = {}  # window of a value outside -> its x
    prefix = (1 << size) - 1
    dsets = []
    for y in range(size):
        spread = []
        for value, us in groups(_hecke_values(order, left, y, up=True)):
            if type(value) is int:
                xs = order._lifted(value)
            else:
                xs = outside.get(value.window)
                if xs is None:
                    letters, q = order.lift(value)
                    key = tuple(letters)
                    if key not in lowered:
                        ps = list(range(size))
                        for i in letters:
                            step = psi[i]
                            ps = [step[p] for p in ps]
                        lowered[key] = ps
                    below = order._lifted(q) & prefix  # the x are lowered inside the prefix
                    xs = _mask([x for x, p in enumerate(lowered[key]) if below >> p & 1])
                    outside[value.window] = xs
            spread.append((xs, us))
        dsets.append(_spread(spread, size))
    up = order._up_rows()
    esets = []
    for x in range(size):
        values = _hecke_values(order, right, x, up=False)  # each no longer than x
        esets.append(_spread([(up[q], us) for q, us in groups(values)], size))
    return dsets, esets


def _flip_images(order: _BallOrder, c: int) -> dict[int, int]:
    """The interval flip x -> z x^-1 (`affine.flip`) at positions, for z the
    element at c and every x <=_L z, keyed by the position of x.

    z maps to e.  For x = s_i x' with x' <=_L z longer than x,
    z x^-1 = (z x'^-1) s_i, one right step from the image of x'; the
    interval is taken longest first, so x' has its image already.
    """
    left, right = order.left, order.right
    left_row = order.row("left-down", c)
    images = {c: 0}  # z is the longest, and last, element of its interval
    for x in reversed(_positions(left_row)[:-1]):
        steps = enumerate(left[x] or order.fill_left(x))
        i, t = next((i, t) for i, t in steps if t > x and left_row >> t & 1)
        y = images[t]
        images[x] = (right[y] or order.fill_right(y))[i]
    return images


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
