"""Structure of weak strips and fibers of the Demazure action.

For a fixed u, the families of index sets A with d_A u >=_L u (the plus
side) and with d_A^{-1} u <=_L u (the minus side) are closed under
intersection, and under union as long as the union stays proper.  The
fiber of the Demazure action of d_A over u is labelled by subsets of A
and always forms a full interval in the boolean lattice.

The plus and minus families and the weak-strip labels are read off a few
limits per residue, computed once from the window of u (the run lemma of
`z_sets`), and enumerated run by run, so no subset outside a family is
tried and no window is stepped.  The fiber labels are grown from the
empty set one residue at a time (`affine.left_growth`), adding run
bottoms, each child decided by one generator step on its parent's window.
The closure of a family is decided by bitset transforms over all 2^(k+1)
residue masks.  The subset scan `oracles.z_sets_by_scan`, the pair scan
and the products are the test oracles in `oracles`.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .affine import (
    AffinePermutation,
    IndexSet,
    _frozen,
    bruhat_leq,
    inverse,
    left_action,
    left_growth,
    meet_LS,
    mul,
    reduced_word,
)
from .kcode import d_elem, d_inverse_steps, d_steps, first_row, ri
from .oracles import closure_failure_by_pairs
from .partitions import KBoundedPartition
from .shapes import bounded_to_core

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
]


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


def _bitset(fam: frozenset[frozenset[int]]) -> int:
    """The family as a bitset over residue masks."""
    bits = 0
    for A in fam:
        bits |= 1 << sum(1 << i for i in A)
    return bits


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


def _family_fault(
    u: AffinePermutation,
    families: tuple[frozenset[frozenset[int]], ...],
    bitsets: tuple[int, ...],
) -> str | None:
    """The first assertion of `ZSets` that its families fail, or None.

    families are plus, minus and, when it is present, the Grassmannian plus
    family; bitsets holds the same families by `_bitset`.  Each family is
    closed under intersection and proper union, decided by `_closure_gaps`
    in O((k+1)^2) bitset operations; only a broken family pays for the pair
    scan, `oracles.closure_failure_by_pairs`, which names the first failing
    pair.  Minus and Grassmannian plus have a maximum, the union of their
    members; plus has one unless its members cover every residue.  The
    union holds residue i iff the family meets has[i].
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
                return closure_failure_by_pairs(name, families[i], k) or (
                    f"{name}: closure transforms disagree with the pair scan"
                )
            continue
        union = sum(1 << r for r, pattern in enumerate(has) if bitsets[i] & pattern)
        if not bitsets[i] >> union & 1 and (i or union != (1 << (k + 1)) - 1):
            return f"{title} of {u!r} has no maximum"
    return None


class ZSets:
    """The index-set families attached to u.

    plus: A with d_A u >=_L u.  minus: A with d_A^{-1} u <=_L u.
    plus_grassmannian: weak-strip labels, i.e. plus with a 0-dominant top
    (only populated when u itself is 0-dominant).  Intersection/union
    closure is asserted on construction; the minus family and the
    Grassmannian plus family also carry a unique maximum.  The bare plus
    family has one exactly when the union of its members stays proper
    (near the identity it does not: every proper subset qualifies).
    """

    __slots__ = ("u", "plus", "minus", "plus_grassmannian")

    def __init__(self, u, plus, minus, plus_grassmannian):
        families = (plus, minus, plus_grassmannian)
        if plus_grassmannian is None:
            families = families[:2]
        fault = _family_fault(u, families, tuple(map(_bitset, families)))
        if fault is not None:
            raise RuntimeError(fault)
        _set_u(self, u)
        _set_plus(self, plus)
        _set_minus(self, minus)
        _set_plus_g(self, plus_grassmannian)

    @classmethod
    def _trusted(cls, u, plus, minus, plus_grassmannian) -> "ZSets":
        """Wrap families whose assertions `z_sets` has run on their bitsets."""
        zs = object.__new__(cls)
        _set_u(zs, u)
        _set_plus(zs, plus)
        _set_minus(zs, minus)
        _set_plus_g(zs, plus_grassmannian)
        return zs

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.u, self.plus, self.minus, self.plus_grassmannian) == (
                other.u, other.plus, other.minus, other.plus_grassmannian)
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.plus, self.minus, self.plus_grassmannian))

    def __repr__(self):
        return (f"ZSets(u={self.u!r}, plus={self.plus!r}, minus={self.minus!r}, "
                f"plus_grassmannian={self.plus_grassmannian!r})")

    def as_dict(self) -> dict:
        """Each family as sorted member lists, by size and then lexicographically."""
        out = {"u": self.u.as_dict()}
        for which in ("plus", "minus", "plus_grassmannian"):
            fam = getattr(self, which)
            if fam is not None:
                members = sorted(map(sorted, fam))
                members.sort(key=len)  # stable, so lexicographic within a size
                out[which] = members
        return out


_set_u, _set_plus, _set_minus, _set_plus_g = (
    ZSets.u.__set__, ZSets.plus.__set__, ZSets.minus.__set__, ZSets.plus_grassmannian.__set__
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


def _run_family(limits: list[int], reflected: bool = False) -> tuple[int, list[frozenset[int]]]:
    """The proper subsets of the residues 0..n-1 whose every maximal cyclic
    run [b, b+L-1] has L <= limits[b], as a bitset over residue masks and
    as a list of members; reflected, the mirror images r -> n-1-r of those
    subsets, whose every run [t-L+1, t] has L <= limits[n-1-t].

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
    runs = []  # runs[b]: (length, mask, members) of each run allowed at b
    for b, limit in enumerate(limits):
        row, mask, members = [], 0, ()
        for d in range(limit):
            r = (n - 1 - b - d if reflected else b + d) % n
            mask |= 1 << r
            members += (r,)
            row.append((d + 1, mask, frozenset(members)))
        runs.append(row)
    empty = (1, [frozenset()])
    bits, sets = 0, []
    for b in range(1, 1 - n, -1):
        # b = 1: residue 0 is missed; b <= 0: the run through 0 starts at b
        # (runs[b] is runs[b % n]), and its shortest comes first
        if b == 1:
            heads = [(0, None, 1)]
        else:
            heads = [(m, f, b + L + 1) for L, m, f in runs[b][-b:]]
            if not heads:
                continue
        j = b + n - 2  # the line ends before the gap at b-1
        tails = [empty] * (j + 3)
        for i in range(j, heads[0][2] - 1, -1):
            tail_bits, tail_sets = tails[i + 1]
            for L, rm, rf in runs[i][: j + 1 - i]:
                rest_bits, rest_sets = tails[i + L + 1]
                tail_bits |= rest_bits << rm
                tail_sets = tail_sets + [rf | f for f in rest_sets]
            tails[i] = tail_bits, tail_sets
        for hm, hf, start in heads:
            rest_bits, rest_sets = tails[start]
            bits |= rest_bits << hm
            sets += rest_sets if hf is None else [hf | f for f in rest_sets]
    return bits, sets


def _minus_family(key: list[int]) -> tuple[int, list[frozenset[int]]]:
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
    enumeration builds beside the members.
    """
    key, pos = _run_keys(u)
    up = _plus_limits(key)
    found = [_run_family(up), _minus_family(key)]
    if u.is_grassmannian():
        found.append(_run_family(_grassmannian_limits(up, pos, u.window)))
    families = tuple(frozenset(sets) for _, sets in found)
    fault = _family_fault(u, families, tuple(bits for bits, _ in found))
    if fault is not None:
        raise RuntimeError(fault)
    plus_g = families[2] if len(families) == 3 else None
    return ZSets._trusted(u, families[0], families[1], plus_g)


def forbidden_index(lam: KBoundedPartition) -> int:
    """The residue that never appears in a weak-strip index set over lam.

    It is the residue of the rightmost box in the first row of the core;
    the empty shape degenerates to k, matching its unique size-k strip
    d_{{0,...,k-1}} . empty.
    """
    core = bounded_to_core(lam)
    if not core.parts:
        return lam.k
    return (core.parts[0] - 1) % (lam.k + 1)


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
    _, minus = _minus_family(_run_keys(u)[0])
    for members in minus:
        A = IndexSet._trusted(u.k, members)
        for B in fiber_X(A, u).members:
            v = _below(IndexSet._trusted(u.k, B), u)
            if w is not None and not bruhat_leq(v, w):
                continue
            sign = (-1) ** (len(A) - (u.length - v.length))
            rows.append((v, A, sign))
    rows.sort(key=lambda r: (len(r[1]), r[1].sorted(), r[0].length, r[0].window))
    return rows
