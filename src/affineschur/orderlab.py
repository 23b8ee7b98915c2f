"""Structure of weak strips and fibers of the Demazure action.

For a fixed u, the families of index sets A with d_A u >=_L u (the plus
side) and with d_A^{-1} u <=_L u (the minus side) are closed under
intersection, and under union as long as the union stays proper.  The
fiber of the Demazure action of d_A over u is labelled by subsets of A
and always forms a full interval in the boolean lattice.

Each family is grown from the empty set one residue at a time
(`affine.left_growth`): the plus family by adding run tops, the minus
family and the fiber labels by adding run bottoms, each child decided by
one generator step on its parent's window, so a branch ends at its first
step of the wrong direction and no subset outside the family is tried.
The closure of a family is decided by bitset transforms over all 2^(k+1)
residue masks.  The subset scan `oracles.z_sets_by_scan`, the pair scan
and the products are the test oracles in `oracles`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .affine import (
    AffinePermutation,
    IndexSet,
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


def _closure_gaps(masks: list[int], n: int) -> tuple[int, int]:
    """Bitsets over the 2^n residue masks: the masks that the family would
    need for closure under intersection and under proper union but lacks.

    Bit m of an int stands for the residue mask m.  The intersection of the
    members above m is m exactly when some member lies above m and, for
    each residue outside m, some member above m avoids it: the superset-AND
    transform, taken one residue at a time as shifts of whole bitsets.
    Dually the union of the members below m is m exactly when each residue
    of m lies in some member below m (the subset-OR transform).  A family
    is closed iff no such m is missing from it; the empty mask and the full
    one are exempt from the union side, as they are no proper union.
    """
    size = 1 << n
    everything = (1 << size) - 1
    fam = 0
    for m in masks:
        fam |= 1 << m
    has = []  # has[i]: the masks holding residue i
    for i in range(n):
        block = 1 << i
        pattern, width = ((1 << block) - 1) << block, 2 * block
        while width < size:
            pattern |= pattern << width
            width *= 2
        has.append(pattern)

    def below(bits: int) -> int:  # every subset of a member
        for i in range(n):
            bits |= (bits & has[i]) >> (1 << i)
        return bits

    def above(bits: int) -> int:  # every superset of a member
        for i in range(n):
            bits |= (bits & ~has[i]) << (1 << i)
        return bits

    meets = below(fam)
    joins = everything & ~1 & ~(1 << (size - 1))
    for i in range(n):
        meets &= below(fam & ~has[i]) | has[i]
        joins &= above(fam & has[i]) | (everything & ~has[i])
    return meets & ~fam, joins & ~fam


def _assert_family_closure(name: str, fam: frozenset[frozenset[int]], k: int) -> None:
    """Every pairwise intersection, and every proper union, is in the family.

    Decided by `_closure_gaps` in O((k+1)^2) bitset operations; only a
    broken family pays for the pair scan, `oracles.closure_failure_by_pairs`,
    which names the first failing pair.
    """
    masks = [sum(1 << i for i in A) for A in fam]
    if _closure_gaps(masks, k + 1) != (0, 0):
        raise RuntimeError(
            closure_failure_by_pairs(name, fam, k)
            or f"{name}: closure transforms disagree with the pair scan"
        )


def _has_maximum(fam: frozenset[frozenset[int]]) -> bool:
    union = frozenset().union(*fam) if fam else frozenset()
    return union in fam


@dataclass(frozen=True)
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

    u: AffinePermutation
    plus: frozenset[frozenset[int]]
    minus: frozenset[frozenset[int]]
    plus_grassmannian: frozenset[frozenset[int]] | None

    def __post_init__(self):
        k = self.u.k
        _assert_family_closure("plus", self.plus, k)
        _assert_family_closure("minus", self.minus, k)
        if not _has_maximum(self.minus):
            raise RuntimeError(f"minus family of {self.u!r} has no maximum")
        if frozenset().union(*self.plus) != frozenset(range(k + 1)):
            if not _has_maximum(self.plus):
                raise RuntimeError(f"plus family of {self.u!r} has no maximum")
        if self.plus_grassmannian is not None:
            _assert_family_closure("plus_grassmannian", self.plus_grassmannian, k)
            if not _has_maximum(self.plus_grassmannian):
                raise RuntimeError(
                    f"grassmannian plus family of {self.u!r} has no maximum"
                )

    def as_dict(self) -> dict:
        """Each family as sorted member lists, by size and then lexicographically."""
        out = {"u": self.u.as_dict()}
        for which in ("plus", "minus", "plus_grassmannian"):
            fam = getattr(self, which)
            if fam is not None:
                out[which] = sorted(map(sorted, fam), key=lambda a: (len(a), a))
        return out


def z_sets(u: AffinePermutation) -> ZSets:
    """Grow the three families from the empty set.

    The plus family adds run tops while each step raises the length, the
    minus family adds run bottoms while each step lowers it; the
    Grassmannian plus family keeps the plus members whose window is
    increasing.
    """
    k = u.k
    plus = left_growth(u.window, "ascent", k)
    minus = left_growth(u.window, "descent", k)
    plus_g = None
    if u.is_grassmannian():
        plus_g = frozenset(
            A
            for level in plus
            for A, win, _ in level
            if all(x < y for x, y in zip(win, win[1:]))
        )
    return ZSets(
        u,
        frozenset(A for level in plus for A, _, _ in level),
        frozenset(A for level in minus for A, _, _ in level),
        plus_g,
    )


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


@dataclass(frozen=True)
class Fiber:
    """Fiber of the Demazure action of d_A over u, stored by subset labels.

    members holds the B with d_A * (d_B^{-1} u) = u; the element behind a
    label is d_B^{-1} u.  A nonempty fiber is a full boolean interval
    [intersection of members, A], which is asserted on construction.
    """

    A: IndexSet
    u: AffinePermutation
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        amem = self.A.members
        if any(not B <= amem for B in self.members):
            raise RuntimeError(f"fiber labels {self.members} escape {self.A!r}")
        if self.members:
            bottom = frozenset.intersection(*self.members)
            interval = {
                bottom | frozenset(extra)
                for r in range(len(amem - bottom) + 1)
                for extra in itertools.combinations(sorted(amem - bottom), r)
            }
            if self.members != frozenset(interval):
                raise RuntimeError(
                    f"fiber over {self.u!r} with A={self.A!r} is not the "
                    f"interval [{sorted(bottom)}, {sorted(amem)}]"
                )

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
    for members in (A for level in left_growth(u.window, "descent", u.k) for A, _, _ in level):
        A = IndexSet._trusted(u.k, members)
        for B in fiber_X(A, u).members:
            v = _below(IndexSet._trusted(u.k, B), u)
            if w is not None and not bruhat_leq(v, w):
                continue
            sign = (-1) ** (len(A) - (u.length - v.length))
            rows.append((v, A, sign))
    rows.sort(key=lambda r: (len(r[1]), r[1].sorted(), r[0].length, r[0].window))
    return rows
