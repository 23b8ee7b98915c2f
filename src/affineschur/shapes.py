"""Bijections between bounded partitions, cores and Grassmannian elements.

The three incarnations of the same object: a k-bounded partition, its
(k+1)-core, and the 0-dominant affine permutation whose residue reading
word builds it; each conversion has one route, and the residue-action walk
is its oracle.  Also: the residue action on cores, the k-transpose, weak
and set-valued strips, and the index-rotation automorphism.

Strips never multiply by d_A: its cyclically decreasing letters act on the
window one generator step at a time (`affine.left_action`), so a weak strip
is a run of steps that only go up, and a set-valued strip is the Demazure
run that skips the steps going down (Lam-Lapointe-Morse-Shimozono, "Affine
insertion and Pieri rules for the affine Grassmannian", Mem. AMS 2010).
Both kinds are grown one run top at a time (`affine.left_growth`): weak
strips from w_lam w_0, where 0-dominance of the top turns into plain
length-additivity, and set-valued strips from w_lam by Demazure steps, a
branch ending at its first non-Grassmannian product.  So only genuine
strips, and their run-top parents, are visited, and a weak strip carries
its top, read off its window.  One weak growth of a partition is a value,
`StripGrowth`: it holds the strips of every size up to its level and the
top of any intersection of them, so the Pieri forms and the sweeps grow
each partition once for all sizes.  Its readers read a size as one table
from index set to top, `StripGrowth.tops(r)`, or all sizes as one table
to d_A w_lam, `perms()`; only `weak_strips` builds `WeakStrip` values.
The subset scans, `strip_top` and the full products `oracles.d_mul` and
`oracles.d_demazure` are the test oracles.
"""

from __future__ import annotations

import bisect
import functools

from .affine import (
    AffinePermutation,
    IndexSet,
    _frozen,
    from_word,
    left_action,
    left_growth,
    longest_finite_element,
    mul,
)
from .kcode import _column_shape, d_elem, d_steps
from .partitions import CorePartition, KBoundedPartition, conjugate

__all__ = [
    "WeakStrip",
    "StripGrowth",
    "reading_word",
    "core_to_bounded",
    "bounded_to_core",
    "bounded_to_perm",
    "core_action",
    "perm_to_bounded",
    "k_transpose",
    "is_weak_strip",
    "is_weak_strip_parabolic",
    "weak_strips",
    "strip_top",
    "setvalued_strips",
]


def core_to_bounded(kappa: CorePartition) -> KBoundedPartition:
    """Row i of the bounded partition counts cells of hook length <= k."""
    k = kappa.k
    conj = conjugate(kappa.parts)
    rows = []
    for i, p in enumerate(kappa.parts):
        rows.append(sum(1 for j in range(p) if (p - j) + (conj[j] - i) - 1 <= k))
    return KBoundedPartition(k, tuple(rows))


def _residue(k: int, row: int, col: int) -> int:
    """Residue of the cell in 1-indexed (row, col)."""
    return (col - row) % (k + 1)


def core_action(i: int, kappa: CorePartition) -> CorePartition:
    """Add every addable corner of residue i, or else remove every removable one."""
    k = kappa.k
    if not 0 <= i <= k:
        raise ValueError(f"residue {i} out of range 0..{k}")
    parts = list(kappa.parts)
    nrows = len(parts)
    addable = []
    for r in range(1, nrows + 2):
        c = (parts[r - 1] if r <= nrows else 0) + 1
        if r > 1 and (parts[r - 2] if r - 1 <= nrows else 0) < c:
            continue
        if _residue(k, r, c) == i:
            addable.append(r)
    removable = []
    for r in range(1, nrows + 1):
        c = parts[r - 1]
        if r < nrows and parts[r] == c:
            continue
        if _residue(k, r, c) == i:
            removable.append(r)
    if addable and removable:
        raise RuntimeError(f"core {kappa!r} has residue-{i} corners of both kinds")
    if addable:
        for r in addable:
            if r <= nrows:
                parts[r - 1] += 1
            else:
                parts.append(1)
    elif removable:
        for r in removable:
            parts[r - 1] -= 1
        while parts and parts[-1] == 0:
            parts.pop()
    return CorePartition(k, tuple(parts))


def reading_word(lam: KBoundedPartition) -> tuple[int, ...]:
    """Residue reading word: shortest row first, right to left in each row."""
    k = lam.k
    word = []
    for r in range(len(lam.parts), 0, -1):
        for c in range(lam.parts[r - 1], 0, -1):
            word.append(_residue(k, r, c))
    return tuple(word)


@functools.lru_cache(maxsize=None)
def bounded_to_perm(lam: KBoundedPartition) -> AffinePermutation:
    """Evaluate the residue reading word; the result is 0-dominant."""
    w = from_word(lam.k, reading_word(lam))
    if w.length != lam.size:
        raise RuntimeError(f"reading word of {lam!r} is not reduced")
    return w


def perm_to_bounded(w: AffinePermutation) -> KBoundedPartition:
    """The shape of the decreasing k-code: the rows of lam are the cyclically
    decreasing factors of its reading word (Lapointe–Morse, JCTA 2005).

    Checks that w is Grassmannian and reads the shape off its window by the
    memo `_window_shape`.  Test oracles: `sh(rd(w))` and
    `oracles.core_by_residue_action`."""
    if not w.is_grassmannian():
        raise ValueError(f"{w!r} is not affine Grassmannian")
    return _window_shape(w.k, w.window)


@functools.lru_cache(maxsize=None)
def _window_shape(k: int, window: tuple[int, ...]) -> KBoundedPartition:
    """The shape of the Grassmannian element with this increasing window,
    memoised by (k, window), so a lookup hashes a tuple of ints and builds
    no permutation; the strip readers hand it their grown windows.

    The window is increasing, so in the count of `kcode.rd` no earlier
    window position contributes to column p, and a later one q contributes
    (w(q) - w(p)) // n.  With w(q) = n a_q + r_q, 0 <= r_q < n, that is
    a_q - a_p - [r_q < r_p], so one right-to-left pass sums the a_q of the
    later positions and counts, by bisection in their sorted residues,
    those below r_p."""
    n = k + 1
    heights = []  # in reverse order, which the shape does not see
    residues: list[int] = []  # of the later positions, sorted
    total = 0  # the a_q of the later positions
    for later, x in enumerate(reversed(window)):
        a, r = divmod(x, n)
        i = bisect.bisect_left(residues, r)
        heights.append(total - later * a - i)
        residues.insert(i, r)
        total += a
    return _column_shape(k, heights)


def _slide_row(heights: list[int], p: int, k: int) -> int:
    """Length of the core row of a part p slid onto the rows placed so far.

    `heights` counts the cells per column of those rows.  The row is
    shifted right by the least s with p + heights[s] <= k, so its length
    s + p grows strictly with p.
    """
    s = 0
    while s < len(heights) and p + heights[s] > k:
        s += 1
    return s + p


def _stack_row(heights: list[int], length: int) -> list[int]:
    """Cells per column once a core row of `length` cells lies on top; a
    core row is at least as long as every row below it."""
    return [h + 1 for h in heights] + [1] * (length - len(heights))


def _core_rows(lam: KBoundedPartition) -> tuple[int, ...]:
    """Rows of the (k+1)-core of lam, by row sliding (see `bounded_to_core`)."""
    heights: list[int] = []
    rows = []
    for p in reversed(lam.parts):
        length = _slide_row(heights, p, lam.k)
        heights = _stack_row(heights, length)
        rows.append(length)
    return tuple(reversed(rows))


def bounded_to_core(lam: KBoundedPartition) -> CorePartition:
    """The (k+1)-core of lam, by Lapointe–Morse row sliding.

    Rows are placed bottom-up.  Row i is shifted right by the least s with
    lam_i + (height of the rows below at column s+1) <= k, which is the
    hook length of its cell in column s+1, and the core row is s + lam_i
    long (Lapointe–Morse, "Tableaux on k+1-cores, reduced words for affine
    permutations, and k-Schur expansions", JCTA 2005).  The tests replay it
    against `oracles.core_by_residue_action`; the result goes through the
    validating `CorePartition` constructor.
    """
    return CorePartition(lam.k, _core_rows(lam))


def k_transpose(lam: KBoundedPartition) -> KBoundedPartition:
    """Conjugate the core and come back; an involution on bounded partitions."""
    return core_to_bounded(bounded_to_core(lam).conjugate())


class WeakStrip:
    """A weak strip: top = d_A . base with the length increasing by |A|."""

    __slots__ = ("base", "indices", "top")

    def __init__(self, base: KBoundedPartition, indices: IndexSet, top: KBoundedPartition):
        if not is_weak_strip(base, indices):
            raise ValueError(f"{indices!r} is not a weak strip over {base!r}")
        if strip_top(base, indices) != top:
            raise ValueError(f"top {top!r} does not match d_A . {base!r}")
        _set_base(self, base)
        _set_indices(self, indices)
        _set_top(self, top)

    @classmethod
    def _trusted(
        cls, base: KBoundedPartition, indices: IndexSet, top: KBoundedPartition
    ) -> "WeakStrip":
        """Wrap a strip that `StripGrowth` grew, with the top read off its
        window; nothing is re-checked."""
        strip = object.__new__(cls)
        _set_base(strip, base)
        _set_indices(strip, indices)
        _set_top(strip, top)
        return strip

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.indices, self.top) == (other.base, other.indices, other.top)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.indices, self.top))

    def __repr__(self):
        return f"WeakStrip(base={self.base!r}, indices={self.indices!r}, top={self.top!r})"

    @property
    def size(self) -> int:
        return len(self.indices)

    @classmethod
    def build(cls, base: KBoundedPartition, indices: IndexSet) -> "WeakStrip":
        return cls(base, indices, strip_top(base, indices))

    def as_dict(self) -> dict:
        return {
            "base": self.base.as_dict(),
            "A": list(self.indices.sorted()),
            "top": self.top.as_dict(),
        }


_set_base, _set_indices, _set_top = (
    WeakStrip.base.__set__, WeakStrip.indices.__set__, WeakStrip.top.__set__
)


def is_weak_strip(lam: KBoundedPartition, A: IndexSet) -> bool:
    """d_A w_lam is a weak strip top iff it is length-additive and 0-dominant.

    Length-additivity is decided step by step: the letters of d_A act on
    w_lam from the right end of its word, and the first step that lowers
    the length ends the test.
    """
    if lam.k != A.k:
        raise ValueError(f"rank mismatch: k={lam.k} vs k={A.k}")
    v = left_action(bounded_to_perm(lam), d_steps(A), "ascent")
    return v is not None and v.is_grassmannian()


def is_weak_strip_parabolic(lam: KBoundedPartition, A: IndexSet) -> bool:
    """Same predicate through the longest finite element: d_A (w w0) >=_L w w0.

    Multiplying by the longest element of the finite subgroup turns the
    0-dominance condition into plain length-additivity; kept alongside the
    descent test as a cross-check of the two characterizations.
    """
    if lam.k != A.k:
        raise ValueError(f"rank mismatch: k={lam.k} vs k={A.k}")
    wJ = mul(bounded_to_perm(lam), longest_finite_element(lam.k))
    return mul(d_elem(A), wJ).length == wJ.length + len(A)


class StripGrowth:
    """The weak strips over lam of every size up to `size`, from one growth.

    Grown from w_lam w_0 with every step going up (see
    `is_weak_strip_parabolic`).  w_lam is 0-dominant, so w_lam w_0 is its
    window reversed, and no product is made; the grown window reversed is
    that of the top d_A w_lam, of length |lam| + |A|.  A top is read off
    that window by `_window_shape`, with no permutation built, on first
    use and kept, so a size reads only its own level,
    and no top is read twice, whether for a strip or for an intersection.
    The grown strips are read as tables keyed by index set: `tops(r)`, to
    the top partition, and `perms()`, to d_A w_lam for every size at once.
    """

    __slots__ = ("lam", "_levels", "_windows", "_tops")

    def __init__(self, lam: KBoundedPartition, size: int):
        if not 0 <= size <= lam.k:
            raise ValueError(f"need 0 <= r <= k, got r={size}, k={lam.k}")
        self.lam = lam
        self._levels = left_growth(bounded_to_perm(lam).window[::-1], "ascent", size)
        # every grown set's window, gathered on the first top asked for by set
        self._windows: dict[frozenset[int], list[int]] | None = None
        self._tops: dict[frozenset[int], KBoundedPartition] = {}

    def tops(self, r: int) -> dict[frozenset[int], KBoundedPartition]:
        """Index set -> top for every weak strip of size r over lam, in no
        order: a new table, whose tops the growth keeps for later reads."""
        table, tops = {}, self._tops
        for A, win, _ in self._levels[r]:
            top = tops.get(A)
            table[A] = self._read_top(A, win) if top is None else top
        return table

    def perms(self) -> dict[frozenset[int], AffinePermutation]:
        """Index set -> d_A w_lam for every weak strip over lam of size up to
        the level, the sizes in ascending order: a new table, each top the
        grown window reversed, of length |lam| + |A|, with no top read."""
        return {A: self._perm(A, win) for level in self._levels for A, win, _ in level}

    def sets(self, r: int) -> list[frozenset[int]]:
        """The index sets of the size-r strips, in no order."""
        return [A for A, _, _ in self._levels[r]]

    def top(self, A: frozenset[int]) -> KBoundedPartition:
        """Top of the strip with index set A; KeyError if A is no strip of
        size up to the level."""
        top = self._tops.get(A)
        if top is None:
            if self._windows is None:
                self._windows = {B: win for level in self._levels for B, win, _ in level}
            top = self._read_top(A, self._windows[A])
        return top

    def _perm(self, A: frozenset[int], win: list[int]) -> AffinePermutation:
        lam = self.lam
        return AffinePermutation._trusted(lam.k, tuple(win[::-1]), lam.size + len(A))

    def _read_top(self, A: frozenset[int], win: list[int]) -> KBoundedPartition:
        top = self._tops[A] = _window_shape(self.lam.k, tuple(win[::-1]))
        return top


def weak_strips(lam: KBoundedPartition, r: int) -> list[WeakStrip]:
    """All weak strips of size r over lam, sorted by index set: the table
    `tops(r)` of a `StripGrowth` up to r, as `WeakStrip`s."""
    table = StripGrowth(lam, r).tops(r)
    return [
        WeakStrip._trusted(lam, IndexSet._trusted(lam.k, A), table[A])
        for A in sorted(table, key=sorted)
    ]


def strip_top(lam: KBoundedPartition, A: IndexSet) -> KBoundedPartition:
    """Bounded partition of d_A . lam (caller guarantees a genuine strip);
    the check of `WeakStrip` and the tests' oracle of the grown tops."""
    return perm_to_bounded(left_action(bounded_to_perm(lam), d_steps(A)))


def setvalued_strips(
    w: AffinePermutation, r: int
) -> list[tuple[IndexSet, AffinePermutation]]:
    """All (A, d_A * w) with |A| = r and Grassmannian Demazure product.

    The same product may appear under several A; pairs are kept separate
    because the Pieri signs depend on |A| and on the length of the product.
    Grown by Demazure steps from w (the "max" mode of `left_growth`), which
    also carries the length: one more per step that goes up.
    """
    if not w.is_grassmannian():
        raise ValueError(f"{w!r} is not affine Grassmannian")
    k = w.k
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    out = [
        (IndexSet._trusted(k, A), AffinePermutation._trusted(k, tuple(win), w.length + dl))
        for A, win, dl in left_growth(w.window, "max", r)[r]
    ]
    return sorted(out, key=lambda av: av[0].sorted())
