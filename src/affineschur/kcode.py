"""Cyclically decreasing elements and canonical k-code decompositions.

A k-code assigns a column height to each residue in {0, ..., k}, with at
least one empty column.  Reading the rows of its bottom-justified cylinder
diagram (residue of a box in column i, row j being i-j for the decreasing
convention, j-i for the increasing one) gives the unique maximal
decomposition of an affine permutation into cyclically decreasing
(respectively increasing) factors.

Both codes are the affine inversion tables of the window (Bjorner-Brenti,
"Affine permutations of type A", Electron. J. Combin. 3 (1996); Combinatorics
of Coxeter Groups, GTM 231, section 8.3).  With n = k+1 and j ranging over
all integers,

    rd(w).values[m] = #{j < p : w(j) > w(p)}   for p = m+1,
    ri(w).values[m] = #{j > p : w(j) < w(p)}   for p in 1..n, p = -m (mod n),

so both are read off the window in O(n^2) integer operations.  The greedy
decomposition that strips maximal rows is kept as a test oracle,
`oracles.kcode_by_stripping`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from .affine import (
    AffinePermutation,
    IndexSet,
    _frozen,
    identity,
    inverse,
    left_action,
    mul,
)
from .partitions import KBoundedPartition

__all__ = [
    "KCode",
    "cyclically_decreasing_word",
    "d_elem",
    "d_steps",
    "d_inverse_steps",
    "u_elem",
    "rd",
    "ri",
    "sh",
    "code_rows",
    "eval_code",
    "first_row",
]


class KCode:
    """Column heights indexed by the residues 0..k; at least one is zero."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: Iterable[int]):
        values = tuple(int(v) for v in values)
        if len(values) != k + 1:
            raise ValueError(f"need {k + 1} values, got {values}")
        if any(v < 0 for v in values):
            raise ValueError(f"negative column height in {values}")
        if 0 not in values:
            raise ValueError(f"a k-code needs an empty column: {values}")
        _set_code_k(self, k)
        _set_values(self, values)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.values) == (other.k, other.values)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.values))

    @property
    def size(self) -> int:
        return sum(self.values)

    def contains(self, other: "KCode") -> bool:
        return all(a >= b for a, b in zip(self.values, other.values))

    def __repr__(self):
        return f"KCode(k={self.k}, values={self.values})"

    def as_dict(self) -> dict:
        return {"k": self.k, "values": list(self.values)}


_set_code_k, _set_values = KCode.k.__set__, KCode.values.__set__


def cyclically_decreasing_word(A: IndexSet) -> tuple[int, ...]:
    """One cyclically decreasing word for A: each cyclic run read downward.

    The runs of consecutive residues in A commute with each other, so any
    concatenation order gives the same group element; runs are emitted in
    the order they are met walking up from just past a missing residue.
    """
    if not A.members:
        return ()
    n = A.k + 1
    start = next(i for i in range(n) if i not in A.members)
    word: list[int] = []
    run: list[int] = []
    for step in range(1, n + 1):
        i = (start + step) % n
        if i in A.members:
            run.append(i)
        elif run:
            word.extend(reversed(run))
            run = []
    return tuple(word)


class _DWord:
    """The letters of d_A, and d_A itself once it is first asked for: the
    strip, Z-set and fiber steps read only the letters."""

    __slots__ = ("k", "steps", "word", "_elem")

    def __init__(self, k: int, word: tuple[int, ...]):
        self.k = k
        self.word = word
        self.steps = word[::-1]
        self._elem = None

    def elem(self) -> AffinePermutation:
        if self._elem is None:
            self._elem = left_action(identity(self.k), self.steps)
        return self._elem


@functools.lru_cache(maxsize=None)
def _d_from_frozen(k: int, members: frozenset[int]) -> _DWord:
    """The cyclically decreasing word of A, memoised with d_A (see `d_steps`)."""
    return _DWord(k, cyclically_decreasing_word(IndexSet._trusted(k, members)))


def d_elem(A: IndexSet) -> AffinePermutation:
    """Cyclically decreasing element d_A; its length is |A|."""
    return _d_from_frozen(A.k, A.members).elem()


def d_steps(A: IndexSet) -> tuple[int, ...]:
    """Letters with `left_action(w, d_steps(A))` equal to d_A w.

    The cyclically decreasing word of A read backwards, its rightmost
    letter acting first; kept in the memo of `d_elem`.
    """
    return _d_from_frozen(A.k, A.members).steps


def d_inverse_steps(A: IndexSet) -> tuple[int, ...]:
    """Letters with `left_action(w, d_inverse_steps(A))` equal to d_A^{-1} w:
    the cyclically decreasing word of A itself."""
    return _d_from_frozen(A.k, A.members).word


def u_elem(A: IndexSet) -> AffinePermutation:
    """Cyclically increasing element u_A, the inverse of d_A."""
    return inverse(d_elem(A))


def rd(w: AffinePermutation) -> KCode:
    """k-code of the maximal decomposition into cyclically decreasing factors.

    Column m counts the integers j < p with w(j) > w(p), for p = m+1.  For
    0-based window positions p, q the translates j = q+1+tn qualify when
    t <= -[q >= p] and t > (w(p+1) - w(q+1))/n, so there are
    max(0, -floor((w(p+1) - w(q+1))/n) - [q >= p]) of them.
    """
    n = w.k + 1
    win = w.window
    return KCode(
        w.k,
        tuple(
            sum(max(0, -((wp - wq) // n) - (q >= p)) for q, wq in enumerate(win))
            for p, wp in enumerate(win)
        ),
    )


def ri(w: AffinePermutation) -> KCode:
    """k-code of the maximal decomposition into cyclically increasing factors.

    Column m counts the integers j > p with w(j) < w(p), for the p in 1..n
    with p = -m (mod n), that is 0-based window position n-1-m.  Mirroring
    the count of `rd`, window position q gives
    max(0, -floor((w(q+1) - w(p+1))/n) - [q <= p]) translates for 0-based p.
    """
    n = w.k + 1
    win = w.window
    later = [
        sum(max(0, -((wq - wp) // n) - (q <= p)) for q, wq in enumerate(win))
        for p, wp in enumerate(win)
    ]
    return KCode(w.k, tuple(reversed(later)))


def code_rows(code: KCode, increasing: bool = False) -> list[IndexSet]:
    """Residue sets of the diagram rows, bottom row first; a row misses the
    residue of every empty column, so each set is proper."""
    n = code.k + 1
    rows = []
    for j in range(max(code.values, default=0)):
        residues = frozenset(
            ((i - j) if not increasing else (j - i)) % n
            for i in range(n)
            if code.values[i] > j
        )
        rows.append(IndexSet._trusted(code.k, residues))
    return rows


def eval_code(code: KCode, increasing: bool = False) -> AffinePermutation:
    """Product of the row elements, top row leftmost."""
    w = identity(code.k)
    for row in reversed(code_rows(code, increasing)):
        x = u_elem(row) if increasing else d_elem(row)
        w = mul(w, x)
    return w


def first_row(code: KCode, increasing: bool = False) -> frozenset[int]:
    """Residues of the bottom row of the diagram."""
    rows = code_rows(code, increasing)
    return rows[0].members if rows else frozenset()


def sh(code: KCode) -> KBoundedPartition:
    """Column-count shape: part j counts columns of height at least j.

    A k-code has an empty column among its k+1, so every part is at most k
    and the shape is trusted.
    """
    return _column_shape(code.k, code.values)


def _column_shape(k: int, heights: tuple[int, ...] | list[int]) -> KBoundedPartition:
    """Part j counts the heights of at least j, the conjugate of the sorted
    heights; `sh` without the `KCode`."""
    desc = sorted(heights, reverse=True)
    parts = []
    count = len(desc)
    for j in range(1, (desc[0] if desc else 0) + 1):
        while desc[count - 1] < j:
            count -= 1
        parts.append(count)
    return KBoundedPartition._trusted(k, tuple(parts))
