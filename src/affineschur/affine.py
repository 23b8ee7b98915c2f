"""Window-notation arithmetic and order theory for the affine symmetric group.

An element w of the affine symmetric group on k+1 letters is stored as the
window (w(1), ..., w(n)) with n = k+1; it extends to a bijection of the
integers through w(i+n) = w(i)+n, and the window sums to n(n+1)/2.  All
values are immutable and hashable, every operation is a pure function, and
memo tables are pure caches, so everything here is safe to use from
concurrent sweeps.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence

__all__ = [
    "AffinePermutation",
    "IndexSet",
    "ReducedWord",
    "BallCapExceeded",
    "BALL_CAP",
    "identity",
    "from_word",
    "length",
    "mul",
    "inverse",
    "left_mul_s",
    "right_mul_s",
    "left_action",
    "left_growth",
    "LeftGrowth",
    "descents",
    "bruhat_leq",
    "weak_leq",
    "demazure",
    "psi_apply",
    "s_join_L",
    "meet_LS",
    "flip",
    "ball",
    "ball_size",
    "grassmannian_ball",
    "reduced_word",
    "longest_finite_element",
    "is_affine_reflection",
]


BALL_CAP = 1_000_000


class BallCapExceeded(RuntimeError):
    """A length-ball enumeration grew past its configured element cap."""


def _frozen(self, *_):
    """`__setattr__` and `__delattr__` of the immutable value types of the package."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class AffinePermutation:
    """Element of the affine symmetric group on k+1 letters, window notation.

    Equality and hashing use the window, which is a unique normal form;
    its size fixes k, so the hash is that of the window alone.  The public
    constructor is the validation boundary: it checks the window and
    computes the Coxeter length from the affine inversion formula
    sum_{i<j} |floor((w(j)-w(i))/n)|.  The kernel operations build their
    results through `_trusted` and carry the length forward: a generator
    step changes it by one, decided by a single comparison, an inverse
    keeps it, and a product computes it once by the formula.  Both store
    the three slots through their descriptors' setters (`_set_k`,
    `_set_window`, `_set_length`), since `__setattr__` raises.
    """

    __slots__ = ("k", "window", "length")

    def __init__(self, k: int, window: Iterable[int]):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = k + 1
        win = tuple(int(x) for x in window)
        if len(win) != n:
            raise ValueError(f"window must have {n} entries, got {win}")
        if sum(win) != n * (n + 1) // 2:
            raise ValueError(f"window {win} does not sum to {n * (n + 1) // 2}")
        if len({x % n for x in win}) != n:
            raise ValueError(f"window {win} has repeated residues mod {n}")
        _set_k(self, k)
        _set_window(self, win)
        _set_length(self, _inversion_length(win, n))

    @classmethod
    def _trusted(cls, k: int, window: tuple[int, ...], length: int) -> "AffinePermutation":
        """Wrap a window the kernel built from valid elements, with its length.

        Nothing is checked; only the operations of this module call it, and
        `orderlab.fiber_X`, `shapes.setvalued_strips`, `shapes.StripGrowth`
        and the fiber sweep of `verify` on the windows `left_growth` hands out.
        """
        w = object.__new__(cls)
        _set_k(w, k)
        _set_window(w, window)
        _set_length(w, length)
        return w

    __setattr__ = __delattr__ = _frozen

    def __call__(self, i: int) -> int:
        """Value w(i) for any integer i."""
        n = self.k + 1
        q, r = divmod(i - 1, n)
        return self.window[r] + q * n

    def __eq__(self, other):
        return isinstance(other, AffinePermutation) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        return mul(self, other)

    def __repr__(self):
        return f"AffinePermutation(k={self.k}, window={self.window})"

    def is_identity(self) -> bool:
        return self.length == 0

    def is_grassmannian(self) -> bool:
        """True when the only possible right descent is 0 (increasing window)."""
        w = self.window
        return all(w[i] < w[i + 1] for i in range(len(w) - 1))

    def inverse(self) -> "AffinePermutation":
        return inverse(self)

    def as_dict(self) -> dict:
        return {"k": self.k, "window": list(self.window)}


_set_k = AffinePermutation.k.__set__
_set_window = AffinePermutation.window.__set__
_set_length = AffinePermutation.length.__set__


class IndexSet:
    """Proper subset of the residues {0, ..., k}, labelling d_A and u_A."""

    __slots__ = ("k", "members")

    def __init__(self, k: int, members: Iterable[int]):
        members = frozenset(int(i) for i in members)
        if any(not 0 <= i <= k for i in members):
            raise ValueError(f"members {set(members)} out of range 0..{k}")
        if len(members) == k + 1:
            raise ValueError("the full residue set is not allowed")
        _set_index_k(self, k)
        _set_members(self, members)

    @classmethod
    def _trusted(cls, k: int, members: frozenset[int]) -> "IndexSet":
        """Wrap a frozenset already known to hold a proper subset of 0..k."""
        A = object.__new__(cls)
        _set_index_k(A, k)
        _set_members(A, members)
        return A

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.members) == (other.k, other.members)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.members))

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, i):
        return i in self.members

    def __iter__(self):
        return iter(self.sorted())

    def shift(self, t: int) -> "IndexSet":
        """Rotate every residue by t; a rotation of a proper subset is proper."""
        n = self.k + 1
        return IndexSet._trusted(self.k, frozenset((i + t) % n for i in self.members))

    def __repr__(self):
        return f"IndexSet(k={self.k}, {{{', '.join(map(str, self.sorted()))}}})"

    def as_dict(self) -> dict:
        return {"k": self.k, "set": list(self.sorted())}


_set_index_k, _set_members = IndexSet.k.__set__, IndexSet.members.__set__


class ReducedWord:
    """Word over {0, ..., k} whose evaluation has length equal to its size."""

    __slots__ = ("k", "letters")

    def __init__(self, k: int, letters: Iterable[int]):
        letters = tuple(int(i) for i in letters)
        if any(not 0 <= i <= k for i in letters):
            raise ValueError(f"letters {letters} out of range 0..{k}")
        if from_word(k, letters).length != len(letters):
            raise ValueError(f"word {letters} is not reduced")
        _set_word_k(self, k)
        _set_letters(self, letters)

    @classmethod
    def _trusted(cls, k: int, letters: tuple[int, ...]) -> "ReducedWord":
        """Wrap letters already known to form a reduced word; no re-evaluation."""
        rw = object.__new__(cls)
        _set_word_k(rw, k)
        _set_letters(rw, letters)
        return rw

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.letters) == (other.k, other.letters)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.letters))

    def __repr__(self):
        return f"ReducedWord(k={self.k!r}, letters={self.letters!r})"

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


_set_word_k, _set_letters = ReducedWord.k.__set__, ReducedWord.letters.__set__


def _inversion_length(win: tuple[int, ...], n: int) -> int:
    """Affine inversion formula: sum over i < j of |floor((w(j) - w(i)) / n)|."""
    ell = 0
    for i, wi in enumerate(win):
        for wj in win[i + 1 :]:
            ell += abs((wj - wi) // n)
    return ell


def _check_same_rank(u: AffinePermutation, v: AffinePermutation) -> None:
    if u.k != v.k:
        raise ValueError(f"rank mismatch: k={u.k} vs k={v.k}")


@functools.lru_cache(maxsize=None)
def identity(k: int) -> AffinePermutation:
    return AffinePermutation(k, range(1, k + 2))


def left_mul_s(w: AffinePermutation, i: int) -> AffinePermutation:
    """s_i * w: swaps the values congruent to i and i+1 mod n.

    The length goes up by one iff w^-1(i) < w^-1(i+1).  A value x = w(p)
    congruent to i gives w^-1(i) = p - (x - i), so both positions are read
    off in the same pass.
    """
    n = w.k + 1
    if not 0 <= i <= w.k:
        raise ValueError(f"letter {i} out of range 0..{w.k}")
    r1 = (i + 1) % n
    out = []
    at_i = at_i1 = 0
    for pos, x in enumerate(w.window, start=1):
        m = x % n
        if m == i:
            at_i = pos - x + i
            out.append(x + 1)
        elif m == r1:
            at_i1 = pos - x + i + 1
            out.append(x - 1)
        else:
            out.append(x)
    ell = w.length + 1 if at_i < at_i1 else w.length - 1
    return AffinePermutation._trusted(w.k, tuple(out), ell)


def right_mul_s(w: AffinePermutation, i: int) -> AffinePermutation:
    """w * s_i: swaps the window positions i and i+1 (cyclically for i = 0).

    The length goes up by one iff w(i) < w(i+1), where w(0) = w(n) - n.
    """
    n = w.k + 1
    if not 0 <= i <= w.k:
        raise ValueError(f"letter {i} out of range 0..{w.k}")
    win = list(w.window)
    if i == 0:
        first, last = win[0], win[n - 1]
        up = last - n < first
        win[0] = last - n
        win[n - 1] = first + n
    else:
        up = win[i - 1] < win[i]
        win[i - 1], win[i] = win[i], win[i - 1]
    ell = w.length + 1 if up else w.length - 1
    return AffinePermutation._trusted(w.k, tuple(win), ell)


LEFT_MODES = ("plain", "ascent", "descent", "max")


def left_action(
    w: AffinePermutation, letters: Iterable[int], mode: str = "plain"
) -> AffinePermutation | None:
    """Apply s_i on the left of w for each letter i, first letter first.

    The result of letters (a_1, ..., a_m) is s_{a_m} ... s_{a_1} w.  A
    residue -> position table beside a mutable window makes each step O(1):
    s_i adds one to the value of residue i and takes one from the value of
    residue i+1, and the length goes up iff w^-1(i) < w^-1(i+1), read off
    the two positions and values.  The modes:

    - "plain": every step is taken;
    - "ascent": None at the first step that lowers the length, so a value
      comes back iff the length grows by one per letter;
    - "descent": None at the first step that raises the length;
    - "max": a step that lowers the length is skipped, z -> max(z, s_i z),
      so letters read off a reduced word of x, rightmost first, give the
      Demazure product x * w.

    One trusted value is built at the end.
    """
    if mode not in LEFT_MODES:
        raise ValueError(f"mode must be one of {LEFT_MODES}, got {mode!r}")
    k = w.k
    n = k + 1
    win = list(w.window)
    pos = [0] * n
    for p, x in enumerate(win):
        pos[x % n] = p
    ell = w.length
    for i in letters:
        if not 0 <= i <= k:
            raise ValueError(f"letter {i} out of range 0..{k}")
        j = i + 1 if i < k else 0
        p, q = pos[i], pos[j]
        # w^-1(i) = p+1 - (win[p] - i) against w^-1(i+1) = q+1 - (win[q] - i - 1)
        up = p - win[p] <= q - win[q]
        if up:
            if mode == "descent":
                return None
            ell += 1
        elif mode == "ascent":
            return None
        elif mode == "max":
            continue
        else:
            ell -= 1
        win[p] += 1
        win[q] -= 1
        pos[i], pos[j] = q, p
    return AffinePermutation._trusted(k, tuple(win), ell)


def left_growth(
    window: Sequence[int], mode: str, size: int, within: Iterable[int] | None = None
) -> list[list[tuple[frozenset[int], list[int], int]]]:
    """The index sets A whose cyclically decreasing element acts on a window
    as `left_action` does in `mode`, grown one residue at a time.

    Level r of the result lists the A of size r, for r up to `size`, each
    beside the window of the result and its length change; only residues of
    `within` (all by default) are added.  The modes:

    - "ascent": the A with l(d_A w) = l(w) + |A|, beside d_A w;
    - "descent": the A with l(d_A^{-1} w) = l(w) - |A|, beside d_A^{-1} w;
    - "max": for an increasing window, the A whose Demazure product d_A * w
      is Grassmannian (increasing window), beside d_A * w.

    The runs of consecutive residues in A commute.  So if a+1 is not in A,
    d_{A+a} = s_a d_A, and if b-1 is not in A, d_{A+b}^{-1} = s_b d_A^{-1}:
    every A comes from a smaller one by adding a run top (ascent, max) or a
    run bottom (descent).  The child is in the family iff its parent is and
    the one step s_a goes the right way; in "max" the step is
    z -> max(z, s_a z), and the child is in iff its parent is and the
    result is Grassmannian.  That pruning is sound because a left Demazure
    step keeps every right descent: when s_a z > z and z s_j < z, then
    l(s_a z s_j) <= l(z) < l(s_a z).  It needs the run top: removing any
    other element of an admissible A can leave an inadmissible set.

    A step up adds one to the value win[p] of residue a and takes one from
    the value win[q] of residue a+1.  On an increasing window only the
    pairs (p, p+1) and (q-1, q) can then break, and each only if its two
    values were one apart: win[p+1] = win[p] + 1 has residue a+1, and
    win[q-1] = win[q] - 1 has residue a, so either way q = p+1.  There the
    step goes up exactly when win[q] = win[p] + 1, and it swaps the two
    values.  So a step up keeps the window increasing iff q != p+1.

    Each step is one comparison on a residue -> position table, as in
    `left_action`, and any parent gives the same verdict, so a set of the
    masks tried at each level dedupes.  A window is copied only for a child
    whose step goes up and that is kept; a "max" step that would go down
    leaves the parent's window, shared.  The length change is +|A|, -|A|,
    or in "max" the number of steps that went up.  The full residue set has
    no run top or bottom, so it is never reached.  Each level is one
    `_grow_level` step.
    """
    level, residues, ascent, is_max = _growth_start(window, mode, within)
    guard = _guards(len(window), ascent)
    levels = [[(frozenset(), level[0][2], 0)]]
    for _ in range(size):
        level = _grow_level(level, residues, guard, ascent, is_max)
        levels.append([(members, win, dl) for _, members, win, _, dl in level])
    return levels


def _growth_start(window: Sequence[int], mode: str, within: Iterable[int] | None):
    """The first level of a growth in `mode`, its residues and its direction."""
    if mode not in LEFT_MODES[1:]:
        raise ValueError(f"mode must be one of {LEFT_MODES[1:]}, got {mode!r}")
    n = len(window)
    win = list(window)
    is_max = mode == "max"
    if is_max and any(x > y for x, y in zip(win, win[1:])):
        raise ValueError(f"max growth needs an increasing window, got {win}")
    pos = [0] * n
    for p, x in enumerate(win):
        pos[x % n] = p
    residues = range(n) if within is None else sorted(within)
    return [(0, frozenset(), win, pos, 0)], residues, mode != "descent", is_max


def _guards(n: int, ascent: bool) -> list[int]:
    # a may join A when its neighbour above (ascent, max) or below (descent) is out
    return [1 << a | 1 << ((a + 1) % n if ascent else (a - 1) % n) for a in range(n)]


def _grow_level(level: list, residues, guard: list[int], ascent: bool, is_max: bool) -> list:
    """The next level of a growth: the entries (mask, A, window, position
    table, length change) grown from `level` by one run top or bottom."""
    n = len(guard)
    grown = []
    tried = set()
    for mask, members, win, pos, dl in level:
        for a in residues:
            if mask & guard[a]:
                continue
            child = mask | 1 << a
            if child in tried:
                continue
            tried.add(child)
            j = a + 1 if a + 1 < n else 0
            p, q = pos[a], pos[j]
            # s_a raises the length iff w^-1(a) < w^-1(a+1)
            if (p - win[p] <= q - win[q]) != ascent:
                if is_max:
                    grown.append((child, members | {a}, win, pos, dl))
                continue
            if is_max and q == p + 1:
                # the step swaps win[p] and win[q] = win[p] + 1
                continue
            cwin = win.copy()
            cwin[p] += 1
            cwin[q] -= 1
            cpos = pos.copy()
            cpos[a], cpos[j] = q, p
            grown.append((child, members | {a}, cwin, cpos, dl + (1 if ascent else -1)))
    return grown


class LeftGrowth:
    """`left_growth` one level at a time, for a caller that keeps the
    growth between levels: `grow` returns the next level.

    Only the deepest level grown is kept, so a caller that wants one level
    grows no further than it, and one that wants more goes on from there.
    Between levels the caller can `park` the growth, keeping of its
    deepest level only the masks, windows and length changes until the
    next `grow`.
    """

    __slots__ = ("depth", "_level", "_parked", "_residues", "_guard", "_ascent", "_max")

    def __init__(self, window: Sequence[int], mode: str):
        self._level, self._residues, self._ascent, self._max = _growth_start(window, mode, None)
        self._guard = _guards(len(window), self._ascent)
        self._parked = False
        self.depth = 0

    def park(self) -> None:
        """Drop the index sets and position tables of the deepest level;
        `grow` rebuilds them from its masks and windows."""
        self._level = [(mask, None, win, None, dl) for mask, _, win, _, dl in self._level]
        self._parked = True

    def grow(self) -> list[tuple[frozenset[int], list[int], int]]:
        """Grow the next level and return it, as (A, window, length change)."""
        if self._parked:
            self._unpark()
        self._level = _grow_level(self._level, self._residues, self._guard, self._ascent, self._max)
        self.depth += 1
        return [(members, win, dl) for _, members, win, _, dl in self._level]

    def _unpark(self) -> None:
        n = len(self._guard)
        level = []
        for mask, _, win, _, dl in self._level:
            pos = [0] * n
            for p, x in enumerate(win):
                pos[x % n] = p
            level.append((mask, frozenset([a for a in range(n) if mask >> a & 1]), win, pos, dl))
        self._level, self._parked = level, False


def from_word(k: int, word: Iterable[int]) -> AffinePermutation:
    """Evaluate the product s_{word[0]} ... s_{word[m-1]}; no reducedness required."""
    w = identity(k)
    for a in word:
        w = right_mul_s(w, a)
    return w


def length(w: AffinePermutation) -> int:
    return w.length


def mul(u: AffinePermutation, v: AffinePermutation) -> AffinePermutation:
    """Composition of window functions, (uv)(i) = u(v(i))."""
    k = u.k
    if k != v.k:
        raise ValueError(f"rank mismatch: k={k} vs k={v.k}")
    n = k + 1
    uw = u.window
    out = []
    for x in v.window:
        r = (x - 1) % n
        out.append(uw[r] + x - 1 - r)
    win = tuple(out)
    return AffinePermutation._trusted(k, win, _inversion_length(win, n))


def inverse(w: AffinePermutation) -> AffinePermutation:
    n = w.k + 1
    out = [0] * n
    for pos, x in enumerate(w.window, start=1):
        r = (x - 1) % n
        out[r] = pos + r + 1 - x
    return AffinePermutation._trusted(w.k, tuple(out), w.length)


def descents(w: AffinePermutation, side: str = "right") -> frozenset[int]:
    """Indices i with w > w s_i (right) or w > s_i w (left)."""
    if side == "left":
        return descents(inverse(w), "right")
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = w.k + 1
    win = w.window
    out = {i for i in range(1, n) if win[i - 1] > win[i]}
    if win[n - 1] - n > win[0]:
        out.add(0)
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def bruhat_leq(u: AffinePermutation, v: AffinePermutation) -> bool:
    """Strong (Bruhat) order comparison via the lifting property.

    Recursion: for s a left descent of v, u <= v iff min(u, su) <= sv.
    The exponential subword characterization is kept only as a test
    oracle; this memoized recursion is the production path.
    """
    _check_same_rank(u, v)
    if u.length > v.length:
        return False
    if u.length == v.length:
        return u == v
    i = min(descents(v, "left"))
    sv = left_mul_s(v, i)
    su = left_mul_s(u, i)
    return bruhat_leq(su if su.length < u.length else u, sv)


@functools.lru_cache(maxsize=None)
def weak_leq(u: AffinePermutation, v: AffinePermutation, side: str = "left") -> bool:
    """Weak order: u <=_L v iff l(v u^-1) + l(u) = l(v), and mirrored on the right."""
    _check_same_rank(u, v)
    if side == "left":
        return mul(v, inverse(u)).length + u.length == v.length
    if side == "right":
        return u.length + mul(inverse(u), v).length == v.length
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def reduced_word(w: AffinePermutation) -> ReducedWord:
    """Deterministic reduced word: repeatedly strip the smallest left descent.

    Works on the window of w^-1, where a left descent i of x is a right
    descent of x^-1 and stripping it (x -> s_i x) swaps two entries.
    """
    n = w.k + 1
    v = list(inverse(w).window)
    letters = []
    for _ in range(w.length):
        if v[n - 1] - n > v[0]:
            i = 0
            v[0], v[n - 1] = v[n - 1] - n, v[0] + n
        else:
            i = 1
            while v[i - 1] < v[i]:
                i += 1
            v[i - 1], v[i] = v[i], v[i - 1]
        letters.append(i)
    # each step strips a descent, so the word is reduced by construction
    return ReducedWord._trusted(w.k, tuple(letters))


@functools.lru_cache(maxsize=None)
def demazure(x: AffinePermutation, y: AffinePermutation) -> AffinePermutation:
    """Demazure (0-Hecke) product x * y.

    Applies the letterwise action phi_s(z) = max(z, s z) along a reduced
    word of x, rightmost letter first; the result is independent of the
    word chosen.
    """
    _check_same_rank(x, y)
    z = y
    for i in reversed(reduced_word(x).letters):
        sz = left_mul_s(z, i)
        if sz.length > z.length:
            z = sz
    return z


@functools.lru_cache(maxsize=None)
def psi_apply(x: AffinePermutation, y: AffinePermutation, side: str = "left") -> AffinePermutation:
    """Anti-Demazure action: each letter of x replaces y by min(y, s y).

    The left action applies letters of a reduced word of x rightmost
    first; the right action multiplies by generators on the right,
    leftmost letter of x first.  The result only moves down in the
    corresponding weak order.
    """
    _check_same_rank(x, y)
    z = y
    if side == "left":
        for i in reversed(reduced_word(x).letters):
            sz = left_mul_s(z, i)
            if sz.length < z.length:
                z = sz
        return z
    if side == "right":
        for i in reduced_word(x).letters:
            zs = right_mul_s(z, i)
            if zs.length < z.length:
                z = zs
        return z
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def s_join_L(x: AffinePermutation, y: AffinePermutation) -> AffinePermutation:
    """Minimum of {z : x <= z >=_L y} under the strong order.

    Computed as psi^R applied to x along a reduced word of y^-1, then
    multiplied by y on the right.
    """
    _check_same_rank(x, y)
    return mul(psi_apply(inverse(y), x, "right"), y)


def meet_LS(x: AffinePermutation, y: AffinePermutation) -> AffinePermutation:
    """Maximum of {z : x >=_L z <= y} under the strong order."""
    _check_same_rank(x, y)
    z = psi_apply(inverse(y), x, "right")
    return mul(inverse(z), x)


def flip(z: AffinePermutation, x: AffinePermutation) -> AffinePermutation:
    """Interval flip x -> z x^-1, an anti-isomorphism [e,z]_L -> [e,z]_R;
    x <=_L z iff l(z x^-1) + l(x) = l(z), checked on the product returned."""
    _check_same_rank(z, x)
    y = mul(z, inverse(x))
    if y.length + x.length != z.length:
        raise ValueError("precondition violation: x is not <=_L z")
    return y


def ball(k: int, max_length: int, cap: int = BALL_CAP) -> list[AffinePermutation]:
    """All elements of length <= max_length, sorted by (length, window).

    Breadth-first search by left multiplication; raises BallCapExceeded
    when more than `cap` elements would be produced.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    seen = {identity(k)}
    frontier = [identity(k)]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for i in range(k + 1):
                u = left_mul_s(w, i)
                if u.length == w.length + 1 and u not in seen:
                    seen.add(u)
                    if len(seen) > cap:
                        raise BallCapExceeded(
                            f"ball(k={k}, L={max_length}) exceeds cap={cap}"
                        )
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=lambda w: (w.length, w.window))


def ball_size(k: int, max_length: int) -> int:
    """Number of elements of length <= max_length, without enumerating them.

    Bott's formula gives the length generating function of the affine
    symmetric group on k+1 letters as prod_{i=1..k} [i+1]_t / (1 - t^i);
    the ball size is the sum of its coefficients up to t^max_length.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    coeffs = [1] + [0] * max_length
    for i in range(1, k + 1):
        # times [i+1]_t = 1 + t + ... + t^i
        coeffs = [sum(coeffs[max(0, d - i) : d + 1]) for d in range(max_length + 1)]
        # divided by 1 - t^i
        for d in range(i, max_length + 1):
            coeffs[d] += coeffs[d - i]
    return sum(coeffs)


def grassmannian_ball(k: int, max_length: int, cap: int = BALL_CAP) -> list[AffinePermutation]:
    """All 0-dominant (affine Grassmannian) elements of length <= max_length."""
    return [w for w in ball(k, max_length, cap) if w.is_grassmannian()]


@functools.lru_cache(maxsize=None)
def longest_finite_element(k: int) -> AffinePermutation:
    """Longest element of the finite symmetric group inside, window reversed."""
    return AffinePermutation(k, range(k + 1, 0, -1))


def is_affine_reflection(t: AffinePermutation) -> bool:
    """True for the conjugates of generators: involutions moving two residues."""
    if t.is_identity() or mul(t, t) != identity(t.k):
        return False
    n = t.k + 1
    moved = [i for i in range(1, n + 1) if t(i) != i]
    return len(moved) == 2
