"""Exact sparse arithmetic in the subring Z[h_1, ..., h_k] of symmetric functions.

Three bases, all indexed by k-bounded partitions: products of complete
homogeneous generators (h), the homogeneous affine Schubert basis defined
by the weak-strip Pieri rule (ks), and its inhomogeneous K-theoretic
analogue defined by the signed set-valued Pieri rule (g).  Coefficients
are arbitrary-precision integers throughout: both basis changes to h are
unit lower-triangular in the term order, and each is inverted by one row of
its own Pieri rule per partition, h_r b_nu for lam = (nu, r), whose
triangularity is asserted row by row.  The weak-strip rules read every
strip top off the windows of the growth from w_lam w_0 (`shapes.StripGrowth`):
the ks rule and the union form of the gtilde Pieri rule read the table of
tops of a level, `StripGrowth.tops(r)`, and the inclusion-exclusion form
reads index sets and the tops of their intersections, so a sweep that grows
a partition once to level k reads every r from it.  The set-valued rule
reads every r off one Demazure growth of w_lam, extended on demand.  Every
shape is read off its grown window by the memo `shapes._window_shape`,
keyed by (k, window), with no permutation built.  Both Pieri rules keep
their rows in memos keyed by the partition's (k, parts), and each
partition's strong ideal is searched once, as plain parts, for every
reader.  Their dict results are put in the term order only where it
reaches output.
"""

from __future__ import annotations

import functools
import itertools

from .affine import LeftGrowth
from .partitions import KBoundedPartition
from .shapes import StripGrowth, _core_rows, _window_shape, bounded_to_perm

__all__ = [
    "BASES",
    "SymElt",
    "pieri_kschur",
    "pieri_kk",
    "h_mult",
    "h_monomial_mult",
    "h_to_g",
    "h_to_ks",
    "g_to_h",
    "ks_to_h",
    "product_g",
    "product_ks",
    "strong_ideal_parts",
    "bruhat_lower_partitions",
    "gtilde",
    "gtilde_pieri",
    "gtilde_pieri_direct",
    "gtilde_pieri_ie",
    "expand_gtilde_combination",
    "kschur_top_degree_check",
]

BASES = ("h", "ks", "g")


def partition_sort_key(parts: tuple[int, ...]) -> tuple:
    """(degree, parts reverse-lexicographic): the documented term order."""
    return (sum(parts), tuple(-p for p in parts))


def _term_key(term: tuple[tuple[int, ...], int]) -> tuple:
    return partition_sort_key(term[0])


def _accumulate(acc: dict, terms: dict, c: int = 1) -> dict:
    """Add c times the terms into acc, in place; returns acc."""
    for q, v in terms.items():
        acc[q] = acc.get(q, 0) + c * v
    return acc


class SymElt:
    """Sparse integer combination of basis elements, zero terms dropped.

    The terms are kept as a dict from parts to coefficient, in no order, and
    the arithmetic of this module reads that dict.  `coeffs`, the terms as a
    tuple in the term order, is sorted on first access and kept on the
    instance.  Equality and hashing compare (k, basis, terms).
    """

    __slots__ = ("k", "basis", "_terms", "_coeffs")

    def __init__(self, k: int, basis: str, coeffs):
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
        cleaned: dict[tuple[int, ...], int] = {}
        for parts, c in coeffs:
            parts = tuple(parts)
            KBoundedPartition(k, parts)  # validates boundedness
            cleaned[parts] = cleaned.get(parts, 0) + c
        self._fill(k, basis, cleaned)

    def _fill(self, k: int, basis: str, d: dict[tuple[int, ...], int]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_terms", {p: c for p, c in d.items() if c})
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _trusted(cls, k: int, basis: str, d: dict[tuple[int, ...], int]) -> "SymElt":
        """Wrap terms this module computed over k-bounded partitions.

        Zero terms are dropped into a fresh dict; the partitions are not
        re-validated and nothing is sorted.
        """
        elt = object.__new__(cls)
        elt._fill(k, basis, d)
        return elt

    def __setattr__(self, name, value):
        raise AttributeError("SymElt is immutable")

    @property
    def coeffs(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The nonzero terms in the term order."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(sorted(self._terms.items(), key=_term_key)))
        return self._coeffs

    def __eq__(self, other):
        if not isinstance(other, SymElt):
            return NotImplemented
        return (self.k, self.basis, self._terms) == (other.k, other.basis, other._terms)

    def __hash__(self):
        return hash((self.k, self.basis, frozenset(self._terms.items())))

    @classmethod
    def from_dict(cls, k: int, basis: str, d: dict[tuple[int, ...], int]) -> "SymElt":
        return cls(k, basis, tuple(d.items()))

    @classmethod
    def zero(cls, k: int, basis: str) -> "SymElt":
        return cls(k, basis, ())

    @classmethod
    def unit(cls, k: int, basis: str) -> "SymElt":
        return cls(k, basis, (((), 1),))

    @classmethod
    def single(cls, k: int, basis: str, parts: tuple[int, ...], coeff: int = 1) -> "SymElt":
        return cls(k, basis, ((tuple(parts), coeff),))

    def as_mapping(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def coefficient(self, parts: tuple[int, ...]) -> int:
        return self._terms.get(tuple(parts), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "SymElt") -> "SymElt":
        self._check_compatible(other)
        return SymElt._trusted(self.k, self.basis, _accumulate(dict(self._terms), other._terms))

    def __sub__(self, other: "SymElt") -> "SymElt":
        return self + other.scale(-1)

    def scale(self, c: int) -> "SymElt":
        return SymElt._trusted(self.k, self.basis, {p: c * v for p, v in self._terms.items()})

    def _check_compatible(self, other: "SymElt") -> None:
        if self.k != other.k:
            raise ValueError(f"rank mismatch: k={self.k} vs k={other.k}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __repr__(self):
        if not self._terms:
            return f"SymElt(k={self.k}, {self.basis}: 0)"
        body = " + ".join(f"{c}*{self.basis}{list(p)}" for p, c in self.coeffs)
        return f"SymElt(k={self.k}, {body})"

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "basis": self.basis,
            "terms": [{"parts": list(p), "coeff": str(c)} for p, c in self.coeffs],
        }


# Both Pieri rules are memoised per partition, keyed by (k, parts): a product
# sweep asks for the same few hundred strip sums tens of thousands of times.
# The rows are frozen, so every caller can share them.
def pieri_kschur(lam: KBoundedPartition, r: int) -> SymElt:
    """h_r times the homogeneous basis element of lam: sum over weak strips.

    Each top of a size-r strip adds 1 at its shape; the row is read off the
    table `shapes.StripGrowth.tops` and kept (`_weak_row`).
    """
    return _weak_row(lam.k, lam.parts, r)


def pieri_kk(lam: KBoundedPartition, r: int) -> SymElt:
    """h_r times the K-theoretic basis element of lam.

    Signed sum over set-valued strips (A, v): the coefficient of the
    target v gains (-1)^(r + l(w_lam) - l(v)); distinct A with the same
    product accumulate.  Read off the memoised growth of lam
    (`_SetValuedRows`), which every r shares; the per-r scan
    `oracles.pieri_kk_by_strips` is its test oracle.
    """
    return _set_valued_rows(lam.k, lam.parts)[r]


@functools.lru_cache(maxsize=None)
def _weak_row(k: int, parts: tuple[int, ...], r: int) -> SymElt:
    """The memo of `pieri_kschur`: the tops of the size-r weak strips over
    the partition, counted off a growth that is dropped once read;
    `StripGrowth` rejects an r outside 0..k."""
    acc: dict[tuple[int, ...], int] = {}
    for top in StripGrowth(KBoundedPartition._trusted(k, parts), r).tops(r).values():
        acc[top.parts] = acc.get(top.parts, 0) + 1
    return SymElt._trusted(k, "ks", acc)


class _SetValuedRows(dict):
    """r -> pieri_kk(lam, r), read off one "max" growth of w_lam.

    The growth (`affine.LeftGrowth`) is extended one level at a time, as
    far as the largest r asked, so a sweep that asks r in ascending order
    grows lam once, and a single r grows no further than itself.  Only the
    level asked is turned into a row: the levels passed on the way are
    dropped, and the deepest is parked to grow the next.  An r at or below
    the depth grown is read off a growth of its own.  The row of level r
    adds (-1)^(r - dl) at the shape of each window (`_window_shape`), where
    dl is l(v) - l(w_lam).
    """

    __slots__ = ("lam", "_w", "_growth")

    def __init__(self, lam: KBoundedPartition):
        super().__init__()
        self.lam = lam
        self._w = bounded_to_perm(lam)
        self._growth = LeftGrowth(self._w.window, "max")

    def __missing__(self, r: int) -> SymElt:
        k = self.lam.k
        if not 1 <= r <= k:
            raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
        growth = self._growth
        if growth is None or growth.depth >= r:
            growth = LeftGrowth(self._w.window, "max")
        while growth.depth < r - 1:
            growth.grow()
        level = growth.grow()
        acc: dict[tuple[int, ...], int] = {}
        for _, win, dl in level:
            parts = _window_shape(k, tuple(win)).parts
            acc[parts] = acc.get(parts, 0) + (-1 if (r - dl) & 1 else 1)
        row = self[r] = SymElt._trusted(k, "g", acc)
        if growth is self._growth:
            if r == k:  # no index set is larger
                self._growth = None
            else:
                growth.park()
        return row


@functools.lru_cache(maxsize=None)
def _set_valued_rows(k: int, parts: tuple[int, ...]) -> _SetValuedRows:
    """The memo of `pieri_kk`: one row table, and one growth, per partition."""
    return _SetValuedRows(KBoundedPartition._trusted(k, parts))


def h_mult(elt: SymElt, r: int) -> SymElt:
    """Multiply by h_r in the ks or g basis (h_0 acts as the identity)."""
    return h_monomial_mult(elt, (r,))


def _pieri_rule(basis: str):
    if basis == "ks":
        return pieri_kschur
    if basis == "g":
        return pieri_kk
    raise ValueError("h_mult needs the ks or g basis")


def _pieri_step(terms: dict, rule, k: int, r: int) -> dict[tuple[int, ...], int]:
    """The terms (a plain dict) times h_r by the memoised Pieri rule."""
    acc: dict[tuple[int, ...], int] = {}
    for p, c in terms.items():
        if c:
            _accumulate(acc, rule(KBoundedPartition._trusted(k, p), r)._terms, c)
    return acc


def h_monomial_mult(elt: SymElt, parts: tuple[int, ...]) -> SymElt:
    """Multiply by a whole h monomial, largest generator first.

    The steps pass a plain dict along, and the result is not sorted.
    """
    steps = [r for r in sorted(parts, reverse=True) if r]
    if not steps:
        return elt
    rule = _pieri_rule(elt.basis)
    acc = elt._terms
    for r in steps:
        acc = _pieri_step(acc, rule, elt.k, r)
    return SymElt._trusted(elt.k, elt.basis, acc)


def h_to_g(mu: KBoundedPartition) -> SymElt:
    """Expansion of the h monomial of mu in the g basis, by iterated Pieri;
    with `h_to_ks`, what the test oracle `oracles.h_expansions_by_monomials`
    inverts."""
    return h_monomial_mult(SymElt._trusted(mu.k, "g", {(): 1}), mu.parts)


def h_to_ks(mu: KBoundedPartition) -> SymElt:
    """Expansion of the h monomial of mu in the ks basis (homogeneous)."""
    return h_monomial_mult(SymElt._trusted(mu.k, "ks", {(): 1}), mu.parts)


# h-basis rows of the two inverted transitions, per k and then per parts:
# the only memo of the transitions, as `_invert_unitriangular` expands each
# partition once.
_G2H_TABLES: dict[int, dict[tuple[int, ...], dict[tuple[int, ...], int]]] = {}
_KS2H_TABLES: dict[int, dict[tuple[int, ...], dict[tuple[int, ...], int]]] = {}


def _h_times(r: int, terms: dict) -> dict[tuple[int, ...], int]:
    """h_r times terms in the h basis: r joins each monomial in its place,
    and distinct monomials stay distinct."""
    acc = {}
    for nu, c in terms.items():
        i = len(nu)
        while i and nu[i - 1] < r:
            i -= 1
        acc[(*nu[:i], r, *nu[i:])] = c
    return acc


def _invert_unitriangular(lam: KBoundedPartition, rule, tables: dict) -> SymElt:
    """The h expansion of b_lam, given `rule`: the basis's Pieri rule, h_r
    times b_nu in the b basis.

    For mu = (nu, r), r the last part of mu, the one row rule(nu, r) =
    b_mu + sum_{rho < mu} c_rho b_rho: the strip that adds r as a new last
    row is the latest term.  So b_mu = h_r (b_nu in h) - sum c_rho (b_rho
    in h), and b_() = h_().  The partitions lam depends on are collected
    first, then their rows are filled in term order and kept in tables[k]
    per parts.  A row whose coefficient at mu is not 1, or that has another
    term at or after mu, means a broken Pieri rule, not bad input.
    """
    k = lam.k
    rows = tables.setdefault(k, {})
    lower: dict[tuple[int, ...], tuple] = {}
    todo = [lam.parts]
    while todo:
        mu = todo.pop()
        if mu in rows or mu in lower:
            continue
        if not mu:
            rows[mu] = {mu: 1}
            continue
        row = rule(KBoundedPartition._trusted(k, mu[:-1]), mu[-1])._terms
        key = partition_sort_key(mu)
        if row.get(mu) != 1 or any(partition_sort_key(p) > key for p in row if p != mu):
            raise RuntimeError(
                f"transition of {KBoundedPartition._trusted(k, mu)} is not unitriangular"
            )
        lower[mu] = row
        todo.append(mu[:-1])
        todo.extend(row)
    for mu in sorted(lower, key=partition_sort_key):
        acc = _h_times(mu[-1], rows[mu[:-1]])
        for rho, c in lower[mu].items():
            if rho != mu:
                _accumulate(acc, rows[rho], -c)
        rows[mu] = {q: v for q, v in acc.items() if v}
    return SymElt._trusted(k, "h", rows[lam.parts])


def g_to_h(lam: KBoundedPartition) -> SymElt:
    """Exact integer expansion of a g basis element in the h basis."""
    return _invert_unitriangular(lam, pieri_kk, _G2H_TABLES)


def ks_to_h(lam: KBoundedPartition) -> SymElt:
    """Expansion of a homogeneous basis element in the h basis."""
    return _invert_unitriangular(lam, pieri_kschur, _KS2H_TABLES)


def _top_degree(elt: SymElt) -> int:
    return max(map(sum, elt._terms), default=0)


def _h_expansion(elt: SymElt, to_h) -> dict[tuple[int, ...], int]:
    """The h expansion of elt, given `to_h`: a basis element in h."""
    in_h: dict[tuple[int, ...], int] = {}
    for parts, c in elt._terms.items():
        _accumulate(in_h, to_h(KBoundedPartition._trusted(elt.k, parts))._terms, c)
    return in_h


def _h_combination(in_h: dict, table: dict, basis: str, k: int) -> dict[tuple[int, ...], int]:
    """The terms of the sum of c b h_nu over the terms c h_nu of in_h.

    `table` maps descending h monomials nu to b h_nu in the basis, and
    table[()] holds b's terms.  A missing entry is one Pieri step from the
    entry for nu less its last part (h_{nu_1} is applied first), and is kept
    in the table, so products that share a table form each b h_nu once.
    """
    rule = _pieri_rule(basis)
    acc: dict[tuple[int, ...], int] = {}
    for nu, c in in_h.items():
        if not c:
            continue
        entry = table.get(nu)
        if entry is None:
            n = len(nu) - 1
            while nu[:n] not in table:  # the longest prefix held; () always is
                n -= 1
            entry = table[nu[:n]]
            for i in range(n, len(nu)):
                entry = table[nu[: i + 1]] = _pieri_step(entry, rule, k, nu[i])
        _accumulate(acc, entry, c)
    return acc


def _product_via_h(a: SymElt, b: SymElt, to_h) -> SymElt:
    """a*b: expand one factor in h, then apply its h monomials to the other
    by Pieri.

    The product commutes, so the factor of lower top degree is expanded:
    its h expansion inverts a smaller transition.  The monomials are read
    from a table of b h_nu local to the product (`_h_combination`), so a
    prefix of Pieri steps that several monomials share is applied once.
    The one-monomial-at-a-time fold is the test oracle
    `oracles.product_via_h_by_monomial`.
    """
    a._check_compatible(b)
    if _top_degree(a) > _top_degree(b):
        a, b = b, a
    return SymElt._trusted(
        a.k, a.basis, _h_combination(_h_expansion(a, to_h), {(): b._terms}, b.basis, a.k)
    )


def product_g(a: SymElt, b: SymElt) -> SymElt:
    """Product in the g basis: route one factor through h, then Pieri."""
    return _product_via_h(a, b, g_to_h)


def product_ks(a: SymElt, b: SymElt) -> SymElt:
    """Product in the ks basis through the homogeneous h expansion."""
    return _product_via_h(a, b, ks_to_h)


@functools.lru_cache(maxsize=None)
def strong_ideal_parts(lam: KBoundedPartition) -> tuple[tuple[int, ...], ...]:
    """The parts of every k-bounded mu with w_mu <= w_lam in the strong
    order, in no order.

    On 0-dominant (affine Grassmannian) elements the strong order is
    containment of (k+1)-cores (Lascoux, "Ordering the affine symmetric
    group", 2001; Lapointe–Morse, JCTA 2005): mu is kept when its core has
    at most as many rows as the core of lam and each row is at most the
    matching row there.  For each row count l the parts of mu are chosen
    bottom-up, and each core row is placed as it is chosen (the row
    sliding of `shapes.bounded_to_core`).  The rows placed so far are
    non-decreasing, so a column holds more than k - p of them iff it lies
    left of the (k - p + 1)-th longest: with j rows placed, a part p slides
    right by the length of the (j - (k - p))-th placed row, or by 0 when
    j <= k - p.  A placed row never moves and grows strictly with its part,
    so the parts stop at the first row longer than its match in lam's core.
    Test oracles: `oracles.strong_lower_ideal_by_bruhat` and
    `oracles.strong_ideal_union_by_filter`.
    """
    k = lam.k
    core = _core_rows(lam)
    found: list[tuple[int, ...]] = [()]
    parts: list[int] = []  # of mu, bottom-up
    placed: list[int] = []  # their core rows

    def grow(row: int) -> None:
        bound = core[row]
        below = len(placed) - k - 1  # part p slides by placed[below + p]
        rest = () if row else tuple(reversed(parts))  # the parts of mu below its top
        for p in range(parts[-1] if parts else 1, k + 1):
            i = below + p
            length = p + placed[i] if i >= 0 else p
            if length > bound:
                break
            if row:
                parts.append(p)
                placed.append(length)
                grow(row - 1)
                placed.pop()
                parts.pop()
            else:
                found.append((p, *rest))

    for row in range(len(core)):  # the top row of mu's core is row 0
        grow(row)
    return tuple(found)


def bruhat_lower_partitions(lam: KBoundedPartition) -> tuple[KBoundedPartition, ...]:
    """All k-bounded mu with w_mu <= w_lam in the strong order, by (size,
    revlex): `strong_ideal_parts` sorted and wrapped."""
    found = sorted(strong_ideal_parts(lam), reverse=True)
    found.sort(key=sum)
    return tuple(KBoundedPartition._trusted(lam.k, parts) for parts in found)


def gtilde(lam: KBoundedPartition) -> SymElt:
    """Sum of the g basis over the strong-order lower ideal of lam."""
    return SymElt._trusted(lam.k, "g", dict.fromkeys(strong_ideal_parts(lam), 1))


def gtilde_pieri(lam: KBoundedPartition, r: int) -> SymElt:
    """gtilde(lam) times h_0 + ... + h_r, in closed form.

    The product is the 0/1 indicator sum over the union of the lower
    ideals of the size-r weak-strip tops, each read from the memo of
    `strong_ideal_parts`.
    """
    return _gtilde_pieri_union(StripGrowth(lam, r), r)


def _gtilde_pieri_union(growth: StripGrowth, r: int) -> SymElt:
    """`gtilde_pieri` of the growth's partition at r <= its level."""
    return SymElt._trusted(
        growth.lam.k,
        "g",
        {mu: 1 for top in growth.tops(r).values() for mu in strong_ideal_parts(top)},
    )


def gtilde_pieri_direct(lam: KBoundedPartition, r: int) -> SymElt:
    """gtilde(lam) times h_0 + ... + h_r by the raw signed Pieri sums."""
    if not 0 <= r <= lam.k:
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={lam.k}")
    base = gtilde(lam)
    acc: dict[tuple[int, ...], int] = {}
    for i in range(r + 1):
        _accumulate(acc, h_mult(base, i)._terms)
    return SymElt._trusted(lam.k, "g", acc)


def gtilde_pieri_ie(lam: KBoundedPartition, r: int) -> dict[tuple[int, ...], int]:
    """Inclusion-exclusion form of the same product, as gtilde labels in
    the term order.

    Alternating sum over nonempty collections of the size-r strips; the
    label of a collection is the top of the strip of the intersection of
    its index sets.  That is a strip, so the growth holds its top.
    """
    return _in_term_order(_gtilde_pieri_ie(StripGrowth(lam, r), r))


def _gtilde_pieri_ie(growth: StripGrowth, r: int) -> dict[tuple[int, ...], int]:
    """`gtilde_pieri_ie` of the growth's partition at r <= its level, in no
    order.  The collections are summed per intersection first, so a top is
    asked for once per set the sum meets."""
    strips = growth.sets(r)
    counts: dict[frozenset[int], int] = {}
    for m in range(1, len(strips) + 1):
        sign = (-1) ** (m - 1)
        for combo in itertools.combinations(strips, m):
            inter = frozenset.intersection(*combo)
            counts[inter] = counts.get(inter, 0) + sign
    acc: dict[tuple[int, ...], int] = {}
    for inter, c in counts.items():
        try:
            label = growth.top(inter).parts
        except KeyError:
            raise RuntimeError(
                f"size-{r} strips over {growth.lam} meet in {sorted(inter)}, not grown"
            ) from None
        acc[label] = acc.get(label, 0) + c
    return {p: c for p, c in acc.items() if c}


def _in_term_order(combo: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    return dict(sorted(combo.items(), key=_term_key))


def expand_gtilde_combination(
    k: int, combo: dict[tuple[int, ...], int]
) -> SymElt:
    """Expand an integer combination of gtilde labels into the g basis.

    The labels are taken as k-bounded partitions, as `gtilde_pieri_ie`
    gives them, and each adds its coefficient over its memoised strong
    ideal.
    """
    acc: dict[tuple[int, ...], int] = {}
    for parts, c in combo.items():
        for mu in strong_ideal_parts(KBoundedPartition._trusted(k, parts)):
            acc[mu] = acc.get(mu, 0) + c
    return SymElt._trusted(k, "g", acc)


def kschur_top_degree_check(lam: KBoundedPartition) -> bool:
    """Top-degree h terms of the g element match the homogeneous element."""
    top = {p: c for p, c in g_to_h(lam)._terms.items() if sum(p) == lam.size}
    return SymElt._trusted(lam.k, "h", top) == ks_to_h(lam)
