"""Bounded partitions and core partitions.

Two distinct value types are used on purpose: a k-bounded partition (all
parts at most k) and a core partition (no cell of hook length k+1).  Both
are plain weakly decreasing integer tuples, but confusing one for the
other is the easiest mistake to make in this domain, so the constructors
validate the defining invariant of each kind.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .affine import _frozen


def _check_partition_shape(parts: tuple[int, ...]) -> None:
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be strictly positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of a partition given as a bare tuple."""
    if not parts:
        return ()
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


class KBoundedPartition:
    """Partition whose parts are all at most k."""

    __slots__ = ("k", "parts")

    def __init__(self, k: int, parts: Iterable[int]):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        parts = tuple(int(p) for p in parts)
        _check_partition_shape(parts)
        if parts and parts[0] > k:
            raise ValueError(f"part {parts[0]} exceeds bound k={k}")
        _set_bounded_k(self, k)
        _set_bounded_parts(self, parts)

    @classmethod
    def _trusted(cls, k: int, parts: tuple[int, ...]) -> "KBoundedPartition":
        """Wrap parts already known to form a k-bounded partition."""
        lam = object.__new__(cls)
        _set_bounded_k(lam, k)
        _set_bounded_parts(lam, parts)
        return lam

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.parts) == (other.k, other.parts)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __repr__(self):
        return f"KBoundedPartition(k={self.k}, parts={self.parts})"

    def as_dict(self) -> dict:
        return {"k": self.k, "kind": "bounded", "parts": list(self.parts)}


_set_bounded_k = KBoundedPartition.k.__set__
_set_bounded_parts = KBoundedPartition.parts.__set__


class CorePartition:
    """Partition none of whose cells has hook length exactly k+1."""

    __slots__ = ("k", "parts")

    def __init__(self, k: int, parts: Iterable[int]):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        parts = tuple(int(p) for p in parts)
        _check_partition_shape(parts)
        n = k + 1
        conj = conjugate(parts)
        for i, p in enumerate(parts):
            for j in range(p):
                if (p - j) + (conj[j] - i) - 1 == n:
                    raise ValueError(
                        f"{parts} is not a {n}-core: cell ({i + 1},{j + 1}) "
                        f"has hook length {n}"
                    )
        _set_core_k(self, k)
        _set_core_parts(self, parts)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.parts) == (other.k, other.parts)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "CorePartition":
        return CorePartition(self.k, conjugate(self.parts))

    def __repr__(self):
        return f"CorePartition(k={self.k}, parts={self.parts})"

    def as_dict(self) -> dict:
        return {"k": self.k, "kind": "core", "parts": list(self.parts)}


_set_core_k, _set_core_parts = CorePartition.k.__set__, CorePartition.parts.__set__


def k_rectangle(t: int, k: int) -> KBoundedPartition:
    """The rectangle with k+1-t rows of length t."""
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    return KBoundedPartition._trusted(k, (t,) * (k + 1 - t))


def union_sort(mu: KBoundedPartition, lam: KBoundedPartition) -> KBoundedPartition:
    """Merge the parts of two bounded partitions, resorted decreasingly.

    Merging two k-bounded partitions of one k gives a k-bounded partition,
    so only the ranks are checked.
    """
    if mu.k != lam.k:
        raise ValueError(f"rank mismatch: k={mu.k} vs k={lam.k}")
    return KBoundedPartition._trusted(mu.k, tuple(sorted(mu.parts + lam.parts, reverse=True)))


def partitions_of(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts at most max_part, lexicographically decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def kbounded_partitions(k: int, max_size: int) -> list[KBoundedPartition]:
    """All k-bounded partitions of size <= max_size, by (size, revlex) order.

    k is checked once; every tuple `partitions_of` yields is a k-bounded
    partition, so none is re-validated.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [
        KBoundedPartition._trusted(k, parts)
        for n in range(max_size + 1)
        for parts in partitions_of(n, k)
    ]
