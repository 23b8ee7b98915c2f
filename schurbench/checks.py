"""Reference figures and output checks computed apart from affineschur.

Nothing here imports the package: ball sizes come from Bott's formula,
partition counts from a counting recurrence, and affine permutations are
evaluated as functions on the integers.  Each checker takes a parsed JSON
payload of the CLI and returns None when it holds, or a one-line reason.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def poincare(k: int, top: int) -> tuple[int, ...]:
    """Elements of each length 0..top in the affine symmetric group on k+1.

    Bott's formula: the series is prod_{i=1..k} [i+1]_t / (1 - t^i).
    """
    series = [1] + [0] * top
    for i in range(1, k + 1):
        # times [i+1]_t = 1 + t + ... + t^i
        series = [sum(series[d - j] for j in range(min(i, d) + 1)) for d in range(top + 1)]
        # divided by 1 - t^i
        for d in range(i, top + 1):
            series[d] += series[d - i]
    return tuple(series)


def ball_size(k: int, radius: int) -> int:
    return sum(poincare(k, radius))


def cover_pairs(k: int, radius: int) -> int:
    """Pairs (u, v) in the ball with l(v) = l(u) + 1."""
    n = poincare(k, radius)
    return sum(n[d] * n[d + 1] for d in range(radius))


@lru_cache(maxsize=None)
def bounded_partition_count(k: int, max_size: int) -> int:
    """Partitions with parts at most k and size at most max_size."""
    ways = [1] + [0] * max_size
    for part in range(1, k + 1):
        for size in range(part, max_size + 1):
            ways[size] += ways[size - part]
    return sum(ways)


def strongly_disjoint_pairs(k: int) -> int:
    """Pairs of nonempty proper residue sets no two of whose members are
    equal or cyclically adjacent."""
    n = k + 1
    subsets = [
        frozenset(c) for r in range(1, n) for c in itertools.combinations(range(n), r)
    ]
    return sum(
        1
        for A in subsets
        for B in subsets
        if all((i - j) % n not in (0, 1, n - 1) for i in A for j in B)
    )


def order_props_counts(k: int, m: int) -> dict[str, int]:
    """Instance counts of `verify order-props` that follow from ball sizes.

    The radii are the clamps the suite documents for each check.
    """
    triple = ball_size(k, min(m, 4 if k <= 2 else 3))
    seed = ball_size(k, min(m, 4))
    zball = ball_size(k, min(m, 6))
    kball = ball_size(k, min(m, 6 if k <= 2 else 5))
    strips = bounded_partition_count(k, min(m + 1, 7))
    pairs = strongly_disjoint_pairs(k)
    return {
        "bruhat-matches-subword-oracle": ball_size(k, min(m, 7 if k <= 2 else 6)) ** 2,
        "strong-covers-are-reflections": cover_pairs(k, min(m, 5)),
        "weak-order-triple-splitting": triple**3,
        "demazure-product-factors": triple**2,
        "anti-demazure-factors": triple**2,
        "demazure-actions-monotone": triple**2,
        "half-strong-join-minimal": seed**2,
        "half-strong-meet-maximal": seed**2,
        "join-seed-minimal-both-forms": seed**2,
        "z-families-closed-and-bounded": zball,
        "minus-family-confined-to-code-row": zball,
        "strongly-disjoint-elements-commute": pairs,
        "strongly-commutative-splitting": pairs * seed,
        "kcode-round-trip-and-injective": kball,
        "dominance-reads-off-code": (k + 1) * kball,
        "bottom-row-is-inclusion-maximal": kball,
        "forbidden-index-never-in-a-strip": strips,
        "unique-size-k-strip-adds-one-row": strips,
        "strip-criteria-agree": strips,
    }


# Checks of `verify order-props` whose instance counts depend on the order
# relation itself rather than on ball sizes: only their presence and status
# are checked.
ORDER_PROPS_OTHER = (
    "demazure-preserves-order",
    "demazure-monotone-in-actor",
    "generator-actions-preserve-meet-join",
    "reduced-factorization-comparison",
    "interval-flip-anti-isomorphism",
    "weak-interval-chain-property",
    "plus-family-intersection-is-meet",
    "minus-family-intersection-is-join",
    "z-families-chain-property",
    "kcodes-monotone-in-weak-order",
    "strip-meet-is-strip-of-intersection",
)


def factorization_counts(k: int, m: int) -> dict[str, int]:
    p = bounded_partition_count(k, m)
    return {
        "ideal-sum-rectangle-factorization": k * p,
        "homogeneous-rectangle-factorization": k * p,
        "inhomogeneous-top-degree-is-homogeneous": p,
        "rectangle-union-shifts-strips": k * (k + 1) * p,
        "rectangle-union-shifts-ie-labels": k * (k + 1) * p,
    }


def pieri_sum_counts(k: int, m: int) -> dict[str, int]:
    p = bounded_partition_count(k, m)
    return {
        "signed-product-equals-interval-union": (k + 1) * p,
        "product-coefficients-are-zero-or-one": (k + 1) * p,
        "inclusion-exclusion-expands-to-product": (k + 1) * p,
        "product-support-above-weak-join": bounded_partition_count(k, min(m, 3)) ** 2,
    }


def expected_verdict(suite: str, k: int, m: int) -> tuple[dict[str, int], tuple[str, ...]]:
    """Counted checks and the other check names a suite must report."""
    if suite == "order-props":
        return order_props_counts(k, m), ORDER_PROPS_OTHER
    if suite == "factorization":
        return factorization_counts(k, m), ()
    if suite == "pieri-sum":
        return pieri_sum_counts(k, m), ()
    raise ValueError(f"no reference counts for suite {suite!r}")


def check_verdict(payload: dict, suite: str, k: int, m: int) -> str | None:
    counted, others = expected_verdict(suite, k, m)
    results = {r["name"]: r for r in payload["results"]}
    if len(results) != len(payload["results"]):
        return "a check is reported twice"
    if set(results) != set(counted) | set(others):
        return f"check names differ: {sorted(set(results) ^ (set(counted) | set(others)))}"
    for name, r in results.items():
        if not r["ok"] or r["failures"]:
            return f"{name} is not ok"
    for name, want in counted.items():
        if results[name]["instances"] != want:
            return f"{name}: {results[name]['instances']} instances, expected {want}"
    return None


# ---------------------------------------------------------------------------
# affine permutations as functions on the integers
# ---------------------------------------------------------------------------


def _s(n: int, i: int, x: int) -> int:
    """The generator s_i applied to the integer x: swaps classes i, i+1 mod n."""
    r = x % n
    if r == i % n:
        return x + 1
    if r == (i + 1) % n:
        return x - 1
    return x


def word_window(k: int, word) -> list[int]:
    """Window of s_{word[0]} ... s_{word[-1]}, evaluated point by point."""
    n = k + 1
    out = []
    for j in range(1, n + 1):
        x = j
        for a in reversed(word):
            x = _s(n, a, x)
        out.append(x)
    return out


def perm_length(window) -> int:
    """Inversions (i, j), 1 <= i <= n, i < j, w(i) > w(j), counted one by one."""
    n = len(window)
    low = min(window)
    count = 0
    for i in range(1, n + 1):
        wi = window[i - 1]
        q = 0
        while q * n + low < wi:
            for r in range(1, n + 1):
                j = q * n + r
                if j > i and window[r - 1] + q * n < wi:
                    count += 1
            q += 1
    return count


def decreasing_word(k: int, members) -> list[int]:
    """A cyclically decreasing word of a proper residue set: i+1 before i."""
    n = k + 1
    members = set(members)
    if not members:
        return []
    gap = next(i for i in range(n) if i not in members)
    return [(gap - step) % n for step in range(1, n) if (gap - step) % n in members]


def demazure_left(k: int, word, window) -> list[int]:
    """The 0-Hecke product s_{word[0]} * ... * s_{word[-1]} * v."""
    n = k + 1
    v = list(window)
    for a in reversed(word):
        up = [_s(n, a, x) for x in v]
        if perm_length(up) > perm_length(v):
            v = up
    return v


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def hook_rows(parts) -> list[list[int]]:
    """Hook length of every cell, row by row."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    return [[p - j + conj[j] - i - 1 for j in range(p)] for i, p in enumerate(parts)]


def _terms(elt: dict) -> dict[tuple[int, ...], int]:
    return {tuple(t["parts"]): int(t["coeff"]) for t in elt["terms"]}


# ---------------------------------------------------------------------------
# per-command checkers
# ---------------------------------------------------------------------------


def check_bij(payload: dict, k: int, lam: tuple[int, ...]) -> str | None:
    if tuple(payload["bounded"]["parts"]) != lam:
        return "bounded partition differs from the input"
    word = payload["word"]
    if len(word) != sum(lam):
        return f"reading word has {len(word)} letters for size {sum(lam)}"
    if payload["perm"]["window"] != word_window(k, word):
        return "window differs from the evaluated reading word"
    rows = hook_rows(payload["core"]["parts"])
    if any(h == k + 1 for row in rows for h in row):
        return f"core has a hook of length {k + 1}"
    short = tuple(sum(1 for h in row if h <= k) for row in rows)
    if tuple(x for x in short if x) != lam:
        return "core rows do not count back to the bounded partition"
    return None


def check_strips(payload: dict, k: int, lam: tuple[int, ...], r: int) -> str | None:
    if not payload["weak"]:
        return "no weak strip"
    for strip in payload["weak"]:
        if len(strip["A"]) != r:
            return f"weak strip {strip['A']} has not {r} indices"
        if sum(strip["top"]["parts"]) != sum(lam) + r:
            return f"weak top {strip['top']['parts']} has not size {sum(lam) + r}"
    return None


def check_pieri_ks(payload: dict, k: int, lam: tuple[int, ...], r: int) -> str | None:
    terms = _terms(payload["result"])
    if not terms:
        return "empty homogeneous Pieri product"
    for parts, c in terms.items():
        if sum(parts) != sum(lam) + r or c <= 0:
            return f"homogeneous term {parts} with coefficient {c}"
    return None


def check_pieri_g(payload: dict, ks_payload: dict, lam: tuple[int, ...], r: int) -> str | None:
    top = {p: c for p, c in _terms(payload["result"]).items() if sum(p) == sum(lam) + r}
    if top != _terms(ks_payload["result"]):
        return "top-degree part of the g product differs from the ks product"
    return None


def check_gtilde(payload: dict) -> str | None:
    if any(c != 1 for c in _terms(payload["interval_union"]).values()):
        return "an interval-union coefficient is not 1"
    total = sum(int(t["coeff"]) for t in payload["inclusion_exclusion"])
    if total != 1:
        return f"inclusion-exclusion coefficients sum to {total}"
    return None


def check_zsets(payload: dict) -> str | None:
    for name in ("plus", "minus"):
        fam = {frozenset(A) for A in payload[name]}
        if frozenset() not in fam:
            return f"{name} family lacks the empty set"
        for A, B in itertools.combinations(fam, 2):
            if A & B not in fam:
                return f"{name} family not closed under intersection"
    return None


def check_table1(payload: dict, k: int) -> str | None:
    u = payload["u"]["window"]
    lu = perm_length(u)
    if not payload["rows"]:
        return "empty fiber table"
    for row in payload["rows"]:
        v = row["v"]["window"]
        if demazure_left(k, decreasing_word(k, row["A"]), v) != u:
            return f"d_A * v != u for A={row['A']}, v={v}"
        if row["sign"] != (-1) ** (len(row["A"]) - (lu - perm_length(v))):
            return f"sign of row A={row['A']}, v={v} is wrong"
    return None
