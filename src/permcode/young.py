"""Exact combinatorics of Young diagrams: enumeration, hook lengths, irrep
dimensions and multiplicities, and the RSK shape of a word.

A diagram is the tuple of its row lengths, positive and weakly decreasing.
All counting is done with arbitrary-precision integers; probabilities are
exact ``fractions.Fraction`` values.  Log-domain variants (``log_dim_irrep``,
``log_multiplicity``) are provided for sizes where the exact integers are
too large to be useful as floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 66


class CapacityError(ValueError):
    """Raised when an exact-enumeration request exceeds the configured cap."""


class InternalInvariantError(AssertionError):
    """An identity that must hold failed to hold: a combinatorial identity
    here, or a convention of the dense checks in ``qsim``."""


def conjugate(rows: Sequence[int]) -> tuple[int, ...]:
    """Column lengths, in O(rows + columns): column j holds the rows longer than j."""
    cols = []
    height = len(rows)
    for j in range(rows[0] if rows else 0):
        while rows[height - 1] <= j:
            height -= 1
        cols.append(height)
    return tuple(cols)


def _hook_product(rows: Sequence[int]) -> int:
    """Product over all cells of (arm + leg + 1)."""
    conj = conjugate(rows)
    prod = 1
    for i, r in enumerate(rows):
        for j in range(r):
            prod *= r - j + conj[j] - i - 1
    return prod


def _content_product(rows: Sequence[int], d: int) -> int:
    """Product over cells (i, j) of (d - i + j), zero-indexed."""
    prod = 1
    for i, r in enumerate(rows):
        for j in range(r):
            prod *= d - i + j
    return prod


def enumerate_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[tuple[int, ...]]:
    """Every partition of n exactly once, in reverse-lexicographic order:
    (n,) first and (1, ..., 1) last.  Streaming: partitions are produced one
    at a time.  The cap is checked at the call, before the first one."""
    check_enumerable(n, cap)
    return _partitions_revlex(n)


def check_enumerable(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Raise CapacityError unless ``enumerate_partitions(n, cap)`` may run."""
    if n < 1:
        raise CapacityError(f"enumeration requires n >= 1, got {n}")
    if n > cap:
        raise CapacityError(
            f"n={n} exceeds the enumeration cap {cap}; use the sampling paths instead"
        )


def _partitions_revlex(n: int) -> Iterator[tuple[int, ...]]:
    """Raw partition generator in reverse-lexicographic order on row tuples."""
    part = [n]
    while True:
        yield tuple(part)
        # find rightmost entry > 1 to decrement
        k = len(part) - 1
        ones = 0
        while k >= 0 and part[k] == 1:
            ones += 1
            k -= 1
        if k < 0:
            return
        part[k] -= 1
        rem = ones + 1
        cap_val = part[k]
        del part[k + 1 :]
        while rem > 0:
            take = min(cap_val, rem)
            part.append(take)
            rem -= take


_PARTITION_COUNTS = [1]  # p(0), p(1), ..., extended bottom-up on demand


def partition_count(n: int) -> int:
    """p(n) via Euler's pentagonal-number recurrence, exact.  The table is
    filled bottom-up, so a cold call at any n needs no recursion."""
    if n < 0:
        raise ValueError(f"partition_count requires n >= 0, got {n}")
    table = _PARTITION_COUNTS
    for m in range(len(table), n + 1):
        total = 0
        k = 1
        while (g1 := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 == 1 else -1
            total += sign * table[m - g1]
            if g1 + k <= m:  # the second pentagonal number k(3k + 1)/2
                total += sign * table[m - g1 - k]
            k += 1
        table.append(total)
    return table[n]


def partition_count_at_most(n: int, k: int) -> int:
    """Partitions of n into at most k parts (equivalently, with parts at most k), exact."""
    if n < 0 or k < 0:
        raise ValueError(f"partition_count_at_most requires n, k >= 0, got ({n}, {k})")
    ways = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def dim_irrep(rows: Sequence[int]) -> int:
    """Dimension of the S_n irrep labeled by the diagram (hook-length formula)."""
    n = sum(rows)
    hooks = _hook_product(rows)
    nfact = math.factorial(n)
    q, r = divmod(nfact, hooks)
    if r != 0:
        raise InternalInvariantError(
            f"hook product {hooks} does not divide {n}! for diagram {rows}"
        )
    return q


def multiplicity(rows: Sequence[int], d: int) -> int:
    """Multiplicity of the irrep inside (C^d)^(tensor n): semistandard tableau count."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    content = _content_product(rows, d)
    hooks = _hook_product(rows)
    q, r = divmod(content, hooks)
    if r != 0:
        raise InternalInvariantError(
            f"hook product {hooks} does not divide content product {content} "
            f"for diagram {rows}, d={d}"
        )
    return q


def dim_mult_ratio(rows: Sequence[int], d: int) -> Fraction:
    """The exact ratio dim/multiplicity = n! / prod(d - i + j) over cells."""
    if len(rows) > d:
        raise ValueError(
            f"ratio undefined: diagram with {len(rows)} rows has zero multiplicity at d={d}"
        )
    n = sum(rows)
    return Fraction(math.factorial(n), _content_product(rows, d))


def log_dim_irrep(rows: Sequence[int]) -> float:
    """ln of the irrep dimension, computed as a sum of log hook terms."""
    n = sum(rows)
    conj = conjugate(rows)
    s = math.lgamma(n + 1)
    for i, r in enumerate(rows):
        for j in range(r):
            s -= math.log(r - j + conj[j] - i - 1)
    return s


def log_multiplicity(rows: Sequence[int], d: int) -> float:
    """ln of the multiplicity at d; -inf when the diagram has more than d rows."""
    if len(rows) > d:
        return float("-inf")
    conj = conjugate(rows)
    s = 0.0
    for i, r in enumerate(rows):
        for j in range(r):
            s += math.log(d - i + j) - math.log(r - j + conj[j] - i - 1)
    return s


def rsk_shape(word: Sequence[int]) -> tuple[int, ...]:
    """Shape of the insertion tableau of the word under RSK row insertion."""
    if len(word) == 0:
        raise ValueError("rsk_shape requires a non-empty word")
    tableau_rows: list[list[int]] = []
    for x in word:
        for row in tableau_rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                break
            x, row[pos] = row[pos], x
        else:
            tableau_rows.append([x])
    return tuple(len(row) for row in tableau_rows)
