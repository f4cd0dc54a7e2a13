"""Exact combinatorics of Young diagrams: enumeration, hook lengths, irrep
dimensions and multiplicities, and the RSK shape of a word.

A diagram is the tuple of its row lengths, positive and weakly decreasing.
All counting is done with arbitrary-precision integers; probabilities are
exact ``fractions.Fraction`` values.  Log-domain variants (``log_dim_irrep``,
``log_multiplicity``, both read from one pass in ``log_dim_and_mult``) are
provided for sizes where the exact integers are too large to be useful as
floats.
"""

from __future__ import annotations

import math
import sys
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


def log_dim_and_mult(rows: Sequence[int], d: int) -> tuple[float, float]:
    """(ln D, ln m) of the diagram at d in one pass over the cells, ln m =
    -inf when the diagram has more than d rows.  ln D is lgamma(n + 1) minus
    each ln h, and ln m sums ln(d + c) - ln h from 0.0, cells in row-major
    order, with h the hook and c = j - i the content of cell (i, j).  ln h and
    ln(d + c) come from lists over the diagram's own hooks and contents, built
    per call, so no table outlives a call or is sized by d.

    ln m is ln D exactly where m = D.  The two sums differ there by roundoff,
    so within a bound on it, 8 (n + 1) ulps of 1 + ln n!, m = D is decided as
    the exact search decides it: m/D = C/n!, so m = D where C = n!."""
    n, height, width = sum(rows), len(rows), rows[0] if rows else 0
    # ln h at index h: the hook of cell (i, j) is (rows[i] - i - 1) + (conj[j] - j),
    # at most width + height - 1 <= n at (0, 0)
    logs = [0.0, *map(math.log, range(1, width + height))]
    col_terms = [c - j for j, c in enumerate(conjugate(rows))]
    if height > d:  # m = 0: ln m is -inf, and zeros stand in for the logs of contents <= 0
        log_contents = [0.0] * (height + width - 1)
    else:  # ln(d + c) for the contents c = j - i from 1 - height up, at index c + height - 1
        log_contents = list(map(math.log, range(d + 1 - height, d + width)))
    log_dim, log_mult = math.lgamma(n + 1), 0.0
    for i, r in enumerate(rows):
        row_term = r - i - 1
        start = height - 1 - i
        for col_term, log_content in zip(col_terms[:r], log_contents[start:start + r]):
            log_hook = logs[row_term + col_term]
            log_dim -= log_hook
            log_mult += log_content - log_hook
    if height > d:
        return log_dim, float("-inf")
    roundoff = 8 * (n + 1) * sys.float_info.epsilon * (1.0 + math.lgamma(n + 1))
    if abs(log_mult - log_dim) <= roundoff and _content_product(rows, d) == math.factorial(n):
        return log_dim, log_dim
    return log_dim, log_mult


def log_dim_irrep(rows: Sequence[int]) -> float:
    """ln of the irrep dimension, computed as a sum of log hook terms."""
    return log_dim_and_mult(rows, 0)[0]  # at d = 0 no content is logged


def log_multiplicity(rows: Sequence[int], d: int) -> float:
    """ln of the multiplicity at d; -inf when the diagram has more than d rows."""
    return log_dim_and_mult(rows, d)[1]


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
