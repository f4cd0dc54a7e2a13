"""Exact success probabilities for color-coding N boxes with d colors:
the quantum optimum, the classical optimum, and the counting bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .young import (
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    _content_product,
    _hook_product,
    _partitions_revlex,
    partition_count,
    partition_count_at_most,
)

#: Color ratio d/N separating the two asymptotic regimes.
CRITICAL_RATIO = 1.0 / math.e


@dataclass(frozen=True)
class CodingInstance:
    """One (N, d) problem: N boxes labeled with d-state systems."""

    n_boxes: int
    n_colors: int

    def __post_init__(self) -> None:
        if self.n_boxes < 1 or self.n_colors < 1:
            raise ValueError(
                f"need n_boxes >= 1 and n_colors >= 1, got ({self.n_boxes}, {self.n_colors})"
            )

    @property
    def above_critical(self) -> bool:
        """d/N > CRITICAL_RATIO, decided exactly: no float division, so d may
        exceed the float range."""
        return Fraction(self.n_colors, self.n_boxes) > CRITICAL_RATIO


@dataclass
class CodingReport:
    """Computed probabilities for one instance, with the method recorded."""

    instance: CodingInstance
    p_quantum: Fraction
    method: str  # "exact-enumeration"
    dim_w: int | None = None
    # per-diagram min(m, D) outcome counts: which side of the min wins
    min_side_counts: dict[str, int] = field(default_factory=dict)


def quantum_pmax_exact(instance: CodingInstance, cap: int | None = None) -> CodingReport:
    """Optimal quantum success probability (1/N!) * sum over diagrams of
    min(m, D) * D, computed exactly from one side of the m = D boundary.

    Since sum m*D = d^N and sum D^2 = N! over all diagrams,

        N! * P = d^N - sum over {m > D} of (m - D) * D    (d/N <= CRITICAL_RATIO)
        N! * P = N!  - sum over {m < D} of (D - m) * D    (d/N >  CRITICAL_RATIO)

    so only the diagrams on the side that carries the gap are visited, by the
    search in ``_gap_side``.  Above the critical ratio the zero-multiplicity
    diagrams (more than d rows, D - m = D) are summed on their own.  The
    ``min_side_counts`` of the side not visited follow exactly from p(N) and
    p(N, <= d parts).
    """
    n, d = instance.n_boxes, instance.n_colors
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n > cap:
        raise CapacityError(
            f"N={n} exceeds the enumeration cap {cap}; "
            "use the Monte Carlo estimators in permcode.asymptotics"
        )
    nfact = math.factorial(n)
    above = instance.above_critical
    gap, strict, ties = _gap_side(n, d, above)
    if above:
        dim_w = nfact - gap - _zero_mult_mass(n, d)
    else:
        dim_w = d**n - gap
    fits = partition_count_at_most(n, d)  # diagrams with m > 0
    hidden = fits - strict - ties
    dim_wins, mult_wins = (hidden, strict) if above else (strict, hidden)
    counts = {
        "dim_wins": dim_wins,
        "mult_wins": mult_wins,
        "ties": ties,
        "zero_mult": partition_count(n) - fits,
    }
    return CodingReport(
        instance=instance,
        p_quantum=Fraction(dim_w, nfact),
        method="exact-enumeration",
        dim_w=dim_w,
        min_side_counts=counts,
    )


def _gap_side(n: int, d: int, above: bool) -> tuple[int, int, int]:
    """Visit every diagram on the gap-carrying side of m = D, pruning by dominance.

    With C = prod over cells of (d + content), m = C/H and D = n!/H share the
    hook product H, so m > D exactly when C > n!.  Below the critical ratio
    the search keeps {C >= n!} among diagrams with at most d rows.  Above it
    the search runs over the conjugates (parts at most d, contents negated)
    and keeps {C <= n!}.  Moving a box up in dominance order strictly raises a
    nonzero C, and conjugation reverses dominance order, so in both cases the
    kept set is closed upward in the dominance order of the searched diagrams.

    Rows are chosen from the top, each no longer than the one above it, and
    longest first.  The dominance-largest completion of a prefix fills every
    further row to the length of its last row.  When that completion fails
    the test, or needs more rows than allowed, so does every completion of
    the prefix and every shorter choice of its last row.

    Returns (sum over the kept diagrams of |m - D| * D, the number of them
    with m != D, the number with m = D).
    """
    nfact = math.factorial(n)
    sign = -1 if above else 1
    max_rows = n if above else d
    row_products: dict[tuple[int, int], int] = {}

    def row(i: int, length: int) -> int:
        # prod over j < length of (d + sign * (j - i)), the factors of row i of
        # the searched diagram: `length` consecutive integers from `base` up
        key = (i, length)
        if key not in row_products:
            base = d + i - length + 1 if above else d - i
            row_products[key] = _content_product((length,), base)
        return row_products[key]

    gap = strict = ties = 0
    # shifted[i] = (length of row i) - i.  The hook product of rows 0..k is
    # prod_i (shifted[i] + k)! / V with V = prod_{i<j} (shifted[i] - shifted[j])
    # (the hook-length formula in Frobenius form), and V gains one factor per
    # earlier row as a row is added.
    shifted: list[int] = []

    def extend(prefix_product: int, vandermonde: int, remaining: int, longest: int) -> None:
        nonlocal gap, strict, ties
        k = len(shifted)
        top = min(longest, remaining)
        for length in range(top, 0, -1):
            full, rest = divmod(remaining, length)
            if k + full + (rest > 0) > max_rows:
                break
            product = prefix_product * row(k, length)
            # below a kept prefix, the longest choice completes to the
            # completion that kept the prefix
            if length < top or k == 0:
                completion = product
                for i in range(k + 1, k + full):
                    completion *= row(i, length)
                if rest:
                    completion *= row(k + full, rest)
                if sign * (completion - nfact) < 0:
                    break
            vandermonde_k = vandermonde * math.prod(map((k - length).__add__, shifted))
            shifted.append(length - k)
            if length == remaining:
                if product == nfact:
                    ties += 1
                else:
                    hooks = math.prod(map(math.factorial, map(k.__add__, shifted))) // vandermonde_k
                    strict += 1
                    gap += sign * (product - nfact) // hooks * (nfact // hooks)
            else:
                extend(product, vandermonde_k, remaining - length, length)
            shifted.pop()

    extend(1, 1, n, min(d, n) if above else n)
    return gap, strict, ties


def _zero_mult_mass(n: int, d: int) -> int:
    """Sum of D^2 over the diagrams with more than d rows.

    D is invariant under conjugation, so these are summed over the diagrams
    whose first row is longer than d, which reverse-lexicographic order
    yields first.
    """
    nfact = math.factorial(n)
    mass = 0
    for rows in _partitions_revlex(n):
        if rows[0] <= d:
            break
        mass += (nfact // _hook_product(rows)) ** 2
    return mass


def balanced_color_classes(n: int, d: int) -> list[int]:
    """Class sizes of the optimal classical coloring: as equal as possible."""
    if d >= n:
        return [1] * n
    q, r = divmod(n, d)
    return [q + 1] * r + [q] * (d - r)


def classical_success(instance: CodingInstance) -> Fraction:
    """Optimal classical success probability 1 / prod(class size factorials)."""
    sizes = balanced_color_classes(instance.n_boxes, instance.n_colors)
    denom = 1
    for s in sizes:
        denom *= math.factorial(s)
    return Fraction(1, denom)


def info_bound(instance: CodingInstance) -> Fraction:
    """Counting bound min(1, d^N / N!): channel states over message states.

    Always dominates the quantum optimum, since min(m, D) * D <= m * D
    summed over diagrams gives d^N.  For d >= N it is 1 without forming d^N,
    since then d^N >= N!.
    """
    n, d = instance.n_boxes, instance.n_colors
    if d >= n:
        return Fraction(1)
    return min(Fraction(1), Fraction(d**n, math.factorial(n)))
