"""Exact success probabilities for color-coding N boxes with d colors:
the quantum optimum, the classical optimum, and the counting bound.
"""

from __future__ import annotations

import marshal
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .young import (
    CapacityError,
    DEFAULT_ENUMERATION_CAP,
    InternalInvariantError,
    _content_product,
    _hook_product,
    _partitions_revlex,
    partition_count,
    partition_count_at_most,
)

#: Color ratio d/N separating the two asymptotic regimes.
CRITICAL_RATIO = 1.0 / math.e

#: Smallest N whose exact search is split over the usable CPUs.  Below it a
#: search takes a few milliseconds, the order of what a fork and reaping the
#: child cost.
SPLIT_FROM_N = 40

#: Completion products the exact search keeps at once.  The cache starts over
#: when full, which bounds its memory at any N.
TAIL_CACHE_SIZE = 256


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
    # the search in _gap_side, summed over its shares: prefixes visited, kept
    # and pruned, and the diagrams kept (leaves)
    search_counts: dict[str, int] = field(default_factory=dict)


def quantum_pmax_exact(instance: CodingInstance, cap: int | None = None) -> CodingReport:
    """Optimal quantum success probability (1/N!) * sum over diagrams of
    min(m, D) * D, computed exactly from one side of the m = D boundary.

    Since sum m*D = d^N and sum D^2 = N! over all diagrams,

        N! * P = d^N - sum over {m > D} of (m - D) * D    (d/N <= CRITICAL_RATIO)
        N! * P = N!  - sum over {m < D} of (D - m) * D    (d/N >  CRITICAL_RATIO)

    so only the diagrams on the side that carries the gap are visited, by the
    search in ``_gap_side``.  The ``min_side_counts`` of the side not visited
    follow exactly from p(N) and p(N, <= d parts).
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
    gap, strict, ties, search_counts = _gap_side(n, d, above)
    dim_w = (nfact if above else d**n) - gap
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
        search_counts=search_counts,
    )


def _gap_side(
    n: int, d: int, above: bool, shares: int | None = None
) -> tuple[int, int, int, dict[str, int]]:
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

    The first rows that pass the test are dealt round-robin into ``shares``
    shares, by default one per usable CPU from N = SPLIT_FROM_N on.  Share 0
    runs in this process and each other share in a forked child
    (``_sum_over_shares``).  Every partial result is an integer, so the split
    cannot change the sum.

    Returns (sum over the gap side of |m - D| * D, the number of searched
    diagrams with m != D, the number with m = D, the search counters).
    Above the critical ratio the gap side also holds the diagrams with more
    than d rows (m = 0), whose D^2 the shares sum in ``_zero_mult_mass``,
    likewise dealt round-robin.
    """
    nfact = math.factorial(n)
    sign = -1 if above else 1
    bound = sign * nfact  # a completion passes the test when sign * C >= bound
    max_rows = n if above else d
    top = min(d, n) if above else n
    factorials = [1]
    for i in range(1, top + 1):
        factorials.append(factorials[-1] * i)
    # Both tables are filled on demand.  rows[i][length] is the product of the
    # factors of row i of the searched diagram, 0 until filled.  tails[k,
    # remaining, length] is the product of the rows k, k+1, ... of the
    # dominance-largest completion, 0 if it needs more than max_rows rows;
    # it holds at most TAIL_CACHE_SIZE of them.
    rows: list[list[int] | None] = [None] * max_rows
    tails: dict[tuple[int, int, int], int] = {}

    def row_table(i: int) -> list[int]:
        rows[i] = [0] * (top + 1)
        return rows[i]

    def row(i: int, length: int) -> int:
        # prod over j < length of (d + sign * (j - i)): `length` consecutive
        # integers from `base` up
        table = rows[i] or row_table(i)
        if not table[length]:
            base = d + i - length + 1 if above else d - i
            table[length] = _content_product((length,), base)
        return table[length]

    def tail(k: int, remaining: int, length: int) -> int:
        full, rest = divmod(remaining, length)
        product = 0
        if k + full + (rest > 0) <= max_rows:
            product = math.prod([row(i, length) for i in range(k, k + full)])
            if rest:
                product *= row(k + full, rest)
        if len(tails) == TAIL_CACHE_SIZE:
            tails.clear()
        tails[k, remaining, length] = product
        return product

    firsts = []  # the first rows whose completion passes, longest first
    for length in range(top, 0, -1):
        if sign * tail(0, n, length) < bound:
            break
        firsts.append(length)

    if shares is None:
        shares = _usable_cpus() if n >= SPLIT_FROM_N else 1
    if not hasattr(os, "fork"):
        shares = 1
    shares = max(1, min(shares, len(firsts)))

    def share(j: int) -> tuple[int, int, int, int, int]:
        gap = strict = ties = kept = pruned = 0
        # shifted[i] = (length of row i) - i.  Adding row k of length l to a
        # prefix with hook product H gives the hook product
        # H * l! * prod_i (shifted[i] + k) / prod_i (shifted[i] + k - l),
        # by the hook-length formula in Frobenius form.
        shifted: list[int] = []

        def extend(prefix: int, hooks: int, remaining: int, lengths: Iterable[int], tested_below: int) -> None:
            # try each row length in `lengths` (decreasing) as row k; only
            # lengths below `tested_below` need the completion test
            nonlocal gap, strict, ties, kept, pruned
            k = len(shifted)
            row_k = rows[k] or row_table(k)
            signed = sign * prefix
            grown = hooks * math.prod(map(k.__add__, shifted))  # the same for every length
            for length in lengths:
                if length < tested_below and signed * (
                    tails.get((k, remaining, length)) or tail(k, remaining, length)
                ) < bound:
                    pruned += 1
                    return
                kept += 1
                h = grown * factorials[length] // math.prod(map((k - length).__add__, shifted))
                product = prefix * (row_k[length] or row(k, length))
                if length < remaining:
                    # the longest next row completes to the completion that
                    # kept this prefix, so it needs no test
                    first = min(length, remaining - length)
                    shifted.append(length - k)
                    extend(product, h, remaining - length, range(first, 0, -1), first)
                    shifted.pop()
                elif product == nfact:
                    ties += 1
                else:
                    strict += 1
                    gap += (product - nfact) // h * (nfact // h)

        extend(1, 1, n, firsts[j::shares], 0)
        gap *= sign
        if above:
            gap += _zero_mult_mass(n, d, j, shares)
        return gap, strict, ties, kept, pruned

    try:
        gap, strict, ties, kept, pruned = _sum_over_shares(share, shares)
    finally:
        # the recursive closures form a reference cycle, which would keep the
        # tables until the next garbage collection
        rows.clear()
        tails.clear()
    pruned += len(firsts) < top
    counts = {"visited": kept + pruned, "kept": kept, "pruned": pruned, "leaves": strict + ties}
    return gap, strict, ties, counts


def _zero_mult_mass(n: int, d: int, share: int, shares: int) -> int:
    """Sum of D^2 over every shares-th diagram with more than d rows, from the
    share-th on.

    D is invariant under conjugation, so these are summed over the diagrams
    whose first row is longer than d, which reverse-lexicographic order
    yields first.
    """
    nfact = math.factorial(n)
    mass = 0
    for index, rows in enumerate(_partitions_revlex(n)):
        if rows[0] <= d:
            break
        if index % shares == share:
            mass += (nfact // _hook_product(rows)) ** 2
    return mass


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sum_over_shares(work: Callable[[int], tuple[int, ...]], shares: int) -> tuple[int, ...]:
    """work(j) for j = 0, ..., shares - 1, summed entry by entry.

    Share 0 runs in this process; each other share runs in a child made with
    ``os.fork``, which sends its integers back over a pipe and leaves through
    ``os._exit``, so it never flushes this process's buffers or runs its exit
    hooks.  A child runs only integer arithmetic, so no lock held by another
    thread of this process (numpy's BLAS pool, say) can block it.  A child
    that fails, or sends nothing readable, raises InternalInvariantError here.
    However this call ends, no child outlives it.
    """
    if shares == 1:
        return work(0)
    pending: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for j in range(1, shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    _send_totals(write_fd, work(j))
                    os.close(write_fd)
                    status = 0
                except Exception as exc:
                    os.write(2, f"share {j} of the exact search failed: {exc!r}\n".encode())
                finally:
                    os._exit(status)
            os.close(write_fd)
            pending[pid] = read_fd
        totals = list(work(0))
        for pid, read_fd in list(pending.items()):
            part = _receive_totals(read_fd, len(totals))
            _, status = os.waitpid(pid, 0)
            del pending[pid]
            os.close(read_fd)
            if status:
                raise InternalInvariantError(f"exact search child {pid} ended with wait status {status}")
            totals = [a + b for a, b in zip(totals, part)]
        return tuple(totals)
    finally:
        if pending:
            from signal import SIGKILL

            for pid, read_fd in pending.items():
                os.close(read_fd)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _send_totals(fd: int, totals: tuple[int, ...]) -> None:
    """Write a tuple of integers to ``fd`` as marshal bytes.  Never through
    str(): Python refuses to print an integer of more than 4300 digits."""
    data = memoryview(marshal.dumps(tuple(totals)))
    while data:
        data = data[os.write(fd, data) :]


def _receive_totals(fd: int, count: int) -> tuple[int, ...]:
    """Read ``fd`` to its end and decode the ``count`` integers sent by ``_send_totals``."""
    chunks = []
    while chunk := os.read(fd, 4096):
        chunks.append(chunk)
    try:
        totals = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        totals = None
    if type(totals) is not tuple or len(totals) != count or any(type(t) is not int for t in totals):
        raise InternalInvariantError(f"an exact search share sent no {count} integers")
    return totals


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
