"""Exact success probabilities for color-coding N boxes with d colors:
the quantum optimum, the classical optimum, and the counting bound.
"""

from __future__ import annotations

import marshal
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, Iterable, Sequence

from .young import (
    DEFAULT_ENUMERATION_CAP,
    InternalInvariantError,
    _content_product,
    # unused here: the benchmark's tracer wraps these two bindings of coding
    _hook_product,
    _partitions_revlex,
    check_enumerable,
    partition_count,
    partition_count_at_most,
)

#: Color ratio d/N separating the two asymptotic regimes.
CRITICAL_RATIO = 1.0 / math.e

#: Smallest N whose exact search and Monte Carlo draws are split over the usable
#: CPUs by default (``_share_count``), between the crossovers the README gives.
SPLIT_FROM_N = 30


@dataclass(frozen=True)
class CodingInstance:
    """One (N, d) problem: N boxes labeled with d-state systems."""

    n_boxes: int
    n_colors: int

    def __post_init__(self) -> None:
        if self.n_boxes < 1 or self.n_colors < 1:
            raise ValueError(f"need n_boxes >= 1 and n_colors >= 1, got ({self.n_boxes}, {self.n_colors})")

    @property
    def above_critical(self) -> bool:
        """d/N > CRITICAL_RATIO, decided exactly: no float division, so d may
        exceed the float range."""
        return Fraction(self.n_colors, self.n_boxes) > CRITICAL_RATIO


@dataclass
class CodingReport:
    """P_max = dim_w / N! of one instance from the exact search, with its
    counters; ``method`` is a class constant, the same for every report."""

    method: ClassVar[str] = "exact-enumeration"
    p_quantum: Fraction
    dim_w: int
    # per-diagram min(m, D) outcome counts: which side of the min wins
    min_side_counts: dict[str, int]
    # the search in _gap_side, summed over its shares: prefixes visited, kept
    # and pruned, and the diagrams kept (leaves)
    search_counts: dict[str, int]


def quantum_pmax_exact(instance: CodingInstance, cap: int = DEFAULT_ENUMERATION_CAP) -> CodingReport:
    """Optimal quantum success probability (1/N!) * sum over diagrams of
    min(m, D) * D, computed exactly from one side of the m = D boundary.

    Since sum m*D = d^N and sum D^2 = N! over all diagrams,

        N! * P = d^N - sum over {m > D} of (m - D) * D    (d/N <= CRITICAL_RATIO)
        N! * P = N!  - sum over {m < D} of (D - m) * D    (d/N >  CRITICAL_RATIO)

    so only the diagrams on the side that carries the gap are visited, by the
    search in ``_gap_side``; above the critical ratio that side includes the
    diagrams with more than d rows (m = 0), whose count p(N) - p(N, <= d
    parts) is taken off the search's.  The ``min_side_counts`` of the side
    not visited follow exactly from p(N) and p(N, <= d parts).
    """
    n, d = instance.n_boxes, instance.n_colors
    check_enumerable(n, cap)
    nfact = math.factorial(n)
    above = instance.above_critical
    gap, strict, ties, search_counts = _gap_side(n, d, above)
    dim_w = (nfact if above else d**n) - gap
    fits = partition_count_at_most(n, d)  # diagrams with m > 0
    zero_mult = partition_count(n) - fits
    if above:
        strict -= zero_mult
    hidden = fits - strict - ties
    dim_wins, mult_wins = (hidden, strict) if above else (strict, hidden)
    counts = {"dim_wins": dim_wins, "mult_wins": mult_wins, "ties": ties, "zero_mult": zero_mult}
    return CodingReport(Fraction(dim_w, nfact), dim_w, counts, search_counts)


def _gap_side(n: int, d: int, above: bool) -> tuple[int, int, int, dict[str, int]]:
    """Visit every diagram on the gap-carrying side of m = D, pruning by dominance.

    With C = prod over cells of (d + content), m = C/H and D = n!/H share the
    hook product H, so m > D exactly when C > n!.  Below the critical ratio
    the search keeps {C >= n!} among diagrams with at most d rows.  Above it
    the search runs over the conjugates of all diagrams (contents negated)
    and keeps {C <= n!}.  A conjugate whose first row is longer than d has
    C = 0 (m = 0), which passes, and adds (n! - 0)/H * n!/H = D^2 to the gap.
    Moving a box up in dominance order strictly raises a nonzero C and never
    shortens the first row, and conjugation reverses dominance order, so in
    both cases the kept set is closed upward in the dominance order of the
    searched diagrams.

    Rows are chosen from the top, each no longer than the one above it, and
    longest first.  The dominance-largest completion of a prefix fills every
    further row to the length of its last row.  When that completion fails
    the test, or needs more rows than allowed, so does every completion of
    the prefix and every shorter choice of its last row.  Below a row of
    length 1 every row is 1 and none is tested, so such a row finishes its
    leaf in one step: r rows of 1 added as rows k, k+1, ... to a prefix with
    hook product H and shifted lengths s_i = (length of row i) - i give
    H * r! * prod_i (s_i + k + r - 1) / prod_i (s_i + k - 1).  The row and
    completion products are kept in two whole tables that last for one search.

    The first rows that pass the test are dealt round-robin into the shares
    that ``_share_count`` gives at N = n.  Share 0 runs in this process and
    each other share in a forked child (``_over_shares``).  Every partial
    result is an integer, so the split cannot change the sum.

    Returns (sum over the gap side of |m - D| * D, the number of searched
    diagrams with m != D, m = 0 included, the number with m = D, the search
    counters).
    """
    nfact = math.factorial(n)
    sign = -1 if above else 1
    bound = sign * nfact  # a completion passes the test when sign * C >= bound
    max_rows = n if above else d
    factorials = [1]
    for i in range(1, n + 1):
        factorials.append(factorials[-1] * i)
    # Both tables are filled on demand, and neither is read under a zero
    # prefix, where every product is 0 and every completion passes.
    @lru_cache(maxsize=None)
    def row(i: int, length: int) -> int:
        # the product of the factors of row i of the searched diagram, prod
        # over j < length of (d + sign * (j - i)): `length` consecutive
        # integers from `base` up
        base = d + i - length + 1 if above else d - i
        return _content_product((length,), base)

    @lru_cache(maxsize=None)
    def tail(k: int, remaining: int, length: int) -> int:
        # the product of the rows k, k+1, ... of the dominance-largest
        # completion, 0 if it needs more than max_rows rows
        full, rest = divmod(remaining, length)
        if k + full + (rest > 0) > max_rows:
            return 0
        product = math.prod([row(i, length) for i in range(k, k + full)])
        return product * row(k + full, rest) if rest else product

    firsts = []  # the first rows whose completion passes, longest first
    for length in range(n, 0, -1):
        if sign * tail(0, n, length) < bound:
            break
        firsts.append(length)

    shares = _share_count(len(firsts), n)

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
            signed = sign * prefix
            grown = hooks * math.prod(map(k.__add__, shifted))  # the same for every length
            for length in lengths:
                if length < tested_below and signed * tail(k, remaining, length) < bound:
                    pruned += 1
                    return
                kept += 1
                if length == 1 < remaining:
                    # every further row is 1 and none is tested: count the
                    # chain's links and finish its leaf in one step.  The
                    # test just above has usually cached the completion.
                    kept += remaining - 1
                    h = (
                        hooks * factorials[remaining] * math.prod(map((k + remaining - 1).__add__, shifted))
                        // math.prod(map((k - 1).__add__, shifted))
                    )
                    product = prefix and prefix * tail(k, remaining, 1)
                else:
                    h = grown * factorials[length] // math.prod(map((k - length).__add__, shifted))
                    product = prefix and prefix * row(k, length)
                    if length < remaining:
                        # the longest next row completes to the completion
                        # that kept this prefix, so it needs no test, and
                        # under a zero prefix no row does
                        first = min(length, remaining - length)
                        shifted.append(length - k)
                        extend(product, h, remaining - length, range(first, 0, -1), first if product else 0)
                        shifted.pop()
                        continue
                if product == nfact:
                    ties += 1
                else:
                    strict += 1
                    gap += (product - nfact) // h * (nfact // h)

        extend(1, 1, n, firsts[j::shares], 0)
        return sign * gap, strict, ties, kept, pruned

    try:
        parts = _over_shares(share, [5] * shares, "exact search")  # gap, strict, ties, kept, pruned
        gap, strict, ties, kept, pruned = map(sum, zip(*parts))
    finally:
        # the recursive closures form a reference cycle, which would keep the
        # tables until the next garbage collection
        row.cache_clear()
        tail.cache_clear()
    pruned += len(firsts) < n
    counts = {"visited": kept + pruned, "kept": kept, "pruned": pruned, "leaves": strict + ties}
    return gap, strict, ties, counts


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share_count(items: int, n: int) -> int:
    """How many shares ``items`` pieces of the exact search or the Monte Carlo
    draws at N = ``n`` are dealt into: one below SPLIT_FROM_N and one per
    usable CPU from it on, never more than ``items``; one without ``os.fork``."""
    if n < SPLIT_FROM_N or not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), items))


def _over_shares(
    work: Callable[[int], tuple[int | float, ...]], sizes: Sequence[int], what: str
) -> list[tuple[int | float, ...]]:
    """[work(0), ..., work(P - 1)] for P = len(sizes) shares, where work(j)
    returns a tuple of sizes[j] integers and floats; ``what`` names the work
    in failure messages.

    Share 0 runs in this process; each other share runs in a child made with
    ``os.fork``, which sends its tuple back over a pipe and leaves through
    ``os._exit``, so it never flushes this process's buffers or runs its exit
    hooks.  A child runs pure Python on the objects it was forked with, and
    touches neither numpy nor any file but its pipe, so no lock held by
    another thread of this process (numpy's BLAS pool, say) can block it.
    The tuple crosses the pipe as marshal bytes, which keep every integer and
    every float bit for bit.  A child that fails, or sends nothing readable,
    raises InternalInvariantError here.  However this call ends, no child
    outlives it.
    """
    pending: dict[int, tuple[int, int]] = {}  # pid -> (share, read end of its pipe), until reaped
    try:
        for j in range(1, len(sizes)):
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
                    os.write(2, f"share {j} of the {what} failed: {exc!r}\n".encode())
                finally:
                    os._exit(status)
            os.close(write_fd)
            pending[pid] = j, read_fd
        parts = [work(0)]
        for pid, (j, read_fd) in list(pending.items()):
            part = _receive_totals(read_fd, sizes[j], f"share {j} of the {what}")
            _, status = os.waitpid(pid, 0)
            del pending[pid]
            os.close(read_fd)
            if status:
                raise InternalInvariantError(f"share {j} of the {what} (pid {pid}) ended with wait status {status}")
            parts.append(part)
        return parts
    finally:
        if pending:
            from signal import SIGKILL

            for pid, (_, read_fd) in pending.items():
                os.close(read_fd)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _send_totals(fd: int, totals: tuple[int | float, ...]) -> None:
    """Write a tuple of integers and floats to ``fd`` as marshal bytes.  Never
    through str(): Python refuses to print an integer of more than 4300
    digits, and a float would lose bits."""
    data = memoryview(marshal.dumps(tuple(totals)))
    while data:
        data = data[os.write(fd, data) :]


def _receive_totals(fd: int, count: int, sender: str = "a share") -> tuple[int | float, ...]:
    """Read ``fd`` to its end and decode the ``count`` integers and floats
    sent by ``_send_totals``; ``sender`` names the writer in the error."""
    chunks = []
    while chunk := os.read(fd, 4096):
        chunks.append(chunk)
    try:
        totals = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        totals = None
    if type(totals) is not tuple or len(totals) != count or any(type(t) not in (int, float) for t in totals):
        raise InternalInvariantError(f"{sender} sent no {count} numbers")
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
