"""Empirical checks of the asymptotic machinery: Plancherel and Schur-Weyl
tail bounds, the partition-count growth bound, and Monte Carlo estimation of
the optimal success probability beyond the exact enumeration cap.  Every
random diagram comes from the one seeded stream of words in ``_draw_words``:
the estimators take their RSK shapes in ``_block_logs``, and only the
``sample`` command reads them through ``draw_shapes``.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator

from .coding import _over_shares, _share_count
from .young import (
    DEFAULT_ENUMERATION_CAP,
    check_enumerable,
    enumerate_partitions,
    log_dim_and_mult,
    log_dim_irrep,
    log_multiplicity,
    partition_count,
    rsk_shape,
)

#: Hardy-Ramanujan exponent; default constant for the partition-growth bound.
HARDY_RAMANUJAN_C = math.pi * math.sqrt(2.0 / 3.0)

#: Plancherel share of the defensive-mixture proposal behind
#: pmax_estimate_plancherel (Hesterberg 1995; Owen & Zhou 2000).
PLANCHEREL_SHARE = 0.99

#: Miss probability of the rule-of-three bar reported when no draw was informative.
RULE_OF_THREE_MISS = 0.05

#: Slack above which a Kerov-type tail bound counts as violated, beyond roundoff.
KEROV_TOL = 1e-12

#: Draws an estimator deals over its shares at a time: the parent holds the
#: log ratio of at most this many draws, whatever the sample count, and
#: ``_log_dim_mult`` caches at most this many diagrams.
DRAW_BLOCK = 4096


@dataclass
class BoundCheckReport:
    """Result of verifying a per-diagram (or per-n) inequality exhaustively."""

    checked: int
    violations: int
    vacuous: int
    max_slack: float  # max over non-vacuous cases of lhs - rhs in log domain


@dataclass
class McEstimate:
    """Monte Carlo estimate of the optimal success probability,
    ratio * e^log_scale with error bar ratio_stderr * e^log_scale; the
    instance, the sample count and the seed are the caller's.  The sampled
    mean relative to the estimator's own trivial bound e^log_bound is
    ratio * e^(log_scale - log_bound), at any scale."""

    method: str
    # the raw sampled mean, relative to the scale e^log_scale it estimates against
    ratio: float
    ratio_stderr: float
    log_scale: float
    # ln of the trivial bound the mean is sampled against: ln(d^n/n!) for pure
    # Schur-Weyl draws, 0 otherwise; log_scale differs from it only by a shift
    log_bound: float
    # draws from the diagrams that carry the gap between the estimate and its
    # trivial bound; with none, or with no positive weight, ratio_stderr is
    # the rule-of-three bound
    informative: int
    # which error bar ratio_stderr is, as the report names it
    bar: str

    @property
    def estimate(self) -> float:
        return times_exp(self.ratio, self.log_scale)

    @property
    def stderr(self) -> float:
        return times_exp(self.ratio_stderr, self.log_scale)


def times_exp(x: float, log_scale: float) -> float:
    """x * e^log_scale for x >= 0 as a float, which is 0 or inf where it leaves the float range."""
    try:
        return x * math.exp(log_scale)
    except OverflowError:
        return math.inf if x else 0.0


@lru_cache(maxsize=DRAW_BLOCK)
def _log_dim_mult(rows: tuple[int, ...], d: int) -> tuple[float, float]:
    """(ln D, ln m) of a Monte Carlo draw's diagram at d, from
    ``log_dim_and_mult``: ln m = -inf at m = 0, and ln D at m = D.  Draws
    repeat diagrams at small n, so the pairs of up to one block's draws are
    cached."""
    return log_dim_and_mult(rows, d)


def _tally(slacks: Iterable[float | None], violated: Callable[[float], bool]) -> BoundCheckReport:
    """The report of one bound check from the log-domain slack lhs - rhs of
    each case, None where the bound is vacuous.  A slack of -inf (a case of
    weight 0) is checked, never violated, and leaves max_slack as it is."""
    report = BoundCheckReport(checked=0, violations=0, vacuous=0, max_slack=float("-inf"))
    for slack in slacks:
        report.checked += 1
        if slack is None:
            report.vacuous += 1
        else:
            report.max_slack = max(report.max_slack, slack)
            report.violations += violated(slack)
    return report


def kerov_bound_check(n_max: int, cap: int = DEFAULT_ENUMERATION_CAP) -> BoundCheckReport:
    """Verify, for every diagram of every n <= n_max, the Plancherel tail
    bound mu(rho) <= exp(-2 * c1 * (ln(c1/sqrt(n)) - 1)) with c1 the
    first-column length.  The bound is vacuous when the right side is >= 1."""
    check_enumerable(n_max, cap)

    def slacks() -> Iterator[float | None]:
        for n in range(1, n_max + 1):
            lg_nfact, sqrt_n = math.lgamma(n + 1), math.sqrt(n)
            for rows in enumerate_partitions(n, cap=cap):
                rhs = -2.0 * len(rows) * (math.log(len(rows) / sqrt_n) - 1.0)
                yield None if rhs >= 0.0 else 2.0 * log_dim_irrep(rows) - lg_nfact - rhs  # ln mu(rho) - rhs

    return _tally(slacks(), KEROV_TOL.__lt__)


def check_row_bound_args(n: int, d: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Raise ValueError unless ``kerov_row_bound_check(n, d, cap)`` may run."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    check_enumerable(n, cap)


def kerov_row_bound_check(n: int, d: int, cap: int = DEFAULT_ENUMERATION_CAP) -> BoundCheckReport:
    """Per-diagram check of the Schur-Weyl tail bound
    mu(rho) <= exp(-r1 * (2 * (ln(r1/sqrt(n)) - 1) - 1/(2r))) with r1 the
    first-row length and r = d/n.  1/(2r) is the one correctly rounded
    division n/(2d) of two exact integers, so it is 0.0, not an overflow,
    where d leaves the float range.  Stated asymptotically, so violations are
    reported, not asserted."""
    check_row_bound_args(n, d, cap)
    half_inv_r, sqrt_n, log_dn = n / (2 * d), math.sqrt(n), n * math.log(d)

    def slack(rows: tuple[int, ...]) -> float | None:
        rhs = -rows[0] * (2.0 * (math.log(rows[0] / sqrt_n) - 1.0) - half_inv_r)
        if rhs >= 0.0:
            return None
        # ln of the Schur-Weyl weight - rhs, -inf at weight 0 (ln m = -inf)
        return log_dim_irrep(rows) + log_multiplicity(rows, d) - log_dn - rhs

    return _tally(map(slack, enumerate_partitions(n, cap=cap)), KEROV_TOL.__lt__)


def check_growth_bound_args(n_max: int, erdos_c: float) -> None:
    """Raise ValueError unless ``erdos_bound_check(n_max, erdos_c)`` may run."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not math.isfinite(erdos_c):  # every slack would be nan or infinite: nothing tested
        raise ValueError(f"the growth constant must be finite, got {erdos_c}")


def erdos_bound_check(n_max: int, erdos_c: float = HARDY_RAMANUJAN_C) -> BoundCheckReport:
    """Check p(n) < exp(C * sqrt(n)) for every n up to n_max, with exact p(n):
    a slack of 0 or more is a violation."""
    check_growth_bound_args(n_max, erdos_c)
    slacks = (math.log(partition_count(n)) - erdos_c * math.sqrt(n) for n in range(1, n_max + 1))
    return _tally(slacks, (0.0).__le__)


def log_counting_bound(n: int, d: int) -> float:
    """ln(d^n/n!): the counting bound of ``coding.info_bound`` before its min with 1."""
    return n * math.log(d) - math.lgamma(n + 1)


def _mean_stderr(values_sum: float, values_sumsq: float, k: int) -> tuple[float, float]:
    mean = values_sum / k
    if k < 2:
        return mean, 0.0
    var = max(0.0, (values_sumsq - k * mean * mean) / (k - 1))
    return mean, math.sqrt(var / k)


def _log_add(x: float, y: float) -> float:
    """ln(e^x + e^y) without overflow; exact when one side is -inf."""
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def _draw_words(n: int, d: int, count: int, seed: int, plancherel_share: float) -> Iterator[list[int]]:
    """The words whose RSK shapes ``draw_shapes`` yields, with letters from
    0.  Each uniform choice below m is ``random.Random._randbelow``'s: draw
    getrandbits(k), k = m.bit_length(), until the draw is below m.  So a
    permutation is ``rng.shuffle`` of range(n) and a word is ``rng.randint(1,
    d)`` n times, less 1, from the same random numbers, leaving the same
    state.  A permutation is shuffled in place, so each word is valid only
    until the next is drawn."""
    if n < 1 or count < 1 or (plancherel_share < 1.0 and d < 1):
        raise ValueError(f"need n, count >= 1 and, for Schur-Weyl draws, d >= 1, got ({n}, {count}, {d})")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    letter_bits = d.bit_length()
    perm = list(range(n))
    for _ in range(count):
        if plancherel_share > 0.0 and rng.random() < plancherel_share:
            for i in range(n - 1, 0, -1):  # swap perm[i] with perm[j], j uniform in 0..i
                k = (i + 1).bit_length()
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                perm[i], perm[j] = perm[j], perm[i]
            yield perm
        else:
            word = []
            for _ in range(n):
                letter = getrandbits(letter_bits)
                while letter >= d:
                    letter = getrandbits(letter_bits)
                word.append(letter)
            yield word


def draw_shapes(n: int, d: int, count: int, seed: int, plancherel_share: float) -> Iterator[tuple[int, ...]]:
    """``count`` random diagrams of n boxes from one ``random.Random(seed)``
    stream: with probability ``plancherel_share`` the RSK shape of a uniform
    permutation (Plancherel measure D^2/n!), else of a uniform word over d
    letters (Schur-Weyl measure m*D/d^n).  A share of 1 draws Plancherel
    shapes only, and d is then not read; a share of 0 draws Schur-Weyl shapes
    only and spends no random number on the choice."""
    for word in _draw_words(n, d, count, seed, plancherel_share):
        yield rsk_shape(word)


def _block_logs(words: Iterator[list[int]], d: int, block: int, shares: int, j: int) -> tuple[float, ...]:
    """ln m - ln D of the diagrams of the next ``block`` words' draws j,
    j + shares, ...; the other words are drawn and skipped."""
    logs = []
    for i, word in enumerate(islice(words, block)):
        if i % shares == j:
            log_dim, log_mult = _log_dim_mult(rsk_shape(word), d)
            logs.append(log_mult - log_dim)
    return tuple(logs)


def _draw_logs(n: int, d: int, count: int, seed: int, plancherel_share: float) -> Iterator[float]:
    """ln(m/D) = ln m - ln D of each diagram of ``draw_shapes``, in draw
    order: -inf where m = 0, and 0 exactly where m = D (``_log_dim_mult``).

    The draws are dealt DRAW_BLOCK at a time over ``coding._over_shares``,
    into the P shares that ``coding._share_count`` gives at N = n: draw i of
    a block goes to share i mod P.  Each share runs the block's stretch of
    the one seeded stream, from the state its process was forked with, and
    takes the RSK shape of its own words only.  It sends one float per draw,
    bit for bit, and the floats are interleaved back into draw order, so
    they equal a one-process run's at any share count.
    """
    words = _draw_words(n, d, count, seed, plancherel_share)
    shares = _share_count(count, n)
    for start in range(0, count, DRAW_BLOCK):
        block = min(DRAW_BLOCK, count - start)
        dealt = min(shares, block)
        sizes = [len(range(j, block, dealt)) for j in range(dealt)]
        parts = _over_shares(partial(_block_logs, words, d, block, dealt), sizes, "Monte Carlo draws")
        logs = [0.0] * block
        for j, part in enumerate(parts):
            logs[j::dealt] = part
        yield from logs


def _mixture_estimate(n: int, d: int, sample_count: int, seed: int, alpha: float) -> McEstimate:
    """Importance-sampling core shared by both estimators.

    P_max is the sum over diagrams of f = min(m, D) * D / n!.  The draws come
    from ``draw_shapes`` with Plancherel share alpha, 0 <= alpha < 1, so from
    q = alpha * Plancherel + (1 - alpha) * Schur-Weyl, and each contributes the
    weight f/q = 1 / (alpha/min(1, m/D) + (1-alpha)/(B*min(1, D/m))), B = d^n/n!,
    or 0 when the diagram has more than d rows: a function of ln(m/D) alone.
    The weight is bounded by min(1/alpha, B/(1-alpha)), and it is evaluated
    in log space because B over- or underflows a float at large n.  Where
    the square of the largest weight would underflow a normal float, the
    weights are kept relative to the largest one, which moves into the scale;
    a bar from the weight bound (below) moves it to that bound where larger.

    The sampled mean is kept relative to the trivial bound that P_max falls
    short of: B for pure Schur-Weyl draws (alpha = 0), 1 otherwise.  A draw is
    informative when its diagram lies where that shortfall comes from: m > D
    against B, m < D against 1, never m = D, which is decided exactly.  The
    error bar is the draws' spread only when at least two draws, one of them
    informative, gave some positive weight.  If no draw was informative, or
    every weight was 0, the diagrams that carry the gap went unseen: their
    q-mass is below 1 - 0.05^(1/k) at 95% confidence (the rule of three,
    about 3/k for k draws), and the error bar of the mean is raised to that
    mass times the weight bound.  A single draw shows no spread, so its error
    bar is the weight bound itself.  Only where q puts all its mass on one
    diagram (n = 1, or d = 1 with pure Schur-Weyl draws) is a zero bar exact.
    ``bar`` names which of these error bars the estimate reports.

    The draws are dealt into the shares that ``coding._share_count`` gives
    at N = n (``_draw_logs``), and summed here in draw order, so the estimate
    is the same bit for bit at any share count.
    """
    if n < 1 or d < 1 or sample_count < 1:
        raise ValueError(f"need n, d, sample_count >= 1, got ({n}, {d}, {sample_count})")
    neg_inf = float("-inf")
    log_bound = log_counting_bound(n, d)
    relative_to_bound = alpha == 0.0
    log_scale = log_mean_bound = log_bound if relative_to_bound else 0.0
    log_alpha = math.log(alpha) if alpha > 0.0 else neg_inf
    log_beta = math.log1p(-alpha)
    total = total_sq = 0.0
    top, rel, rel_sq = neg_inf, 0.0, 0.0  # the largest log weight; the sums relative to it
    informative = 0
    for log_ratio in _draw_logs(n, d, sample_count, seed, alpha):
        informative += (log_ratio > 0.0) if relative_to_bound else (log_ratio < 0.0)
        if log_ratio == neg_inf:
            continue  # weight 0
        # ln(f/p) - ln(scale) for the Plancherel and the Schur-Weyl component
        g_plancherel = min(0.0, log_ratio) - log_scale
        g_schur_weyl = min(0.0, -log_ratio) + (log_bound - log_scale)
        log_v = -_log_add(log_alpha - g_plancherel, log_beta - g_schur_weyl)
        v = math.exp(log_v)
        total += v
        total_sq += v * v
        if log_v > top:  # a new largest weight: the relative sums move to it
            rel *= math.exp(top - log_v)
            rel_sq *= math.exp(2 * (top - log_v))
            top = log_v
        v = math.exp(log_v - top)
        rel += v
        rel_sq += v * v
    single_shape = n == 1 or (relative_to_bound and d == 1)
    sampled = informative > 0 and sample_count > 1 and top > neg_inf
    log_weight_cap = min(-log_alpha, log_bound - log_beta)
    # a bar from the weight bound is kept in the float range by the scale too
    peak = top if sampled or single_shape else max(top, log_weight_cap - log_scale)
    if neg_inf < peak and 2 * peak < math.log(sys.float_info.min):  # the squares would underflow
        log_scale += peak
        total, total_sq = rel * math.exp(top - peak), rel_sq * math.exp(2 * (top - peak))
    ratio, ratio_stderr = _mean_stderr(total, total_sq, sample_count)
    if single_shape:  # the draws' spread is summation roundoff
        ratio_stderr, bar = 0.0, "one possible shape, exact"
    elif sampled:
        bar = "sampled error bar"
    else:
        unseen_mass = 1.0 if sample_count == 1 else 1.0 - RULE_OF_THREE_MISS ** (1.0 / sample_count)
        ratio_stderr = max(ratio_stderr, math.exp(log_weight_cap - log_scale) * unseen_mass)
        bar = "one draw, weight-bound error bar" if sample_count == 1 else "rule-of-three error bar"
    return McEstimate(
        method="schur-weyl-mc" if relative_to_bound else "plancherel-mc",
        ratio=ratio, ratio_stderr=ratio_stderr, log_scale=log_scale, log_bound=log_mean_bound,
        informative=informative, bar=bar,
    )


def pmax_estimate_plancherel(n: int, d: int, sample_count: int, seed: int) -> McEstimate:
    """Estimate the optimal success probability from a defensive mixture:
    each draw is the RSK shape of a uniform random permutation (Plancherel)
    with probability PLANCHEREL_SHARE, else of a uniform random word over d
    letters (Schur-Weyl), weighted as in ``_mixture_estimate``.

    The weight is at most 1/PLANCHEREL_SHARE, so the estimate is unbiased
    with a light tail even where min(1, m/D) is a rare small value (d/n below
    the critical ratio); it may exceed 1 by sampling noise.  Its bound is 1
    (``log_bound`` = 0), so the sampled mean is ``estimate``.  If no draw had
    m < D, or every weight was 0, the error bar is the rule-of-three bound.
    Deterministic given the seed.
    """
    return _mixture_estimate(n, d, sample_count, seed, PLANCHEREL_SHARE)


def pmax_estimate_schur_weyl(n: int, d: int, sample_count: int, seed: int) -> McEstimate:
    """Estimate the ratio of the optimal success probability to the counting
    bound d^n/n! as the Schur-Weyl-measure mean of min(1, D/m), sampled via
    RSK shapes of uniform random words.

    The returned estimate is the ratio rescaled by d^n/n! (in log domain, so
    the rescaling is usable even where d^n/n! underflows a float).  Preferred
    estimator when d/n is below the critical ratio, where the ratio tends to 1.
    If no draw had m > D, every summand is 1 and the error bar of the ratio is
    the rule-of-three bound 1 - 0.05^(1/k) instead of 0 (except for d = 1 or
    n = 1, where only one shape exists).  Deterministic given the seed.
    """
    return _mixture_estimate(n, d, sample_count, seed, 0.0)
