import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcode import young
from permcode.asymptotics import draw_shapes
from permcode.young import (
    CapacityError,
    conjugate,
    dim_irrep,
    dim_mult_ratio,
    enumerate_partitions,
    log_dim_and_mult,
    log_dim_irrep,
    log_multiplicity,
    multiplicity,
    partition_count,
    partition_count_at_most,
    rsk_shape,
)


# ---------------------------------------------------------------- oracles

def brute_force_partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Independent recursive enumeration, unrelated to the streaming generator."""
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in brute_force_partitions(n - first, first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def count_syt(shape: tuple[int, ...]) -> int:
    """Standard-tableau count by recursive corner removal (no hook formula)."""
    if sum(shape) == 0:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] >= 1 and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            smaller = list(shape)
            smaller[i] -= 1
            if smaller[i] == 0:
                smaller.pop(i)
            total += count_syt(tuple(smaller))
    return total


def count_ssyt(shape: tuple[int, ...], d: int) -> int:
    """Semistandard-tableau count by explicit backtracking over fillings."""

    def fill(rows_done: list[list[int]], i: int, j: int) -> int:
        if i == len(shape):
            return 1
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows_done[i][j - 1])  # weakly increasing along rows
        if i > 0 and j < shape[i - 1]:
            lo = max(lo, rows_done[i - 1][j] + 1)  # strictly increasing down columns
        total = 0
        for v in range(lo, d + 1):
            rows_done[i].append(v)
            total += fill(rows_done, ni, nj)
            rows_done[i].pop()
        return total

    return fill([[] for _ in shape], 0, 0)


def longest_weakly_increasing(word) -> int:
    best = []
    n = len(word)
    lengths = [1] * n
    for i in range(n):
        for j in range(i):
            if word[j] <= word[i]:
                lengths[i] = max(lengths[i], lengths[j] + 1)
    return max(lengths)


# ---------------------------------------------------------------- diagrams

def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)


def test_enumerate_small_orders():
    assert list(enumerate_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert len(list(enumerate_partitions(4))) == 5


def test_enumerate_matches_brute_force():
    for n in range(1, 11):
        got = list(enumerate_partitions(n))
        expected = sorted(brute_force_partitions(n), reverse=True)
        assert got == expected  # reverse-lexicographic, no duplicates


def test_enumerate_count_matches_recurrence():
    for n in (10, 20, 25):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_enumerate_rejects_bad_n():
    # raised at the call, before the first partition is asked for
    with pytest.raises(CapacityError):
        enumerate_partitions(0)
    with pytest.raises(CapacityError, match="66"):
        enumerate_partitions(67)
    with pytest.raises(CapacityError, match="10"):
        enumerate_partitions(11, cap=10)


def test_partition_count_values():
    assert partition_count(0) == 1
    assert partition_count(1) == 1
    assert partition_count(4) == 5
    assert partition_count(10) == 42
    assert partition_count(10) == len(brute_force_partitions(10))
    assert partition_count(100) == 190569292


# ------------------------------------------------------- dims and mults

def test_partition_count_at_most():
    for n in range(0, 16):
        parts = brute_force_partitions(n)
        for k in range(0, n + 2):
            assert partition_count_at_most(n, k) == sum(1 for p in parts if len(p) <= k)
        assert partition_count_at_most(n, n) == partition_count(n)
    assert partition_count_at_most(50, 25) == partition_count(50) - 7338
    with pytest.raises(ValueError):
        partition_count_at_most(-1, 2)


def test_partition_count_cold_large_n(monkeypatch):
    # an empty table, as in a fresh process: no recursion limit at large n
    monkeypatch.setattr(young, "_PARTITION_COUNTS", [1])
    assert partition_count(1500) == partition_count_at_most(1500, 1500)
    with pytest.raises(ValueError):
        partition_count(-1)


def test_dim_irrep_examples():
    assert dim_irrep((5,)) == 1
    assert dim_irrep((2, 1)) == 2
    assert dim_irrep((3, 1)) == 3
    assert dim_irrep((3, 1)) == count_syt((3, 1))


def test_dim_irrep_against_syt_backtracking():
    for n in range(1, 9):
        for diag in enumerate_partitions(n):
            assert dim_irrep(diag) == count_syt(diag)


def test_dim_irrep_transpose_symmetry():
    for n in range(1, 11):
        for diag in enumerate_partitions(n):
            assert dim_irrep(diag) == dim_irrep(conjugate(diag))


def test_multiplicity_examples():
    assert multiplicity((3,), 2) == 4
    assert multiplicity((1, 1, 1), 2) == 0
    assert multiplicity((2, 1), 2) == 2
    with pytest.raises(ValueError):
        multiplicity((2, 1), 0)


def test_content_product_is_zero_exactly_beyond_d_rows():
    # the exact search decides m = 0 by this alone: row d starts with the
    # factor d - d = 0, and no row above it has a factor <= 0.  By
    # conjugation a first row longer than d gives the zero above the ratio.
    for n in range(1, 13):
        for diag in enumerate_partitions(n):
            for d in range(1, n + 2):
                assert (young._content_product(diag, d) == 0) == (len(diag) > d), (diag, d)


def test_multiplicity_against_ssyt_backtracking():
    for n in range(1, 7):
        for d in range(1, 5):
            for diag in enumerate_partitions(n):
                assert multiplicity(diag, d) == count_ssyt(diag, d)


@pytest.mark.parametrize("n", range(1, 13))
def test_plancherel_normalization(n):
    assert sum(dim_irrep(p) ** 2 for p in enumerate_partitions(n)) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("d", range(1, 7))
def test_schur_weyl_normalization(n, d):
    assert sum(multiplicity(p, d) * dim_irrep(p) for p in enumerate_partitions(n)) == d**n


def test_dim_mult_ratio():
    assert dim_mult_ratio((3,), 2) == Fraction(1, 4)
    assert dim_mult_ratio((2, 1), 2) == 1
    assert dim_mult_ratio((1,), 5) == Fraction(1, 5)
    with pytest.raises(ValueError):
        dim_mult_ratio((1, 1, 1), 2)


def test_dim_mult_ratio_identity():
    for n in range(1, 13):
        for d in range(1, 7):
            for diag in enumerate_partitions(n):
                m = multiplicity(diag, d)
                if m == 0:
                    continue
                assert dim_mult_ratio(diag, d) * m == dim_irrep(diag)


def test_log_domain_matches_exact():
    for n in range(1, 13):
        for diag in enumerate_partitions(n):
            dim = dim_irrep(diag)
            assert math.exp(log_dim_irrep(diag)) == pytest.approx(dim, rel=1e-12)
            for d in (2, 5):
                m = multiplicity(diag, d)
                lm = log_multiplicity(diag, d)
                if m == 0:
                    assert lm == float("-inf")
                else:
                    assert math.exp(lm) == pytest.approx(m, rel=1e-12)
    # the empty diagram, and more rows than d, d <= 0 included
    assert log_dim_irrep(()) == 0.0 and log_multiplicity((), 3) == 0.0
    assert log_multiplicity((2, 1), 1) == log_multiplicity((2, 1), -1) == float("-inf")


def test_log_dim_and_mult_ties_only_where_the_content_product_is_n_factorial(monkeypatch):
    # (2, 1) at d = 2 is a tie, m = D = 2, whose two sums differ by 3.3e-16:
    # inside the roundoff window the integer test C = n!, not the window, decides
    log_dim = math.lgamma(4) - math.log(3)
    raw_log_mult = (math.log(2) - math.log(3)) + math.log(3)
    assert 0.0 < abs(raw_log_mult - log_dim) < 1e-15
    assert log_dim_and_mult((2, 1), 2) == (log_dim, log_dim)
    monkeypatch.setattr(young, "_content_product", lambda rows, d: math.factorial(sum(rows)) + 1)
    assert log_dim_and_mult((2, 1), 2) == (log_dim, raw_log_mult)


# ------------------------------------------------------------------ RSK

def test_rsk_examples():
    assert rsk_shape((1, 2, 3)) == (3,)
    assert rsk_shape((3, 2, 1)) == (1, 1, 1)
    assert rsk_shape((2, 1, 2)) == (2, 1)
    with pytest.raises(ValueError):
        rsk_shape([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40))
def test_rsk_shape_is_partition_with_lwi_first_row(word):
    shape = rsk_shape(word)
    assert sum(shape) == len(word)
    assert min(shape) >= 1 and list(shape) == sorted(shape, reverse=True)
    assert len(shape) * shape[0] >= len(word)
    assert shape[0] == longest_weakly_increasing(word)
    # at most as many rows as distinct-strictly-decreasing runs allow
    assert len(shape) <= len(word)


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_rsk_permutation_vs_reverse_transposes(perm):
    # reversing a permutation word conjugates the RSK shape
    assert conjugate(rsk_shape(perm)) == rsk_shape(list(reversed(perm)))


# ------------------------------------------------------------- sampling

def test_sampling_deterministic_given_seed():
    assert list(draw_shapes(8, 3, 50, 123, 1.0)) == list(draw_shapes(8, 3, 50, 123, 1.0))
    assert list(draw_shapes(8, 3, 50, 99, 0.0)) == list(draw_shapes(8, 3, 50, 99, 0.0))


def test_schur_weyl_single_letter():
    assert list(draw_shapes(3, 1, 5, 0, 0.0)) == [(3,)] * 5


def test_plancherel_frequency_n3():
    draws = 100_000
    hits = sum(shape == (2, 1) for shape in draw_shapes(3, 1, draws, 0, 1.0))
    p = Fraction(4, 6)
    sigma = math.sqrt(float(p) * (1 - float(p)) / draws)
    assert abs(hits / draws - float(p)) < 3 * sigma


def test_schur_weyl_frequency_n2_d2():
    draws = 100_000
    hits = sum(shape == (2,) for shape in draw_shapes(2, 2, draws, 0, 0.0))
    sigma = math.sqrt(0.75 * 0.25 / draws)
    assert abs(hits / draws - 0.75) < 3 * sigma


def chi2_sf_even_df(x: float, df: int) -> float:
    """P(chi^2 with df degrees of freedom > x) for an even df = 2k:
    e^(-x/2) * sum over i < k of (x/2)^i / i!."""
    assert df % 2 == 0
    half = x / 2
    return math.exp(-half) * sum(half**i / math.factorial(i) for i in range(df // 2))


def test_chi2_sf_even_df():
    # chi^2 with 2 degrees of freedom is exponential with mean 2; 9.3418177656 is the median of chi^2_10
    assert chi2_sf_even_df(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-15)
    assert chi2_sf_even_df(9.34181776559197, 10) == pytest.approx(0.5, rel=1e-12)


def test_plancherel_chi_square_n6():
    n, draws = 6, 100_000
    weights = {
        diag: Fraction(dim_irrep(diag) ** 2, math.factorial(n))
        for diag in enumerate_partitions(n)
    }
    counts = Counter(draw_shapes(n, 1, draws, 0, 1.0))
    stat = sum(
        (counts.get(rows, 0) - draws * float(w)) ** 2 / (draws * float(w))
        for rows, w in weights.items()
    )
    p_value = chi2_sf_even_df(stat, len(weights) - 1)
    assert p_value > 1e-3


def test_draw_shapes_rejects_empty_runs():
    for n, d, count, share in ((0, 2, 5, 1.0), (3, 2, 0, 1.0), (3, 2, -3, 0.0), (3, 0, 5, 0.0)):
        with pytest.raises(ValueError):
            next(draw_shapes(n, d, count, 0, share))
    # Plancherel draws never read d
    assert sum(next(draw_shapes(3, 0, 1, 0, 1.0))) == 3
