import functools
import math
import os
import random
import statistics
from types import SimpleNamespace

import pytest

from permcode import asymptotics, coding
from permcode.asymptotics import (
    DRAW_BLOCK,
    HARDY_RAMANUJAN_C,
    KEROV_TOL,
    PLANCHEREL_SHARE,
    _draw_words,
    _log_dim_mult,
    _mixture_estimate,
    _tally,
    draw_shapes,
    erdos_bound_check,
    kerov_bound_check,
    kerov_row_bound_check,
    pmax_estimate_plancherel,
    pmax_estimate_schur_weyl,
    times_exp,
)
from permcode.cli import main
from permcode.coding import CRITICAL_RATIO, CodingInstance, quantum_pmax_exact
from permcode.young import (
    conjugate,
    dim_irrep,
    enumerate_partitions,
    log_dim_irrep,
    log_multiplicity,
    multiplicity,
    partition_count,
)


# ---------------------------------------------------------- tail bounds

def test_kerov_bound_single_column_n9():
    # mu([1^9]) = 1/9! must sit below exp(-18 (ln 3 - 1))
    mu = 1 / math.factorial(9)
    bound = math.exp(-2 * 9 * (math.log(9 / 3) - 1))
    assert mu <= bound
    rep = kerov_bound_check(9)
    assert rep.violations == 0


def test_kerov_bound_vacuous_region():
    # any first column <= e*sqrt(n) makes the bound >= 1
    n = 16
    col = int(math.e * math.sqrt(n))  # 10
    assert -2 * col * (math.log(col / math.sqrt(n)) - 1) >= 0
    rep = kerov_bound_check(n)
    assert rep.vacuous > 0 and rep.violations == 0


def test_kerov_bound_exhaustive_n25():
    # every diagram of every n <= 25
    rep = kerov_bound_check(25)
    assert rep.checked == sum(partition_count(m) for m in range(1, 26)) == 9295
    assert rep.violations == 0


def test_tally_counts_weight_zero_as_checked():
    # a diagram of weight 0 has slack -inf: checked, not vacuous, no violation,
    # and max_slack as without it
    for slacks in ([None, -3.0, 2e-12], [None, -3.0, 2e-12, float("-inf")]):
        rep = _tally(slacks, KEROV_TOL.__lt__)
        assert (rep.checked, rep.vacuous, rep.violations, rep.max_slack) == (len(slacks), 1, 1, 2e-12)
    rep = _tally([None, float("-inf")], KEROV_TOL.__lt__)
    assert (rep.checked, rep.vacuous, rep.violations, rep.max_slack) == (2, 1, 0, float("-inf"))


def test_bound_checks_keep_their_violation_rules(monkeypatch):
    # the Kerov checks forgive roundoff up to 1e-12; the growth check forgives no slack >= 0
    rules = []

    def spy(slacks, violated):
        rules.append(violated)
        return _tally(slacks, violated)

    monkeypatch.setattr(asymptotics, "_tally", spy)
    kerov_bound_check(3)
    kerov_row_bound_check(3, 2)
    erdos_bound_check(3)
    kerov, row, growth = rules
    for rule in (kerov, row):
        assert not rule(1e-12) and rule(1.1e-12)
    assert growth(0.0) and not growth(-1e-300)
    assert erdos_bound_check(1, math.log(partition_count(1))).violations == 1


# at (12, 10**400), d/n overflows a float and 1/(2r) = n/(2d) is 0.0
@pytest.mark.parametrize("n,d", [(25, 5), (36, 7), (30, 15), (12, 10**400)], ids=["25-5", "36-7", "30-15", "12-1e400"])
def test_kerov_row_bound_exhaustive(n, d):
    rep = kerov_row_bound_check(n, d)
    assert rep.checked == partition_count(n)
    assert rep.violations == 0
    if (n, d) == (30, 15):  # at (25, 5) and (36, 7) every diagram is vacuous
        assert rep.vacuous < rep.checked


def test_erdos_bound():
    rep = erdos_bound_check(100)
    assert rep.violations == 0
    assert math.log(partition_count(100)) < HARDY_RAMANUJAN_C * 10
    assert erdos_bound_check(1).violations == 0
    assert erdos_bound_check(500).violations == 0
    with pytest.raises(ValueError):
        erdos_bound_check(10, float("nan"))  # every comparison with nan is false


# ------------------------------------------------------- MC estimators

def test_plancherel_estimator_n3():
    est = pmax_estimate_plancherel(3, 2, 100_000, seed=42)
    assert abs(est.estimate - 5 / 6) <= 3 * est.stderr


def test_plancherel_estimator_trivial():
    est = pmax_estimate_plancherel(1, 1, 100, seed=0)
    assert est.estimate == 1.0 and est.stderr == 0.0


def test_plancherel_estimator_n30_matches_exact():
    exact = float(quantum_pmax_exact(CodingInstance(30, 15)).p_quantum)
    est = pmax_estimate_plancherel(30, 15, 10_000, seed=1)
    assert abs(est.estimate - exact) <= 3 * est.stderr


def test_schur_weyl_estimator_n4_d2():
    # exact ratio P / (d^n/n!) = (1/2) / (2/3) = 3/4
    est = pmax_estimate_schur_weyl(4, 2, 100_000, seed=7)
    assert abs(est.ratio - 0.75) <= 3 * est.ratio_stderr
    assert abs(est.estimate - 0.5) <= 3 * est.stderr


def test_schur_weyl_estimator_n2_d2():
    # P(2,2) = 1 exactly; the raw state-count ratio is 2, the sampled mean 1/2
    est = pmax_estimate_schur_weyl(2, 2, 100_000, seed=5)
    assert abs(est.estimate - 1.0) <= 3 * est.stderr
    assert abs(est.ratio - 0.5) <= 3 * est.ratio_stderr


def test_schur_weyl_estimator_n30_matches_exact():
    exact = float(quantum_pmax_exact(CodingInstance(30, 6)).p_quantum)
    est = pmax_estimate_schur_weyl(30, 6, 10_000, seed=1)
    # the shapes with m > D carry Schur-Weyl mass 8.4e-8, so a run rarely
    # draws one; the estimate still matches to within the exact tail mass 2e-8
    # of the state-count bound, and the error bar is the rule-of-three bound
    assert est.estimate == pytest.approx(exact, rel=1e-7)
    assert est.stderr > 0


def test_rule_of_three_bar_without_informative_draws():
    k = 2_000
    est = pmax_estimate_schur_weyl(30, 6, k, seed=1)
    assert est.informative == 0 and est.ratio == 1.0
    assert est.ratio_stderr == pytest.approx(1 - 0.05 ** (1 / k))
    assert est.bar == "rule-of-three error bar"
    # a single possible shape: the zero bar is exact
    for fn, d in ((pmax_estimate_schur_weyl, 1), (pmax_estimate_plancherel, 3)):
        one = fn(1, d, 50, seed=0)
        assert one.stderr == 0.0 and one.informative == 0
        assert one.bar == "one possible shape, exact"
    # informative draws (m = 3 > D = 1) at N = 1 leave the bar exact too
    three = pmax_estimate_schur_weyl(1, 3, 5, seed=0)
    assert three.stderr == 0.0 and three.informative == 5
    assert three.bar == "one possible shape, exact"


def test_one_draw_bar_is_the_weight_bound():
    # one draw shows no spread: the bar is 0 only where q has a single shape
    for n in range(1, 12):
        for d in range(1, n + 2):
            for seed in range(4):
                for fn in (pmax_estimate_plancherel, pmax_estimate_schur_weyl):
                    one = fn(n, d, 1, seed)
                    single = n == 1 or (fn is pmax_estimate_schur_weyl and d == 1)
                    assert (one.stderr == 0.0) == single, (fn.__name__, n, d, seed)
                    assert (one.bar == "one draw, weight-bound error bar") != single, (fn.__name__, n, d, seed)
    # a single weight far below the float range still gets a bar, on its scale
    one = pmax_estimate_plancherel(2000, 200, 1, seed=0)
    assert one.ratio < one.ratio_stderr < math.inf and one.log_scale < -2000


def test_times_exp_leaves_the_float_range_as_inf_or_zero():
    assert times_exp(2.0, 1e4) == math.inf
    assert times_exp(0.0, 1e4) == 0.0


def test_estimators_deterministic():
    a = pmax_estimate_plancherel(12, 5, 500, seed=3)
    b = pmax_estimate_plancherel(12, 5, 500, seed=3)
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)


def test_estimators_read_the_sample_stream():
    # an informative draw has m > D under pure Schur-Weyl draws, m < D under the mixture
    n, d, k, seed = 30, 12, 500, 3
    for fn, share in ((pmax_estimate_schur_weyl, 0.0), (pmax_estimate_plancherel, 0.99)):
        pairs = [(dim_irrep(s), multiplicity(s, d)) for s in draw_shapes(n, d, k, seed, share)]
        informative = sum((dim < mult) if share == 0.0 else (mult < dim) for dim, mult in pairs)
        assert fn(n, d, k, seed).informative == informative > 0


def test_log_dim_mult_decides_m_equals_d_exactly():
    # equal logs exactly where m = D; elsewhere ln m - ln D has the sign of m - D
    for n in range(1, 21):
        diagrams = list(enumerate_partitions(n))
        for d in range(1, n + 2):
            for rows in diagrams:
                if len(rows) > d:
                    continue
                log_dim, log_mult = _log_dim_mult(rows, d)
                dim, mult = dim_irrep(rows), multiplicity(rows, d)
                assert (log_dim == log_mult) == (dim == mult), (rows, d)
                assert (log_mult > log_dim) == (mult > dim), (rows, d)


def _log_dim_per_cell(rows):
    """ln D summed cell by cell: lgamma(n + 1) minus each ln h, row-major."""
    conj = conjugate(rows)
    s = math.lgamma(sum(rows) + 1)
    for i, r in enumerate(rows):
        for j in range(r):
            s -= math.log(r - j + conj[j] - i - 1)
    return s


def _log_mult_per_cell(rows, d):
    """ln m summed cell by cell from 0.0: ln(d - i + j) - ln h, row-major."""
    if len(rows) > d:
        return float("-inf")
    conj = conjugate(rows)
    s = 0.0
    for i, r in enumerate(rows):
        for j in range(r):
            s += math.log(d - i + j) - math.log(r - j + conj[j] - i - 1)
    return s


def test_log_dim_mult_is_the_two_log_sums_bit_for_bit():
    # the one pass in young, and the memoized draw pass over it, give the
    # per-cell log sums exactly, except ln m = ln D where m = D
    for n in range(1, 13):
        for rows in enumerate_partitions(n):
            for d in sorted({1, 2, 3, n - 1, n, n + 5, 10**19} - {0}):
                log_dim, log_mult = _log_dim_per_cell(rows), _log_mult_per_cell(rows, d)
                tie = multiplicity(rows, d) == dim_irrep(rows)
                expected = (log_dim, log_dim if tie else log_mult)
                assert (log_dim_irrep(rows), log_multiplicity(rows, d)) == expected, (rows, d)
                assert _log_dim_mult.__wrapped__(rows, d) == expected, (rows, d)


def _stdlib_words(n, d, count, seed, share):
    """The words of ``_draw_words``, from Random.shuffle and Random.randint, and the final state."""
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    words = []
    for _ in range(count):
        if share > 0.0 and rng.random() < share:
            rng.shuffle(perm)
            words.append(list(perm))
        else:
            words.append([rng.randint(1, d) for _ in range(n)])
    return words, rng.getstate()


@pytest.mark.parametrize("share", (0.0, PLANCHEREL_SHARE, 1.0))
def test_draw_words_are_the_stdlib_stream(monkeypatch, share):
    # the same words, letters shifted by 1, and the same generator state after the last draw
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(asymptotics, "random", SimpleNamespace(Random=Recorded))
    for n in (1, 2, 30, 1000):
        count = 3 if n == 1000 else 300
        for d in (1, 2, 3, 16, 200, 10**19):
            for seed in (0, 5, 2024):
                words, state = _stdlib_words(n, d, count, seed, share)
                drawn = [[letter + 1 for letter in word] for word in _draw_words(n, d, count, seed, share)]
                assert drawn == words, (n, d, seed)
                assert made.pop().getstate() == state, (n, d, seed)


def test_schur_weyl_bars_cover_the_exact_value_at_ties():
    # at (14, 2) most draws have m = D, which is never informative, so no
    # run may report a zero bar, and the bars must cover the exact value
    exact = float(quantum_pmax_exact(CodingInstance(14, 2)).p_quantum)
    runs = [pmax_estimate_schur_weyl(14, 2, 100, seed) for seed in range(40)]
    assert all(run.stderr > 0.0 for run in runs)
    assert sum(abs(run.estimate - exact) <= 4 * run.stderr for run in runs) >= 39


def test_plancherel_bars_cover_the_exact_value_without_positive_weights():
    # at (40, 4) a Plancherel shape rarely has at most 4 rows, so a run often
    # draws weights of 0 only, and none of its bars may be 0
    exact = float(quantum_pmax_exact(CodingInstance(40, 4)).p_quantum)
    runs = [pmax_estimate_plancherel(40, 4, 100, seed) for seed in range(40)]
    assert all(run.ratio_stderr > 0.0 for run in runs)
    assert sum(abs(run.estimate - exact) <= 4 * run.stderr for run in runs) >= 39


@functools.cache
def _schur_weyl_runs_60_20():
    """The exact P_max at (60, 20) and Schur-Weyl estimates of it from 2000
    draws at seeds 0-39.  A run there sees a handful of informative draws at
    most, and often 1 or 2."""
    exact = float(quantum_pmax_exact(CodingInstance(60, 20)).p_quantum)
    return exact, tuple(pmax_estimate_schur_weyl(60, 20, 2000, seed) for seed in range(40))


@pytest.mark.xfail(reason="ROADMAP item 1: a bar from 1 or 2 informative draws is too small")
def test_schur_weyl_bars_cover_the_exact_value_with_few_informative_draws():
    # 37 of 40 at the time of writing: seeds 7, 15 and 21 miss, at |z| 6.1, 4.26 and 5.34
    exact, runs = _schur_weyl_runs_60_20()
    assert sum(abs(run.estimate - exact) <= 4 * run.stderr for run in runs) >= 39


def test_schur_weyl_bars_are_not_inflated():
    # over the same runs the median bar stays within 10x the root-mean-square
    # error (1.39x at the time of writing), so no mend of the test above can
    # pass by widening every bar to the weight bound
    exact, runs = _schur_weyl_runs_60_20()
    rms_error = math.sqrt(statistics.fmean((run.estimate - exact) ** 2 for run in runs))
    assert statistics.median(run.stderr for run in runs) <= 10 * rms_error


def test_plancherel_draws_with_m_at_least_d_are_not_informative():
    # at (3, 3) every diagram has m >= D, so no draw carries the gap to 1
    assert all(multiplicity(rows, 3) >= dim_irrep(rows) for rows in enumerate_partitions(3))
    assert pmax_estimate_plancherel(3, 3, 200, seed=0).informative == 0


def test_both_estimators_agree():
    n, d = 25, 10
    a = pmax_estimate_plancherel(n, d, 20_000, seed=11)
    b = pmax_estimate_schur_weyl(n, d, 20_000, seed=12)
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.estimate - b.estimate) <= 4 * combined


# ------------------------------------------ the draws split over processes

@pytest.mark.parametrize("n, d, k, seed", [
    (40, 15, 1_001, 2),  # not divisible by 2 or 3
    (40, 15, 2, 9),  # fewer draws than three shares
    (12, 5, DRAW_BLOCK + 5, 3),  # a second block of 5 draws
    (40, 15, 1, 0),  # one draw, whose bar is the weight bound
    (41, 1, 37, 4),  # d = 1: a single Schur-Weyl shape, and a zero bar
    (30, 6, 2_000, 1),  # no informative Schur-Weyl draw: the rule-of-three bar
    (2000, 200, 1, 0),  # a weight far below the float range
])
def test_split_estimates_equal_one_process(split_into, n, d, k, seed):
    for alpha in (PLANCHEREL_SHARE, 0.0):
        split_into(1)
        serial = _mixture_estimate(n, d, k, seed, alpha)
        for shares in (2, 3):
            split_into(shares)
            split = _mixture_estimate(n, d, k, seed, alpha)
            assert repr(split) == repr(serial), (alpha, shares)  # every float bit for bit
    if (n, d) == (30, 6):
        assert serial.informative == 0 and serial.ratio_stderr > 0


@pytest.mark.parametrize("failure", ["dies", "sends nothing"])
def test_failed_estimator_child_exits_2_and_is_reaped(monkeypatch, capsys, failure):
    # the child runs the patched module state it was forked with
    if failure == "dies":
        monkeypatch.setattr(coding, "_send_totals", lambda fd, totals: os._exit(3))
    else:
        monkeypatch.setattr(coding, "_send_totals", lambda fd, totals: None)
    monkeypatch.setattr(coding, "_usable_cpus", lambda: 2)
    assert main(["pmax", "--method", "plancherel", "--n", "40", "--d", "15"]) == 2
    assert "Monte Carlo draws" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bad_estimator_arguments_raise_before_any_fork(monkeypatch):
    class Forked(OSError):
        pass

    def fork():
        raise Forked

    monkeypatch.setattr(coding, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    for fn in (pmax_estimate_plancherel, pmax_estimate_schur_weyl):
        with pytest.raises(Forked):  # valid arguments reach the fork
            fn(40, 15, 10, 0)
        for n, d, k in ((40, 0, 10), (40, 15, 0), (0, 15, 10)):
            with pytest.raises(ValueError):
                fn(n, d, k, 0)


def test_critical_ratio_constant():
    assert CRITICAL_RATIO == pytest.approx(1 / math.e)
