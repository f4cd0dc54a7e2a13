import math
import os

import pytest

from permcode import coding
from permcode.asymptotics import (
    DRAW_BLOCK,
    HARDY_RAMANUJAN_C,
    PLANCHEREL_SHARE,
    _mixture_estimate,
    draw_shapes,
    erdos_bound_check,
    kerov_bound_check,
    kerov_row_bound_check,
    pmax_estimate_plancherel,
    pmax_estimate_schur_weyl,
)
from permcode.cli import main
from permcode.coding import CRITICAL_RATIO, CodingInstance, quantum_pmax_exact
from permcode.young import log_dim_irrep, log_multiplicity, partition_count


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
    rep = kerov_bound_check(25)
    assert rep.checked == partition_count(25) == 1958
    assert rep.violations == 0


@pytest.mark.parametrize("n,d", [(25, 5), (36, 7), (30, 15)])
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
    # a single possible shape: the zero bar is exact
    for fn, d in ((pmax_estimate_schur_weyl, 1), (pmax_estimate_plancherel, 3)):
        one = fn(1, d, 50, seed=0)
        assert one.stderr == 0.0 and one.informative == 0


def test_one_draw_bar_is_the_weight_bound():
    # one draw shows no spread: the bar is 0 only where q has a single shape
    for n in range(1, 12):
        for d in range(1, n + 2):
            for seed in range(4):
                for fn in (pmax_estimate_plancherel, pmax_estimate_schur_weyl):
                    one = fn(n, d, 1, seed)
                    single = n == 1 or (fn is pmax_estimate_schur_weyl and d == 1)
                    assert (one.stderr == 0.0) == single, (fn.__name__, n, d, seed)
    # a single weight far below the float range still gets a bar, on its scale
    one = pmax_estimate_plancherel(2000, 200, 1, seed=0)
    assert one.ratio < one.ratio_stderr < math.inf and one.log_scale < -2000


def test_estimators_deterministic():
    a = pmax_estimate_plancherel(12, 5, 500, seed=3)
    b = pmax_estimate_plancherel(12, 5, 500, seed=3)
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)


def test_estimators_read_the_sample_stream():
    # an informative draw has m > D under pure Schur-Weyl draws, m < D under the mixture
    n, d, k, seed = 30, 12, 500, 3
    for fn, share in ((pmax_estimate_schur_weyl, 0.0), (pmax_estimate_plancherel, 0.99)):
        logs = [(log_dim_irrep(s), log_multiplicity(s, d)) for s in draw_shapes(n, d, k, seed, share)]
        informative = sum((dim < mult) if share == 0.0 else (mult < dim) for dim, mult in logs)
        assert fn(n, d, k, seed).informative == informative > 0


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
def test_split_estimates_equal_one_process(n, d, k, seed):
    for method, alpha in (("plancherel-mc", PLANCHEREL_SHARE), ("schur-weyl-mc", 0.0)):
        serial = _mixture_estimate(n, d, k, seed, alpha, method, 1)
        for shares in (2, 3):
            split = _mixture_estimate(n, d, k, seed, alpha, method, shares)
            assert repr(split) == repr(serial), (method, shares)  # every float bit for bit
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
