import math
from fractions import Fraction

import pytest

from permcode.asymptotics import (
    CRITICAL_RATIO,
    HARDY_RAMANUJAN_C,
    draw_shapes,
    erdos_bound_check,
    kerov_bound_check,
    kerov_row_bound_check,
    column_dominance_scan,
    row_dominance_scan,
    pmax_estimate_plancherel,
    pmax_estimate_schur_weyl,
    threshold_sweep,
)
from permcode.coding import CodingInstance, quantum_pmax_exact, info_bound
from permcode.young import CapacityError, log_dim_irrep, log_multiplicity, partition_count


# ------------------------------------------------------- dominance scans

def test_column_dominance_scan_n3():
    rep = column_dominance_scan(3, 2, 2.0)
    assert rep.short_count == 2 and rep.long_count == 0
    assert rep.violations == 0 and rep.ties == 1  # [2,1] has D = m = 2
    assert rep.zero_mult_excluded == 1  # [1,1,1] never appears at d = 2


def test_column_dominance_scan_single_box():
    rep = column_dominance_scan(1, 1, 1.0)
    assert rep.short_count == 0 and rep.long_count == 1  # cutoff not exceeded
    rep = column_dominance_scan(1, 1, 2.0)
    assert rep.ties == 1 and rep.violations == 0  # [1] has D = m = 1


def test_column_dominance_scan_n40():
    # the short-column claim is asymptotic: at n=40, d=20, A=2 exactly four
    # near-rectangular diagrams with 12 rows still have D slightly above m
    rep = column_dominance_scan(40, 20, 2.0)
    assert rep.short_count + rep.long_count + rep.zero_mult_excluded == partition_count(40)
    assert rep.violations == 4


def test_row_dominance_scan_n3_d1():
    rep = row_dominance_scan(3, 1, 2.0)
    assert rep.violations == 0
    assert rep.ties == 1  # only [3] survives at d = 1, with D = m = 1


def test_row_dominance_scan_n6_d2():
    rep = row_dominance_scan(6, 2, 1.0)
    assert rep.short_count + rep.long_count == partition_count(6) == 11


def test_row_dominance_scan_vacuous():
    rep = row_dominance_scan(1, 1, 0.5)
    assert rep.short_count == 0 and rep.violations == 0


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


def test_estimators_deterministic():
    a = pmax_estimate_plancherel(12, 5, 500, seed=3)
    b = pmax_estimate_plancherel(12, 5, 500, seed=3)
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)


def test_estimators_read_the_sample_stream():
    # an informative draw has m > D under pure Schur-Weyl draws, m < D under the mixture
    n, d, k, seed = 30, 12, 500, 3
    for fn, share in ((pmax_estimate_schur_weyl, 0.0), (pmax_estimate_plancherel, 0.99)):
        logs = [(log_dim_irrep(s.rows), log_multiplicity(s.rows, d)) for s in draw_shapes(n, d, k, seed, share)]
        informative = sum((dim < mult) if share == 0.0 else (mult < dim) for dim, mult in logs)
        assert fn(n, d, k, seed).informative == informative > 0


def test_both_estimators_agree():
    n, d = 25, 10
    a = pmax_estimate_plancherel(n, d, 20_000, seed=11)
    b = pmax_estimate_schur_weyl(n, d, 20_000, seed=12)
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.estimate - b.estimate) <= 4 * combined


# -------------------------------------------------------------- sweeps

def test_sweep_exact_increasing_r_half():
    rows = threshold_sweep(0.5, [10, 20, 30])
    values = [r.p_quantum_exact for r in rows]
    assert all(isinstance(v, Fraction) for v in values)
    assert values[0] < values[1] < values[2]


def test_sweep_ratio_to_bound_increasing_r_fifth():
    rows = threshold_sweep(0.2, [10, 20, 30])
    ratios = [r.p_quantum_exact / r.info_bound for r in rows]
    assert ratios[0] < ratios[1] < ratios[2]


def test_sweep_r_one_gives_certainty():
    rows = threshold_sweep(1.0, [4, 6, 8])
    assert all(r.p_quantum_exact == 1 for r in rows)


def test_sweep_uses_mc_above_cap():
    rows = threshold_sweep(0.5, [10], seed=0, sample_count=2000, cap=5)
    assert rows[0].method == "plancherel-mc"
    assert rows[0].estimate is not None and rows[0].estimate.stderr > 0
    rows = threshold_sweep(0.2, [10], seed=0, sample_count=2000, cap=5)
    assert rows[0].method == "schur-weyl-mc"


def test_sweep_enforces_min_one_color():
    rows = threshold_sweep(0.05, [10])
    assert rows[0].n_colors == 1


def test_sweep_rejects_bad_n():
    with pytest.raises(ValueError):
        threshold_sweep(0.5, [0])


def test_critical_ratio_constant():
    assert CRITICAL_RATIO == pytest.approx(1 / math.e)
