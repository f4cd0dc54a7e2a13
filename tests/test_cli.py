import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permcode import cli
from permcode.asymptotics import McEstimate
from permcode.cli import _int_str, dec_str, main, sweep
from permcode.coding import CodingInstance, info_bound
from permcode.qsim import build_n3_example


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pmax_table_n3(capsys):
    code, out, _ = run_cli(capsys, ["pmax", "--n", "3", "--d", "2"])
    assert code == 0
    assert "p_quantum = 5/6 (0.833333333333)" in out
    assert "p_classical = 1/2 (0.5)" in out
    assert "dim_w = 5" in out


def test_schur_weyl_weights_below_float_range(capsys):
    # every draw weights min(1, D/m) ~ e^-7880, far below the smallest float; P_max = 1 since d >= N
    argv = ["pmax", "--n", "200", "--d", str(10**19), "--method", "schur-weyl", "--samples", "20"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("p_quantum = "))
    assert float(line.split()[2]) == pytest.approx(1.0, abs=1e-9)


def test_one_draw_reports_the_weight_bound(capsys):
    code, out, _ = run_cli(capsys, ["pmax", "--n", "10", "--d", "4", "--method", "plancherel", "--samples", "1"])
    assert code == 0
    assert "p_quantum = 0.13405532073 +/- 1.0101010101 (plancherel-mc)" in out
    assert "(one draw, weight-bound error bar)" in out


def test_pmax_table_n4_d2(capsys):
    code, out, _ = run_cli(capsys, ["pmax", "--n", "4", "--d", "2"])
    assert code == 0
    assert "p_quantum = 1/2 (0.5)" in out
    assert "info_bound = 2/3" in out


# Table output of `pmax --method exact --n 30 --d D`, frozen from the
# full-enumeration implementation of quantum_pmax_exact.
PMAX_EXACT_N30 = {
    15: """\
# version=0.1.0
# command=pmax
# cap=66
# seed=0
# method=exact-enumeration
p_quantum = 1523152428826669440838439164121/1524441723058569302507520000000 (0.999154251545)
p_classical = 1/32768 (3.0517578125e-05)
info_bound = 1 (1)
dim_w = 265028522615840482705888414557054
min_side_counts = {'dim_wins': 4350, 'mult_wins': 745, 'ties': 1, 'zero_mult': 508}
""",
    6: """\
# version=0.1.0
# command=pmax
# cap=66
# seed=0
# method=exact-enumeration
p_quantum = 73691305155665990839751/88417619937397019545436160000000 (8.33445926364e-10)
p_classical = 1/2985984000000 (3.3489797668e-13)
info_bound = 688747536/826385373016328125 (8.33445942401e-10)
dim_w = 221073915466997972519253
min_side_counts = {'dim_wins': 38, 'mult_wins': 1166, 'ties': 2, 'zero_mult': 4398}
""",
}


@pytest.mark.parametrize("d", sorted(PMAX_EXACT_N30))
def test_pmax_exact_table_frozen(capsys, d):
    code, out, _ = run_cli(capsys, ["pmax", "--method", "exact", "--n", "30", "--d", str(d)])
    assert code == 0
    assert out == PMAX_EXACT_N30[d]
    assert "# method=exact-enumeration\n" in out


# Output of sweeps and Monte Carlo reports that mix exact rows (at most the
# cap, N = 66) with sampled ones, frozen before pmax and sweep shared their
# row builder.
SWEEP_CSV_FROZEN = "".join(
    f"# {line}\n" for line in ("version=0.1.0", "command=sweep", "cap=66", "seed=1", "r=0.5", "samples=200")
) + "".join(
    f"{line}\r\n"
    for line in (
        "n,d,r,method,p_quantum,p_quantum_exact,stderr,p_classical,p_classical_exact,"
        "info_bound,info_bound_exact,ratio_to_bound",
        "4,2,0.5,exact-enumeration,0.5,1/2,,0.25,1/4,0.666666666667,2/3,0.75",
        "6,3,0.5,exact-enumeration,0.506944444444,73/144,,0.125,1/8,1,1,0.506944444444",
        "8,4,0.5,exact-enumeration,0.576041666667,553/960,,0.0625,1/16,1,1,0.576041666667",
        "70,35,0.5,plancherel-mc,0.999984651236,,0.0150172113447,2.91038304567e-11,"
        "1/34359738368,1,1,0.999984651236",
    )
)

SWEEP_JSON_FROZEN = {
    "meta": {"version": "0.1.0", "command": "sweep", "cap": 66, "seed": 1, "r": 0.2, "samples": 200},
    "rows": [
        {
            "n": 10, "d": 2, "r": "0.2", "method": "exact-enumeration",
            "p_quantum": "0.000279431216931", "p_quantum_exact": "169/604800", "stderr": "",
            "p_classical": "6.94444444444e-05", "p_classical_exact": "1/14400",
            "info_bound": "0.000282186948854", "info_bound_exact": "4/14175",
            "ratio_to_bound": "0.990234375",
        },
        {
            "n": 70, "d": 14, "r": "0.2", "method": "schur-weyl-mc",
            "p_quantum": "1.41435184654e-20", "p_quantum_exact": "", "stderr": "2.10272243893e-22",
            "p_classical": "7.78865658226e-30", "p_classical_exact": "1/128391846454886400000000000000",
            "info_bound": "1.41435184654e-20",
            "info_bound_exact": "580596412273855274653929368745390287739925171241144/"
            "41050352053065672562043322738282433776620375867720479437459869384765625",
            "ratio_to_bound": "1",
        },
    ],
}

# CSV column order for each result kind, frozen before pmax and sweep shared
# one pmax entry.  At (1000, 200) p_classical = 1/120^200 printed "0" then:
# its float underflowed.
PMAX_EXACT_CSV_FROZEN = "".join(
    f"# {line}\n" for line in ("version=0.1.0", "command=pmax", "cap=66", "seed=0", "method=exact-enumeration")
) + "".join(
    f"{line}\r\n"
    for line in (
        "n,d,method,p_quantum,p_quantum_exact,stderr,p_classical,p_classical_exact,"
        "info_bound,info_bound_exact,dim_w,informative_draws",
        "30,15,exact-enumeration,0.999154251545,1523152428826669440838439164121/1524441723058569302507520000000,,"
        "3.0517578125e-05,1/32768,1,1,265028522615840482705888414557054,",
    )
)

_BOUND_1000_200 = Fraction(200**1000, math.factorial(1000))
PMAX_SCHUR_WEYL_CSV_FROZEN = "".join(
    f"# {line}\n" for line in ("version=0.1.0", "command=pmax", "cap=66", "seed=0", "method=schur-weyl-mc")
) + "".join(
    f"{line}\r\n"
    for line in (
        "n,d,method,p_quantum,p_quantum_exact,stderr,p_classical,p_classical_exact,"
        "info_bound,info_bound_exact,dim_w,informative_draws",
        "1000,200,schur-weyl-mc,2.66287905582e-267,,7.85896816718e-269,"
        f"1.45797739465e-416,1/{120**200},"
        f"2.66287905582e-267,{_BOUND_1000_200.numerator}/{_BOUND_1000_200.denominator},,0",
    )
)

PMAX_PLANCHEREL_JSON_FROZEN = {
    "meta": {"version": "0.1.0", "command": "pmax", "cap": 66, "seed": 0, "method": "plancherel-mc"},
    "rows": [
        {
            "n": 70, "d": 35, "method": "plancherel-mc",
            "p_quantum": "0.999560078636", "p_quantum_exact": "", "stderr": "0.0150172113447",
            "p_classical": "2.91038304567e-11", "p_classical_exact": "1/34359738368",
            "info_bound": "1", "info_bound_exact": "1", "dim_w": "", "informative_draws": 0,
        }
    ],
}


# Shape counts of both measures and the three bound checks, frozen while a
# diagram was still a YoungDiagram object rather than its tuple of rows.
SAMPLE_PLANCHEREL_CSV_FROZEN = "".join(
    f"# {line}\n"
    for line in ("version=0.1.0", "command=sample", "seed=3", "measure=plancherel", "count=300")
) + "".join(
    f"{line}\r\n"
    for line in (
        "shape,count,frequency",
        "7 1,1,0.00333333333333", "6 2,1,0.00333333333333", "6 1 1,4,0.0133333333333",
        "5 3,4,0.0133333333333", "5 2 1,32,0.106666666667", "5 1 1 1,9,0.03", "4 4,3,0.01",
        "4 3 1,40,0.133333333333", "4 2 2,17,0.0566666666667", "4 2 1 1,67,0.223333333333",
        "4 1 1 1 1,7,0.0233333333333", "3 3 2,16,0.0533333333333", "3 3 1 1,22,0.0733333333333",
        "3 2 2 1,30,0.1", "3 2 1 1 1,28,0.0933333333333", "3 1 1 1 1 1,9,0.03",
        "2 2 2 2,2,0.00666666666667", "2 2 2 1 1,6,0.02", "2 1 1 1 1 1 1,2,0.00666666666667",
    )
)

SAMPLE_SCHUR_WEYL_TABLE_FROZEN = "".join(
    f"{line}\n"
    for line in (
        "# version=0.1.0", "# command=sample", "# seed=4", "# measure=schur-weyl", "# count=300",
        "8 1: 12 (0.04)", "7 2: 20 (0.0666666666667)", "7 1 1: 19 (0.0633333333333)",
        "6 3: 46 (0.153333333333)", "6 2 1: 56 (0.186666666667)", "5 4: 24 (0.08)",
        "5 3 1: 70 (0.233333333333)", "5 2 2: 17 (0.0566666666667)", "4 4 1: 17 (0.0566666666667)",
        "4 3 2: 19 (0.0633333333333)",
    )
)

# (16, 16): the row check is not vacuous there, so its slack is finite
BOUNDS_TABLE_FROZEN = "".join(
    f"{line}\n"
    for line in (
        "# version=0.1.0", "# command=bounds", "# cap=66", "# c=2.565099660323728",
        "plancherel-column-tail (n<=12): violations=0 max_slack=-9.8831868633",
        "schur-weyl-row-tail (n=16,d=16): violations=0 max_slack=-16.8287282391",
        "partition-count-growth (n<=50): violations=0 max_slack=-2.56509966032",
    )
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("sweep --r 0.5 --n-list 4,6,8,70 --samples 200 --seed 1 --format csv", SWEEP_CSV_FROZEN),
        (
            "sweep --r 0.2 --n-list 10,70 --samples 200 --seed 1 --format json",
            json.dumps(SWEEP_JSON_FROZEN, indent=2) + "\n",
        ),
        (
            "pmax --n 70 --d 35 --method plancherel --samples 200 --format json",
            json.dumps(PMAX_PLANCHEREL_JSON_FROZEN, indent=2) + "\n",
        ),
        ("pmax --method exact --n 30 --d 15 --format csv", PMAX_EXACT_CSV_FROZEN),
        (
            "pmax --method schur-weyl --n 1000 --d 200 --samples 100 --format csv",
            PMAX_SCHUR_WEYL_CSV_FROZEN,
        ),
        ("sample --measure plancherel --n 8 --count 300 --seed 3 --format csv", SAMPLE_PLANCHEREL_CSV_FROZEN),
        ("sample --measure schur-weyl --n 9 --d 3 --count 300 --seed 4", SAMPLE_SCHUR_WEYL_TABLE_FROZEN),
        ("bounds --kerov-n 12 --kerov-row-n 16 --kerov-row-d 16 --erdos-n 50", BOUNDS_TABLE_FROZEN),
    ],
    ids=[
        "sweep-csv", "sweep-json", "pmax-plancherel-json", "pmax-exact-csv", "pmax-schur-weyl-csv",
        "sample-plancherel-csv", "sample-schur-weyl-table", "bounds-table",
    ],
)
def test_mixed_reports_frozen(capsys, argv, expected):
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert out == expected


def test_sweep_and_pmax_choose_the_same_method(capsys):
    # (100, 36) has d/N = 0.36 below 1/e, though the requested ratio 0.3679 is above it
    _, out, _ = run_cli(capsys, ["sweep", "--r", "0.3679", "--n-list", "100", "--samples", "200", "--format", "json"])
    sweep_method = json.loads(out)["rows"][0]["method"]
    _, out, _ = run_cli(capsys, ["pmax", "--n", "100", "--d", "36", "--samples", "200", "--format", "json"])
    assert sweep_method == json.loads(out)["rows"][0]["method"] == "schur-weyl-mc"


def test_pmax_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["pmax", "--n", "5", "--d", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "pmax"
    row = payload["rows"][0]
    num, den = row["p_quantum_exact"].split("/")
    assert float(row["p_quantum"]) == pytest.approx(float(Fraction(int(num), int(den))))


def test_pmax_deterministic(capsys):
    args = ["pmax", "--n", "20", "--d", "7", "--method", "plancherel", "--seed", "9"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    assert first == second and "+/-" in first


def test_pmax_reports_informative_draws(capsys):
    args = ["pmax", "--n", "30", "--d", "6", "--method", "schur-weyl", "--samples", "500"]
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    assert "informative_draws = 0 of 500 (rule-of-three error bar)" in out
    assert "+/- 0 " not in out
    code, out, _ = run_cli(capsys, args + ["--format", "json"])
    assert json.loads(out)["rows"][0]["informative_draws"] == 0
    # the estimator names the other two bars
    argv = ["pmax", "--n", "30", "--d", "15", "--method", "plancherel", "--samples", "500", "--seed", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and "informative_draws = 1 of 500 (sampled error bar)" in out
    code, out, _ = run_cli(capsys, ["pmax", "--n", "1", "--d", "3", "--method", "plancherel", "--samples", "10"])
    assert code == 0 and "p_quantum = 1 +/- 0 (plancherel-mc)" in out
    assert "informative_draws = 0 of 10 (one possible shape, exact)" in out
    code, out, _ = run_cli(capsys, ["pmax", "--n", "1", "--d", "3", "--method", "schur-weyl", "--samples", "5"])
    assert code == 0 and "p_quantum = 1 +/- 0 (schur-weyl-mc)" in out
    assert "informative_draws = 5 of 5 (one possible shape, exact)" in out


@pytest.mark.parametrize(
    "argv,lines",
    [
        # the one positive weight's square underflows: the scale moves, and the bar is sampled
        ("--n 200 --d 5 --samples 100 --seed 0",
         ["p_quantum = 7.89063995349e-236 +/- 7.89063995349e-236 (plancherel-mc)"]),
        # every weight is 0: the bar is the rule of three on the weight bound's scale
        ("--n 1000 --d 5 --samples 300 --seed 1",
         ["p_quantum = 0 +/- 2.3044923906e-1869 (plancherel-mc)", "sampled_mean = 0 +/- 2.3044923906e-1869",
          "informative_draws = 300 of 300 (rule-of-three error bar)"]),
        # after a shift, the sampled mean is still relative to the bound 1
        ("--n 1000 --d 5 --samples 300 --seed 2",
         ["p_quantum = 3.0924226853e-1869 +/- 1.53843487419e-1869 (plancherel-mc)",
          "sampled_mean = 3.0924226853e-1869 +/- 1.53843487419e-1869"]),
    ],
    ids=["underflowing-squares", "no-positive-weight", "shifted-sampled-mean"],
)
def test_pmax_bars_and_means_far_below_the_float_range(capsys, argv, lines):
    code, out, _ = run_cli(capsys, ["pmax", "--method", "plancherel", *argv.split()])
    assert code == 0
    assert all(line in out.splitlines() for line in lines), out


def test_pmax_rejects_bad_instance(capsys):
    code, _, err = run_cli(capsys, ["pmax", "--n", "0", "--d", "2"])
    assert code == 1 and "error" in err


def test_pmax_usage_error(capsys):
    code, _, err = run_cli(capsys, ["pmax", "--n", "3"])
    assert code == 1 and "error" in err
    with pytest.raises(ValueError, match="unknown method"):
        cli.pmax(CodingInstance(3, 2), "bogus")


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["pmax", "--n", "10", "--d", "5", "--method", "exact", "--cap", "9"])
    assert code == 1 and "cap" in err
    # the cap is set by --cap only: the output depends on the command line alone
    monkeypatch.setenv("PERMCODE_CAP", "9")
    code, out, _ = run_cli(capsys, ["pmax", "--n", "10", "--d", "5", "--samples", "100"])
    assert code == 0 and "# cap=66\n" in out
    assert "p_quantum = 54263/80640 " in out


def test_classical_command(capsys):
    code, out, _ = run_cli(capsys, ["classical", "--n", "6", "--d", "3"])
    assert code == 0
    assert "p_classical = 1/8 (0.125)" in out


def test_cap_only_where_diagrams_are_enumerated(capsys):
    # classical, sample and verify enumerate nothing, so they take no cap
    code, out, _ = run_cli(capsys, ["classical", "--n", "3", "--d", "2"])
    assert code == 0 and "cap" not in out
    code, out, err = run_cli(capsys, ["verify", "--suite", "n3", "--cap", "3"])
    assert code == 1 and out == "" and "--cap" in err


def test_int_str_digit_limit():
    assert _int_str(10**4300 - 1) == "9" * 4300
    assert _int_str(10**4299) == "1" + "0" * 4299
    assert _int_str(10**4300) == "<4301-digit integer, above the 4300-digit print limit>"
    assert _int_str(2**14284) == str(2**14284)  # 4300 digits: the count is checked, not guessed
    assert _int_str(2**14286).startswith("<4301-digit integer")


def test_dim_w_above_the_print_limit(capsys):
    # dim_w = 1600!, 4434 digits, in all three formats; below the limit the row keeps the int
    argv = ["pmax", "--n", "1600", "--d", "1600", "--method", "exact", "--cap", "6000"]
    note = "<4434-digit integer, above the 4300-digit print limit>"
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and f"\ndim_w = {note}\n" in out
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    assert code == 0 and next(csv.DictReader(io.StringIO(body)))["dim_w"] == note
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0 and json.loads(out)["rows"][0]["dim_w"] == note
    code, out, _ = run_cli(capsys, ["pmax", "--n", "5", "--d", "3", "--format", "json"])
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["dim_w"] == 120 * Fraction(row["p_quantum_exact"])


def test_long_rationals_print_digit_count(capsys):
    code, out, _ = run_cli(capsys, ["classical", "--n", "3000", "--d", "2"])
    assert code == 0
    assert "p_classical = 1/<8230-digit integer, above the 4300-digit print limit> (4.31866145336e-8230)" in out
    argv = ["pmax", "--n", "2000", "--d", "200", "--samples", "20"]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["info_bound_exact"].endswith("/<4787-digit integer, above the 4300-digit print limit>")


def test_exact_decimals_below_the_float_range(capsys):
    # a float would print 1e-400 as 0 and 3e-320 (subnormal) with wrong digits
    assert dec_str(Fraction(1, 10**400)) == "1e-400"
    assert dec_str(Fraction(3, 10**320)) == "3e-320"
    assert dec_str(Fraction(1, 2)) == "0.5" and dec_str(Fraction(0)) == "0"
    # x * e^log_scale, in decimal where the scale is not a normal float
    assert dec_str(0.0, 1e4) == "0"
    assert dec_str(0.5, -800.0) == "1.83393729209e-348"
    assert dec_str(2.0, 800.0) == "5.45274914423e+347"
    assert dec_str(3.0, -745.0) == "8.46705219142e-324"  # e^-745 is subnormal
    assert dec_str(0.25, math.log(4)) == "1"
    code, out, _ = run_cli(capsys, ["classical", "--n", "200", "--d", "2"])  # 1/(100!)^2
    assert code == 0 and out.endswith(" (1.14813429756e-316)\n")
    code, out, _ = run_cli(capsys, ["classical", "--n", "300", "--d", "2"])  # 1/(150!)^2
    assert code == 0 and out.endswith(" (3.06346680053e-526)\n")


def test_sweep_exact_increasing_r_half():
    values = [rep.p_quantum for _, rep in sweep(0.5, [10, 20, 30])]
    assert all(isinstance(v, Fraction) for v in values)
    assert values[0] < values[1] < values[2]


def test_sweep_ratio_to_bound_increasing_r_fifth():
    ratios = [rep.p_quantum / info_bound(inst) for inst, rep in sweep(0.2, [10, 20, 30])]
    assert ratios[0] < ratios[1] < ratios[2]


def test_sweep_r_one_gives_certainty():
    assert all(rep.p_quantum == 1 for _, rep in sweep(1.0, [4, 6, 8]))


def test_sweep_uses_mc_above_cap():
    [(_, est)] = sweep(0.5, [10], cap=5, samples=2000, seed=0)
    assert est.method == "plancherel-mc"
    assert isinstance(est, McEstimate) and est.stderr > 0
    [(_, est)] = sweep(0.2, [10], cap=5, samples=2000, seed=0)
    assert est.method == "schur-weyl-mc"


def test_sweep_enforces_min_one_color():
    [(inst, _)] = sweep(0.05, [10])
    assert inst.n_colors == 1


def test_sweep_rejects_bad_n():
    with pytest.raises(ValueError):
        sweep(0.5, [0])


def test_sweep_rejects_non_positive_ratio(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--r", "-1", "--n-list", "10"])
    assert code == 1 and out == "" and "ratio must be positive" in err


def test_sweep_rejects_an_infinite_color_count(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--r", "1e308", "--n-list", "10"])
    assert code == 1 and out == "" and "ratio * N must be finite" in err


def test_sweep_rejects_empty_n_list(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--r", "0.5", "--n-list", ",,"])
    assert code == 1 and out == "" and "at least one N" in err


def test_sweep_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "--r", "0.5", "--n-list", "4,6,8", "--format", "csv"]
    )
    assert code == 0
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    assert [r["n"] for r in rows] == ["4", "6", "8"]
    assert set(rows[0].keys()) == {
        "n", "d", "r", "method", "p_quantum", "p_quantum_exact", "stderr",
        "p_classical", "p_classical_exact", "info_bound", "info_bound_exact",
        "ratio_to_bound",
    }
    for r in rows:
        num, den = (r["p_quantum_exact"].split("/") + ["1"])[:2]
        assert f"{float(Fraction(int(num), int(den))):.12g}" == r["p_quantum"]


def test_sweep_mc_rows_have_stderr(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--r", "0.5", "--n-list", "8", "--cap", "5",
         "--samples", "500", "--seed", "1", "--format", "csv"],
    )
    assert code == 0
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    row = next(csv.DictReader(io.StringIO(body)))
    assert row["method"] == "plancherel-mc"
    assert row["stderr"] != "" and row["p_quantum_exact"] == ""


def test_sample_deterministic_and_valid(capsys):
    args = ["sample", "--measure", "plancherel", "--n", "5", "--count", "200", "--seed", "3"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    assert first == second
    total = sum(
        int(line.split(": ")[1].split(" ")[0])
        for line in first.splitlines()
        if not line.startswith("#")
    )
    assert total == 200


def test_sample_schur_weyl_d1(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--measure", "schur-weyl", "--n", "4", "--d", "1", "--count", "50"],
    )
    assert code == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert data_lines == ["4: 50 (1)"]


def test_sample_rejects_empty_runs(capsys):
    for extra in (["--count", "-3"], ["--count", "0"], ["--n", "0", "--count", "0"]):
        argv = ["sample", "--measure", "plancherel", "--n", "5", *extra]
        code, out, _ = run_cli(capsys, argv)
        assert code == 1 and out == "", argv


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["suite"] == "all"
    assert len(payload["rows"]) >= 8
    assert all(c["pass"] for c in payload["rows"])
    names = {c["check_name"] for c in payload["rows"]}
    assert {"overlap-one-fifth", "povm-completeness", "symmetrized-covariance"} <= names


def test_verify_completeness_fails_for_elements_above_identity(capsys, monkeypatch):
    # a doubled seed: its elements sum to 2 * (I - C), with top eigenvalue 2,
    # so the slack I - 2 * (I - C) has eigenvalue -1
    psi, seed = build_n3_example()
    monkeypatch.setattr(cli, "build_n3_example", lambda: (psi, 2 * seed))
    code, out, _ = run_cli(capsys, ["verify", "--suite", "n3"])
    assert code == 2
    rows = {c["check_name"]: c for c in json.loads(out)["rows"]}
    assert not rows["povm-completeness"]["pass"]
    assert rows["povm-completeness"]["max_residual"] == pytest.approx(1.0, abs=1e-9)


def test_failed_eigensolver_is_an_internal_error(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, but it reports a failed solver, not invalid input
    def no_convergence(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code, out, err = run_cli(capsys, ["verify", "--suite", "n3"])
    assert (code, out) == (2, "")
    assert err == "internal error: Eigenvalues did not converge\n"


def test_only_verify_loads_numpy():
    # every command but verify, in a fresh process: none may load numpy
    script = Path(__file__).with_name("cli_without_numpy.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    loads = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r}); from permcode import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'n3']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", loads], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_verify_suites_come_from_one_table():
    # "all" is every suite of the table, run in the table's order
    assert cli.VERIFY_SUITES == (*cli.SUITES, "all")
    for seed in (0, 2024):
        each = [check for suite in cli.SUITES for check in cli.verify_checks(suite, seed)]
        assert cli.verify_checks("all", seed) == each
    with pytest.raises(ValueError, match="unknown suite"):
        cli.verify_checks("bogus", 0)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "classical", "--seed", "4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_verify_refuses_a_negative_seed_before_any_suite(capsys, monkeypatch):
    def no_suite(suite, seed):
        raise AssertionError(f"suite {suite} ran at seed {seed}")

    monkeypatch.setattr(cli, "verify_checks", no_suite)
    for argv in (["verify", "--seed", "-1"], ["verify", "--suite", "n3", "--seed", "-1"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "argument --seed: expected a non-negative integer, got -1" in err
    # the pure-Python commands seed random.Random, which takes any integer
    code, out, _ = run_cli(capsys, ["sample", "--measure", "plancherel", "--n", "5", "--count", "3", "--seed", "-1"])
    assert code == 0 and out


def test_module_entry_point_matches_main(capsys):
    argv = ["pmax", "--n", "3", "--d", "2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "permcode.cli", *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr


def test_bounds_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bounds", "--kerov-n", "20", "--kerov-row-n", "16", "--kerov-row-d", "4",
         "--erdos-n", "100"],
    )
    assert code == 0
    assert "violations=0" in out


def test_bounds_default_row_check_is_not_vacuous(capsys):
    # at (30, 15) 19 of the 5604 diagrams give a nonvacuous Schur-Weyl tail bound
    code, out, _ = run_cli(capsys, ["bounds"])
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("schur-weyl-row-tail"))
    assert line.startswith("schur-weyl-row-tail (n=30,d=15): violations=0 ")
    assert math.isfinite(float(line.split("max_slack=")[1]))


def test_bounds_row_that_tests_nothing_says_so(capsys):
    # every one of the 135 diagrams of 14 is vacuous for the row bound at d = 5
    argv = ["bounds", "--kerov-n", "12", "--kerov-row-n", "14", "--kerov-row-d", "5", "--erdos-n", "50"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "schur-weyl-row-tail (n=14,d=5): untested, vacuous in all 135 cases\n" in out
    assert "plancherel-column-tail (n<=12): violations=0 max_slack=-9.8831868633\n" in out
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[1] == {"check": "schur-weyl-row-tail", "range": "n=14,d=5", "vacuous": 135}
    assert rows[0]["violations"] == 0 and "vacuous" not in rows[0]


def test_bounds_rejects_nan_constant(capsys):
    # every comparison with nan is false, so it would report no violation
    code, out, _ = run_cli(capsys, ["bounds", "--kerov-n", "5", "--kerov-row-n", "5", "--c", "nan"])
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--kerov-n", "67", "n=67 exceeds the enumeration cap 66; use the sampling paths instead"),
        ("--kerov-n", "0", "enumeration requires n >= 1, got 0"),
        ("--kerov-row-n", "67", "n=67 exceeds the enumeration cap 66; use the sampling paths instead"),
        ("--kerov-row-n", "0", "enumeration requires n >= 1, got 0"),
        ("--kerov-row-d", "0", "need d >= 1, got 0"),
        ("--erdos-n", "0", "n_max must be >= 1, got 0"),
        ("--c", "nan", "the growth constant must be finite, got nan"),
        ("--c", "inf", "the growth constant must be finite, got inf"),
        ("--c", "-inf", "the growth constant must be finite, got -inf"),
    ],
    ids=["kerov-n-67", "kerov-n-0", "kerov-row-n-67", "kerov-row-n-0", "kerov-row-d-0", "erdos-n-0", "c-nan", "c-inf", "c-minus-inf"],
)
def test_bounds_rejects_kerov_n_above_cap_up_front(capsys, monkeypatch, option, value, message):
    # every bad argument is refused before the column-tail check runs, which
    # takes a second at the default --kerov-n and minutes at the cap
    def unreachable(*args, **kwargs):
        pytest.fail("kerov_bound_check ran before the arguments were checked")

    monkeypatch.setattr(cli, "kerov_bound_check", unreachable)
    code, out, err = run_cli(capsys, ["bounds", f"{option}={value}"])  # "=" lets a value start with "-"
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_pmax_exact_above_cap_message(capsys):
    # quantum_pmax_exact refuses through the same check as the enumeration
    code, out, err = run_cli(capsys, ["pmax", "--method", "exact", "--n", "67", "--d", "20"])
    assert code == 1 and out == ""
    assert err == "error: n=67 exceeds the enumeration cap 66; use the sampling paths instead\n"


def test_output_to_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, ["pmax", "--n", "5", "--d", "2", "--output", str(target)])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write --output: ") and str(target) in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, ["pmax", "--n", "3", "--d", "2", "--format", "json", "--output", str(target)]
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["rows"][0]["p_quantum_exact"] == "5/6"


def _options(**strategies) -> st.SearchStrategy[list[str]]:
    """``--name=value`` for each keyword, with underscores spelt as dashes."""
    return st.tuples(*(s.map(lambda v, k=k: f"--{k.replace('_', '-')}={v}") for k, s in strategies.items())).map(list)


_N = st.integers(-1, 3000)
_D = st.one_of(st.integers(-1, 100), st.integers(-1, 10**400))
_CAP = st.integers(-1, 30)
_SEED = st.integers(-3, 2**40)
_COMMANDS = st.one_of(
    _options(
        n=_N, d=_D, method=st.sampled_from(["auto", "exact", "plancherel", "schur-weyl"]),
        samples=st.integers(-1, 20), seed=_SEED, cap=_CAP,
    ).map(lambda opts: ["pmax", *opts]),
    _options(n=_N, d=_D).map(lambda opts: ["classical", *opts]),
    _options(
        r=st.floats(), n_list=st.lists(_N, max_size=3).map(lambda ns: ",".join(map(str, ns))),
        samples=st.integers(-1, 20), seed=_SEED, cap=_CAP,
    ).map(lambda opts: ["sweep", *opts]),
    _options(
        measure=st.sampled_from(["plancherel", "schur-weyl"]), n=_N, d=_D,
        count=st.integers(-1, 20), seed=_SEED,
    ).map(lambda opts: ["sample", *opts]),
    _options(
        kerov_n=st.integers(-1, 40), kerov_row_n=_N, kerov_row_d=_D, erdos_n=_N, c=st.floats(), cap=_CAP,
    ).map(lambda opts: ["bounds", *opts]),
    _options(suite=st.sampled_from(cli.VERIFY_SUITES), seed=_SEED).map(lambda opts: ["verify", *opts]),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_COMMANDS)
@example(["pmax", "--n=1600", "--d=1600", "--method=exact", "--cap=6000"])  # dim_w above the print limit
def test_outside_input_ends_in_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
