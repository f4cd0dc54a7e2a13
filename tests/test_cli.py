import csv
import io
import json
from fractions import Fraction

import pytest

from permcode.cli import _int_str, main


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


def test_pmax_rejects_bad_instance(capsys):
    code, _, err = run_cli(capsys, ["pmax", "--n", "0", "--d", "2"])
    assert code == 1 and "error" in err


def test_pmax_usage_error(capsys):
    code, _, err = run_cli(capsys, ["pmax", "--n", "3"])
    assert code == 1 and "error" in err


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["pmax", "--n", "10", "--d", "5", "--method", "exact", "--cap", "9"])
    assert code == 1 and "cap" in err
    monkeypatch.setenv("PERMCODE_CAP", "9")
    code, _, err = run_cli(capsys, ["pmax", "--n", "10", "--d", "5", "--method", "exact"])
    assert code == 1
    monkeypatch.setenv("PERMCODE_CAP", "banana")
    code, _, err = run_cli(capsys, ["pmax", "--n", "3", "--d", "2"])
    assert code == 1 and "PERMCODE_CAP" in err


def test_classical_command(capsys):
    code, out, _ = run_cli(capsys, ["classical", "--n", "6", "--d", "3"])
    assert code == 0
    assert "p_classical = 1/8 (0.125)" in out


def test_int_str_digit_limit():
    assert _int_str(10**4300 - 1) == "9" * 4300
    assert _int_str(10**4299) == "1" + "0" * 4299
    assert _int_str(10**4300) == "<4301-digit integer, above the 4300-digit print limit>"
    assert _int_str(2**14284) == str(2**14284)  # 4300 digits: the count is checked, not guessed
    assert _int_str(2**14286).startswith("<4301-digit integer")


def test_long_rationals_print_digit_count(capsys):
    code, out, _ = run_cli(capsys, ["classical", "--n", "3000", "--d", "2"])
    assert code == 0
    assert "p_classical = 1/<8230-digit integer, above the 4300-digit print limit> (0)" in out
    argv = ["pmax", "--n", "2000", "--d", "200", "--samples", "20"]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["info_bound_exact"].endswith("/<4787-digit integer, above the 4300-digit print limit>")


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


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["suite"] == "all"
    assert len(payload["rows"]) >= 8
    assert all(c["pass"] for c in payload["rows"])
    names = {c["check_name"] for c in payload["rows"]}
    assert {"overlap-one-fifth", "povm-completeness", "symmetrized-covariance"} <= names


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "classical", "--seed", "4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_bounds_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bounds", "--kerov-n", "20", "--kerov-row-n", "16", "--kerov-row-d", "4",
         "--erdos-n", "100"],
    )
    assert code == 0
    assert "violations=0" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, ["pmax", "--n", "3", "--d", "2", "--format", "json", "--output", str(target)]
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["rows"][0]["p_quantum_exact"] == "5/6"
