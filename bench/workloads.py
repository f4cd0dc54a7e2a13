"""The benchmark's workloads: the jobs each one runs, the inputs each job
derives from the workload seed, and the correctness gate on each job's output.

Jobs go through public entry points only: ``permcode.cli.main`` with
``--format json`` where the CLI has a command for the job, and the public
``permcode.qsim`` functions where it does not.  Why each workload exists,
and which layer it loads, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# Exact P_max goldens.  (50, 25), (50, 10) and (30, 15) are the r=0.5 and
# r=0.2 goldens of tests/test_acceptance.py; (50, 18), (6, 3) and (5, 4) were
# frozen from full enumeration with quantum_pmax_exact.
GOLDEN = {
    (50, 25): Fraction(
        "310347886196316704564150275990464664440622194546832826171008297"
        "/310347889813401816771557226184334375963037158866944000000000000"
    ),
    (50, 10): Fraction(
        "925925925925925910575600624331430645280155965343"
        "/281611974089938685589005631167266378188681866379264000000000000"
    ),
    (50, 18): Fraction(
        "6451686824668210781608202627544380991690907382652400973994749"
        "/362072538115635452900150097215056771956876685344768000000000000"
    ),
    (30, 15): Fraction(
        "1523152428826669440838439164121/1524441723058569302507520000000"
    ),
    (6, 3): Fraction(73, 144),
    (5, 4): Fraction(119, 120),
}

EXACT_INSTANCES = ((50, 25), (50, 10), (50, 18))
MC_SAMPLES = 1500
MC_JOBS = (("plancherel", 1000, 500), ("schur-weyl", 1000, 200))
CALIBRATION = ("plancherel", 30, 15, 10_000)
DENSE_INSTANCES = ((6, 3), (5, 4))
PGM_TOLERANCE = 1e-8
SIGMAS = 4.0
# The CLI rescales the Schur-Weyl mean by d^N/N! in floating point; with a
# zero error bar the estimate can sit a few ulps of exp() above the exact bound.
BOUND_REL_SLACK = 1e-9

WORKLOADS = ("exact", "mc", "dense")

Check = tuple[str, bool, str]  # (name, passed, detail)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[Check]]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def job_seeds(seed: int, count: int) -> list[int]:
    """Per-job seeds, reproducible from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def run_cli(argv: list[str]) -> CliResult:
    from permcode import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    return CliResult(code, buf.getvalue())


def _row(out: CliResult) -> dict:
    return json.loads(out.stdout)["rows"][0]


def _exit_ok(name: str, out: CliResult) -> Check:
    return (f"{name}:exit-0", out.code == 0, f"exit code {out.code}")


def _exact_job(n: int, d: int) -> Job:
    name = f"pmax-exact-{n}-{d}"

    def check(out: CliResult) -> list[Check]:
        got = Fraction(_row(out)["p_quantum_exact"])
        return [
            _exit_ok(name, out),
            (f"{name}:golden", got == GOLDEN[(n, d)], f"p_quantum_exact={got}"),
        ]

    argv = ["pmax", "--method", "exact", "--n", str(n), "--d", str(d)]
    return Job(name, lambda: run_cli(argv), check)


def _mc_job(method: str, n: int, d: int, samples: int, seed: int, calibrate: bool) -> Job:
    name = f"pmax-{method}-{n}-{d}"

    def check(out: CliResult) -> list[Check]:
        row = _row(out)
        est, err = float(row["p_quantum"]), float(row["stderr"])
        bound = float(Fraction(row["info_bound_exact"]))
        in_range = math.isfinite(est) and 0.0 <= est <= bound * (1 + BOUND_REL_SLACK) + SIGMAS * err
        checks = [
            _exit_ok(name, out),
            (f"{name}:in-range", in_range, f"estimate {est} +/- {err}, info bound {bound}"),
        ]
        if calibrate:
            truth = float(GOLDEN[(n, d)])
            checks.append((f"{name}:calibrated", abs(est - truth) <= SIGMAS * err,
                           f"estimate {est} +/- {err}, exact {truth}"))
        return checks

    argv = ["pmax", "--method", method, "--n", str(n), "--d", str(d),
            "--samples", str(samples), "--seed", str(seed)]
    return Job(name, lambda: run_cli(argv), check)


def _signal_job(n: int, d: int, seed: int) -> Job:
    name = f"optimal-signal-pgm-{n}-{d}"

    def run() -> float:
        from permcode import qsim

        signal = qsim.build_optimal_signal(n, d, rng_seed=seed)
        return qsim.pgm_success(signal, n, d)

    def check(p: float) -> list[Check]:
        truth = float(GOLDEN[(n, d)])
        return [(f"{name}:pgm-equals-pmax", abs(p - truth) <= PGM_TOLERANCE,
                 f"pgm {p!r}, exact {truth!r}")]

    return Job(name, run, check)


def _verify_job(seed: int) -> Job:
    name = "verify-all"

    def check(out: CliResult) -> list[Check]:
        rows = json.loads(out.stdout)["rows"]
        return [_exit_ok(name, out)] + [
            (f"{name}:{r['check_name']}", r["pass"] is True,
             f"residual {r['max_residual']:.3e} (tol {r['tolerance']:.0e})")
            for r in rows
        ]

    argv = ["verify", "--suite", "all", "--seed", str(seed)]
    return Job(name, lambda: run_cli(argv), check)


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of ``workload``, with every seed derived from ``seed``."""
    if workload == "exact":
        return [_exact_job(n, d) for n, d in EXACT_INSTANCES]
    if workload == "mc":
        s = job_seeds(seed, len(MC_JOBS) + 1)
        method, n, d, samples = CALIBRATION
        return [_mc_job(m, n_, d_, MC_SAMPLES, s_, False) for (m, n_, d_), s_ in zip(MC_JOBS, s)] + [
            _mc_job(method, n, d, samples, s[-1], True)
        ]
    if workload == "dense":
        s = job_seeds(seed, len(DENSE_INSTANCES) + 1)
        return [_signal_job(n, d, s_) for (n, d), s_ in zip(DENSE_INSTANCES, s)] + [_verify_job(s[-1])]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
