"""permcode benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {exact,mc,dense} --seed N --seconds S --trace {0,1}

Each pass of the workload runs in a fresh worker process (``worker.py``), so
caches start cold as they do for a command-line user.  Passes repeat while
another one still fits in ``--seconds``, at least one of each kind; the run
reports medians over passes.  With ``--trace 0`` it reports the end-to-end
metrics of untraced passes, whose job times are rescaled to reference core
speed (``speed.py``).  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Every job's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details of every pass go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
from workloads import MC_JOBS, MC_SAMPLES, WORKLOADS  # noqa: E402

# One BLAS thread per worker: the dense timings stay steady on a small,
# shared machine, and the count never exceeds the cores present.
BLAS_THREADS = "1"
SETUP_PROBES = 5  # extra cold starts per untraced run, for the set-up median
RUN_LIMIT_S = 170.0  # a run that is not done by then is abandoned
TIMING_LIMITS = (
    "process-level timing only: time.perf_counter around each job, a speed probe "
    "in the worker's own thread, and the worker's ru_maxrss; no machine-wide "
    "tracing, no cache dropping"
)

# printed and recorded, but not gated: see README.md
REPORT_ONLY_UNITS = {"wall_s": "s", "mc_samples_per_s": "1/s"}


class RunError(RuntimeError):
    """A worker could not produce a result."""


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(extra: list[str], started: float) -> tuple[dict, float]:
    """Run one worker to completion; return its record and its set-up time."""
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RunError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *extra], capture_output=True, text=True,
            timeout=remaining, env=worker_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {extra} did not finish within the run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {extra} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    return record, record["ready"] - t0


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def job_median_sum(records: list[dict], key: str) -> float:
    """Sum over jobs of each job's median time across passes."""
    by_job: dict[str, list[float]] = {}
    for r in records:
        for j in r["jobs"]:
            by_job.setdefault(j["name"], []).append(j[key])
    return sum(statistics.median(v) for v in by_job.values())


def mc_samples_per_s(records: list[dict]) -> float:
    """Samples per second over the two N=1000 jobs, median over passes."""
    names = {f"pmax-{m}-{n}-{d}" for m, n, d in MC_JOBS}
    rates = [
        len(MC_JOBS) * MC_SAMPLES / sum(j["seconds"] for j in r["jobs"] if j["name"] in names)
        for r in records
    ]
    return statistics.median(rates)


def run(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}.npz"
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups: list[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(["--setup-only"], started)[1])
    plain: list[dict] = []
    traced: list[dict] = []
    first = time.monotonic()
    while True:
        record, setup = spawn(base, started)
        plain.append(record)
        setups.append(setup)
        if args.trace:
            record, _ = spawn(base + ["--trace", str(spans_path)], started)
            traced.append(record)
        now = time.monotonic()
        # stop before a round that would not end within the measuring time
        if now - started + (now - first) / len(plain) > args.seconds:
            break

    checks = [c for r in plain + traced for c in r["checks"]]
    failed = [c for c in checks if not c["pass"]]
    if args.trace:
        layer_names = sorted({k for r in traced for k in r["layer_metrics"]})
        metrics = {
            k: statistics.median(r["layer_metrics"][k] for r in traced) for k in layer_names
        }
        metrics["trace_overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        absent = sorted({a for r in traced for a in r["absent"]})
        units = metric_units()[1]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "rescaled_wall_s": job_median_sum(plain, "rescaled_seconds"),
            "peak_rss_mib": median_of(plain, "peak_rss_mib"),
        }
        absent = []
        units = metric_units()[0]
    report_only = {"wall_s": job_median_sum(plain, "seconds")}
    if args.workload == "mc":
        report_only["mc_samples_per_s"] = mc_samples_per_s(plain)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            **plain[0]["env"],
            "peak_rss_mib": max(r["peak_rss_mib"] for r in plain + traced),
            "limits": TIMING_LIMITS,
        },
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "absent": absent,
        "report_only": report_only,
        "fail_ratio": len(failed) / len(checks),
        "attempted": len(checks),
        "failed": failed,
        "setups_s": setups,
        "passes": plain,
        "traced_passes": [{k: v for k, v in r.items() if k != "checks"} for r in traced],
        "spans_file": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "permcode" / "__init__.py").is_file():
        print(f"error: no permcode sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        report = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    env = report["env"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(report['passes'])} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas_threads={env['blas_threads']}")
    print(f"# {env['limits']}")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name in report["absent"]:
        print(f"{name} absent")
    for name, value in report["report_only"].items():
        print(f"{name} {value:.6g} {REPORT_ONLY_UNITS[name]} (report only)")
    print(f"fail_ratio {report['fail_ratio']:.6g} ({len(report['failed'])}/{report['attempted']})")
    for c in report["failed"]:
        print(f"FAILED {c['name']}: {c['detail']}")
    print(f"# details in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not report["failed"],
        "attempted": report["attempted"],
        "failed": len(report["failed"]),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
