"""One benchmark pass in a fresh process, so every cache starts cold.

Usage (normally started by run.py):

    python3 bench/worker.py --workload exact --seed 1 [--trace SPANS.npz]
    python3 bench/worker.py --setup-only

The worker imports permcode from the ``src`` tree of the checkout it lives
in, reports the moment the package is ready, runs the workload's jobs one
after another, times each job, applies each job's correctness gate, and
prints one JSON object as its only line of standard output.  With
``--trace`` the cross-module calls are wrapped, every span is written to
the given file, and the per-layer metrics are aggregated from them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None, help="write spans here and report layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import permcode.cli  # noqa: F401  (imports every layer the CLI uses)

    ready = time.monotonic()
    origin = Path(permcode.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"permcode imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy as np

    import spans
    import workloads
    from speed import SpeedProbe

    jobs = workloads.build_jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    job_rows, checks = [], []
    timed = []  # (row, probe, start) per untraced job, rescaled once the pass is over
    output_bytes = 0
    for job in jobs:
        sid = tracer.open(f"job:{job.name}") if tracer else None
        probe = None if tracer else SpeedProbe()
        if probe:
            probe.start()
        t0 = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception:  # one job's crash is recorded as its failed check
            out, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if probe:
            probe.stop()
        if tracer:
            tracer.close(sid)
        if error is None:
            try:
                job_checks = job.check(out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                job_checks = [(f"{job.name}:readable", False, f"{type(exc).__name__}: {exc}")]
        else:
            job_checks = [(f"{job.name}:ran", False, error)]
        if isinstance(out, workloads.CliResult):
            output_bytes += len(out.stdout.encode())
        row = {"name": job.name, "seconds": elapsed}
        job_rows.append(row)
        if probe:
            timed.append((row, probe, t0))
        checks.extend({"name": n, "pass": bool(ok), "detail": d} for n, ok, d in job_checks)

    pass_samples = [x for _, probe, _ in timed for x in probe.samples]
    for row, probe, start in timed:
        row["rescaled_seconds"] = probe.rescale(start, start + row["seconds"], pass_samples)
        row["probes"] = len(probe.samples)
    result = {
        "ready": ready,
        "wall_s": sum(r["seconds"] for r in job_rows),
        "jobs": job_rows,
        "checks": checks,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer:
        tracer.restore()
        tracer.save(args.trace, workload=args.workload, seed=args.seed)
        metrics, absent = spans.layer_metrics(tracer)
        if "cli.main" in tracer.installed:
            metrics["cli.output_bytes"] = output_bytes
        else:
            absent.append("cli.output_bytes")
        result.update(layer_metrics=metrics, absent=absent, missing_names=tracer.missing,
                      spans=len(tracer.start))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
