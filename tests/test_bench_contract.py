"""The benchmark's tracer wraps names inside permcode (``bench/spans.py``).
A refactor that removes or renames one of them silently turns the metrics
built from it into ``absent``; this test makes that a failure instead."""

from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.restore()


def _spans_per_name(monkeypatch, argvs) -> Counter:
    """Run the CLI on each command line under a fresh tracer; count the spans of each name."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    from permcode import cli

    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.restore()
    return Counter(tracer.names[i] for i in tracer.name_id)


def test_wrapped_bindings_are_called(monkeypatch, capsys):
    """The wrapped names must also be the ones the CLI calls: a binding
    captured at import (an alias, a dict, a default argument) bypasses the
    wrapper, and the metrics built from it read 0."""
    spans_per_name = _spans_per_name(monkeypatch, (
        ["pmax", "--method", "exact", "--n", "10", "--d", "4"],
        ["pmax", "--method", "plancherel", "--n", "70", "--d", "35", "--samples", "20"],
        ["verify", "--suite", "n3"],
    ))
    # young.rsk_shape wraps the binding in asymptotics, where the draws must stay
    names = ("coding.quantum_pmax_exact", "asymptotics.pmax_estimate_plancherel", "young.rsk_shape", "qsim.pgm_success")
    for name in names:
        assert spans_per_name[name] >= 1, name
    # a sweep reaches the same bindings, an exact row (N = 8) and a sampled one (N = 70)
    spans_per_name = _spans_per_name(monkeypatch, (["sweep", "--r", "0.5", "--n-list", "8,70", "--samples", "20"],))
    capsys.readouterr()
    for name in ("coding.quantum_pmax_exact", "asymptotics.pmax_estimate_plancherel"):
        assert spans_per_name[name] >= 1, name


def test_dense_jobs_pass(monkeypatch, capsys):
    """Every job of the ``dense`` workload passes its own checks: the signal
    jobs hand what ``build_optimal_signal`` returns straight to ``pgm_success``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    for seed in (1, 7):
        for job in workloads.build_jobs("dense", seed):
            for name, passed, detail in job.check(job.run()):
                assert passed, f"{name}: {detail}"
