"""The benchmark's tracer wraps names inside permcode (``bench/spans.py``).
A refactor that removes or renames one of them silently turns the metrics
built from it into ``absent``; this test makes that a failure instead."""

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
