"""In-memory span recording for the traced benchmark pass.

The tracer wraps, from outside the package, the names through which one
permcode module calls into another (for example ``permcode.coding``'s own
binding of ``_hook_product``).  Each wrapped call records a span: name id,
start, end and parent span id, appended to flat arrays so that a pass with a
few million calls stays cheap in time and memory.  A few boundaries also feed
plain counters from the values that cross them.  ``save`` writes the spans
out once the pass ends, and ``layer_metrics`` aggregates them into the
per-layer metrics listed in ``BENCHMARK.json``.

A name that a later refactor removes is skipped at install time; every
metric built from it is then reported as absent rather than crashing.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import types
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

ROOT = -1  # parent id of a span opened with no span around it


class Tracer:
    """Span and counter store for one worker process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [ROOT]
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        sid = self._stack[-1]
        return None if sid == ROOT else self.names[self.name_id[sid]]

    def raise_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrappers ----------------------------------------------------------

    def wrap_call(
        self, name: str, fn: Callable, on_result: Callable[[Any, tuple], None] | None = None
    ) -> Callable:
        nid = self._nid(name)
        start, end, name_id, parent, stack = self.start, self.end, self.name_id, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # open() and close() inlined: this runs about a million times per exact pass
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per ``next`` on the generator; the yield count goes to a counter."""
        open_, close, counters = self.open, self.close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    sid = open_(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    yielded += 1
                    yield item
            finally:
                counters[name] += yielded

        return traced

    # -- installation ------------------------------------------------------

    def patch(self, module_name: str, attr: str, key: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` by ``make(original)``; record ``key`` as installed."""
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))
        self.installed.add(key)

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def save(self, path: str, **meta: Any) -> None:
        """Write every span (name, start, end, parent id) plus metadata as ``.npz``."""
        np.savez(path, names=np.array(self.names), **self.arrays(),
                 meta=np.array([repr(sorted(meta.items()))]))


# -- the boundaries the benchmark wraps -------------------------------------

_PLANCHEREL = "asymptotics.pmax_estimate_plancherel"
_SCHUR_WEYL = "asymptotics.pmax_estimate_schur_weyl"
ESTIMATORS = (_PLANCHEREL, _SCHUR_WEYL)
PRODUCTS = ("young._hook_product", "young._content_product")
LOGDIM = ("young.log_dim_irrep", "young.log_multiplicity")
EIGH = ("qsim.eigh", "qsim.eigvalsh")
# qsim entry points the CLI's verify suites call
CLI_QSIM = (
    "all_perms", "build_n3_example", "classical_channel_mc", "orthogonality_check_n3",
    "pgm_success", "success_probability", "symmetrize_elements", "symmetrize_povm",
)


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call the per-layer metrics are built from."""
    t = tracer

    def call(name, on_result=None):
        return lambda fn: t.wrap_call(name, fn, on_result)

    # young, as called by the exact path in coding
    t.patch("permcode.coding", "_partitions_revlex", "young.partitions",
            lambda fn: t.wrap_generator("young.partitions", fn))
    for fn_name in ("_hook_product", "_content_product"):
        t.patch("permcode.coding", fn_name, f"young.{fn_name}", call(f"young.{fn_name}"))

    # young, as called by the estimators in asymptotics
    t.patch("permcode.asymptotics", "rsk_shape", "young.rsk_shape", call("young.rsk_shape"))
    for fn_name in ("log_dim_irrep", "log_multiplicity"):
        t.patch("permcode.asymptotics", fn_name, f"young.{fn_name}", call(f"young.{fn_name}"))

    def observe_draw(fn):
        # one call per estimator draw; the cache inside ``fn`` stays in place
        def observed(rows, d):
            log_dim, log_mult = fn(rows, d)
            owner = t.current()
            if owner in ESTIMATORS:
                t.counters["asymptotics.draws"] += 1
                if owner == _PLANCHEREL:
                    v = 0.0 if log_mult == float("-inf") else math.exp(min(0.0, log_mult - log_dim))
                else:
                    v = math.exp(min(0.0, log_dim - log_mult))
                t.counters["asymptotics.informative"] += v < 1.0
            return log_dim, log_mult

        return observed

    t.patch("permcode.asymptotics", "_log_dim_mult", "asymptotics.draws", observe_draw)

    # coding and asymptotics, as called by the CLI
    def side_counts(report, _args):
        counts = report.min_side_counts
        above = counts.get("dim_wins", 0)  # m > D
        below = counts.get("mult_wins", 0) + counts.get("zero_mult", 0)  # m < D
        t.counters["coding.visits"] += sum(counts.values())
        t.counters["coding.zero_mult"] += counts.get("zero_mult", 0)
        t.counters["coding.minority"] += min(above, below)

    t.patch("permcode.cli", "quantum_pmax_exact", "coding.quantum_pmax_exact",
            call("coding.quantum_pmax_exact", side_counts))

    def zero_stderr(est, _args):
        t.counters["asymptotics.zero_stderr_jobs"] += est.stderr == 0.0

    for name in ESTIMATORS:
        fn_name = name.split(".", 1)[1]
        t.patch("permcode.cli", fn_name, name, call(name, zero_stderr))

    # qsim: dense permutation operators, numpy eigensolvers, entry points
    def gamma(fn):
        traced = t.wrap_call("qsim.build_gamma", fn)

        def counted(perm, n, d):
            misses = fn.cache_info().misses
            result = traced(perm, n, d)
            if fn.cache_info().misses > misses:
                t.counters["qsim.gamma.misses"] += 1
                t.counters["qsim.gamma.bytes"] += (d**n) ** 2 * 8  # computed, not measured
            return result

        counted.cache_info = fn.cache_info
        counted.cache_clear = fn.cache_clear
        return counted

    t.patch("permcode.qsim", "build_gamma", "qsim.build_gamma", gamma)
    t.patch("permcode.cli", "build_gamma", "qsim.build_gamma.cli", gamma)

    def matrix_size(_result, args):
        t.raise_max("qsim.eigh.max_dim", args[0].shape[-1])

    def numpy_view(np_module):
        # only qsim's own ``np`` sees the wrapped eigensolvers
        linalg = _ModuleView("numpy.linalg", np_module.linalg)
        for fn_name in ("eigh", "eigvalsh"):
            original = getattr(np_module.linalg, fn_name)
            setattr(linalg, fn_name, t.wrap_call(f"qsim.{fn_name}", original, matrix_size))
        view = _ModuleView("numpy", np_module)
        view.linalg = linalg
        return view

    t.patch("permcode.qsim", "np", "qsim.eigh", numpy_view)
    for fn_name in ("build_optimal_signal", "pgm_success"):
        t.patch("permcode.qsim", fn_name, f"qsim.{fn_name}", call(f"qsim.{fn_name}"))
    for fn_name in CLI_QSIM:
        t.patch("permcode.cli", fn_name, f"qsim.{fn_name}.cli", call(f"qsim.{fn_name}"))

    t.patch("permcode.cli", "main", "cli.main", call("cli.main"))


class _ModuleView(types.ModuleType):
    """A module stand-in that forwards every attribute it does not override."""

    def __init__(self, name: str, target: types.ModuleType) -> None:
        super().__init__(name)
        self._target = target

    def __getattr__(self, attr: str):
        return getattr(self._target, attr)


# -- aggregation --------------------------------------------------------------


def _span_table(tracer: Tracer) -> tuple[dict[str, tuple[int, float, float]], np.ndarray, np.ndarray]:
    """Per span name: (count, total seconds, self seconds); plus per-span durations and names."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    k = len(tracer.names)
    counts = np.bincount(a["name_id"], minlength=k)
    totals = np.bincount(a["name_id"], weights=dur, minlength=k)
    selfs = np.bincount(a["name_id"], weights=self_s, minlength=k)
    table = {nm: (int(counts[i]), float(totals[i]), float(selfs[i])) for i, nm in enumerate(tracer.names)}
    return table, dur, a


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Aggregate one traced pass into per-layer metrics.

    Returns the metrics that could be built and the names of those that could
    not, because a boundary they read was not found at install time.
    """
    table, dur, a = _span_table(tracer)
    c = tracer.counters
    metrics: dict[str, float] = {}
    absent: list[str] = []

    def count(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    def share(num, den):
        return num / den if den else 0.0

    # qsim spans entered directly from the CLI, i.e. the verify suites
    nid = {n: i for i, n in enumerate(tracer.names)}
    verify_s = 0.0
    if "cli.main" in nid:
        from_cli = a["parent"] >= 0
        from_cli[from_cli] = a["name_id"][a["parent"][from_cli]] == nid["cli.main"]
        qsim_ids = [i for n, i in nid.items() if n.startswith("qsim.")]
        verify_s = float(dur[from_cli & np.isin(a["name_id"], qsim_ids)].sum())

    spec: list[tuple[str, tuple[str, ...], Callable[[], float]]] = [
        ("young.partitions.count", ("young.partitions",), lambda: c["young.partitions"]),
        ("young.partitions.s", ("young.partitions",), lambda: total("young.partitions")),
        ("young.products.count", PRODUCTS, lambda: count(*PRODUCTS)),
        ("young.products.s", PRODUCTS, lambda: total(*PRODUCTS)),
        ("young.rsk.count", ("young.rsk_shape",), lambda: count("young.rsk_shape")),
        ("young.rsk.s", ("young.rsk_shape",), lambda: total("young.rsk_shape")),
        ("young.logdim.count", LOGDIM, lambda: count(*LOGDIM)),
        ("young.logdim.s", LOGDIM, lambda: total(*LOGDIM)),
        ("coding.pmax_exact.s", ("coding.quantum_pmax_exact",),
         lambda: total("coding.quantum_pmax_exact")),
        ("coding.pmax_exact.self_s", ("coding.quantum_pmax_exact", "young.partitions") + PRODUCTS,
         lambda: self_time("coding.quantum_pmax_exact")),
        ("coding.zero_mult_share", ("coding.quantum_pmax_exact",),
         lambda: share(c["coding.zero_mult"], c["coding.visits"])),
        ("coding.minority_share", ("coding.quantum_pmax_exact",),
         lambda: share(c["coding.minority"], c["coding.visits"])),
        ("asymptotics.estimator.s", ESTIMATORS, lambda: total(*ESTIMATORS)),
        ("asymptotics.estimator.self_s", ESTIMATORS + ("young.rsk_shape",) + LOGDIM,
         lambda: self_time(*ESTIMATORS)),
        ("asymptotics.draws", ESTIMATORS + ("asymptotics.draws",), lambda: c["asymptotics.draws"]),
        ("asymptotics.informative_share", ESTIMATORS + ("asymptotics.draws",),
         lambda: share(c["asymptotics.informative"], c["asymptotics.draws"])),
        ("asymptotics.zero_stderr_jobs", ESTIMATORS, lambda: c["asymptotics.zero_stderr_jobs"]),
        ("qsim.gamma.count", ("qsim.build_gamma",), lambda: count("qsim.build_gamma")),
        ("qsim.gamma.s", ("qsim.build_gamma",), lambda: total("qsim.build_gamma")),
        ("qsim.gamma.hit_ratio", ("qsim.build_gamma",),
         lambda: share(count("qsim.build_gamma") - c["qsim.gamma.misses"], count("qsim.build_gamma"))),
        ("qsim.gamma.bytes", ("qsim.build_gamma",), lambda: c["qsim.gamma.bytes"]),
        ("qsim.eigh.count", ("qsim.eigh",), lambda: count(*EIGH)),
        ("qsim.eigh.s", ("qsim.eigh",), lambda: total(*EIGH)),
        ("qsim.eigh.max_dim", ("qsim.eigh",), lambda: tracer.maxima.get("qsim.eigh.max_dim", 0)),
        ("qsim.optimal_signal.self_s", ("qsim.build_optimal_signal", "qsim.build_gamma", "qsim.eigh"),
         lambda: self_time("qsim.build_optimal_signal")),
        ("qsim.pgm.s", ("qsim.pgm_success",), lambda: total("qsim.pgm_success")),
        ("qsim.verify.s", ("cli.main",) + tuple(f"qsim.{n}.cli" for n in CLI_QSIM),
         lambda: verify_s),
        ("cli.self_s", ("cli.main", "coding.quantum_pmax_exact") + ESTIMATORS,
         lambda: self_time("cli.main")),
    ]
    for name, sources, value in spec:
        if all(s in tracer.installed for s in sources):
            metrics[name] = value()
        else:
            absent.append(name)
    return metrics, absent
