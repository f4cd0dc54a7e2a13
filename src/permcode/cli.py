"""Command-line front end: exact reports, sweeps, sampling, verification
suites, and bound checks, emitted as table, CSV, or JSON.

Output is deterministic for a fixed command line and seed (no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from . import __version__
from .asymptotics import (
    HARDY_RAMANUJAN_C,
    BoundCheckReport,
    McEstimate,
    check_growth_bound_args,
    check_row_bound_args,
    draw_shapes,
    erdos_bound_check,
    kerov_bound_check,
    kerov_row_bound_check,
    log_counting_bound,
    pmax_estimate_plancherel,
    pmax_estimate_schur_weyl,
    times_exp,
)
from .coding import CodingInstance, CodingReport, classical_success, info_bound, quantum_pmax_exact
from .qsim import (
    all_perms,
    build_gamma,
    build_n3_example,
    classical_channel_mc,
    covariant_slack,
    orthogonality_check_n3,
    pgm_success,
    random_povm,
    success_probability,
    symmetrize_elements,
    symmetrize_povm,
)
from .young import DEFAULT_ENUMERATION_CAP, InternalInvariantError, check_enumerable

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2
LOG10_2 = math.log10(2)
_WIDE = Context(prec=30)  # for values whose scale leaves the float range
SYMMETRIZE_POVMS = 20  # random POVMs per symmetrize suite


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _int_str(v: int) -> str:
    """Decimal digits of ``v``, or, where Python's limit on int-to-str
    conversion (4300 digits by default) refuses them, a note of how many
    there are."""
    try:
        return str(v)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        k = int(abs(v).bit_length() * LOG10_2)  # v has k or k + 1 digits
        digits = k + 1 if abs(v) >= 10**k else k
        return f"<{digits}-digit integer, above the {sys.get_int_max_str_digits()}-digit print limit>"


def frac_str(x: Fraction) -> str:
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}" if x.denominator != 1 else _int_str(x.numerator)


def dec_str(x) -> str:
    """x to 12 significant digits.  An exact ``Fraction`` below the normal
    float range is divided in decimal, since a float would lose its digits."""
    if isinstance(x, Fraction) and 0 < x < sys.float_info.min:
        return _wide_str(_WIDE.divide(Decimal(x.numerator), Decimal(x.denominator)))
    return f"{float(x):.12g}"


def _wide_str(value: Decimal) -> str:
    """A value outside the float range as ``<mantissa>e<exponent>``, with the
    12 digits ``dec_str`` prints."""
    mantissa, exponent = f"{value:.11e}".split("e")
    return f"{dec_str(float(mantissa))}e{int(exponent):+03d}"


def _meta(args: argparse.Namespace, extra: dict | None = None) -> dict:
    meta = {"version": __version__, "command": args.command}
    if hasattr(args, "cap"):  # the commands that enumerate diagrams
        meta["cap"] = args.cap
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if extra:
        meta.update(extra)
    return meta


def _emit(args: argparse.Namespace, meta: dict, rows: list[dict], text_lines: list[str]) -> None:
    """Write output as table (text_lines), csv (rows), or json (meta + rows)."""
    out = io.StringIO()
    if args.format == "json":
        json.dump({"meta": meta, "rows": rows}, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        for k, v in meta.items():
            out.write(f"# {k}={v}\n")
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(dict.fromkeys(k for row in rows for k in row)))
            writer.writeheader()
            writer.writerows(rows)
    else:
        for k, v in meta.items():
            out.write(f"# {k}={v}\n")
        for line in text_lines:
            out.write(line + "\n")
    payload = out.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(payload)


def _scaled_str(x: float, log_scale: float) -> str:
    """x * e^log_scale as ``dec_str`` prints it when the scale e^log_scale is a
    normal float, else as ``<mantissa>e<exponent>`` to the same 12 digits."""
    if x == 0.0 or sys.float_info.min <= times_exp(1.0, log_scale) < math.inf:
        return dec_str(times_exp(x, log_scale))
    return _wide_str(_WIDE.multiply(Decimal(x), _WIDE.exp(Decimal(log_scale))))


def pmax(
    instance: CodingInstance, method: str = "auto", cap: int = DEFAULT_ENUMERATION_CAP,
    samples: int = 10_000, seed: int = 0,
) -> CodingReport | McEstimate:
    """P_max of one instance by ``method``: "exact" (the search of
    ``quantum_pmax_exact``, up to ``cap`` boxes), "plancherel" or "schur-weyl"
    (the estimator from ``samples`` draws of the stream ``seed``), or "auto":
    exact up to the cap, else the estimator for the instance's own d/N,
    Plancherel above the critical ratio and Schur-Weyl at or below it.

    The three functions are looked up in this module at each call, so a
    wrapper installed over them sees every call."""
    if method == "auto":
        if instance.n_boxes <= cap:
            method = "exact"
        else:
            method = "plancherel" if instance.above_critical else "schur-weyl"
    n, d = instance.n_boxes, instance.n_colors
    if method == "exact":
        return quantum_pmax_exact(instance, cap=cap)
    if method == "plancherel":
        return pmax_estimate_plancherel(n, d, samples, seed)
    if method == "schur-weyl":
        return pmax_estimate_schur_weyl(n, d, samples, seed)
    raise ValueError(f"unknown method {method!r}")


def sweep(
    ratio: float, n_list: list[int], cap: int = DEFAULT_ENUMERATION_CAP, samples: int = 10_000, seed: int = 0
) -> list[tuple[CodingInstance, CodingReport | McEstimate]]:
    """For each N in n_list, the instance with d = max(1, floor(ratio * N))
    and its P_max by the "auto" rule of ``pmax``.  The i-th row's estimator
    reads the stream seed + i."""
    if not n_list:
        raise ValueError("n_list must name at least one N")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    rows = []
    for i, n in enumerate(n_list):
        if not math.isfinite(ratio * n):
            raise ValueError(f"ratio * N must be finite, got {ratio} * {n}")
        inst = CodingInstance(n, max(1, math.floor(ratio * n)))
        rows.append((inst, pmax(inst, "auto", cap, samples, seed + i)))
    return rows


def _quantum_columns(instance: CodingInstance, result: CodingReport | McEstimate) -> dict:
    """The columns that pmax and sweep share, for an exact report or an estimate."""
    if isinstance(result, McEstimate):
        quantum = {
            "p_quantum": _scaled_str(result.ratio, result.log_scale), "p_quantum_exact": "",
            "stderr": _scaled_str(result.ratio_stderr, result.log_scale),
        }
    else:
        quantum = {"p_quantum": dec_str(result.p_quantum), "p_quantum_exact": frac_str(result.p_quantum), "stderr": ""}
    p_classical, bound = classical_success(instance), info_bound(instance)
    return {
        "method": result.method, **quantum,
        "p_classical": dec_str(p_classical), "p_classical_exact": frac_str(p_classical),
        "info_bound": dec_str(bound), "info_bound_exact": frac_str(bound),
    }


def cmd_pmax(args: argparse.Namespace) -> None:
    inst = CodingInstance(args.n, args.d)
    result = pmax(inst, args.method, args.cap, args.samples, args.seed)
    row = {"n": args.n, "d": args.d, **_quantum_columns(inst, result)}
    if isinstance(result, McEstimate):
        row.update(dim_w="", informative_draws=result.informative)
        shift = result.log_scale - result.log_bound  # exactly 0.0 unless the scale moved
        lines = [
            f"p_quantum = {row['p_quantum']} +/- {row['stderr']} ({result.method})",
            f"sampled_mean = {_scaled_str(result.ratio, shift)} +/- {_scaled_str(result.ratio_stderr, shift)}",
            f"informative_draws = {result.informative} of {args.samples} ({result.bar})",
        ]
    else:
        dim_w = _int_str(result.dim_w)
        row.update(dim_w=result.dim_w if dim_w.isdigit() else dim_w, informative_draws="")
        lines = [
            f"p_quantum = {row['p_quantum_exact']} ({row['p_quantum']})",
            f"p_classical = {row['p_classical_exact']} ({row['p_classical']})",
            f"info_bound = {row['info_bound_exact']} ({row['info_bound']})",
            f"dim_w = {dim_w}",
            f"min_side_counts = {result.min_side_counts}",
        ]
    _emit(args, _meta(args, {"method": row["method"]}), [row], lines)


def cmd_classical(args: argparse.Namespace) -> None:
    p = classical_success(CodingInstance(args.n, args.d))
    row = {"n": args.n, "d": args.d, "p_classical": dec_str(p), "p_classical_exact": frac_str(p)}
    _emit(args, _meta(args), [row], [f"p_classical = {frac_str(p)} ({dec_str(p)})"])


def cmd_sweep(args: argparse.Namespace) -> None:
    n_list = [int(x) for x in args.n_list.split(",") if x]
    rows_out = []
    lines = []
    for inst, result in sweep(args.r, n_list, args.cap, args.samples, args.seed):
        n, d = inst.n_boxes, inst.n_colors
        if isinstance(result, McEstimate):
            ratio_to_bound = times_exp(result.ratio, result.log_scale - min(0.0, log_counting_bound(n, d)))
        else:
            ratio_to_bound = float(result.p_quantum / info_bound(inst))
        row = {
            "n": n, "d": d, "r": dec_str(d / n), **_quantum_columns(inst, result),
            "ratio_to_bound": dec_str(ratio_to_bound),
        }
        rows_out.append(row)
        lines.append(
            f"N={n} d={d} p_quantum={row['p_quantum']} "
            f"({result.method}) ratio_to_bound={row['ratio_to_bound']}"
        )
    _emit(args, _meta(args, {"r": args.r, "samples": args.samples}), rows_out, lines)


def cmd_sample(args: argparse.Namespace) -> None:
    share = 1.0 if args.measure == "plancherel" else 0.0
    shapes = Counter(draw_shapes(args.n, args.d, args.count, args.seed, share))
    rows = [
        {"shape": " ".join(map(str, shape)), "count": c, "frequency": dec_str(c / args.count)}
        for shape, c in sorted(shapes.items(), reverse=True)
    ]
    lines = [f"{r['shape']}: {r['count']} ({r['frequency']})" for r in rows]
    _emit(args, _meta(args, {"measure": args.measure, "count": args.count}), rows, lines)


def _verify_n3_checks(_seed: int) -> list[tuple[str, float, float]]:
    psi, seed = build_n3_example()
    overlap_resid = max(
        abs(abs(psi.conj() @ psi[build_gamma(p, 3, 2)]) - 0.2)
        for p in all_perms(3) if p != (0, 1, 2)
    )
    # E_sigma sum to at most I: the slack I - sum E_sigma has no negative eigenvalue
    slack = covariant_slack(seed, 3, 2)
    p_povm = success_probability(psi, seed, 3, 2)
    relations, copies = orthogonality_check_n3()
    return [
        ("overlap-one-fifth", overlap_resid, 1e-12),
        ("povm-completeness", max(0.0, -np.linalg.eigvalsh(slack).min()), 1e-10),
        ("success-five-sixths", abs(p_povm - float(quantum_pmax_exact(CodingInstance(3, 2)).p_quantum)), 1e-10),
        ("pgm-matches-povm", abs(pgm_success(psi, 3, 2) - p_povm), 1e-8),
        ("orthogonality-relations", relations, 1e-12),
        ("phi-copy-projections", copies, 1e-12),
    ]


def _verify_symmetrize_checks(seed: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(seed)
    n, d = 3, 2
    indices = {p: build_gamma(p, n, d) for p in all_perms(n)}
    psi, _ = build_n3_example()
    max_cov = max_success_shift = 0.0
    for _ in range(SYMMETRIZE_POVMS):
        raw = random_povm(rng, n, d)
        povm_seed = symmetrize_povm(raw, n, d)
        averaged = symmetrize_elements(raw, n, d)
        for p, idx in indices.items():
            max_cov = max(max_cov, float(np.abs(averaged[p] - povm_seed[np.ix_(idx, idx)]).max()))
        raw_success = sum(np.real(psi[idx].conj() @ raw[p] @ psi[idx]) for p, idx in indices.items()) / len(indices)
        max_success_shift = max(max_success_shift, abs(success_probability(psi, povm_seed, n, d) - raw_success))
    return [
        ("symmetrized-covariance", max_cov, 1e-12),
        ("symmetrized-success-preserved", max_success_shift, 1e-12),
    ]


def _verify_classical_checks(seed: int) -> list[tuple[str, float, float]]:
    checks = []
    for n, d in ((3, 2), (4, 2)):
        target = float(classical_success(CodingInstance(n, d)))
        p_hat, stderr = classical_channel_mc(n, d, 100_000, seed)
        checks.append((f"classical-channel-{n}-{d}", abs(p_hat - target) / max(stderr, 1e-12), 4.0))
    return checks


# each suite's checks as (check_name, residual, tolerance), from the seed
SUITES = {"n3": _verify_n3_checks, "symmetrize": _verify_symmetrize_checks, "classical": _verify_classical_checks}
VERIFY_SUITES = (*SUITES, "all")


def verify_checks(suite: str, seed: int) -> list[dict]:
    """The checks of one verify suite, each a dict of check_name, max_residual,
    tolerance and pass.  ``suite`` is a key of ``SUITES`` or "all", which runs
    every suite of the table in its order.  ``seed`` drives the random POVMs
    of "symmetrize" and the trials of "classical"."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)}")
    runs = SUITES.values() if suite == "all" else [SUITES[suite]]
    checks = [check for run in runs for check in run(seed)]
    return [
        {"check_name": name, "max_residual": float(resid), "tolerance": tol, "pass": bool(resid <= tol)}
        for name, resid, tol in checks
    ]


def cmd_verify(args: argparse.Namespace) -> None:
    checks = verify_checks(args.suite, args.seed)
    if args.format == "table":
        args.format = "json"  # verification reports are JSON by default
    _emit(args, _meta(args, {"suite": args.suite}), checks, [])
    if not all(c["pass"] for c in checks):
        raise InternalInvariantError("verification suite reported failures")


def cmd_bounds(args: argparse.Namespace) -> None:
    # every argument is checked before the first check runs
    check_enumerable(args.kerov_n, args.cap)
    row_n, row_d = args.kerov_row_n, args.kerov_row_d
    check_row_bound_args(row_n, row_d, args.cap)
    check_growth_bound_args(args.erdos_n, args.c)
    rows = [
        _bound_row("plancherel-column-tail", f"n<={args.kerov_n}", kerov_bound_check(args.kerov_n, args.cap)),
        _bound_row("schur-weyl-row-tail", f"n={row_n},d={row_d}", kerov_row_bound_check(row_n, row_d, args.cap)),
        _bound_row("partition-count-growth", f"n<={args.erdos_n}", erdos_bound_check(args.erdos_n, args.c)),
    ]
    lines = [
        f"{r['check']} ({r['range']}): "
        + (
            f"untested, vacuous in all {r['vacuous']} cases"
            if "vacuous" in r
            else f"violations={r['violations']} max_slack={r['max_slack']}"
        )
        for r in rows
    ]
    _emit(args, _meta(args, {"c": args.c}), rows, lines)


def _bound_row(check: str, span: str, report: BoundCheckReport) -> dict:
    """One output row of `bounds`.  A row whose every case is vacuous tested
    nothing, so it gives that count instead of violations=0 and a slack of -inf."""
    if report.vacuous == report.checked:
        return {"check": check, "range": span, "vacuous": report.vacuous}
    return {"check": check, "range": span, "violations": report.violations, "max_slack": dec_str(report.max_slack)}


def build_parser() -> _Parser:
    parser = _Parser(prog="permcode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, enumerates: bool = False) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        if enumerates:
            p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="exact-enumeration cap")

    p = sub.add_parser("pmax", help="optimal quantum success probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("auto", "exact", "plancherel", "schur-weyl"), default="auto")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    common(p, enumerates=True)
    p.set_defaults(fn=cmd_pmax)

    p = sub.add_parser("classical", help="optimal classical success probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_classical)

    p = sub.add_parser("sweep", help="success probability along N at fixed color ratio")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated N values")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    common(p, enumerates=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("sample", help="draw random Young diagrams")
    p.add_argument("--measure", choices=("plancherel", "schur-weyl"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="matrix-level verification suites")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bounds", help="tail and growth bound checks")
    p.add_argument("--kerov-n", type=int, default=40)
    p.add_argument("--kerov-row-n", type=int, default=30)
    p.add_argument("--kerov-row-d", type=int, default=15)
    p.add_argument("--erdos-n", type=int, default=500)
    p.add_argument("--c", type=float, default=HARDY_RAMANUJAN_C)
    common(p, enumerates=True)
    p.set_defaults(fn=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args)
        return EXIT_OK
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    except ValueError as exc:  # CapacityError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:  # InternalInvariantError included
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
