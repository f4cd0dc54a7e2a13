"""Command-line front end: exact reports, sweeps, sampling, verification
suites, and bound checks, emitted as table, CSV, or JSON.

Output is deterministic for a fixed command line and seed (no timestamps).
The environment variable PERMCODE_CAP overrides the exact-enumeration cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from . import __version__
from .asymptotics import (
    HARDY_RAMANUJAN_C,
    McEstimate,
    draw_shapes,
    erdos_bound_check,
    kerov_bound_check,
    kerov_row_bound_check,
    pmax_estimate_plancherel,
    pmax_estimate_schur_weyl,
    times_exp,
)
from .coding import CodingInstance, CodingReport, classical_success, info_bound, quantum_pmax_exact
from .qsim import (
    InternalQsimError,
    all_perms,
    build_gamma,
    build_n3_example,
    classical_channel_mc,
    orthogonality_check_n3,
    pgm_success,
    success_probability,
    symmetrize_elements,
    symmetrize_povm,
)
from .young import CapacityError, DEFAULT_ENUMERATION_CAP, InternalInvariantError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2
LOG10_2 = math.log10(2)
_WIDE = Context(prec=30)  # for values whose scale leaves the float range
VERIFY_SUITES = ("n3", "symmetrize", "classical", "all")
SYMMETRIZE_POVMS = 20  # random POVMs per symmetrize suite


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _int_str(v: int) -> str:
    """Decimal digits of ``v``, or a note of how many there are when Python's
    limit on int-to-str conversion (4300 digits by default) refuses them."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before Python 3.10.7
    bits = abs(v).bit_length()
    if not limit or bits * LOG10_2 < limit:  # at most floor(bits * log10(2)) + 1 digits
        return str(v)
    k = int(bits * LOG10_2)  # v has k or k + 1 digits
    digits = k + 1 if abs(v) >= 10**k else k
    return str(v) if digits <= limit else f"<{digits}-digit integer, above the {limit}-digit print limit>"


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


def _meta(args: argparse.Namespace, cap: int, extra: dict | None = None) -> dict:
    meta = {"version": __version__, "command": args.command, "cap": cap}
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
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        for k, v in meta.items():
            out.write(f"# {k}={v}\n")
        for line in text_lines:
            out.write(line + "\n")
    payload = out.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _resolve_cap(args: argparse.Namespace) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("PERMCODE_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PERMCODE_CAP must be an integer, got {env!r}")
    return DEFAULT_ENUMERATION_CAP


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
    rows = []
    for i, n in enumerate(n_list):
        if n < 1:
            raise ValueError(f"n_list entries must be positive, got {n}")
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
    cap = _resolve_cap(args)
    inst = CodingInstance(args.n, args.d)
    result = pmax(inst, args.method, cap, args.samples, args.seed)
    row = {"n": args.n, "d": args.d, **_quantum_columns(inst, result)}
    if isinstance(result, McEstimate):
        row.update(dim_w="", informative_draws=result.informative)
        if result.samples == 1 and result.ratio_stderr:
            bar_kind = "one draw, weight-bound error bar"
        elif result.informative:
            bar_kind = "sampled error bar"
        elif result.ratio_stderr:
            bar_kind = "rule-of-three error bar"
        else:
            bar_kind = "one possible shape, exact"
        lines = [
            f"p_quantum = {row['p_quantum']} +/- {row['stderr']} ({result.method})",
            f"sampled_mean = {dec_str(result.ratio)} +/- {dec_str(result.ratio_stderr)}",
            f"informative_draws = {result.informative} of {result.samples} ({bar_kind})",
        ]
    else:
        row.update(dim_w=result.dim_w, informative_draws="")
        lines = [
            f"p_quantum = {row['p_quantum_exact']} ({row['p_quantum']})",
            f"p_classical = {row['p_classical_exact']} ({row['p_classical']})",
            f"info_bound = {row['info_bound_exact']} ({row['info_bound']})",
            f"dim_w = {result.dim_w}",
            f"min_side_counts = {result.min_side_counts}",
        ]
    _emit(args, _meta(args, cap, {"method": row["method"]}), [row], lines)


def cmd_classical(args: argparse.Namespace) -> None:
    cap = _resolve_cap(args)
    p = classical_success(CodingInstance(args.n, args.d))
    row = {"n": args.n, "d": args.d, "p_classical": dec_str(p), "p_classical_exact": frac_str(p)}
    _emit(args, _meta(args, cap), [row], [f"p_classical = {frac_str(p)} ({dec_str(p)})"])


def cmd_sweep(args: argparse.Namespace) -> None:
    cap = _resolve_cap(args)
    n_list = [int(x) for x in args.n_list.split(",") if x]
    rows_out = []
    lines = []
    for inst, result in sweep(args.r, n_list, cap, args.samples, args.seed):
        n, d = inst.n_boxes, inst.n_colors
        if isinstance(result, McEstimate):
            log_bound = min(0.0, n * math.log(d) - math.lgamma(n + 1))
            ratio_to_bound = times_exp(result.ratio, result.log_scale - log_bound)
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
    _emit(args, _meta(args, cap, {"r": args.r, "samples": args.samples}), rows_out, lines)


def cmd_sample(args: argparse.Namespace) -> None:
    cap = _resolve_cap(args)
    share = 1.0 if args.measure == "plancherel" else 0.0
    shapes = Counter(diag.rows for diag in draw_shapes(args.n, args.d, args.count, args.seed, share))
    rows = [
        {"shape": " ".join(map(str, rows_)), "count": c, "frequency": dec_str(c / args.count)}
        for rows_, c in sorted(shapes.items(), reverse=True)
    ]
    lines = [f"{r['shape']}: {r['count']} ({r['frequency']})" for r in rows]
    _emit(args, _meta(args, cap, {"measure": args.measure, "count": args.count}), rows, lines)


def _verify_n3_checks() -> list[tuple[str, float, float]]:
    signal, povm = build_n3_example()
    psi = signal.amplitudes
    overlap_resid = max(
        abs(abs(psi.conj() @ build_gamma(p, 3, 2).matrix @ psi) - 0.2)
        for p in all_perms(3) if p != (0, 1, 2)
    )
    total = sum(povm.elements().values()) + povm.completion
    p_povm = success_probability(signal, povm)
    orth = orthogonality_check_n3()
    relations = (orth["cross_irrep_residual"], orth["same_irrep_residual"], orth["alignment_residual"])
    # D/n! of the two-dimensional irrep of S_3
    copies = max(abs(v - 2 / 6) for v in orth["phi_projection_sq_norms"].values())
    return [
        ("overlap-one-fifth", overlap_resid, 1e-12),
        ("povm-completeness", np.abs(total - np.eye(8)).max(), 1e-10),
        ("success-five-sixths", abs(p_povm - 5 / 6), 1e-10),
        ("pgm-matches-povm", abs(pgm_success(signal, 3, 2) - p_povm), 1e-8),
        ("orthogonality-relations", max(relations), 1e-12),
        ("phi-copy-projections", copies, 1e-12),
    ]


def _verify_symmetrize_checks(seed: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(seed)
    n, d = 3, 2
    dim = d**n
    perms = all_perms(n)
    gammas = {p: build_gamma(p, n, d).matrix for p in perms}
    signal, _ = build_n3_example()
    psi = signal.amplitudes
    max_cov = 0.0
    max_success_shift = 0.0
    for _ in range(SYMMETRIZE_POVMS):
        # random POVM: normalized conjugated random PSD matrices
        raws = []
        for _ in perms:
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raws.append(m @ m.conj().T)
        total = sum(raws)
        evals, evecs = np.linalg.eigh(total)
        inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
        raw = {p: inv_sqrt @ e @ inv_sqrt for p, e in zip(perms, raws)}
        cov = symmetrize_povm(raw, n, d)
        averaged = symmetrize_elements(raw, n, d)
        for p, g in gammas.items():
            max_cov = max(
                max_cov,
                float(np.abs(averaged[p] - g @ cov.seed_operator @ g.conj().T).max()),
            )
        raw_success = sum(
            np.real((g @ psi).conj() @ raw[p] @ (g @ psi)) for p, g in gammas.items()
        ) / len(perms)
        max_success_shift = max(
            max_success_shift, abs(success_probability(signal, cov) - raw_success)
        )
    return [
        ("symmetrized-covariance", max_cov, 1e-12),
        ("symmetrized-success-preserved", max_success_shift, 1e-12),
    ]


def _verify_classical_checks(seed: int) -> list[tuple[str, float, float]]:
    checks = []
    for n, d, target in ((3, 2, 0.5), (4, 2, 0.25)):
        p_hat, stderr = classical_channel_mc(n, d, 100_000, seed)
        checks.append((f"classical-channel-{n}-{d}", abs(p_hat - target) / max(stderr, 1e-12), 4.0))
    return checks


def verify_checks(suite: str, seed: int) -> list[dict]:
    """The checks of one verify suite, each a dict of check_name, max_residual,
    tolerance and pass.  ``suite`` is one of ``VERIFY_SUITES``; "all" runs the
    other three.  ``seed`` drives the random POVMs of "symmetrize" and the
    trials of "classical"."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)}")
    checks = []
    if suite in ("n3", "all"):
        checks.extend(_verify_n3_checks())
    if suite in ("symmetrize", "all"):
        checks.extend(_verify_symmetrize_checks(seed))
    if suite in ("classical", "all"):
        checks.extend(_verify_classical_checks(seed))
    return [
        {"check_name": name, "max_residual": float(resid), "tolerance": tol, "pass": bool(resid <= tol)}
        for name, resid, tol in checks
    ]


def cmd_verify(args: argparse.Namespace) -> None:
    cap = _resolve_cap(args)
    checks = verify_checks(args.suite, args.seed)
    lines = [
        f"{'PASS' if c['pass'] else 'FAIL'} {c['check_name']}: "
        f"residual {c['max_residual']:.3e} (tol {c['tolerance']:.0e})"
        for c in checks
    ]
    if args.format == "table":
        args.format = "json"  # verification reports are JSON by default
    _emit(args, _meta(args, cap, {"suite": args.suite}), checks, lines)
    if not all(c["pass"] for c in checks):
        raise InternalQsimError("verification suite reported failures")


def cmd_bounds(args: argparse.Namespace) -> None:
    cap = _resolve_cap(args)
    if args.kerov_n < 1:
        raise ValueError(f"--kerov-n must be >= 1, got {args.kerov_n}")
    reports = []
    for n in range(1, args.kerov_n + 1):
        reports.append(kerov_bound_check(n, cap=cap))
    row_rep = kerov_row_bound_check(args.kerov_row_n, args.kerov_row_d, cap=cap)
    erdos = erdos_bound_check(args.erdos_n, args.c)
    kerov_viol = sum(r.violations for r in reports)
    kerov_max = max(r.max_slack for r in reports)
    rows = [
        {
            "check": "plancherel-column-tail", "range": f"n<=%d" % args.kerov_n,
            "violations": kerov_viol, "max_slack": dec_str(kerov_max),
        },
        {
            "check": "schur-weyl-row-tail",
            "range": f"n={args.kerov_row_n},d={args.kerov_row_d}",
            "violations": row_rep.violations, "max_slack": dec_str(row_rep.max_slack),
        },
        {
            "check": "partition-count-growth", "range": f"n<={args.erdos_n}",
            "violations": erdos.violations, "max_slack": dec_str(erdos.max_slack),
        },
    ]
    lines = [
        f"{r['check']} ({r['range']}): violations={r['violations']} max_slack={r['max_slack']}"
        for r in rows
    ]
    _emit(args, _meta(args, cap, {"c": args.c}), rows, lines)


def build_parser() -> _Parser:
    parser = _Parser(prog="permcode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        p.add_argument("--cap", type=int, default=None, help="exact-enumeration cap override")

    p = sub.add_parser("pmax", help="optimal quantum success probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("auto", "exact", "plancherel", "schur-weyl"), default="auto")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
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
    common(p)
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
    common(p)
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
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InternalInvariantError, InternalQsimError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
