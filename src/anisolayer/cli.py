"""Command-line front end: one subcommand per experiment artifact.

Subcommands:
    check        compatibility / derivative sanity report for a problem
    expand       evaluate a composite approximation on a grid -> field CSV
    fd           five-point reference solve -> field CSV
    convergence  remainder table and order fits -> CSV + JSON sidecar
    mc           Feynman-Kac point estimate -> JSON
    identity     inner/outer matching-identity deviation -> JSON

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown problem,
inconsistent request, an output path that cannot be written; missing
directories and directory targets are caught before any computation), on a
request too large for memory (``MemoryError``) and on a worker process that
dies while formatting a field CSV or simulating Monte Carlo paths
(``ChildProcessError``), 2 on numerical failures (a solve that fails its
residual check, non-finite data, violated integral conditions).  Each
failure is one line on stderr, without a traceback.  File outputs are
deterministic for a fixed flag set and seed; CSV artifacts carry
'#'-prefixed metadata lines (tool version and config echo) above the header,
JSON artifacts carry the same echo under a "meta" key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .errors import (
    DegenerateStart,
    InsufficientPoints,
    IntegralConditionViolated,
    MissingDerivatives,
    NoConvergence,
    NonFiniteValue,
    NonPositiveNorm,
    NotZeroMean,
    UnknownProblem,
)
from .expansion import composite
from .fdsolver import DEFAULT_MAX_ITER, DEFAULT_TOL, Field2D, Grid2D, solve_fd
from .montecarlo import DEFAULT_DT, DEFAULT_PATHS, McConfig, estimate_point
from .problem import (
    BUILTIN_PROBLEM_NAMES,
    DEFAULT_COMPAT_STEP,
    DEFAULT_COMPAT_TOL,
    DEFAULT_QUAD_POINTS,
    builtin_problem,
    check_compatibility,
    check_derivatives,
    decompose,
)
from .spectral import DEFAULT_MODES, build_antiderivatives
from .validation import matching_identity_check, remainder_norms

_USAGE_ERRORS = (UnknownProblem, InsufficientPoints, MissingDerivatives,
                 DegenerateStart, ValueError)
_NUMERICAL_ERRORS = (NoConvergence, NonFiniteValue, IntegralConditionViolated,
                     NotZeroMean, NonPositiveNorm)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _eps2_list(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse eps^2 list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty eps^2 list")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"eps^2 values must be finite, got {text!r}")
    return values


def _orders_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse orders list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty orders list")
    return values


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite value, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _refine(text: str):
    return 1 if text == "1" else text


def build_parser() -> _Parser:
    parser = _Parser(prog="anisolayer",
                     description="Boundary-layer expansions for strongly "
                                 "anisotropic elliptic problems")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_problem(sp):
        sp.add_argument("--problem", required=True, choices=BUILTIN_PROBLEM_NAMES,
                        help="built-in problem name")

    sp = sub.add_parser("check", help="compatibility and derivative sanity report")
    add_problem(sp)
    sp.add_argument("--h", type=_positive, default=DEFAULT_COMPAT_STEP,
                    help="difference step for endpoint slopes")
    sp.add_argument("--tol-compat", type=_positive, default=DEFAULT_COMPAT_TOL)

    sp = sub.add_parser("expand", help="evaluate a composite approximation on a grid")
    add_problem(sp)
    sp.add_argument("--eps2", type=_positive, required=True, help="anisotropy eps^2")
    sp.add_argument("--order", type=int, default=0, help="correction count n of u[2n]")
    sp.add_argument("--nx", type=int, required=True, help="x cells")
    sp.add_argument("--ny", type=int, required=True, help="y cells")
    sp.add_argument("--modes", type=int, default=DEFAULT_MODES)
    sp.add_argument("--quad-points", type=int, default=DEFAULT_QUAD_POINTS)
    sp.add_argument("--out", required=True, help="field CSV path")

    sp = sub.add_parser("fd", help="five-point reference solve")
    add_problem(sp)
    sp.add_argument("--eps2", type=_positive, required=True)
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--ny", type=int, required=True)
    sp.add_argument("--tol", type=_positive, default=DEFAULT_TOL)
    sp.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MAX_ITER,
                    help="cap on transform solves, refinement passes included")
    sp.add_argument("--out", required=True, help="field CSV path")

    sp = sub.add_parser("convergence", help="remainder table and order fits")
    add_problem(sp)
    sp.add_argument("--eps2", type=_eps2_list, required=True,
                    help="comma-separated eps^2 values (need >= 3)")
    sp.add_argument("--orders", type=_orders_list, default=[0, 1],
                    help="comma-separated correction counts, default 0,1")
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--ny", type=int, required=True)
    sp.add_argument("--modes", type=int, default=DEFAULT_MODES)
    sp.add_argument("--quad-points", type=int, default=DEFAULT_QUAD_POINTS)
    sp.add_argument("--no-fd-error-estimate", action="store_true",
                    help="skip the estimate of the reference's own error")
    sp.add_argument("--refine", type=_refine, choices=(1, "auto"), default=1,
                    help="reference: 1 (default) solves once on the output grid, "
                         "'auto' Richardson-extrapolates y-refined solves that "
                         "resolve the sweep's thinnest layer")
    sp.add_argument("--out", required=True,
                    help="CSV path; the JSON sidecar lands next to it")

    sp = sub.add_parser("mc", help="Feynman-Kac Monte Carlo point estimate")
    add_problem(sp)
    sp.add_argument("--eps2", type=_positive, required=True)
    sp.add_argument("--x", type=float, required=True, help="start abscissa in [0,1]")
    sp.add_argument("--y", type=float, required=True, help="start ordinate in (0,1)")
    sp.add_argument("--paths", type=int, default=DEFAULT_PATHS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dt", type=_positive, default=DEFAULT_DT)
    sp.add_argument("--bridge", action="store_true",
                    help="enable the Brownian-bridge exit correction")
    sp.add_argument("--out", help="JSON path; stdout when omitted")

    sp = sub.add_parser("identity", help="matching-identity deviation")
    add_problem(sp)
    sp.add_argument("--kmax", type=_positive_int, default=8, help="largest checked mode")
    sp.add_argument("--quad-points", type=int, default=4096)
    sp.add_argument("--y-samples", type=_positive_int, default=9,
                    help="number of uniform y sample points")
    sp.add_argument("--out", help="JSON path; stdout when omitted")

    return parser


def _meta(args: argparse.Namespace) -> dict:
    meta = {"tool": f"anisolayer {__version__}", "command": args.command}
    for key, val in sorted(vars(args).items()):
        if key in ("command", "out") or val is None:
            continue
        meta[key] = val
    return meta


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _sidecar_path(out: str) -> str:
    return out[:-4] + ".json" if out.endswith(".csv") else out + ".json"


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject an output path whose directory is missing, or that is a
    directory, before any numerical work is spent on it."""
    out = getattr(args, "out", None)
    if out is None:
        return
    for path in [out, _sidecar_path(out)] if args.command == "convergence" else [out]:
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValueError(f"cannot write {path}: directory {parent} does not exist")


def _field_to_csv(field: Field2D, out: str, meta: dict) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        field.write_csv(fh, metadata=meta)


def _cmd_check(args) -> int:
    p = builtin_problem(args.problem)
    report = check_compatibility(p, h=args.h, tol_compat=args.tol_compat)
    print(f"compatibility report for problem {args.problem!r} "
          f"(step {args.h:g}, tolerance {args.tol_compat:g})")
    for name, value in report.magnitudes().items():
        print(f"  |{name}| = {abs(value):.3e}")
    print(f"  compatibility: {'PASS' if report.passed else 'FAIL'}")
    derivs_ok = check_derivatives(p)
    if p.f_y_derivs:
        print(f"  y-derivative sanity ({len(p.f_y_derivs)} supplied): "
              f"{'PASS' if derivs_ok else 'FAIL'}")
    else:
        print("  y-derivative sanity: none supplied")
    return 0


def _cmd_expand(args) -> int:
    p = builtin_problem(args.problem, eps=float(np.sqrt(args.eps2)))
    grid = Grid2D(n_x=args.nx, n_y=args.ny)
    approx = composite(p, order=args.order, n_modes=args.modes,
                       quad_points=args.quad_points)
    values = approx.evaluate_grid(grid.x_nodes(), grid.y_nodes())
    _field_to_csv(Field2D(grid=grid, values=values), args.out, _meta(args))
    print(f"wrote u[{2 * args.order}] field on {args.nx}x{args.ny} grid to {args.out}")
    return 0


def _cmd_fd(args) -> int:
    p = builtin_problem(args.problem, eps=float(np.sqrt(args.eps2)))
    grid = Grid2D(n_x=args.nx, n_y=args.ny)
    field, stats = solve_fd(p, grid, tol=args.tol, max_iter=args.max_iter)
    _field_to_csv(field, args.out, _meta(args))
    print(f"wrote reference field to {args.out} ({stats.iterations} transform solve(s), "
          f"relative residual {stats.relative_residual:.2e}, floor {stats.residual_floor:.2e})")
    return 0


def _cmd_convergence(args) -> int:
    p = builtin_problem(args.problem)
    grid = Grid2D(n_x=args.nx, n_y=args.ny)
    report = remainder_norms(
        p, args.eps2, args.orders, grid,
        n_modes=args.modes, quad_points=args.quad_points,
        estimate_fd_error=not args.no_fd_error_estimate, refine=args.refine,
    )
    meta = _meta(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        report.write_csv(fh, metadata=meta)
    sidecar_path = _sidecar_path(args.out)
    _write_json({**report.sidecar_dict(), "meta": meta}, sidecar_path)
    print(f"wrote remainder table to {args.out} and slopes to {sidecar_path}")
    for n in report.orders:
        fit = report.slopes[n]
        print(f"  r{2 * n}: slope {fit.slope:.3f}, intercept {fit.intercept:.3f}")
    cells = [f"eps2={e2:g}/r{2 * n}" for n in report.orders
             for e2, bad in zip(report.eps2, report.flagged[n]) if bad]
    if cells:
        print(f"anisolayer convergence: warning: reference error may pollute "
              f"{', '.join(cells)}; rerun with --refine auto", file=sys.stderr)
    return 0


def _cmd_mc(args) -> int:
    p = builtin_problem(args.problem, eps=float(np.sqrt(args.eps2)))
    cfg = McConfig(dt=args.dt, n_paths=args.paths, seed=args.seed,
                   bridge_correction=args.bridge)
    estimate = estimate_point(p, args.x, args.y, cfg)
    payload = json.loads(estimate.to_json())
    payload["meta"] = _meta(args)
    _write_json(payload, args.out)
    if args.out:
        print(f"wrote estimate {estimate.mean:.6g} +/- {estimate.std_error:.2g} to {args.out}")
    return 0


def _cmd_identity(args) -> int:
    p = builtin_problem(args.problem)
    d = decompose(p, quad_points=args.quad_points)
    stack = build_antiderivatives(d, quad_points=args.quad_points)
    ys = np.linspace(0.0, 1.0, args.y_samples)
    deviation = matching_identity_check(d, stack, n_modes=args.kmax, y_samples=ys)
    payload = {
        "max_deviation": deviation,
        "kmax": args.kmax,
        "quad_points": args.quad_points,
        "y_samples": list(ys),
        "meta": _meta(args),
    }
    _write_json(payload, args.out)
    if args.out:
        print(f"wrote matching-identity deviation {deviation:.3e} to {args.out}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "expand": _cmd_expand,
    "fd": _cmd_fd,
    "convergence": _cmd_convergence,
    "mc": _cmd_mc,
    "identity": _cmd_identity,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals both --help and usage errors
        return int(exc.code or 0)
    try:
        _check_output_paths(args)
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"anisolayer {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (*_USAGE_ERRORS, OSError) as exc:
        print(f"anisolayer {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"anisolayer {args.command}: out of memory{detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
