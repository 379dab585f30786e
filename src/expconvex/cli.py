"""Command-line front end.

Subcommands: reduce (rank-one pair to canonical form), check-ec (Gram PSD
check of the trace function), fit-measure (NNLS atomic-measure fit), and
verify (seeded ensemble run).  Exit codes: 0 ok, 1 usage or I/O error,
2 rank check failed, 3 numerical check failed, 4 numerical failure without
a verdict (ill-conditioned fit, overflow, trace underflow, eigensolver
failure).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import matrixio
from .convexity import TGrid, check_exponential_convexity
from .errors import (
    ConvergenceFailure,
    DichotomyViolated,
    ExpConvexError,
    IllConditioned,
    Overflow,
    RankNotOne,
)
from .hermitian import validate_hermitian
from .reduction import reduce, reduction_residuals
from .transform import (
    TracePair,
    fit_measure,
    growth_exponents,
    sample_trace_f,
    trace_function,
)
from .tolerances import DEFAULT_PSD_TOL, HOLDOUT_LIMIT, RIDGE_REG, SUPPORT_MIN_WIDTH
from .verify import MAX_N, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RANK = 2
EXIT_CHECK = 3
EXIT_ILL = 4

# the largest --grid-n: the Gram matrix and its grid sums are dense; at this
# size one check-ec on an n = 2 pair takes about 15 s on one x86-64 core and
# 0.8 GB
MAX_GRID_N = 4096


class _UsageError(Exception):
    pass


# (exception types, exit code, message prefix) for every error main reports;
# the first matching row wins and the last row catches all the others
_ERROR_EXITS = (
    (RankNotOne, EXIT_RANK, "rank check failed: "),
    (IllConditioned, EXIT_ILL, "ill-conditioned: "),
    ((Overflow, ConvergenceFailure), EXIT_ILL, "numerical failure: "),
    (DichotomyViolated, EXIT_CHECK, "check failed: "),
    ((_UsageError, ValueError, OSError, ExpConvexError), EXIT_USAGE, ""),
)
_ERROR_TYPES = _ERROR_EXITS[-1][0]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse before 3.13 reads "-1e5" as an option, not as a negative number,
        # and then reports "expected one argument"; accept the exponent form too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with code 2 on bad flags; route through main instead.
    def error(self, message):
        raise _UsageError(message)


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise _UsageError(f"{flag} must be finite, got {value}")


def _load_pair(path: str) -> TracePair:
    a_raw, b_raw = matrixio.load_pair(path)
    return TracePair(validate_hermitian(a_raw), validate_hermitian(b_raw))


def cmd_reduce(args) -> int:
    pair = _load_pair(args.input)
    result = reduce(pair.A, pair.B)
    res = reduction_residuals(pair.A, pair.B, result)
    matrixio.write_doc(args.output, matrixio.reduction_to_doc(result, res))
    print(
        f"reduced {pair.n}x{pair.n} pair: residuals "
        f"{res[0]:.3e} / {res[1]:.3e}; wrote {args.output}"
    )
    return EXIT_OK


def cmd_check_ec(args) -> int:
    if args.grid_n < 2:
        raise _UsageError(f"--grid-n must be at least 2, got {args.grid_n}")
    if args.grid_n > MAX_GRID_N:
        raise _UsageError(f"--grid-n must be at most {MAX_GRID_N}, got {args.grid_n}")
    if not args.grid_lo < args.grid_hi:
        raise _UsageError(
            f"--grid-lo must be below --grid-hi, got [{args.grid_lo}, {args.grid_hi}]"
        )
    _require_finite("--grid-lo", args.grid_lo)
    _require_finite("--grid-hi", args.grid_hi)
    if args.tol <= 0.0:
        raise _UsageError(f"--tol must be positive, got {args.tol}")
    _require_finite("--tol", args.tol)
    # the grid is checked before the file is read
    grid = TGrid.equispaced(args.grid_lo, args.grid_hi, args.grid_n)
    pair = _load_pair(args.input)
    report = check_exponential_convexity(trace_function(pair), grid, tol=args.tol)
    doc = matrixio.ec_report_to_doc(report, f"trace(n={pair.n})", grid.points)
    sys.stdout.write(matrixio.dumps_doc(doc))
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_fit_measure(args) -> int:
    if args.resolution < 1:
        raise _UsageError(f"--resolution must be positive, got {args.resolution}")
    if args.t_points < 3:
        raise _UsageError(f"--t-points must be at least 3, got {args.t_points}")
    if args.reg < 0.0:
        raise _UsageError(f"--reg must be nonnegative, got {args.reg}")
    _require_finite("--reg", args.reg)
    pair = _load_pair(args.input)

    est = growth_exponents(pair)
    lo, hi = est.lambda_min_est, est.lambda_max_est
    if hi - lo < SUPPORT_MIN_WIDTH:
        mid = (lo + hi) / 2.0
        lo, hi = mid - 0.5, mid + 0.5
    samples = sample_trace_f(pair, TGrid.equispaced(-2.0, 2.0, args.t_points))
    fit = fit_measure(samples, (lo, hi), args.resolution, reg=args.reg)
    sys.stdout.write(matrixio.dumps_doc(matrixio.fit_to_doc(fit)))
    return EXIT_OK if fit.holdout_error <= HOLDOUT_LIMIT else EXIT_CHECK


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise _UsageError(f"--cases must be at least 1, got {args.cases}")
    if not 2 <= args.max_n <= MAX_N:
        raise _UsageError(f"--max-n must be between 2 and {MAX_N}, got {args.max_n}")
    report = run_verification(args.cases, args.max_n, args.seed)
    doc = report.to_doc()
    if args.out:
        matrixio.write_doc(args.out, doc)
    else:
        sys.stdout.write(matrixio.dumps_doc(doc))
    print(
        f"{report.cases} cases, {len(report.records)} checks, "
        f"{report.failures} failures in {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK if report.failures == 0 else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="expconvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a rank-one pair to (diagonal L, nonneg-off-diag M)")
    p.add_argument("input", help="JSON file with matrices A and B")
    p.add_argument("output", help="path for the reduction document")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check-ec", help="Gram PSD check of the trace function")
    p.add_argument("input", help="JSON file with matrices A and B")
    p.add_argument(
        "--grid-n", type=int, default=8,
        help=f"number of grid points, 2..{MAX_GRID_N} (default 8)",
    )
    p.add_argument("--grid-lo", type=float, default=-2.0, help="grid start (default -2)")
    p.add_argument("--grid-hi", type=float, default=2.0, help="grid end (default 2)")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_PSD_TOL,
        help=f"PSD tolerance (default {DEFAULT_PSD_TOL:g})",
    )
    p.set_defaults(func=cmd_check_ec)

    p = sub.add_parser("fit-measure", help="fit a nonnegative atomic measure to the trace function")
    p.add_argument("input", help="JSON file with matrices A and B")
    p.add_argument("--resolution", type=int, default=64, help="candidate atom count (default 64)")
    p.add_argument(
        "--reg", type=float, default=RIDGE_REG, help=f"ridge regularization (default {RIDGE_REG:g})"
    )
    p.add_argument(
        "--t-points", type=int, default=48, help="trace samples on [-2,2], at least 3 (default 48)"
    )
    p.set_defaults(func=cmd_fit_measure)

    p = sub.add_parser("verify", help="run the seeded random-ensemble check battery")
    p.add_argument("--cases", type=int, default=50, help="number of random cases (default 50)")
    p.add_argument("--max-n", type=int, default=7, help=f"largest dimension, 2..{MAX_N} (default 7)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and then reused.

    parse_args leaves a parser as it found it (each call fills a new
    Namespace, and _Parser.error only raises), so a reused parser gives the
    same results, and a caller of main in a loop skips argparse's set-up.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _ERROR_TYPES as exc:
        code, prefix = next((c, p) for types, c, p in _ERROR_EXITS if isinstance(exc, types))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
