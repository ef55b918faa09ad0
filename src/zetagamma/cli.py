"""Command-line front end.

Subcommands: gamma, zero-iterate, tables, bench.  Every command is
deterministic given its flags and input files; --threads N is accepted,
sums run on one thread, and results never depend on N.  The brute-force
oracle that bench times alone splits its rows over the CPUs the process
may use; its value never depends on how many.  Exit codes:
0 ok, 1 other failure (an unwritable --out file, or bench routes that
disagree), 2 catalog miss, unreadable --zeros-file or bad arguments (an
empty --q/--k list among them), 3 domain or cap error, 4 diverged
iteration, 5 singular guard.  A zero-iterate run that converges, reaches
--iters or closes an exact cycle (an iterate equal to an earlier one bit
for bit; its ``period`` is on the status line and in --json) exits 0.  A
table row whose f map leaves its domain is printed with empty value cells
and one ``warning:`` line on stderr; the table still exits 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import asdict, astuple, is_dataclass
from typing import Sequence

from . import summation
from .bench import CSV_HEADER as BENCH_HEADER
from .bench import bench_offdiag
from .errors import CatalogError, DomainError, SingularGuardError, ZetaGammaError
from .fixedpoint import FixedPointMap, FixedPointStatus, iterate_fixed_point
from .series import gamma_type1, gamma_type2
from .tables import TABLE_IDS, OffDomainRowWarning, TableSpec, build_table
from .zeros import builtin_catalog, get_zero, load_catalog

EXIT_OK = 0
EXIT_CATALOG = 2
EXIT_DOMAIN = 3
EXIT_DIVERGED = 4
EXIT_SINGULAR = 5

#: Exit code of an error: the first entry whose type it is an instance of
#: (an OracleCapError is a DomainError).
_ERROR_EXIT = ((CatalogError, EXIT_CATALOG), (DomainError, EXIT_DOMAIN),
               (SingularGuardError, EXIT_SINGULAR), (ZetaGammaError, 1))

#: From this k on, one g-map step takes 0.4 s or more (0.29-0.30 s at 3e7,
#: 0.40-0.43 s at 4e7 and 0.58-0.67 s at 6e7 on 2 vCPUs).  zero-iterate
#: warns from here up to summation.MAX_DIRECT_K; past it no sum scans k terms.
RUNTIME_WARN_K = 40_000_000


def _fmt(value) -> str:
    # 15 significant digits everywhere; empty cell for missing values.
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _resolve_catalog(args):
    if args.zeros_file:
        return load_catalog(args.zeros_file)
    return builtin_catalog()


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _print_json(result) -> None:
    # The result dataclasses are the output schema: their fields in order,
    # enums by value.
    print(json.dumps(result, default=lambda obj: asdict(obj)
                     if is_dataclass(obj) else obj.value))


def _write_csv(stream, header: Sequence[str], rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])


def _cmd_gamma(args) -> int:
    catalog = _resolve_catalog(args)
    zero = get_zero(catalog, args.q)
    fn = gamma_type1 if args.method == "type1" else gamma_type2
    est = fn(zero.t, args.k, q=zero.q)
    if args.json:
        _print_json(est)
    else:
        print(_fmt(est.value))
        print(f"method={est.method.value} q={est.q} t_q={_fmt(est.t_q)} k={est.k}")
    return EXIT_OK


_STATUS_EXIT = {
    FixedPointStatus.CONVERGED: EXIT_OK,
    FixedPointStatus.MAX_ITERS: EXIT_OK,
    FixedPointStatus.CYCLE: EXIT_OK,
    FixedPointStatus.DIVERGED: EXIT_DIVERGED,
    FixedPointStatus.SINGULAR_GUARD: EXIT_SINGULAR,
}


def _cmd_zero_iterate(args) -> int:
    if RUNTIME_WARN_K <= args.k <= summation.MAX_DIRECT_K:
        print(f"warning: k={args.k} scans {args.k} terms per iterate; "
              "expect seconds per iteration", file=sys.stderr)
    trace = iterate_fixed_point(FixedPointMap(args.map), args.y0, args.k,
                                args.iters, args.tol)
    if args.json:
        _print_json(trace)
    else:
        _write_csv(sys.stdout, ("iteration", "value"), enumerate(trace.iterates))
        period = "" if trace.period is None else f", period={trace.period}"
        print(f"status: {trace.status.value} "
              f"(final_residual={_fmt(trace.final_residual)}{period})",
              file=sys.stderr)
    return _STATUS_EXIT[trace.status]


def _cmd_tables(args) -> int:
    spec = TableSpec(table_id=args.id, k=args.k, zero_indices=args.q)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", OffDomainRowWarning)
        header, rows = build_table(spec, catalog=_resolve_catalog(args))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    buf = io.StringIO()
    if args.json:
        buf.write(json.dumps({"table_id": args.id, "rows": rows}) + "\n")
    else:
        _write_csv(buf, header, (row.values() for row in rows))
    if not args.out:
        sys.stdout.write(buf.getvalue())
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise ZetaGammaError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def _cmd_bench(args) -> int:
    catalog = _resolve_catalog(args)
    zero = get_zero(catalog, args.q)
    reports = bench_offdiag(zero.t, args.k)
    if args.json:
        _print_json({"reports": reports})
    else:
        _write_csv(sys.stdout, BENCH_HEADER, map(astuple, reports))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--zeros-file", metavar="PATH", default=None,
                        help="load zero ordinates from a plain-text file "
                             "instead of the embedded catalog")
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON object instead of text/CSV")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted; sums run on one thread (the "
                             "bench oracle alone splits its rows over the "
                             "available CPUs); results never depend on N "
                             "or on the CPU count")

    parser = argparse.ArgumentParser(
        prog="zetagamma",
        description="Euler-Mascheroni estimates from individual zeta zeros, "
                    "fixed-point zero recovery, reference-table reproduction, "
                    "and summation benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", parents=[common],
                       help="estimate gamma from one zero")
    p.add_argument("--method", choices=("type1", "type2"), required=True)
    p.add_argument("--q", type=int, required=True, help="zero index")
    p.add_argument("--k", type=int, required=True, help="truncation length")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("zero-iterate", parents=[common],
                       help="run a fixed-point recursion from y0")
    p.add_argument("--map", choices=("f", "g"), required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_zero_iterate)

    p = sub.add_parser("tables", parents=[common],
                       help="reproduce a bundled reference table as CSV")
    p.add_argument("--id", choices=TABLE_IDS, required=True)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output file (default: stdout)")
    p.add_argument("--k", type=int, default=None, help="k override")
    p.add_argument("--q", type=_int_list, default=None,
                   help="comma-separated zero indices override")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("bench", parents=[common],
                       help="time naive vs factorized off-diagonal sums")
    p.add_argument("--k", type=_int_list, required=True,
                   help="comma-separated truncation lengths")
    p.add_argument("--q", type=int, default=1, help="zero index")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summation.set_num_workers(args.threads)
        return args.func(args)
    except ZetaGammaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXIT if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
