"""Workloads of the zetagamma benchmark: op lists, nominal term counts, checks.

An op is one ``zetagamma`` CLI command, run in-process through
``zetagamma.cli.main``.  Its check reads the exit code and the captured
stdout and returns a failure reason (``None`` when the output is right)
together with the numbers it read, timing columns left out, so that a traced
and an untraced run can be compared value for value.

Nominal terms are fixed by the op list, not by the route the library takes:
``k`` for each single sum an op asks for and ``k(k-1)/2`` for each
brute-force pair sum.  A gamma estimate or an f-map step at ``k`` asks for
two single sums (the zeta-type series and the harmonic diagonal), a g-map
step for one cosine sum.

This module imports nothing from ``zetagamma``, so the parent process can
read the workload names without paying the library's import.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Euler-Mascheroni constant, the benchmark's own copy of the reference.
EULER_GAMMA = 0.5772156649015329

#: Truncation of the deep-k workloads.  The paper goes to 1e7, but one op
#: there takes 5 s, too long a sample on a machine whose speed changes by
#: half for seconds at a time; 1e6 keeps 245 chunks per sum at ~0.5 s an op.
DEEP_K = 1_000_000
DEFAULT_K = 100_000
K_SWEEP = (10, 100, 1000, 10_000, 100_000)
Q_FIRST_TEN = tuple(range(1, 11))
Q_HIGH = (100, 1000, 10_000, 100_000)

#: The deep-k workloads estimate gamma from the first zero.
GAMMA_Q = 1
#: Start of the deep-k workload's g-map iteration.
G_Y0 = 14.2
#: First three g-map iterates from ``G_Y0`` at k = 1e6, computed with
#: ``math.fsum`` over the direct cosine terms (independent of the library's
#: summation engine; ``test_benchmark.py`` recomputes them).
G_ITERATES = (14.198621169951432, 14.197263681284214, 14.19592709869613)
#: Largest accepted deviation of a g-map iterate from its reference.
G_TOL = 1e-9

BENCH_K = (1000, 2000)
#: ``zetagamma bench`` times each route this many times per k.
BENCH_REPEATS = 3
#: Largest naive-vs-factorized difference the ``bench`` gate accepts.
BENCH_MAX_DIFF = 1e-10
ORACLE_ZEROS = 4
ORACLE_T_RANGE = (0.1, 100.0)

Check = Callable[[int, str], "tuple[str | None, tuple]"]


@dataclass(frozen=True)
class Op:
    """One CLI command, the terms it asks for, and the check of its output."""

    argv: tuple[str, ...]
    nominal_terms: int
    check: Check


def _csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def gamma_op(k: int, threads: int = 1, expected: float = EULER_GAMMA, tol: float = 1e-6) -> Op:
    """``gamma --method type1`` at zero ``GAMMA_Q``; the value must lie within ``tol``
    of ``expected``."""
    argv = ("gamma", "--method", "type1", "--q", str(GAMMA_Q), "--k", str(k))
    if threads != 1:
        argv += ("--threads", str(threads))

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}", ()
        lines = stdout.splitlines()
        if len(lines) != 2:
            return f"expected 2 output lines, got {len(lines)}", ()
        value = float(lines[0])
        meta = dict(field.split("=", 1) for field in lines[1].split())
        if (meta.get("method"), meta.get("q"), meta.get("k")) != ("type1", str(GAMMA_Q), str(k)):
            return f"metadata {lines[1]!r} does not match the op", (value,)
        if not abs(value - expected) <= tol:
            return f"gamma {value!r} is {abs(value - expected):.2e} from {expected!r}", (value,)
        return None, (value,)

    return Op(argv, 2 * k, check)


def iterate_op(k: int, expected: tuple[float, ...] = G_ITERATES) -> Op:
    """``zero-iterate --map g`` from ``G_Y0``; the iterates must match ``expected``."""
    iters = len(expected)
    argv = ("zero-iterate", "--map", "g", "--y0", repr(G_Y0), "--k", str(k),
            "--iters", str(iters))

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}", ()
        values = tuple(float(row["value"]) for row in _csv_rows(stdout))
        if len(values) != iters + 1 or values[0] != G_Y0:
            return f"expected {iters} iterates after {G_Y0}, got {values}", values
        worst = max(abs(v - e) for v, e in zip(values[1:], expected))
        if not worst <= G_TOL:
            return f"iterates {values[1:]} deviate by {worst:.2e}", values
        return None, values

    return Op(argv, iters * k, check)


# table id -> (deviation columns, expected row count, tolerance, relative?)
_TABLE_CHECKS = {
    "T1": (("dev_type1", "dev_type2"), len(K_SWEEP), 1e-9, False),
    "T2": (("dev_type1", "dev_type2"), len(Q_FIRST_TEN), 1e-9, False),
    "T3": (("dev_type1", "dev_type2"), len(Q_HIGH), 1e-8, False),
    "T4": (("dev",), len(K_SWEEP), 1e-6, False),
    "T5": (("dev",), len(Q_FIRST_TEN), 1e-6, False),
    "T6": (("dev",), len(Q_HIGH), 1e-4, True),
}


def _table_terms(table_id: str) -> int:
    # T1-T3 rows take one type1 estimate at k and one type2 estimate at k-1;
    # T4-T6 rows take one f-map step at k.  Each of those asks for two sums.
    if table_id == "T1":
        return sum(2 * k + 2 * (k - 1) for k in K_SWEEP)
    if table_id == "T4":
        return sum(2 * k for k in K_SWEEP)
    zeros = len(Q_FIRST_TEN) if table_id in ("T2", "T5") else len(Q_HIGH)
    per_row = 2 * DEFAULT_K + (2 * (DEFAULT_K - 1) if table_id in ("T2", "T3") else 0)
    return zeros * per_row


def table_op(table_id: str) -> Op:
    """``tables --id``; every deviation cell must meet the acceptance tolerance."""
    dev_columns, n_rows, tol, relative = _TABLE_CHECKS[table_id]

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}", ()
        rows = _csv_rows(stdout)
        values = tuple(tuple(float(cell) if cell else None for cell in row.values())
                       for row in rows)
        if len(rows) != n_rows:
            return f"expected {n_rows} rows, got {len(rows)}", values
        for row in rows:
            for column in dev_columns:
                if not row[column]:
                    return f"empty {column} cell in row {row}", values
                dev = float(row[column])
                if relative:
                    dev /= abs(float(row["zero_estimate"]))
                if not dev <= tol:
                    return f"{column} {dev:.2e} exceeds {tol:.0e} in row {row}", values
        return None, values

    return Op(("tables", "--id", table_id), _table_terms(table_id), check)


def bench_op(zeros_file: Path, q: int, t: float, k_list: tuple[int, ...] = BENCH_K) -> Op:
    """``bench`` on zero ``q`` of ``zeros_file`` (ordinate ``t``).

    The op fails when the library's own agreement gate trips (exit code 1)
    or when a reported difference exceeds ``BENCH_MAX_DIFF``.
    """
    argv = ("bench", "--zeros-file", str(zeros_file), "--q", str(q),
            "--k", ",".join(str(k) for k in k_list))
    terms = sum(BENCH_REPEATS * (k * (k - 1) // 2 + 2 * k) for k in k_list)

    def check(code: int, stdout: str):
        if code != 0:
            return f"exit code {code}", ()
        rows = _csv_rows(stdout)
        values = tuple((int(r["k"]), float(r["t"]), float(r["max_abs_diff"])) for r in rows)
        if tuple(v[0] for v in values) != tuple(k_list):
            return f"expected rows for k={k_list}, got {values}", values
        for k, t_out, diff in values:
            if not abs(t_out - t) <= 1e-12 * t:
                return f"row k={k} reports t={t_out!r}, expected {t!r}", values
            if not diff <= BENCH_MAX_DIFF:
                return f"row k={k} differs by {diff:.2e} (> {BENCH_MAX_DIFF:.0e})", values
        return None, values

    return Op(argv, terms, check)


def oracle_inputs(seed: int) -> tuple[list[float], int]:
    """The ``oracle`` workload's increasing zero ordinates and benched index."""
    rng = random.Random(seed)
    ordinates = sorted(rng.uniform(*ORACLE_T_RANGE) for _ in range(ORACLE_ZEROS))
    return ordinates, rng.randint(1, ORACLE_ZEROS)


def write_zeros_file(path: Path, ordinates: list[float]) -> None:
    """Write ordinates in the library's bare-ordinate zero-list format."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{t!r}\n" for t in ordinates), encoding="utf-8")


def _deep_k(seed: int, workdir: Path) -> list[Op]:
    return [gamma_op(DEEP_K), iterate_op(DEEP_K)]


def _tables(seed: int, workdir: Path) -> list[Op]:
    return [table_op(tid) for tid in _TABLE_CHECKS]


def _oracle(seed: int, workdir: Path) -> list[Op]:
    ordinates, q = oracle_inputs(seed)
    path = workdir / f"oracle-zeros-seed{seed}.txt"
    write_zeros_file(path, ordinates)
    return [bench_op(path, q, ordinates[q - 1])]


def _deep_k_2w(seed: int, workdir: Path) -> list[Op]:
    return [gamma_op(DEEP_K, threads=2)]


#: Workload name -> op-list builder taking (seed, scratch directory).
WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "deep-k": _deep_k,
    "tables": _tables,
    "oracle": _oracle,
    "deep-k-2w": _deep_k_2w,
}

#: Workloads whose child first checks, untimed, that a k = 3e5 trig sum is
#: bit-identical at 1 and 2 workers.
WORKER_INVARIANCE = {"deep-k-2w"}
