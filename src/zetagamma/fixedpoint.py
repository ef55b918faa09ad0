"""Fixed-point maps whose fixed points are zeta zero ordinates.

Two maps are exposed.  The f map inverts the non-alternating harmonic
asymptotics (square-root form, with ``EULER_GAMMA``); the g map comes
from the cosine asymptotic equation (cotangent form).  Iterating either
from a nearby starting value can recover a zero ordinate, but convergence
is fragile - it depends strongly on the truncation k and the start point,
so non-convergence is reported as a status, never an exception.

Both maps read their sums off ``series``' traversals of n = 1..k and
define no term callback of their own.  The g map needs only
``Re S(1/2 + it, k)``, so its traversal skips the sine half of the trig
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DomainError, SingularGuardError
from .series import EULER_GAMMA, _offdiag, _partial_zeta_direct, partial_zeta
from .summation import _check_positive_int

#: Guard on |sin(t log k)| and |cos(t log k)| in the g map; the cot and
#: sec factors amplify roundoff without bound near their poles.
SINGULARITY_EPS = 1e-8


class FixedPointMap(Enum):
    F_MAP = "f"
    G_MAP = "g"


class FixedPointStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"
    SINGULAR_GUARD = "singular_guard"


@dataclass(frozen=True)
class FixedPointTrace:
    """Ordered iterates of a fixed-point run plus its termination status.

    ``iterates[0]`` is the starting value.  ``final_residual`` is the last
    step size |y_i - y_{i-1}| (None when no step completed).
    """

    map: FixedPointMap
    k: int
    tol: float
    status: FixedPointStatus
    final_residual: float | None
    iterates: tuple[float, ...]

    def __post_init__(self):
        if not self.iterates:
            raise DomainError("trace must contain at least the starting value")


def f_of_t(t: float, k: int) -> float:
    """Square-root zero map built on the non-alternating off-diagonal sum.

    Returns ``sqrt((k+1) / (EULER_GAMMA + log k + offdiag) - 1/4)`` with the
    doubled off-diagonal sum taken at sigma = 1/2 via the factorized path.
    Fixed points of the k -> infinity limit are the zero ordinates.

    Raises ``SingularGuardError`` when the inverted quantity is not
    positive or the square-root argument is negative - the formula left
    its real domain at this (t, k).
    """
    [value] = _f_values((t,), k)
    if isinstance(value, SingularGuardError):
        raise value
    return value


def _check_t(t: float) -> None:
    if not (0.0 < t < math.inf):
        raise DomainError("t must be finite and positive")


def _f_formula(t: float, k: int, off: float) -> float:
    # f at (t, k) from its doubled off-diagonal sum, with the domain guards.
    denom = EULER_GAMMA + math.log(k) + off
    if denom <= 0.0:
        raise SingularGuardError(
            f"inverted term {denom!r} is not positive at t={t!r}, k={k}")
    radicand = (k + 1) / denom - 0.25
    if radicand < 0.0:
        raise SingularGuardError(
            f"square-root argument {radicand!r} is negative at t={t!r}, k={k}")
    return math.sqrt(radicand)


def _f_values(ts: Sequence[float], k: int
              ) -> list[float | SingularGuardError]:
    # f_of_t(t, k) for each t in ts from two traversals of n = 1..k: H_k,
    # summed once, and one shared by every ordinate (log n and n^-1/2
    # evaluated once per n).  An ordinate whose guard trips gets the
    # SingularGuardError in place of its value; the others still count.
    # No ordinates, no sum.
    if not ts:
        return []
    for t in ts:
        _check_t(t)
    k = _check_positive_int(k, "k", minimum=2)
    diag = partial_zeta(1.0, 0.0, k)
    sums = _partial_zeta_direct(0.5, [(t, (k,)) for t in ts])
    values: list[float | SingularGuardError] = []
    for t, [z] in zip(ts, sums):
        try:
            values.append(_f_formula(t, k, _offdiag(z, diag)))
        except SingularGuardError as exc:
            values.append(exc)
    return values


def g_of_t(t: float, k: int) -> float:
    """Cotangent zero map built on the single cosine sum.

    Returns ``cot(t log k) * ((1/4 + t^2)/(sqrt(k) cos(t log k)) *
    sum_{n=1..k} cos(t log n)/sqrt(n) - 1/2)``.

    Raises ``SingularGuardError`` when |sin(t log k)| or |cos(t log k)|
    falls below ``SINGULARITY_EPS``; retry with a different k in that case.
    """
    _check_t(t)
    k = _check_positive_int(k, "k", minimum=2)
    x = t * math.log(k)
    if not math.isfinite(x):
        raise DomainError(f"t log k = {x!r} is not finite at t={t!r}, k={k}")
    s = math.sin(x)
    c = math.cos(x)
    if abs(s) < SINGULARITY_EPS or abs(c) < SINGULARITY_EPS:
        raise SingularGuardError(
            f"t log k = {x!r} sits within {SINGULARITY_EPS} of a trig pole "
            f"(|sin|={abs(s):.3e}, |cos|={abs(c):.3e})")
    # Only Re S(1/2 + it, k) is needed: the sine half is not computed.
    [[z]] = _partial_zeta_direct(0.5, ((t, (k,)),), imag=False)
    return (c / s) * ((0.25 + t * t) / (math.sqrt(k) * c) * z.real - 0.5)


def iterate_fixed_point(map: FixedPointMap, y0: float, k: int,
                        max_iters: int, tol: float) -> FixedPointTrace:
    """Apply the chosen map repeatedly from y0 and record the full trace.

    Stops with CONVERGED when a step is <= tol, MAX_ITERS after
    ``max_iters`` steps, DIVERGED when an iterate becomes non-finite or
    leaves (0, 10*y0), and SINGULAR_GUARD when a guard trips.  Failure
    modes are statuses, not exceptions: most start points do not converge.
    """
    if not isinstance(map, FixedPointMap):
        raise DomainError(f"map must be a FixedPointMap, not {map!r}")
    if not (0.0 < y0 < math.inf):
        raise DomainError("y0 must be finite and positive")
    max_iters = _check_positive_int(max_iters, "max_iters")
    if not (0.0 <= tol < math.inf):
        raise DomainError("tol must be finite and >= 0")
    iterates = [float(y0)]
    status = FixedPointStatus.MAX_ITERS
    residual: float | None = None
    upper = 10.0 * y0
    if map is FixedPointMap.F_MAP:
        # k is fixed for the run, so the f map's diagonal H_k is summed once.
        k = _check_positive_int(k, "k", minimum=2)
        diag = partial_zeta(1.0, 0.0, k)
    for _ in range(max_iters):
        prev = iterates[-1]
        try:
            if map is FixedPointMap.G_MAP:
                y = g_of_t(prev, k)
            else:
                y = _f_formula(
                    prev, k, _offdiag(partial_zeta(0.5, prev, k), diag))
        except SingularGuardError:
            status = FixedPointStatus.SINGULAR_GUARD
            break
        iterates.append(y)
        if not math.isfinite(y) or not (0.0 < y < upper):
            status = FixedPointStatus.DIVERGED
            residual = abs(y - prev) if math.isfinite(y) else None
            break
        residual = abs(y - prev)
        if residual <= tol:
            status = FixedPointStatus.CONVERGED
            break
    return FixedPointTrace(map=map, k=int(k), tol=float(tol), status=status,
                           final_residual=residual, iterates=tuple(iterates))
