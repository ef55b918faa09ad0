"""Catalog of non-trivial zeta zero ordinates on the critical line.

A small set of ordinates ships embedded (the first ten plus four
high-index ones at q = 10^2..10^5, stored at 13-15 significant digits);
larger lists load from LMFDB-style plain-text files, one zero per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import CatalogError, CatalogLookupError, CatalogParseError, DomainError
from .summation import _check_positive_int


@dataclass(frozen=True)
class ZetaZero:
    """1-based index q and positive imaginary part t of a zero.

    q may be any integer type but bool, and is stored as an int.
    """

    q: int
    t: float

    def __post_init__(self):
        q = _check_positive_int(self.q, "zero index q")
        object.__setattr__(self, "q", q)
        if not (0.0 < self.t < math.inf):
            raise DomainError("zero ordinate t must be finite and positive")


class CatalogSource(Enum):
    EMBEDDED = "embedded"
    FILE = "file"


@dataclass(frozen=True)
class ZeroCatalog:
    """Immutable, q-sorted list of zeros with strictly increasing t."""

    source: CatalogSource
    zeros: tuple[ZetaZero, ...]

    def __post_init__(self):
        if not self.zeros:
            raise CatalogError("catalog is empty")
        qs = [z.q for z in self.zeros]
        if sorted(qs) != qs:
            raise CatalogError("catalog zeros must be sorted by q")
        if len(set(qs)) != len(qs):
            raise CatalogError("duplicate zero index q in catalog")
        ts = [z.t for z in self.zeros]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise CatalogError("zero ordinates must be strictly increasing with q")

    def __len__(self) -> int:
        return len(self.zeros)


# First ten ordinates plus four high-index ones, 13-15 significant digits.
_EMBEDDED = (
    (1, 14.1347251417347),
    (2, 21.0220396387716),
    (3, 25.0108575801457),
    (4, 30.4248761258595),
    (5, 32.9350615877392),
    (6, 37.5861781588257),
    (7, 40.9187190121475),
    (8, 43.3270732809150),
    (9, 48.0051508811672),
    (10, 49.7738324776723),
    (100, 236.52422966581),
    (1000, 1419.42248094599),
    (10000, 9877.78265400550),
    (100000, 74920.827498994),
)


def builtin_catalog() -> ZeroCatalog:
    """The embedded 14-zero catalog (q = 1..10 and q = 10^2..10^5)."""
    return ZeroCatalog(
        source=CatalogSource.EMBEDDED,
        zeros=tuple(ZetaZero(q, t) for q, t in _EMBEDDED),
    )


def load_catalog(path: str | Path) -> ZeroCatalog:
    """Parse a plain-text zero list.

    Each non-blank, non-comment line is either a bare ordinate ``t`` (the
    index is the running count of usable lines) or an explicit ``q t``
    pair, whitespace-separated.  Lines starting with '#' are skipped.  A
    file that cannot be opened or is not UTF-8 is a ``CatalogError``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from exc
    zeros: list[ZetaZero] = []
    implicit_q = 0
    # read_text turns every line ending into "\n".
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if len(fields) == 1:
                implicit_q += 1
                q = implicit_q
                t = float(fields[0])
            elif len(fields) == 2:
                q = int(fields[0])
                t = float(fields[1])
            else:
                raise ValueError(f"expected 1 or 2 fields, got {len(fields)}")
            zero = ZetaZero(q, t)
        except (ValueError, DomainError) as exc:
            raise CatalogParseError(line_no, f"{exc} in {line!r}") from exc
        zeros.append(zero)
    if not zeros:
        raise CatalogError(f"no usable zero lines in {path}")
    zeros.sort(key=lambda z: z.q)
    return ZeroCatalog(source=CatalogSource.FILE, zeros=tuple(zeros))


def get_zero(catalog: ZeroCatalog, q: int) -> ZetaZero:
    """Look up index q, reporting the nearest available index on a miss.

    q is checked as ``ZetaZero`` checks it: a float or bool is a
    ``DomainError``, not a lookup.
    """
    q = _check_positive_int(q, "zero index q")
    for z in catalog.zeros:
        if z.q == q:
            return z
    nearest = min(catalog.zeros, key=lambda z: abs(z.q - q))
    raise CatalogLookupError(
        f"zero q={q} not in catalog (nearest available: q={nearest.q})")
