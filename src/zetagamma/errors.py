"""Exception types shared across the package."""

from __future__ import annotations


class ZetaGammaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ZetaGammaError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OracleCapError(DomainError):
    """The O(k^2) brute-force path was asked to exceed ``ORACLE_CAP``."""


class SingularGuardError(ZetaGammaError, ArithmeticError):
    """A zero-recovery map hit a pole guard or left its real domain."""


class ConsistencyError(ZetaGammaError):
    """Two routes that must agree numerically failed to do so."""


class CatalogError(ZetaGammaError, ValueError):
    """Problem with a zero catalog (format, ordering, or emptiness)."""


class CatalogParseError(CatalogError):
    """A zero-list file line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class CatalogLookupError(CatalogError):
    """Requested zero index is not present in the catalog."""
