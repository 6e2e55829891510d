"""Exception types shared across the toolkit.

All errors raised on invalid input derive from ValidationError; errors raised
when a numerically well-posed computation fails derive from NumericalError.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""

import math
import numbers


class CavityLabError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CavityLabError, ValueError):
    """Invalid input: violated invariant, malformed file, bad parameters."""


class NumericalError(CavityLabError, RuntimeError):
    """A computation failed: no root, lost track, rank-deficient fit, ..."""


class GeometryError(ValidationError):
    """Cavity geometry violates a stability or positivity bound."""


class SchemaError(ValidationError):
    """A file does not match its declared CSV schema."""

    def __init__(self, message, row_index=None):
        super().__init__(message)
        self.row_index = row_index


class DataError(ValidationError):
    """Array contents invalid (NaN, negative counts, ...)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InsufficientDataError(ValidationError):
    """Too few points/peaks/bins to perform the requested analysis."""


class SearchError(NumericalError):
    """Root or candidate search found no solution in the allowed range."""


class TrackingBreakError(NumericalError):
    """Peak tracking lost the resonance; ``index`` names the frame."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class RankDeficiencyError(NumericalError):
    """Singular normal matrix; ``parameters`` names the degenerate combination."""

    def __init__(self, message, parameters=()):
        super().__init__(message)
        self.parameters = tuple(parameters)


class FitQualityError(NumericalError):
    """Fit result fails a physical sanity check (wrong sign, non-decay, ...)."""


class NonphysicalResultError(NumericalError):
    """Derived quantity landed outside its physical range."""


def _integer_from(least: int):
    # a bool is no count and no seed, though Python counts it an integer
    return lambda value: (isinstance(value, numbers.Integral)
                          and not isinstance(value, bool) and value >= least)


# the domains of a physical number, and of a size or a seed, by the name a
# refusal gives each
_DOMAINS = {
    "positive and finite": lambda value: 0 < value < math.inf,
    "non-negative and finite": lambda value: 0 <= value < math.inf,
    "in (0, 1]": lambda value: 0 < value <= 1,
    "an integer >= 0": _integer_from(0),
    "an integer >= 1": _integer_from(1),
    "an integer >= 2": _integer_from(2),
}


def check_domain(domain: str, **values) -> None:
    """ValidationError "<name> must be <domain>, got <value>" for the first of
    ``values`` outside ``domain``, a key of ``_DOMAINS``; NaN is in none, and
    a float or a bool is in no integer domain."""
    for name, value in values.items():
        if not _DOMAINS[domain](value):
            raise ValidationError(f"{name} must be {domain}, got {value}")
