"""Exception types shared across the package.

Every error carries enough context to identify the offending quantity
(term name, branch list, sample point, ...) without the caller having to
re-run the computation.
"""

import numbers


class HyperwellError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HyperwellError, ValueError):
    """Input outside the documented domain (non-finite, wrong sign, ...)."""


def require_index(value, name):
    """Refuse (DomainError) a value that is not a non-negative integer;
    `name` opens the message, e.g. "energy_levels: n"."""
    if not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


class EvaluationOverflowError(HyperwellError, ArithmeticError):
    """A term evaluated to a non-finite value; the message names the term."""


class DegenerateParameterError(HyperwellError, ValueError):
    """Recurrence coefficient vanished; the message names the degree k."""


class NoPhysicalBranchError(HyperwellError, ValueError):
    """No branch with Re(tau') < 0 exists; carries all candidate tau' values."""

    def __init__(self, message, tau_primes=None):
        super().__init__(message)
        self.tau_primes = list(tau_primes) if tau_primes is not None else []


class SingularCoefficientError(HyperwellError, ZeroDivisionError):
    """A closed-form coefficient divides by zero; the message names the denominator."""


class NonNormalizableError(HyperwellError, ValueError):
    """Normalization integral diverged; ``end`` is 'origin' or 'infinity'."""

    def __init__(self, message, end):
        super().__init__(message)
        self.end = end


class SamplingError(HyperwellError, ValueError):
    """A wavefunction sample point is outside (0, inf); carries the point."""

    def __init__(self, message, r=None):
        super().__init__(message)
        self.r = r


class ConvergenceError(HyperwellError, ArithmeticError):
    """An iterative solver exhausted its iteration budget."""


class ResolutionError(HyperwellError, ValueError):
    """Finite-difference step too coarse for the requested tolerance."""


class StructureError(HyperwellError, ValueError):
    """A structural precondition failed (degree bounds, zero polynomial, ...)."""


class ConfigError(HyperwellError, ValueError):
    """Config parse or validation failure; carries a line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
