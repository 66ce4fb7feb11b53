"""Exception types shared across the package.

Every error raised by signalbox derives from :class:`SignalBoxError`, so
callers can catch the package as a whole.  The subclasses additionally
inherit the closest builtin exception (``ValueError`` for bad input data,
``ArithmeticError`` for computations that cannot proceed) so that generic
handlers keep working.
"""

from __future__ import annotations


class SignalBoxError(Exception):
    """Base class for all signalbox errors."""


class NormalizationError(SignalBoxError, ValueError):
    """A conditional distribution does not sum to one."""


class NegativeProbabilityError(SignalBoxError, ValueError):
    """A probability entry is negative beyond tolerance."""


class WeightError(SignalBoxError, ValueError):
    """Mixture weights are negative or do not sum to one."""


class UnknownStrategyError(SignalBoxError, KeyError):
    """A strategy identifier is not in the catalog."""

    # KeyError's str() is the repr of its argument, quotes included.
    __str__ = Exception.__str__


class DomainError(SignalBoxError, ValueError):
    """An argument lies outside the domain of the requested computation."""


class ConsistencyError(SignalBoxError, ArithmeticError):
    """Two independent computation routes disagree beyond tolerance."""


class PreconditionError(SignalBoxError, ValueError):
    """The input violates a precondition of a specialised routine."""


class InfeasibleError(SignalBoxError, ArithmeticError):
    """No feasible solution exists for the requested decomposition."""


class UnboundedError(SignalBoxError, ArithmeticError):
    """A linear program has no finite optimum."""


class NoCrossoverError(SignalBoxError, ArithmeticError):
    """A root search found no sign change on the given interval."""
