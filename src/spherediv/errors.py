"""Exception types shared across the package, and the check of a count that raises one."""

import numbers


class InputDomainError(ValueError):
    """A parameter, vector, or matrix is outside the documented input domain."""


class BasisConstructionError(RuntimeError):
    """No admissible zonal point set was found within the resampling budget."""

    def __init__(self, message, best_condition=None):
        super().__init__(message)
        self.best_condition = best_condition


class NotSingularError(RuntimeError):
    """A kernel witness was requested for an operator that is not certifiably singular."""


class NoFixedPointError(RuntimeError):
    """The rotation has no eigenvalue-1 eigenvector within tolerance (possible only in even dimension)."""


def _check_count(name: str, value, minimum: int) -> None:
    """Refuse a count that is not an integer of at least ``minimum``; a bool is no count."""
    # an exact int first: the abstract Integral check costs about 1 us, and dim_harmonic makes two per degree
    if not (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)) or value < minimum:
        raise InputDomainError(f"{name} must be >= {minimum} and an integer, got {value!r}")
