"""Exception taxonomy shared by all nsdv modules."""

import numpy as np


class InputError(ValueError):
    """Malformed caller input: bad shapes are ShapeError, bad configs ConfigError."""


class ShapeError(InputError):
    """Array length does not match the grid it is supposed to live on."""


class ConfigError(InputError):
    """Scenario configuration failed validation or could not be parsed."""


class DomainError(ValueError):
    """A constitutive law was evaluated outside its domain (e.g. rho <= 0)."""


class NumericalFailure(RuntimeError):
    """NaN or similar non-finite garbage appeared during time integration."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time

    @classmethod
    def non_finite(cls, time):
        """A step's new fields at `time` hold NaN or inf."""
        return cls(f"non-finite fields at t={time:.6g}", time=time)

    @classmethod
    def check_finite(cls, field, time):
        """Raise non_finite(time) unless a step's new `field` is finite."""
        if not np.isfinite(field).all():
            raise cls.non_finite(time)


class VacuumBlowup(RuntimeError):
    """Density reached the vacuum floor; the run cannot be continued."""

    def __init__(self, message, time=None, node=None):
        super().__init__(message)
        self.time = time
        self.node = node


class HomeomorphismError(NumericalFailure):
    """Flow map lost monotonicity / Jacobian positivity."""


class DomainExitError(ConfigError):
    """A flow-map particle left the truncated domain."""
