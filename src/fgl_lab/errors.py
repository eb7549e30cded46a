"""Exception types shared across the package."""


class NumericalError(ArithmeticError):
    """A computation failed numerically.  The CLI exits 2 on any
    ArithmeticError, this one included, and 1 on any other ValueError,
    a refused request."""


class CorruptFieldError(NumericalError, ValueError):
    """A field contains NaN or Inf where a finite state is required, or a
    recorded state has underflowed: its max|u|^2 is nonzero but subnormal."""


class BlowupExceededError(NumericalError, ValueError):
    """A closed-form solution was evaluated at or beyond its blow-up time."""


class SingularSubstepError(NumericalError, RuntimeError):
    """The exact nonlinear substep would pass through its singularity.

    Carries the largest admissible step size in ``dt_admissible``.
    """

    def __init__(self, message: str, dt_admissible: float):
        super().__init__(message)
        self.dt_admissible = dt_admissible


class ConvergenceError(NumericalError, RuntimeError):
    """An iterative estimate failed to converge within its budget."""


class ThresholdNotMetError(NumericalError, ValueError):
    """Initial data does not clear the blow-up threshold with the required margin."""


class SupercriticalError(ValueError):
    """The nonlinearity power is at or above the Fujita exponent p_F = 3.

    p_F = 3 is where the weight-dilation argument stops certifying blow-up
    (its threshold no longer decays), not where the dynamics change: small
    data blow up at p >= 3 as well.
    """


class GridStabilityError(NumericalError, RuntimeError):
    """A quantity changed by more than its budget under domain doubling
    or dx refinement."""


class ConfigError(ValueError):
    """A run configuration is malformed (unknown key, bad value, missing file)."""
