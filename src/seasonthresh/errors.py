"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition."""


class StructureError(ValueError):
    """Matrix lacks the required structure (positivity, irreducibility, ...)."""


class ConvergenceError(RuntimeError):
    """A solve missed its accuracy bound or its answer is not isolated;
    ``residual`` is the failed residual or relative spectral gap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConditioningError(RuntimeError):
    """A linear solve is too ill-conditioned to trust."""


class CertificateError(RuntimeError):
    """A required monotonicity certificate failed.

    ``violations`` lists the offending grid cells as (theta_lo, theta_hi) pairs.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class DegenerateDiagonalizationError(ValueError):
    """Season linearization cannot be diagonalized by the slope formulas."""


class DivergenceError(RuntimeError):
    """Trajectory norm exceeded the divergence bound."""

    def __init__(self, message, time=None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


class InconsistencyError(RuntimeError):
    """Simulation classifications are not monotone across the sweep grid.

    ``classifications`` carries the per-grid-point labels that conflict.
    """

    def __init__(self, message, classifications=None):
        super().__init__(message)
        self.classifications = classifications or []


class ScenarioError(ValueError):
    """Scenario file is missing, malformed, or violates the schema."""
