"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so solver modules should raise the most
specific class that applies instead of bare ValueError/RuntimeError.
"""


class RiskShareError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RiskShareError, ValueError):
    """Inputs violate a documented contract (domain, dimension, schema)."""


class InfeasibleError(RiskShareError):
    """A constraint system admits no feasible point."""


class IllPosedError(RiskShareError):
    """The aggregate penalty is infinite for every candidate density.

    Signals a value of -inf for the risk-sharing problem (no partial
    agreement on priors), which callers must treat as ill-posed rather
    than as a number.
    """


class ConvergenceError(RiskShareError):
    """An iterative solver failed to reach its stated tolerance.

    Carries the best iterate and its residual so callers can inspect
    rather than silently accept a degraded answer.
    """

    def __init__(self, message, best_point=None, residual=None):
        super().__init__(message)
        self.best_point = best_point
        self.residual = residual


class UnsupportedFamilyError(RiskShareError):
    """The requested operation has no supported algorithm for this family."""


class VacuousExperimentError(ValidationError):
    """Non-attainment experiment preconditions fail: the inflation value is
    already constant in the risk-aversion parameter, so the experiment says
    nothing."""
