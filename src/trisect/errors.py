"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit codes and JSON reports without string matching.
"""


class TrisectError(Exception):
    code = "ERROR"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class InvalidInput(TrisectError):
    code = "INVALID_INPUT"


class IllConditionedCurve(InvalidInput):
    code = "ILL_CONDITIONED_CURVE"


class NumericalFailure(TrisectError):
    code = "NUMERICAL_FAILURE"


class PathDegenerate(NumericalFailure):
    """An integration path passes too close to a branch point."""

    code = "PATH_DEGENERATE"


class AmbiguousConstant(NumericalFailure):
    """The Riemann constant failed its certificate: theta(AJ(D) - kappa)
    did not vanish on the test divisors D of degree g-1."""

    code = "AMBIGUOUS_CONSTANT"


class IndeterminateRank(NumericalFailure):
    """A singular-value gap fell inside the undecidable band."""

    code = "INDETERMINATE_RANK"


class NotOnTheta(InvalidInput):
    code = "NOT_ON_THETA"


class PreconditionFailed(InvalidInput):
    code = "PRECONDITION_FAILED"
