"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """Matrix dimension is zero, negative, or mismatched between operands."""


class InvalidStateError(ValueError):
    """An array fails the density-matrix invariants (Hermiticity, trace, PSD)."""


class DomainError(ValueError):
    """Scalar argument outside the documented domain (e.g. CDF argument not in [0,1])."""


class SingularityError(ValueError):
    """Evaluation requested at a point where the quantity diverges or is undefined."""


class UnsupportedDimensionError(ValueError):
    """Closed-form result requested for a dimension where none is available."""


class StepSizeError(RuntimeError):
    """Finite-difference step could not be shrunk enough to keep states valid."""


class QuadratureError(RuntimeError):
    """The two orders of a fixed quadrature rule disagree, or its result is not finite.

    Carries the finer order's estimate in ``partial_estimate``.
    """

    def __init__(self, message: str, partial_estimate: float | None = None):
        super().__init__(message)
        self.partial_estimate = partial_estimate


class SamplingBudgetError(RuntimeError):
    """Rejection sampler ran out of proposals. Carries the rejection report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class EnvelopeAuditError(RuntimeError):
    """Numerical audit found a density ratio above the claimed envelope bound."""


class InverseCDFError(RuntimeError):
    """A solution of the inverse CDF does not reproduce its probability within tolerance."""


class InstabilityWarning(UserWarning):
    """Monte-Carlo estimate discarded more near-singular samples than expected."""
