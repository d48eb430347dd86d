"""Exception types shared across the package."""


class NumericsError(Exception):
    """Base class for numerical failures."""


class NotPositiveDefinite(NumericsError):
    """A factorization hit a nonpositive pivot on a matrix assumed SPD."""


class SingularMatrix(NumericsError):
    """A negative matrix power was requested at a numerically singular matrix."""


class NoConvergence(NumericsError):
    """An iterative routine hit its iteration cap without meeting tolerance."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class RhoNotLessThanOne(NumericsError):
    """The off-diagonal contraction factor of a unit-diagonal matrix is >= 1."""


class HessianNotPD(NumericsError):
    """Newton encountered a non-positive-definite Hessian at an iterate."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"Hessian not positive definite at iterate {iteration}")


class InnerSolveFailed(NumericsError):
    """A partial minimization inside the alternating loop did not converge."""

    def __init__(self, step: int, block: str, message: str = ""):
        self.step = step
        self.block = block
        super().__init__(message or f"inner {block}-solve failed at alternation step {step}")


class InsufficientSteps(NumericsError):
    """Too few recorded steps to estimate a contraction rate."""


class DltwbTooLarge(NumericsError):
    """The damping scalar of the derived-constant formulas is >= 1."""
