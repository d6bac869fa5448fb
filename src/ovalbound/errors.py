"""Exception types shared across the ovalbound modules."""


class OvalboundError(Exception):
    """Base class for all library errors."""


class DomainError(OvalboundError):
    """Argument outside the mathematical domain of an operation."""


class CurveFormatError(OvalboundError):
    """Curve JSON could not be parsed into Fourier coefficients."""


class RejectedCurve(OvalboundError):
    """Convexity margin violated: min (phi^-1)' fell below the threshold."""

    def __init__(self, min_value: float, argmin_t: float, eps_convex: float):
        self.min_value = min_value
        self.argmin_t = argmin_t
        self.eps_convex = eps_convex
        super().__init__(
            f"curve rejected: min (phi^-1)' = {min_value:.6g} at t = {argmin_t:.6g} "
            f"(threshold {eps_convex:.3g})"
        )


class NonMonotone(OvalboundError):
    """(phi^-1)' came out non-positive on a grid in t (the eigensolve's, the
    FD ring's or a test function's): the curve is not strictly convex there."""


class DegenerateProfile(OvalboundError):
    """Odd-harmonic profile is identically zero; every angle is critical."""


class ConvergenceFailure(OvalboundError):
    """A solve missed its tolerance: lambda moved when the basis grew, the
    eigenvector's tail needed a basis past the mode cap, Lanczos reached its
    step cap or met a stiffness matrix that is not positive definite, psi
    came out non-positive, or the FD inverse iteration kept moving or reached
    an eigenvector that changes sign."""


class ZeroFunction(OvalboundError):
    """Test function is numerically zero; the quotient is undefined."""


class DegenerateProjection(OvalboundError):
    """A projection direction has numerically vanishing mass."""


class DegenerateAngles(OvalboundError):
    """Two of the three angles are congruent modulo pi within the margin."""


class SingularDenominator(OvalboundError):
    """Weighted moment denominator vanished in the three-angle quotient."""


class SingularSystem(OvalboundError):
    """A 2x2 balance system is singular: the plateau split point at a zero
    pivot, or the knots of sample_admissible's first-harmonic solve."""


class NegativeWeight(OvalboundError):
    """Balance solve produced a non-positive plateau height."""


class ExhaustedRejection(OvalboundError):
    """random_curve ran out of tries."""

    def __init__(self, n_tries: int):
        self.n_tries = n_tries
        super().__init__(f"rejection sampling exhausted after {n_tries} tries")
