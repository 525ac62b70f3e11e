"""Exception hierarchy.

``DomainError`` covers every failure that stems from the mathematical
problem itself (resonances, secular terms, missing brackets, ...) as
opposed to programming errors.  The CLI maps ``DomainError`` to exit
code 2 and everything else to exit code 1.
"""


class DomainError(Exception):
    """Base class for domain-level failures."""


class InvalidInput(DomainError, ValueError):
    """A parameter or initial condition outside the problem's domain."""


class ResonanceDetected(DomainError):
    """A commensurability j*omega = 2*omega1 blocks the non-resonant recursion."""

    def __init__(self, j: int, message: str | None = None):
        self.j = j
        super().__init__(
            message
            or f"resonance {j}*omega = 2*omega1 detected; "
            "the non-resonant recursion would divide by zero "
            "(use the resonant construction for omega = 2*omega1)"
        )


class SecularTerm(DomainError):
    """A term proportional to a power of t appeared where none is allowed."""


class MalformedSpectrum(DomainError):
    """A series handed to back-substitution has frequency content outside m in {-2, 0, 2}."""


class UnsupportedResonance(DomainError, NotImplementedError):
    """A higher commensurability j*omega = 2*omega1 (j >= 2) has no construction here."""


class NotResonant(DomainError):
    """The resonant construction requires omega = 2*omega1 exactly."""


class UnsolvableSecular(DomainError):
    """Secular parts are not proportional, so no mixing coefficient can cancel them."""


class StepFailure(DomainError):
    """The adaptive integrator could not meet its tolerance."""


class BracketFailure(DomainError):
    """No sign change found while searching for a stability boundary."""


class NoRoot(DomainError):
    """No periodic orbit found in the search interval."""


class Unbounded(DomainError):
    """Section points escape before the requested quantity is defined."""


class DegenerateConic(DomainError):
    """The quadratic form is degenerate (AB - D^2 = 0 within tolerance)."""
