"""Formal integrals of motion for the periodically driven harmonic oscillator.

The package constructs truncated-series integrals of motion for

    H = (y^2 + omega1^2 x^2)/2 - eps x^2 cos(omega t)

(a Mathieu system), verifies them against numerically integrated orbits
on stroboscopic sections, locates the escape boundary eps_crit via
Floquet/monodromy analysis, and handles the resonant case
omega = 2*omega1 through secular-term elimination.
"""

from .analysis import (ConvergenceReport, CriticalEpsResult, PeriodicOrbitResult,
                       convergence_study, cover_count, critical_epsilon,
                       find_periodic_orbit, invariant_curve_points,
                       section_residual)
from .builder import (FormalIntegral, PsiSeries, QuadFormSeries, SystemParams,
                      build_integral, conic_at_section, h0_form, h1_form, psi_series)
from .dynamics import (EscapeReport, Monodromy, OrbitSample, escape_diagnostics,
                       integrate_orbit, monodromy, orbit_blocks, stroboscopic_section)
from .errors import (BracketFailure, DegenerateConic, DomainError,
                     MalformedSpectrum, NoRoot, NotResonant, ResonanceDetected,
                     SecularTerm, StepFailure, Unbounded, UnsolvableSecular)
from .resonant import (PhaseConstants, ResonantIntegral, build_resonant_c,
                       build_resonant_phi, eliminate_secular, resonant_seed,
                       resonant_section_form)
from .trigseries import COS, SIN, FrequencyBase, TrigSeries, as_rational

__version__ = "0.1.0"

__all__ = [
    "BracketFailure", "COS", "ConvergenceReport", "CriticalEpsResult",
    "DegenerateConic", "DomainError", "EscapeReport", "FormalIntegral",
    "FrequencyBase", "MalformedSpectrum", "Monodromy", "NoRoot", "NotResonant",
    "OrbitSample", "PeriodicOrbitResult", "PhaseConstants", "PsiSeries",
    "QuadFormSeries", "ResonanceDetected", "ResonantIntegral",
    "SIN", "SecularTerm", "StepFailure", "SystemParams",
    "TrigSeries", "Unbounded", "UnsolvableSecular", "as_rational",
    "build_integral", "build_resonant_c",
    "build_resonant_phi", "conic_at_section", "convergence_study",
    "cover_count", "critical_epsilon", "eliminate_secular",
    "escape_diagnostics", "find_periodic_orbit", "h0_form", "h1_form",
    "integrate_orbit", "invariant_curve_points", "monodromy", "orbit_blocks",
    "psi_series", "resonant_seed",
    "resonant_section_form", "section_residual", "stroboscopic_section",
]
