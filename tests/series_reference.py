"""Float evaluation of the series straight from the exact coefficients.

These are ``TrigSeries.evaluate``, ``QuadFormSeries.evaluate``,
``FormalIntegral.evaluate`` and ``conic_at_section`` as they were
before each ``QuadFormSeries`` kept float tables of its coefficients,
kept verbatim (``self`` renamed): each call converts every Fraction
again.  The float tables must reproduce them bit for bit.
"""

from __future__ import annotations

import math

from mathieu_integrals.trigseries import COS


def trig_evaluate(series, t: float, c0: float = 1.0, s0: float = 0.0) -> float:
    """Floating evaluation; rationals are converted only here."""
    om = float(series.base.omega)
    om1 = float(series.base.omega1)
    total = 0.0
    for (p, k, m, phase, a, b), coeff in series._terms.items():
        arg = (k * om + m * om1) * t
        trig = math.cos(arg) if phase == COS else math.sin(arg)
        val = float(coeff) * trig
        if p:
            val *= t ** p
        if a:
            val *= c0 ** a
        if b:
            val *= s0 ** b
        total += val
    return total


def quad_evaluate(q, x: float, y: float, t: float, c0: float = 1.0, s0: float = 0.0) -> float:
    return (trig_evaluate(q.cxx, t, c0, s0) * x * x
            + trig_evaluate(q.cyy, t, c0, s0) * y * y
            + trig_evaluate(q.cxy, t, c0, s0) * x * y)


def formal_evaluate(phi, x: float, y: float, t: float, epsilon: float | None = None,
                    c0: float = 1.0, s0: float = 0.0) -> float:
    """sum_s eps^s * Phi_s(x, y, t), via Horner in eps."""
    eps = phi.params.epsilon if epsilon is None else epsilon
    acc = 0.0
    for q in reversed(phi.orders):
        acc = acc * eps + quad_evaluate(q, x, y, t, c0, s0)
    return acc


def conic_at_section(phi, epsilon: float | None = None,
                     c0: float = 1.0, s0: float = 0.0) -> tuple[float, float, float]:
    """Quadratic-form coefficients (A, B, D) at section times t = kT."""
    eps = phi.params.epsilon if epsilon is None else epsilon
    a = b = d = 0.0
    for q in reversed(phi.orders):
        a = a * eps + trig_evaluate(q.cxx, 0.0, c0, s0)
        b = b * eps + trig_evaluate(q.cyy, 0.0, c0, s0)
        d = d * eps + 0.5 * trig_evaluate(q.cxy, 0.0, c0, s0)
    return a, b, d
