"""Series references that the package itself does not run.

Float evaluation straight from the exact coefficients: these are
``TrigSeries.evaluate``, ``QuadFormSeries.evaluate``,
``FormalIntegral.evaluate`` and ``conic_at_section`` as they were
before each ``QuadFormSeries`` kept float tables of its coefficients,
kept as they were but for reading the stored numerators (``self``
renamed): each call converts every coefficient again, through a
Fraction.  The float tables must reproduce them bit for bit.

``derivative`` and ``to_json_obj`` are ``TrigSeries.derivative`` and
``FormalIntegral.to_json_obj`` as they were, ``self`` made a parameter:
the exact inverse of ``TrigSeries.integrate``, and an integral's document
as plain JSON types, which ``output.json_chunks`` must write byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mathieu_integrals.trigseries import COS, SIN, TermKey, TrigSeries


def trig_evaluate(series, t: float, c0: float = 1.0, s0: float = 0.0) -> float:
    """Floating evaluation; rationals are converted only here."""
    om = float(series.base.omega)
    om1 = float(series.base.omega1)
    total = 0.0
    # storage order, which fixes the bits of the sum
    for (p, k, m, phase, a, b), n in series._nums.items():
        arg = (k * om + m * om1) * t
        trig = math.cos(arg) if phase == COS else math.sin(arg)
        val = float(Fraction(n, series._den)) * trig
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


def derivative(series) -> TrigSeries:
    """Termwise d/dt (exact)."""
    raw: list[tuple[TermKey, Fraction]] = []
    for (p, k, m, phase, a, b), n in series._nums.items():
        coeff = Fraction(n, series._den)
        if p:
            raw.append(((p - 1, k, m, phase, a, b), coeff * p))
        nu = series.base.nu(k, m)
        if nu != 0:
            if phase == COS:
                raw.append(((p, k, m, SIN, a, b), -coeff * nu))
            else:
                raw.append(((p, k, m, COS, a, b), coeff * nu))
    return TrigSeries(series.base, raw)


def to_json_obj(phi) -> dict:
    """The integral as plain JSON types: ``json_document`` with each order's JSON."""
    doc = phi.json_document()
    doc["orders"] = [q.to_json_obj() for q in phi.orders]
    return doc
