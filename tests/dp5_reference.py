"""Generic Dormand-Prince 5(4) stepper: an independent reference.

``dynamics._hill_points`` is DOP853; this stepper shares nothing with it
but the step budget, so it checks the kernel from outside.  It is the
reference for the multi-period propagation (``rhs_linear`` streamed over
the whole horizon), for the orbit propagator's time-reversed second half
(``one_period`` solves the 7-component (M row-major, Q) system over the
whole period), and for the roots of the monodromy trace (``rhs_matrix``).
Its tolerances are parameters, guarded by a float64 floor of its own.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from mathieu_integrals.builder import SystemParams
from mathieu_integrals.dynamics import _MAX_STEPS
from mathieu_integrals.errors import StepFailure

# Dormand-Prince 5(4) tableau: nodes C, stage weights A, fifth-order
# weights B, and E = b5 - b4, the weights of the embedded error estimate.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)

#: smallest relative tolerance the float64 error estimate can meet
_RTOL_FLOOR = 100 * sys.float_info.epsilon


def integration_points(f: Callable, t0: float, y0: tuple, targets: Sequence[float],
                       rtol: float, atol: float):
    """Integrate y' = f(t, y), yielding (t, state) at each target time.

    The step is clamped to land exactly on each target, and the time
    stamp is set to the target itself, so no landing error accumulates.
    A relative tolerance below the float64 floor raises StepFailure at
    once: roundoff in the error estimate would keep the controller
    shrinking the step until it underflows.
    """
    if rtol < _RTOL_FLOOR:
        raise StepFailure(f"rtol = {rtol:g} is below the float64 floor {_RTOL_FLOOR:.3g} "
                          "(100 x machine epsilon)")
    n = len(y0)
    rng = range(n)
    t = t0
    y = tuple(y0)
    k1 = f(t, y)
    h = min(1e-2 * (abs(targets[-1] - t0) or 1.0), 0.1) if targets else 0.1
    steps = 0
    for target in targets:
        while t < target:
            clamped = t + h >= target
            h_try = (target - t) if clamped else h
            k2 = f(t + _C2 * h_try,
                   tuple(y[j] + h_try * (_A21 * k1[j]) for j in rng))
            k3 = f(t + _C3 * h_try,
                   tuple(y[j] + h_try * (_A31 * k1[j] + _A32 * k2[j]) for j in rng))
            k4 = f(t + _C4 * h_try,
                   tuple(y[j] + h_try * (_A41 * k1[j] + _A42 * k2[j] + _A43 * k3[j])
                         for j in rng))
            k5 = f(t + _C5 * h_try,
                   tuple(y[j] + h_try * (_A51 * k1[j] + _A52 * k2[j] + _A53 * k3[j]
                                         + _A54 * k4[j]) for j in rng))
            k6 = f(t + h_try,
                   tuple(y[j] + h_try * (_A61 * k1[j] + _A62 * k2[j] + _A63 * k3[j]
                                         + _A64 * k4[j] + _A65 * k5[j]) for j in rng))
            y5 = tuple(y[j] + h_try * (_B1 * k1[j] + _B3 * k3[j] + _B4 * k4[j]
                                       + _B5 * k5[j] + _B6 * k6[j]) for j in rng)
            k7 = f(t + h_try, y5)  # first-same-as-last stage
            err = 0.0
            for j in rng:
                e = h_try * (_E1 * k1[j] + _E3 * k3[j] + _E4 * k4[j]
                             + _E5 * k5[j] + _E6 * k6[j] + _E7 * k7[j])
                scale = atol + rtol * max(abs(y[j]), abs(y5[j]))
                err += (e / scale) ** 2
            err = math.sqrt(err / n)
            if err <= 1.0:
                t, y, k1 = (target if clamped else t + h_try), y5, k7
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = h_try * factor
            else:
                h = h_try * max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepFailure(f"step size underflow at t = {t}")
            steps += 1
            if steps > _MAX_STEPS:
                raise StepFailure("step budget exhausted")
        yield (t, y)


def rhs_period(params: SystemParams, epsilon: float):
    """Flow of (M row-major, Q): the fundamental matrix and the energy form."""
    om = float(params.omega)
    om1sq = float(params.omega1) ** 2
    two_eps = 2.0 * epsilon
    eps_om = epsilon * om

    def f(t, u):
        m11, m12, m21, m22 = u[:4]
        k = om1sq - two_eps * math.cos(om * t)
        s = -eps_om * math.sin(om * t)
        return (m21, m22, -k * m11, -k * m12, s * m11 * m11, s * m12 * m12, s * m11 * m12)

    return f


def rhs_matrix(params: SystemParams, epsilon: float):
    """Flow of M row-major: the fundamental matrix alone."""
    om = float(params.omega)
    om1sq = float(params.omega1) ** 2
    two_eps = 2.0 * epsilon

    def f(t, u):
        m11, m12, m21, m22 = u
        k = om1sq - two_eps * math.cos(om * t)
        return (m21, m22, -k * m11, -k * m12)

    return f


def rhs_linear(params: SystemParams, epsilon: float):
    """Flow of one solution column (x, y)."""
    om = float(params.omega)
    om1sq = float(params.omega1) ** 2
    two_eps = 2.0 * epsilon

    def f(t, u):
        x, y = u
        return (y, -(om1sq - two_eps * math.cos(om * t)) * x)

    return f


def one_period(params: SystemParams, eps: float, samples_per_period: int,
               rtol: float, atol: float) -> list[tuple]:
    """The generic 7-component solve at s_j = (j/spp) * T, j = 1..spp."""
    T = params.period
    targets = [(j / samples_per_period) * T for j in range(1, samples_per_period + 1)]
    start = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return [u for _, u in integration_points(rhs_period(params, eps), 0.0, start, targets,
                                             rtol, atol)]
