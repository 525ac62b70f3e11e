"""Generic, tableau-driven DOP853 stepper: the reference for the Hill kernel.

``dynamics._hill_points`` is this stepper specialised to the Hill
equation and must reproduce it bit for bit on the 4-component flow of
M.  It reads the tableau and the step budget from
``dynamics`` and nothing else: every stage is a loop over the nonzero
weights of its row, summed left to right as the kernel's expressions
are.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from mathieu_integrals.dynamics import _A, _B, _BHH, _C, _E5, _MAX_STEPS
from mathieu_integrals.errors import StepFailure


def _combination(weights: dict, ks: dict, j: int) -> float:
    """sum_i w_i k_i[j] over the nonzero weights, left to right."""
    (i, w), *rest = weights.items()
    acc = w * ks[i][j]
    for i, w in rest:
        acc += w * ks[i][j]
    return acc


def integration_points(f: Callable, t0: float, y0: tuple, targets: Sequence[float],
                       rtol: float, atol: float):
    """Integrate y' = f(t, y), yielding (t, state) at each target time.

    The step is clamped to land exactly on each target, and the time
    stamp is set to the target itself.  The error norm is Hairer's
    |h| err5 / sqrt(n (err5 + err3 / 100)) of the squared, scaled 5th-
    and 3rd-order estimates (the latter B - BHH, formed as the 8th-order
    slope minus the BHH terms), with the step exponent -1/8 and the
    safety factor 0.75; the next
    step's first slope is f at the end of the accepted step.
    """
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
            ks = {1: k1}
            for i, row in _A.items():
                ks[i] = f(t + _C[i] * h_try,
                          tuple(y[j] + h_try * _combination(row, ks, j) for j in rng))
            slopes = [_combination(_B, ks, j) for j in rng]
            y8 = tuple(y[j] + h_try * slopes[j] for j in rng)
            err5 = err3 = 0.0
            for j in rng:
                scale = atol + rtol * max(abs(y[j]), abs(y8[j]))
                e = _combination(_E5, ks, j) / scale
                err5 += e * e
                e = slopes[j]  # minus the 3rd-order slope: the 3rd-order estimate
                for i, w in _BHH.items():
                    e -= w * ks[i][j]
                e /= scale
                err3 += e * e
            deno = err5 + 0.01 * err3
            err = h_try * err5 / math.sqrt(deno * n) if deno else 0.0
            if err <= 1.0:
                k1 = f(t + h_try, y8)  # at the time of stage 12, c = 1
                t, y = (target if clamped else t + h_try), y8
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.75 * err ** -0.125))
                h = h_try * factor
            else:
                h = h_try * max(0.2, 0.75 * err ** -0.125)
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepFailure(f"step size underflow at t = {t}")
            steps += 1
            if steps > _MAX_STEPS:
                raise StepFailure("step budget exhausted")
        yield (t, y)
