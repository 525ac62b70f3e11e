"""Numerical integration, stroboscopic sections, monodromy, escapes.

The equations of motion are linear in (x, y) with period T = 2 pi/omega,

    dx/dt = y,    dy/dt = -(omega1^2 - 2 eps cos(omega t)) x,

augmented with the conjugate momentum of time, dE/dt = -dH/dt =
-eps omega x^2 sin(omega t), from E(0) = -H(x0, y0, 0); E is integrated,
never recomputed as -H, so |H + E| is an independent accuracy check.

By Floquet theory one period serves every stroboscopic study, and the
driving is even in t, so half a period does.  A Dormand-Prince 5(4)
pair (error control at rtol = atol = 1e-12) solves, over [0, T/2] only,
for the fundamental matrix M(s) and the energy form Q(s) = (q11, q22,
q12), dQ/dt = -eps omega sin(omega t) (m11^2, m12^2, m11 m12); time
reversal gives M and Q on [T/2, T] (``_one_period``).  Then z(kT + s) =
M(s) z(kT), E(kT + s) = E(kT) + z^T Q(s) z and the n-period monodromy
is M(T)^n.  Steps land *exactly* on the sample grid s = j T/spp, so
section samples carry t = k*T.

One stepper, ``_hill_points``, is Dormand-Prince 5(4) specialised to the
Hill equation on the two columns of M: M(T/2) alone for ``monodromy``,
(M, Q) on the half-period sample grid for orbits; both assemble M(T) in
``_full_period``.  The escape-boundary search reads Hill's determinant
instead (``analysis._hill_trace``).  The generic stepper it reproduces
bit for bit lives in ``tests/dp5_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .builder import SystemParams
from .errors import InvalidInput, StepFailure, Unbounded

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

_RTOL = _ATOL = 1e-12
_MAX_STEPS = 5_000_000
_POWER_BLOCK = 4096  # Monodromy.power products between overflow checks


def _hill_points(params: SystemParams, epsilon: float, targets: Sequence[float],
                 energy: bool = False):
    """The fundamental matrix of x'' = -(omega1^2 - 2 eps cos(omega t)) x.

    The columns (1, 0) and (0, 1) of M share one step; M at each target
    is yielded row-major.  With ``energy`` the energy form Q = (q11,
    q22, q12), dQ/dt = -eps omega sin(omega t) (m11^2, m12^2, m11 m12),
    rides along from Q(0) = 0 and is appended to each state: the (M
    row-major, Q) layout of ``_one_period``.

    Dormand-Prince 5(4) at rtol = ``_RTOL``, atol = ``_ATOL``, with an
    error norm summed over every x component, then every y component,
    then Q.  The step is clamped to land exactly on each target, and the
    time stamp is set to the target itself, so no landing error
    accumulates.  w(t) = omega1^2 - 2 eps cos(omega t) and the energy
    weight -eps omega sin(omega t) do not depend on the state, so each
    is evaluated once per stage for both columns (the
    first-same-as-last stage reuses stage 6's, taken at the same time),
    and each column runs its stages on scalars.  Non-finite stages (an
    eps so large that the coefficients or the solution overflow) end in
    Unbounded.  A span holding more unperturbed oscillations than the
    step budget has steps raises StepFailure before the first step.
    """
    cycles = float(params.omega1) * targets[-1] / (2.0 * math.pi)
    if cycles > _MAX_STEPS:
        raise StepFailure(f"the solve over [0, {targets[-1]:.3g}] spans {cycles:.3g} "
                          f"oscillations of omega1, more than its budget of {_MAX_STEPS} steps")
    om = float(params.omega)
    om1sq = float(params.omega1) ** 2
    two_eps = 2.0 * epsilon
    eps_om = epsilon * om
    cos, sin = math.cos, math.sin
    rtol, atol = _RTOL, _ATOL
    n = 7 if energy else 4
    t = 0.0
    w = om1sq - two_eps * cos(om * t)
    # per column of M: x, y and the stage-1 slopes (x', y') = (y, -w x)
    cols = [(x, y, y, -w * x) for x, y in ((1.0, 0.0), (0.0, 1.0))]
    if energy:
        s = -eps_om * sin(om * t)
        quad, g1 = (0.0, 0.0, 0.0), (s, s * 0.0, s * 0.0)  # s (m11^2, m12^2, m11 m12) at M = I
    h = min(1e-2 * targets[-1], 0.1)
    steps = 0
    xs = []  # stage x values of each column, for the energy form
    for target in targets:
        while t < target:
            clamped = t + h >= target
            hh = (target - t) if clamped else h
            w2 = om1sq - two_eps * cos(om * (t + _C2 * hh))
            w3 = om1sq - two_eps * cos(om * (t + _C3 * hh))
            w4 = om1sq - two_eps * cos(om * (t + _C4 * hh))
            w5 = om1sq - two_eps * cos(om * (t + _C5 * hh))
            w6 = om1sq - two_eps * cos(om * (t + hh))
            new = []
            err = 0.0  # the x terms, then the y terms, then the energy form
            ey = []
            for x, y, p1, q1 in cols:
                p2 = y + hh * (_A21 * q1)
                q2 = -w2 * (x + hh * (_A21 * p1))
                p3 = y + hh * (_A31 * q1 + _A32 * q2)
                X3 = x + hh * (_A31 * p1 + _A32 * p2)
                q3 = -w3 * X3
                p4 = y + hh * (_A41 * q1 + _A42 * q2 + _A43 * q3)
                X4 = x + hh * (_A41 * p1 + _A42 * p2 + _A43 * p3)
                q4 = -w4 * X4
                p5 = y + hh * (_A51 * q1 + _A52 * q2 + _A53 * q3 + _A54 * q4)
                X5 = x + hh * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
                q5 = -w5 * X5
                p6 = y + hh * (_A61 * q1 + _A62 * q2 + _A63 * q3 + _A64 * q4 + _A65 * q5)
                X6 = x + hh * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
                q6 = -w6 * X6
                xn = x + hh * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
                yn = y + hh * (_B1 * q1 + _B3 * q3 + _B4 * q4 + _B5 * q5 + _B6 * q6)
                q7 = -w6 * xn  # first-same-as-last stage, at the time of stage 6
                e = hh * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * yn)
                a, b = abs(x), abs(xn)
                err += (e / (atol + rtol * (b if b > a else a))) ** 2
                e = hh * (_E1 * q1 + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6 + _E7 * q7)
                a, b = abs(y), abs(yn)
                ey.append((e / (atol + rtol * (b if b > a else a))) ** 2)
                new.append((xn, yn, yn, q7))
                if energy:
                    xs.append((X3, X4, X5, X6, xn))
            for v in ey:
                err += v
            if energy:
                # stage 2 has weight 0 in both the solution and the error
                s3 = -eps_om * sin(om * (t + _C3 * hh))
                s4 = -eps_om * sin(om * (t + _C4 * hh))
                s5 = -eps_om * sin(om * (t + _C5 * hh))
                s6 = -eps_om * sin(om * (t + hh))
                g3, g4, g5, g6, g7 = [(s * a * a, s * b * b, s * a * b)
                                      for s, a, b in zip((s3, s4, s5, s6, s6), *xs)]
                xs.clear()
                quad_new = []
                for q, k1, k3, k4, k5, k6, k7 in zip(quad, g1, g3, g4, g5, g6, g7):
                    qn = q + hh * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
                    e = hh * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
                    a, b = abs(q), abs(qn)
                    err += (e / (atol + rtol * (b if b > a else a))) ** 2
                    quad_new.append(qn)
            err = math.sqrt(err / n)
            if err <= 1.0:
                t, cols = (target if clamped else t + hh), new
                if energy:
                    quad, g1 = quad_new, g7
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = hh * factor
            else:
                h = hh * max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                if not math.isfinite(err):
                    raise Unbounded(f"the solution leaves float64 at t = {t}: "
                                    "its stages overflow")
                raise StepFailure(f"step size underflow at t = {t}")
            steps += 1
            if steps > _MAX_STEPS:
                raise StepFailure("step budget exhausted")
        (m11, m21, _, _), (m12, m22, _, _) = cols
        yield (m11, m12, m21, m22, *quad) if energy else (m11, m12, m21, m22)


class PhaseState(NamedTuple):
    """One orbit sample: position, momentum, time, and -energy."""

    x: float
    y: float
    t: float
    E: float


class SectionPoint(NamedTuple):
    """A stroboscopic sample at t = k*T with its two radius measures."""

    x: float
    y: float
    E: float
    k: int
    d: float  # sqrt(omega1^2 x^2 + y^2)
    r: float  # sqrt(x^2 + y^2)


@dataclass(frozen=True)
class Monodromy:
    """Fundamental-solution matrix of the linear flow over n periods."""

    m11: float
    m12: float
    m21: float
    m22: float
    n: int

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y

    def power(self, n: int) -> Monodromy:
        """The matrix over n times as many periods, M^n."""
        if n < 1:
            raise InvalidInput("n must be >= 1")
        a, b, c, d = self.m11, self.m12, self.m21, self.m22
        m11, m12, m21, m22 = a, b, c, d
        for done in range(0, n - 1, _POWER_BLOCK):  # blocks of products, checked once each
            for _ in range(min(_POWER_BLOCK, n - 1 - done)):
                m11, m12, m21, m22 = (a * m11 + b * m21, a * m12 + b * m22,
                                      c * m11 + d * m21, c * m12 + d * m22)
            if not all(map(math.isfinite, (m11, m12, m21, m22))):
                break  # a non-finite entry stays non-finite: M^n overflows
        if not all(map(math.isfinite, (m11, m12, m21, m22))):
            raise Unbounded(f"the monodromy over {n * self.n} periods overflows")
        return Monodromy(m11=m11, m12=m12, m21=m21, m22=m22, n=n * self.n)

    def eigenvalues(self) -> tuple[complex, complex]:
        tr = self.trace
        disc = tr * tr - 4.0 * self.det
        root = math.sqrt(abs(disc))
        if disc >= 0.0:
            return complex((tr + root) / 2.0), complex((tr - root) / 2.0)
        return complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0)


def _eps_arg(epsilon) -> float:
    if not math.isfinite(epsilon):
        raise InvalidInput("epsilon must be finite")
    return float(epsilon)


def _full_period(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """M(T) row-major from H = M(T/2) = ((a, b), (c, d)).

    w(t) is even, so M(-u) = R M(u) R with R = diag(1, -1), and the flow
    over [T/2, T] is R H^-1 R: M(T) = R H^-1 R H, which det H = 1 makes
    ((ad + bc, 2bd), (2ac, ad + bc)) (Magnus & Winkler, Hill's Equation).
    """
    diag = a * d + b * c
    return diag, 2.0 * b * d, 2.0 * a * c, diag


def _one_period(params: SystemParams, eps: float, samples_per_period: int) -> list[tuple]:
    """(m11, m12, m21, m22, q11, q22, q12) at s_j = (j/spp) * T, j = 1..spp.

    DP5 solves (M, Q) at s_j for j <= spp/2 and at T/2 (one more target
    where spp is odd).  Besides M(-u) = R M(u) R, reversal gives
    Q(-u) = R Q(u) R, and a period composes as M(u + T) = M(u) M(T),
    Q(u + T) = Q(T) + M(T)^T Q(u) M(T).  So with M(T) from
    ``_full_period`` and H, Q(T/2) the solve at T/2,

        Q(T) = Q(T/2) - M(T)^T R Q(T/2) R M(T),
        M(T - u) = R M(u) R M(T),  Q(T - u) = Q(T) + M(T)^T R Q(u) R M(T).

    Sample j > spp/2 mirrors grid index spp - j (index 0 is (I, 0)): by
    index, never by the float T - s_j, which misses the grid by an ulp.
    A mirrored sample, T included, carries the error of the solve
    amplified by up to |M(T)|^2, which shows only where the solution
    grows by orders of magnitude within one period.
    """
    spp = samples_per_period
    T = params.period
    half = spp // 2
    targets = [(j / spp) * T for j in range(1, half + 1)]
    if spp % 2:
        targets.append(0.5 * T)
    solved = list(_hill_points(params, eps, targets, energy=True))
    *h, h11, h22, h12 = solved[-1]
    A, B, C, D = _full_period(*h)

    def reflected(p, q, r):
        """M(T)^T R Q R M(T) for Q = ((p, r), (r, q)), as (q11, q22, q12)."""
        u, v, w, z = p * A - r * C, q * C - r * A, p * B - r * D, q * D - r * B
        return A * u + C * v, B * w + D * z, A * w + C * z

    t11, t22, t12 = reflected(h11, h22, h12)
    q11_T, q22_T, q12_T = h11 - t11, h22 - t22, h12 - t12
    mirrored = []
    for m11, m12, m21, m22, q11, q22, q12 in reversed(
            [(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)] + solved[:spp - half - 1]):
        t11, t22, t12 = reflected(q11, q22, q12)
        mirrored.append((m11 * A - m12 * C, m11 * B - m12 * D, m22 * C - m21 * A,
                         m22 * D - m21 * B, q11_T + t11, q22_T + t22, q12_T + t12))
    return solved[:half] + mirrored


def integrate_orbit(params: SystemParams, x0: float, y0: float, n_periods: int,
                    samples_per_period: int = 1,
                    epsilon: float | None = None) -> list[PhaseState]:
    """Propagate the extended system over n periods.

    Samples land on the uniform sub-period grid t = (k + i/spp) * T,
    always hitting the section times t = k*T exactly.  E starts at
    -H(x0, y0, 0) and advances by the integrated energy form Q, never
    by re-evaluating H.  Raises Unbounded once the propagated state
    overflows (InvalidInput if E(0) already does).  The origin is a
    fixed point and is rejected as a start.
    """
    if n_periods < 1 or samples_per_period < 1:
        raise InvalidInput("n_periods and samples_per_period must be >= 1")
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise InvalidInput("the initial condition must be finite")
    if x0 == 0.0 and y0 == 0.0:
        raise InvalidInput("the initial condition is the origin, a fixed point: "
                           "its orbit is (0, 0) at every time")
    eps = params.epsilon if epsilon is None else _eps_arg(epsilon)
    x, y, e = x0, y0, -params.hamiltonian(x0, y0, 0.0, eps)
    if not math.isfinite(e):
        raise InvalidInput(f"the initial energy -H(x0, y0, 0) = {e}: the start is too large")
    T = params.period
    grid = _one_period(params, eps, samples_per_period)
    states = [PhaseState(x, y, 0.0, e)]
    i = 0
    for k in range(n_periods):
        for m11, m12, m21, m22, q11, q22, q12 in grid:
            i += 1
            energy = e + q11 * x * x + q22 * y * y + 2.0 * q12 * x * y
            # E is quadratic in the state, so it is the first to overflow
            if not math.isfinite(energy):
                raise Unbounded(f"the state overflows in period {k + 1}; the orbit is unbounded")
            states.append(PhaseState(m11 * x + m12 * y, m21 * x + m22 * y,
                                     (i / samples_per_period) * T, energy))
        x, y, _, e = states[-1]
    return states


def stroboscopic_section(trajectory: Sequence[PhaseState], params: SystemParams) -> list[SectionPoint]:
    """Extract the subsequence at t = k*T and attach d and r."""
    T = params.period
    om1 = float(params.omega1)
    out = []
    for x, y, t, E in trajectory:
        k = round(t / T) if t else 0
        if abs(t - k * T) <= 1e-12 * max(T, t):
            out.append(SectionPoint(x, y, E, k, math.sqrt(om1 * om1 * x * x + y * y),
                                    math.sqrt(x * x + y * y)))
    return out


def _section(params: SystemParams, x0: float, y0: float, n_periods: int,
             epsilon: float | None = None) -> list[SectionPoint]:
    """Section points t = kT, k = 0..n_periods, of the orbit from (x0, y0)."""
    traj = integrate_orbit(params, x0, y0, n_periods, samples_per_period=1, epsilon=epsilon)
    return stroboscopic_section(traj, params)


def monodromy(params: SystemParams, epsilon: float, n: int = 1) -> Monodromy:
    """Fundamental matrix of the linear system over [0, n*T].

    The one-period matrix M(T) is the exact flow map of the linear
    system (not a linearization), and the coefficients are T-periodic,
    so the n-period matrix is M(T)^n.  The solve carries the columns of
    M alone, over half a period, and ``_full_period`` assembles M(T).
    """
    half, = _hill_points(params, _eps_arg(epsilon), [0.5 * params.period])
    return Monodromy(*_full_period(*half), n=1).power(n)


@dataclass(frozen=True)
class EscapeReport:
    """Escape verdict plus the log-distance growth fit over the tail."""

    escaped: bool
    k_escape: int | None
    growth_rate: float | None
    r_squared: float | None


def escape_diagnostics(section: Sequence[SectionPoint], r_escape: float = 1e3, *,
                       period: float | None = None) -> EscapeReport:
    """Escape test and least-squares growth of log r(kT) over the tail.

    ``escaped`` is true iff r exceeds ``r_escape``; the growth rate is
    the slope of log r versus t fitted over the post-transient tail
    (the second half of the points up to the first threshold crossing).
    ``period`` is the driving period T = 2 pi/omega of the section and
    must be given: section points carry k, not t.
    """
    if not section:
        raise ValueError("empty section")
    if period is None or not 0.0 < period < math.inf:
        raise InvalidInput(f"escape_diagnostics needs the driving period T > 0, got {period}")
    if not 0.0 < r_escape < math.inf:
        raise InvalidInput(f"the escape radius must be positive and finite, got {r_escape}")
    cut = len(section)
    k_escape = None
    for i, pt in enumerate(section):
        if pt.r > r_escape:
            cut = i + 1
            k_escape = pt.k
            break
    escaped = k_escape is not None
    tail = section[cut // 2: cut]
    if not escaped or len(tail) < 3:
        return EscapeReport(escaped, k_escape, None, None)
    ts = [pt.k * period for pt in tail]
    ls = [math.log(pt.r) for pt in tail]
    n = len(ts)
    tbar = sum(ts) / n
    lbar = sum(ls) / n
    stt = sum((t - tbar) ** 2 for t in ts)
    stl = sum((t - tbar) * (l - lbar) for t, l in zip(ts, ls))
    slope = stl / stt
    ss_res = sum((l - lbar - slope * (t - tbar)) ** 2 for t, l in zip(ts, ls))
    ss_tot = sum((l - lbar) ** 2 for l in ls)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return EscapeReport(True, k_escape, slope, r2)
