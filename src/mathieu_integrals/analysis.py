"""Higher-level studies combining the symbolic and numeric layers.

Every eps search solves the one-period trace equation tr M(eps) = target
by ITP (``_bracketed_root``) on Hill's determinants (``_hill_trace``, two
of the four factors of ``dynamics.monodromy``).  The Taylor stepper
(``_stepped``), which shares no code with them, only verifies: the
critical_epsilon verdicts at eps_crit +- 1e-3, each at the accuracy its side of
+-2 needs (``_checked_trace``), and find_periodic_orbit's closure at the guess and
at the root, at full accuracy.  tests/dp5_reference.py checks both
paths from outside.

* critical_epsilon: the escape boundary |tr M(eps)| = 2 (orbits stay
  bounded iff |tr M| <= 2); a root that the stepper refutes raises.
* section_residual: how well a section conic (A, B, D) is conserved on
  section points; convergence_study takes it per truncation order.
* cover_count: how many section points outline the invariant curve once.
* find_periodic_orbit: refine eps so the orbit through (x0, y0) closes
  after n periods.
* invariant_curve_points: sample the conic level set predicted by a
  formal integral, ellipse or hyperbola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .builder import SystemParams, build_integral, conic_at_section
from .dynamics import (_TOL, R_ESCAPE, Monodromy, OrbitSample, _full_period, _hill_factors,
                       _hill_points, _step_count, stroboscopic_section)
from .errors import BracketFailure, DegenerateConic, InvalidInput, NoRoot, Unbounded
from .trigseries import _Value

class CriticalEpsResult(_Value):
    """Escape-boundary location with the bracket that pinned it; ``escape_check`` is
    True where the stepper confirmed it, None if |eps_crit| <= 2e-3."""

    __slots__ = ("eps_crit", "bracket", "iterations", "escape_check")

    def __init__(self, eps_crit: float, bracket: tuple[float, float], iterations: int,
                 escape_check: bool | None = None):
        self._set(eps_crit, bracket, iterations, escape_check)


def _hill_trace(params: SystemParams, eps: float) -> float:
    """tr M(T) = 2 + 4 h12 h21 from Hill's determinants, with no ODE solve.

    H = M(T/2) has det 1, so ``_full_period`` gives tr M(T) = 2 + 4 h12
    h21 = 2 + 4 S C' at z = pi/2: the two pi-periodic factors of
    ``dynamics._hill_factors`` (Whittaker & Watson, Modern Analysis 19.42).
    It shares no code with the Taylor stepper, which cross-checks it
    (``_stepped``); ``tests/dp5_reference.py`` checks both from outside.
    """
    if not math.isfinite(eps):
        raise InvalidInput(f"epsilon must be finite, got {eps}")
    c_prime, s = _hill_factors(params, eps)
    trace = 2.0 + 4.0 * s * c_prime
    if not math.isfinite(trace):
        raise Unbounded(f"the trace at eps = {eps} leaves float64")
    return trace


def _stepped(params: SystemParams, eps: float, n: int = 1, tol: float = _TOL) -> Monodromy:
    """M(nT) from the Taylor stepper alone, sharing no code with ``_hill_factors``, each
    step's tail below ``tol`` of its start: 2^-53, or ``_COARSE`` (``_checked_trace``)."""
    half, = _hill_points(params, eps, [0.5 * params.period], tol)
    return Monodromy(*_full_period(*half), n=1).power(n)


_COARSE = 2.0 ** -26  # the tail tolerance of a verdict's first solve (``_checked_trace``)
_MARGIN = 16.0 * _COARSE  # its trace's margin per step and per unit of 1 + max|m_ij|^2


def _checked_trace(params: SystemParams, eps: float) -> float:
    """The stepper's tr M(T), as far as the side of +-2 it lies on goes.

    A solve at tau = ``_COARSE`` takes 16 terms a step where 2^-53 takes 28 (omega1 =
    9/10 at eps_crit).  Each of its k steps leaves a tail below tau of its start, which
    the later steps carry to M(T), so the trace, a sum of products of M's entries, is
    off by about k tau (1 + max|m_ij|^2): by 0.52 of that at most over 4,500 random
    (omega, omega1, eps), omega from 1/100 to 3 and |eps| <= 9, and 0.037 over the
    1,512 verdicts of omega1 = p/q in [1/20, 3], q <= 20, and nine other (omega,
    omega1), both signs.  Where ||tr| - 2| exceeds 16 times that estimate
    (``_MARGIN``), the full trace lies on the same side of +-2; elsewhere the full solve
    gives the trace (4 of those verdicts, at omega = 1/100).  At omega = 2 the margin is
    1.4e-6 to 2.2e-5 for omega1 = 9/10, 11/10 and 1/10, against ||tr| - 2| >= 9.0e-4.
    """
    m = _stepped(params, eps, tol=_COARSE)
    size = max(map(abs, (m.m11, m.m12, m.m21, m.m22)))
    margin = _MARGIN * _step_count(params, eps, 0.5 * params.period) * (1.0 + size * size)
    return m.trace if abs(abs(m.trace) - 2.0) > margin else _stepped(params, eps).trace


def _bracketed_root(f, lo, hi, flo, fhi, tol) -> tuple[float, float]:
    """Shrink [lo, hi], f(lo) <= 0 < f(hi) or the reverse, to width <= tol.

    ITP (Oliveira & Takahashi, ACM TOMS 47, 2021; kappa1 = 0.2/w0, kappa2 =
    2, n0 = 1) converges superlinearly on a smooth f and never takes more
    than ceil(log2(w0/tol)) + 1 calls; on values +-1 it bisects.
    """
    k1, j = 0.2 / (hi - lo), math.ceil(math.log2((hi - lo) / tol))
    goal = tol - 4.0 * math.ulp(abs(lo) + abs(hi))  # spares the rounding of x
    while hi - lo > tol and j >= 0:  # 2^j goal bounds the next width
        mid, xf = 0.5 * (lo + hi), (fhi * lo - flo * hi) / (fhi - flo)  # regula falsi
        delta = k1 * (hi - lo) ** 2  # push xf towards mid, keep it within r of mid
        xt = xf + math.copysign(delta, mid - xf) if delta <= abs(mid - xf) else mid
        r = max(0.0, goal * 2.0 ** j - 0.5 * (hi - lo))
        x = xt if abs(xt - mid) <= r else mid - math.copysign(r, mid - xf)
        fx, j = f(x), j - 1
        if fx == 0.0:
            return x, x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return lo, hi


def critical_epsilon(params: SystemParams, sign: int = 1) -> CriticalEpsResult:
    """Locate eps_crit as a root of |tr M(eps)| = 2.

    hi = 0.05 * 1.6^k over sign*[0, hi] expands until instability is seen;
    ITP (``_bracketed_root``) then solves s tr M(eps) = 2, s = sign tr M(hi),
    from the expansion's values and tr M(0) = 2 cos(omega1 T).  Every
    trace is ``_hill_trace``'s; the stepper's trace, which shares no code with it,
    cross-checks the verdict 1e-3 beyond and inside the root (``_checked_trace``: a
    solve at 2^-26, or at 2^-53 where that one lies within its error margin of +-2).
    The bracket has width <= 1e-10; ``iterations`` counts trace evaluations.
    Raises BracketFailure if every expansion point is stable, the last being
    |eps| = 0.05 * 1.6^11 = 8.8, or if the cross-check refutes the root.  At a =
    1 and a = 4 the tongues of a_1, b_1 (1 +- q) and of b_2, a_2 (4 - q^2/12,
    4 + 5q^2/12) hold a at every q != 0 (DLMF 28.6): eps_crit is 0, no trace taken.
    """
    if sign not in (1, -1):
        raise InvalidInput(f"sign must be +1 or -1, got {sign}")
    if params.mathieu_a in (1, 4):
        return CriticalEpsResult(eps_crit=0.0, bracket=(0.0, 0.0), iterations=0)
    evals = []

    def trace(e: float) -> float:
        evals.append(e)
        return _hill_trace(params, sign * e)

    lo, hi = 0.0, 0.05
    t_lo = 2.0 * math.cos(float(params.omega1) * params.period)
    while not abs(t_hi := trace(hi)) > 2.0:
        lo, t_lo, hi = hi, t_hi, hi * 1.6
        if hi > 10.0:
            raise BracketFailure(f"no instability found up to |eps| = {lo:.3g}")
    s = math.copysign(1.0, t_hi)
    lo, hi = _bracketed_root(lambda e: s * trace(e) - 2.0, lo, hi,
                             s * t_lo - 2.0, s * t_hi - 2.0, 1e-10)
    eps_crit = sign * 0.5 * (lo + hi)

    check: bool | None = None  # unstable just beyond eps_crit, stable just inside it
    if 0.5 * (lo + hi) > 2e-3:
        above = _checked_trace(params, eps_crit + sign * 1e-3)
        below = _checked_trace(params, eps_crit - sign * 1e-3)
        check = abs(above) > 2.0 >= abs(below)
        if not check:
            raise BracketFailure(f"eps_crit = {eps_crit:.10g} is refuted: the monodromy trace "
                                 "does not turn from stable to unstable across it")
    return CriticalEpsResult(eps_crit=eps_crit, bracket=(sign * lo, sign * hi),
                             iterations=len(evals), escape_check=check)


class ConvergenceReport(_Value):
    """Relative section residual of the truncated integral per order."""

    __slots__ = ("orders", "residuals", "epsilon", "n_periods")

    def __init__(self, orders: tuple[int, ...], residuals: tuple[float, ...], epsilon: float,
                 n_periods: int):
        self._set(orders, residuals, epsilon, n_periods)


def section_residual(conic: tuple[float, float, float],
                     section: Sequence[OrbitSample]) -> float:
    """max_k |F(x_k, y_k) - F(x_0, y_0)| / |F(x_0, y_0)|, F = A x^2 + B y^2 + 2 D xy.

    ``conic`` is the (A, B, D) triple of ``conic_at_section`` or
    ``resonant_section_form``: at section times an integral reduces to
    its t = 0 conic, so the evaluation is exact in the time direction.
    """
    if not section:
        raise InvalidInput("section_residual needs a non-empty section")
    a, b, d = conic
    values = [a * p.x * p.x + b * p.y * p.y + 2.0 * d * p.x * p.y for p in section]
    level = values[0]
    if level == 0.0:
        raise InvalidInput("the integral vanishes at the initial condition (the origin, or "
                           "a start on its zero level set such as an asymptote of the "
                           "hyperbola); the relative residual is undefined")
    return max(abs(v - level) for v in values) / abs(level)


def convergence_study(params: SystemParams, orders: Sequence[int], n_periods: int = 200,
                      x0: float = 0.0, y0: float = 1.0) -> ConvergenceReport:
    """Residuals of the truncated integral over one orbit at params.epsilon, per order."""
    orders = tuple(orders)
    if not orders or any(b <= a for a, b in zip(orders, orders[1:])):
        raise InvalidInput("orders must be non-empty and strictly ascending")
    if orders[0] < 0:
        raise InvalidInput(f"order {orders[0]} is negative; orders must be >= 0")
    phi = build_integral(params, max(orders))
    section = stroboscopic_section(params, x0, y0, n_periods)
    conics = (conic_at_section(phi.truncated(s), params.epsilon) for s in orders)
    residuals = tuple(section_residual(conic, section) for conic in conics)
    return ConvergenceReport(orders=orders, residuals=residuals, epsilon=params.epsilon,
                             n_periods=n_periods)


def cover_count(section: Sequence[OrbitSample], omega1: float) -> int:
    """Points needed for the section sequence to outline its curve once.

    The section conics are centrally symmetric, so the polar angle of a
    point in the (omega1*x, y) plane matters modulo pi: each step
    advances the *direction line* through the origin by the fold of the
    angle increment into (-pi/2, pi/2].  The curve is covered once when
    the accumulated sweep reaches a half turn (equivalently 2*pi of
    winding counted at both antipodes); the count is taken at the step
    that lands nearest the half turn, matching how the recurrence of the
    maximum section distance d is read off.  Raises Unbounded if a point
    passes r = ``R_ESCAPE`` first.
    """
    if len(section) < 3:
        raise InvalidInput("cover_count needs at least 3 section points")
    half_pi = math.pi / 2.0
    cum = 0.0
    prev = math.atan2(section[0].y, omega1 * section[0].x)
    for idx, pt in enumerate(section[1:], start=1):
        if pt.r > R_ESCAPE:
            raise Unbounded(f"section escapes at k = {pt.k} before covering the curve")
        theta = math.atan2(pt.y, omega1 * pt.x)
        step = (theta - prev + half_pi) % math.pi - half_pi
        prev = theta
        new = cum + abs(step)
        if new >= math.pi:
            steps = idx if abs(new - math.pi) < abs(cum - math.pi) else idx - 1
            return steps + 1
        cum = new
    raise Unbounded("section ended before covering the curve; integrate more periods")


@dataclass(frozen=True)
class PeriodicOrbitResult:
    """A refined periodic-orbit parameter and its closure quality."""

    epsilon: float
    n: int
    winding: int  # m in n*theta = 2*pi*m
    return_distance: float


def find_periodic_orbit(params: SystemParams, eps_guess: float, n: int,
                        x0: float = 0.0, y0: float = 1.0,
                        search_radius: float = 0.02) -> PeriodicOrbitResult:
    """Refine eps near eps_guess so the flow over nT closes the orbit.

    The flow map is linear, so the orbit through any (x0, y0) closes
    after n periods exactly when the one-period rotation number theta
    satisfies n*theta = 2*pi*m; the nearest integer m is taken from the
    guess and theta(eps) is solved for via the trace equation
    tr M(eps) = 2*cos(2*pi*m/n) (monotone through the root, so the
    bracketed root finder applies).  Every trace compared with the target
    is ``_hill_trace``'s; the stepper's M(nT) (``_stepped``) runs at the
    guess, returned as is if it closes within 1e-10 (this covers tangent
    roots, e.g. eps = 0, where the trace is even in eps), and at the root,
    for ``return_distance``.  Raises NoRoot when no sign change exists within
    the expanded search interval.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    theta_guess = math.acos(max(-1.0, min(1.0, _hill_trace(params, eps_guess) / 2.0)))
    m = round(n * theta_guess / (2.0 * math.pi))
    target = 2.0 * math.cos(2.0 * math.pi * m / n)

    gx, gy = _stepped(params, eps_guess, n).apply(x0, y0)
    guess_distance = math.hypot(gx - x0, gy - y0)
    if guess_distance <= 1e-10:
        return PeriodicOrbitResult(epsilon=eps_guess, n=n, winding=m,
                                   return_distance=guess_distance)

    def g(e: float) -> float:
        return _hill_trace(params, e) - target

    for doubling in range(8):
        radius = search_radius * 2.0 ** doubling
        lo, hi = eps_guess - radius, eps_guess + radius
        glo, ghi = g(lo), g(hi)
        if glo * ghi <= 0.0:
            break
    else:
        raise NoRoot(f"no period-{n} orbit parameter within {radius:.3g} of {eps_guess}")
    lo, hi = _bracketed_root(g, lo, hi, glo, ghi, 1e-13)
    eps = 0.5 * (lo + hi)
    x1, y1 = _stepped(params, eps, n).apply(x0, y0)
    dist = math.hypot(x1 - x0, y1 - y0)
    return PeriodicOrbitResult(epsilon=eps, n=n, winding=m, return_distance=dist)


def invariant_curve_points(conic: tuple[float, float, float], level: float,
                           n_samples: int = 400) -> list[tuple[float, float]]:
    """Sample the level set A x^2 + B y^2 + 2 D xy = level.

    Returns the ellipse when A*B - D^2 > 0 and both hyperbola branches
    when A*B - D^2 < 0; raises DegenerateConic when the discriminant
    vanishes within 1e-12.  Pass the (A, B, D) triple produced by
    conic_at_section or resonant_section_form.
    """
    a, b, d = conic
    disc = a * b - d * d
    if abs(disc) <= 1e-12:
        raise DegenerateConic(f"A*B - D^2 = {disc:.3e}")
    # principal axes of the symmetric matrix [[A, D], [D, B]]
    half_sum = 0.5 * (a + b)
    half_diff = 0.5 * (a - b)
    root = math.hypot(half_diff, d)
    lam1 = half_sum + root
    lam2 = half_sum - root
    phi = 0.5 * math.atan2(2.0 * d, a - b) if (d or a != b) else 0.0
    cphi, sphi = math.cos(phi), math.sin(phi)

    # eigenvector for lam1 is (cos phi, sin phi) when using this angle convention
    pts_uv: list[tuple[float, float]] = []
    if disc > 0.0:
        if lam1 * level <= 0.0:
            raise DegenerateConic("level set is empty for this sign of level")
        ru = math.sqrt(level / lam1)
        rv = math.sqrt(level / lam2)
        for i in range(n_samples):
            ang = 2.0 * math.pi * i / n_samples
            pts_uv.append((ru * math.cos(ang), rv * math.sin(ang)))
    else:
        if level == 0.0:
            raise DegenerateConic("level 0 of a hyperbolic form is the asymptote pair")
        # order so that lam_pos > 0 > lam_neg; u along the positive eigenvector
        smax = 3.0
        half = max(2, n_samples // 2)
        for branch in (+1.0, -1.0):
            for i in range(half):
                s = -smax + 2.0 * smax * i / (half - 1)
                if level / lam1 > 0.0:
                    u = branch * math.sqrt(level / lam1) * math.cosh(s)
                    v = math.sqrt(-level / lam2) * math.sinh(s)
                else:
                    u = math.sqrt(-level / lam1) * math.sinh(s)
                    v = branch * math.sqrt(level / lam2) * math.cosh(s)
                pts_uv.append((u, v))
    return [(cphi * u - sphi * v, sphi * u + cphi * v) for u, v in pts_uv]


def section_semiaxis_x(section: Sequence[OrbitSample]) -> float:
    """The x-extent of the section curve, read from the point cloud."""
    return max(abs(p.x) for p in section)
