"""Higher-level studies combining the symbolic and numeric layers.

critical_epsilon finds the first escape boundary from a Sturm count of the
Hill matrices' eigenvalues below a (``_sturm_count``) alone.
find_periodic_orbit solves the one-period trace equation tr M(eps) = target
by ITP (``_bracketed_root``) on Hill's determinants (``_hill_trace``, two of
the four factors of ``dynamics.monodromy``), which share no code with the
count; the Taylor stepper (``_stepped``) checks its closure at the guess and
at the root.  tests/dp5_reference.py checks the trace and the stepper from
outside.

* critical_epsilon: the first escape boundary, where the four classes' total
  count below a turns even (the orbit is bounded while it is odd).
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
from .dynamics import (R_ESCAPE, Monodromy, OrbitSample, _check_start, _full_period,
                       _hill_factors, _hill_points, stroboscopic_section)
from .errors import BracketFailure, DegenerateConic, InvalidInput, NoRoot, Unbounded
from .trigseries import _Value


class CriticalEpsResult(_Value):
    """Escape-boundary location with the bracket that pinned it."""

    __slots__ = ("eps_crit", "bracket", "iterations")

    def __init__(self, eps_crit: float, bracket: tuple[float, float], iterations: int):
        self._set(eps_crit, bracket, iterations)


def _hill_trace(params: SystemParams, eps: float) -> float:
    """tr M(T) = 2 + 4 h12 h21 from Hill's determinants, with no ODE solve.

    H = M(T/2) has det 1, so ``_full_period`` gives tr M(T) = 2 + 4 h12
    h21 = 2 + 4 S C' at z = pi/2: the two pi-periodic factors of
    ``dynamics._hill_factors`` (Whittaker & Watson, Modern Analysis 19.42).
    It shares no code with the Sturm count (``_sturm_count``);
    ``tests/dp5_reference.py`` checks it from outside.
    """
    if not math.isfinite(eps):
        raise InvalidInput(f"epsilon must be finite, got {eps}")
    c_prime, s = _hill_factors(params, eps)
    trace = 2.0 + 4.0 * s * c_prime
    if not math.isfinite(trace):
        raise Unbounded(f"the trace at eps = {eps} leaves float64")
    return trace


def _stepped(params: SystemParams, eps: float, n: int = 1) -> Monodromy:
    """M(nT) from the Taylor stepper alone, sharing no code with ``_hill_factors``."""
    half, = _hill_points(params, eps, [0.5 * params.period])
    return Monodromy(*_full_period(*half), n=1).power(n)


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


#: DLMF 28.4's a_2n, a_2n+1, b_2n+1, b_2n+2: (first level k, q's factor on its diagonal
#: entry, the first coupling's square over q^2)
_CLASSES = ((0, 0.0, 2.0), (1, 1.0, 1.0), (1, -1.0, 1.0), (2, 0.0, 1.0))


def _sturm_count(cls: tuple[int, float, float], q: float, x: float) -> int:
    """The eigenvalues below x of a class's Hill matrix A(q), k^2 on the diagonal (k = h,
    h + 2, ...; +-q on the first of the odd classes) and q beside it (sqrt(2) q first in
    a_2n): the negative pivots of A - x = L D L^T (Parlett, The Symmetric Eigenvalue
    Problem, 3.3) up to p, the last before a row with d = k^2 - x > 2|q| and p < 0 or p >
    c/(d - 2|q|), c the coupling squared.  The rows left, B - x >= (d - 2|q|) I, lower p
    by c [(B - x)^-1]_11 in [0, c/(d - 2|q|)]: this is the infinite matrix's count."""
    (k, shift, first), q2, wide = cls, q * q, 2.0 * abs(q)
    p, c = k * k + shift * q - x, first * q2
    below = int(p < 0.0)
    while (d := (k := k + 2) ** 2 - x) <= wide or not (p < 0.0 or p * (d - wide) > c):
        p, c = d - c / (p or 5e-324), q2  # a zero pivot counts as positive
        below += p < 0.0
    return below


def _march(cls: tuple[int, float, float], a: float, q: float, end: float,
           tol: float) -> tuple[float, float] | None:
    """None if ``cls`` keeps its count k below a on [q, end], else a bracket <= tol/2 wide
    where it changes.  A(q) = A(0) + q J, ||J|| <= 2 (1 beside the diagonal, sqrt(2)
    once, +-1 once on it): an eigenvalue moves at most 2 per unit q.  None within g of a
    (counts at a -+ g equal k; else g /= 4) reaches it within a step of 0.4995 g.  If
    counts at a -+ G, a +- G/2 show none other within G and at most one within G/2, over
    L with 16 L^2/g + 4 L = G/2 that one keeps a gap over 16 L^2/g to the rest, so
    |lambda''| <= 2 ||J||^2/gap <= g/(2 L^2): it cannot reach a and turn back (that takes
    2 g/L^2), and the count at q + L shows whether it crossed, to bisect.  g doubles after
    a step, G after a stretch (else G /= 4); a step under tol/2, or g under tol/1024,
    becomes tol/2, checked by its end's count."""
    k, g, G = _sturm_count(cls, q, a), 1.0, 0.0
    while q < end:
        step = plain = 0.0
        if _sturm_count(cls, q, a - g) == _sturm_count(cls, q, a + g) == k:
            step = plain = 0.4995 * g
            G = max(G, 32.0 * g)
            lo, hi = (_sturm_count(cls, q, a + side) - k for side in (-G, G))
            if hi - lo < 2 and (lo == hi or _sturm_count(cls, q, a + 0.5 * (lo + hi) * G) - k
                                == lo + hi):
                step, G = 0.125 * g * (math.sqrt(1.0 + 2.0 * G / g) - 1.0), 2.0 * G
            else:
                G *= 0.25
            g *= 2.0
        elif g > tol / 1024.0:
            g *= 0.25
            continue
        top = min(q + max(step, 0.5 * tol), end)
        if top - q > plain and _sturm_count(cls, top, a) != k:
            while top - q > 0.5 * tol:  # the count steps once on [q, top]
                mid = 0.5 * (q + top)
                q, top = (mid, top) if _sturm_count(cls, mid, a) == k else (q, mid)
            return q, top
        q = top
    return None


def _first_crossing(params: SystemParams, end: float) -> tuple[float, float] | None:
    """A bracket of q, <= 1e-10 wide in eps, of the first boundary before ``end``.

    At q = 0, 1 + 2 #{n >= 1: n^2 < a} levels lie below a: odd, and the orbit is bounded
    while the total stays odd (DLMF 28.2(v)).  Each class starts at q = 0, but at a =
    n^2, n >= 3, the row on a splits its class into blocks whose entries R(q) beside it,
    summed, give its Schur complement -q^2 R(q) at a; R(0) = -1/(2(n^2 - 1)), |R'| <=
    4/G^2 with the blocks G >= 4(n - 1) - 2q from a, so R < 0 and the count holds up to q
    = (n - 1)/(n + 1), where that class starts.  A bracket with an odd total at its end
    holds a tongue narrower than itself: the march goes on from there.
    """
    exact, a, tol = params.mathieu_a, float(params.mathieu_a), params.mathieu_q(1e-10)
    n = math.isqrt(math.floor(exact))
    starts = [(cls, (n - 1) / (n + 1) if n * n == exact and (n - cls[0]) % 2 == 0 else 0.0)
              for cls in _CLASSES]
    while True:
        bracket, limit = None, end
        for cls, q in starts:
            if found := _march(cls, a, q, limit, tol):
                bracket, limit = (min(found[0], (bracket or found)[0]), found[1]), found[1]
        if bracket is None or sum(_sturm_count(cls, limit, a) for cls in _CLASSES) % 2 == 0:
            return bracket
        starts = [(cls, limit) for cls in _CLASSES]


def critical_epsilon(params: SystemParams, sign: int = 1) -> CriticalEpsResult:
    """Locate the first eps_crit, in the direction of ``sign``, where orbits escape.

    The orbit is bounded while the four classes' total Sturm count below a is odd (DLMF
    28.2(v)).  ``_first_crossing`` brackets the first change of that parity before |eps|
    = 8.8, else BracketFailure; a bisection of the total parity shrinks the bracket to
    adjacent floats, odd at its stable end and even at the other, and ``iterations``
    counts its steps.  The search runs at |eps| and mirrors its result.  At a = 1 and 4
    the tongues of a_1, b_1 (1 +- q) and b_2, a_2 (4 - q^2/12, 4 + 5q^2/12) hold a at
    every q != 0 (DLMF 28.6): eps_crit is 0, with no count.
    """
    if sign not in (1, -1):
        raise InvalidInput(f"sign must be +1 or -1, got {sign}")
    if params.mathieu_a in (1, 4):
        return CriticalEpsResult(eps_crit=0.0, bracket=(0.0, 0.0), iterations=0)
    a, per_eps = float(params.mathieu_a), params.mathieu_q(1.0)
    if not (crossing := _first_crossing(params, per_eps * 8.8)):
        raise BracketFailure("no instability found up to |eps| = 8.8")

    def odd(e: float) -> bool:
        return sum(_sturm_count(cls, params.mathieu_q(e), a) for cls in _CLASSES) % 2 == 1

    lo, hi = crossing[0] / per_eps, crossing[1] / per_eps
    while not odd(lo):  # q(eps) rounds, so an end may lie past the change: step it out
        lo = math.nextafter(lo, 0.0)
    while odd(hi):
        hi = math.nextafter(hi, math.inf)
    steps = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if odd(mid) else (lo, mid)
        steps += 1
    return CriticalEpsResult(eps_crit=sign * 0.5 * (lo + hi), bracket=(sign * lo, sign * hi),
                             iterations=steps)


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
    guess, returned as is if it closes within 1e-10 |z0| (this covers tangent
    roots, e.g. eps = 0, where the trace is even in eps), and at the root,
    for ``return_distance``.  Raises NoRoot when no sign change exists within
    the expanded search interval, and InvalidInput before the first trace for
    n < 1, a start that is not finite or is the origin (a fixed point, closed
    at every eps), or a search radius that is not positive and finite.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    _check_start(x0, y0)
    if not 0.0 < search_radius < math.inf:
        raise InvalidInput(f"the search radius must be positive and finite, got {search_radius}")
    theta_guess = math.acos(max(-1.0, min(1.0, _hill_trace(params, eps_guess) / 2.0)))
    m = round(n * theta_guess / (2.0 * math.pi))
    target = 2.0 * math.cos(2.0 * math.pi * m / n)

    gx, gy = _stepped(params, eps_guess, n).apply(x0, y0)
    guess_distance = math.hypot(gx - x0, gy - y0)
    if guess_distance <= 1e-10 * math.hypot(x0, y0):
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
    when A*B - D^2 < 0, n_samples points in all: ceil(n/2) on one branch and
    floor(n/2) on the other.  Raises DegenerateConic when the discriminant
    vanishes within 1e-12, and InvalidInput for n_samples < 1 (< 4 for a
    hyperbola, two a branch) or a level that is not finite.  Pass the (A, B,
    D) triple produced by conic_at_section or resonant_section_form.
    """
    if n_samples < 1:
        raise InvalidInput("n_samples must be >= 1")
    if not math.isfinite(level):
        raise InvalidInput(f"the level must be finite, got {level}")
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
        if n_samples < 4:
            raise InvalidInput("a hyperbola needs n_samples >= 4, two on each branch")
        smax = 3.0  # u along the positive eigenvector
        for branch, half in ((1.0, n_samples - n_samples // 2), (-1.0, n_samples // 2)):
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
