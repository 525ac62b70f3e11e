"""Numerical integration, stroboscopic sections, monodromy, escapes.

The equations of motion are linear in (x, y) with period T = 2 pi/omega,

    dx/dt = y,    dy/dt = -(omega1^2 - 2 eps cos(omega t)) x,

augmented with the conjugate momentum of time, dE/dt = -dH/dt =
-eps omega x^2 sin(omega t), from E(0) = -H(x0, y0, 0); E is integrated,
never recomputed as -H, so |H + E| is an independent accuracy check.

By Floquet theory one period serves every stroboscopic study, and the
driving is even in t, so half a period does.  A Dormand-Prince 8(5,3)
method (DOP853, error control at rtol = atol = 1e-12) solves, over
[0, T/2] only, for the fundamental matrix M(s) and the energy form
Q(s) = (q11, q22, q12), dQ/dt = -eps omega sin(omega t) (m11^2, m12^2,
m11 m12); time reversal gives M and Q on [T/2, T] (``_one_period``).  Then z(kT + s) =
M(s) z(kT), E(kT + s) = E(kT) + z^T Q(s) z and the n-period monodromy
is M(T)^n.  Steps land *exactly* on the sample grid s = j T/spp, so at
one sample per period sample k is the section point at t = kT.

One loop walks the period grid (``_propagate``).  In the pass that
propagates z and E it builds either the orbit table rows (k, t, x, y, E,
d, r) of ``orbit_rows``, which the CLI formats as they are, or the
PhaseStates of ``integrate_orbit``; ``stroboscopic_section`` reads row k
of the one-sample-per-period table as the point at t = kT.

One stepper, ``_hill_points``, is DOP853 specialised to the Hill
equation on the two columns of M: M(T/2) alone for ``monodromy``,
(M, Q) on the half-period sample grid for orbits; both assemble M(T) in
``_full_period``.  The escape-boundary search reads Hill's determinant
instead (``analysis._hill_trace``).  The generic stepper it reproduces
bit for bit lives in ``tests/dop853_reference.py``; a Dormand-Prince
5(4) stepper in ``tests/dp5_reference.py`` checks it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .builder import SystemParams
from .errors import InvalidInput, StepFailure, Unbounded

# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, II.10), by its nonzero entries as float64: the
# nodes c_i and the rows {j: a_ij} of stages 2..12, the 8th-order weights B,
# E5, the weights of the 5th-order error estimate, and BHH, the 3rd-order
# weights whose difference from B is the 3rd-order estimate.  These use
# stages 1 and 6..12 only, and stage 12 is at c = 1.
_C = {2: 0.05260015195876773, 3: 0.0789002279381516, 4: 0.1183503419072274, 5: 0.2816496580927726,
      6: 0.3333333333333333, 7: 0.25, 8: 0.3076923076923077, 9: 0.6512820512820513, 10: 0.6,
      11: 0.8571428571428571, 12: 1.0}
_A = {
    2: {1: 0.05260015195876773},
    3: {1: 0.0197250569845379, 2: 0.0591751709536137},
    4: {1: 0.02958758547680685, 3: 0.08876275643042054},
    5: {1: 0.2413651341592667, 3: -0.8845494793282861, 4: 0.924834003261792},
    6: {1: 0.037037037037037035, 4: 0.17082860872947386, 5: 0.12546768756682242},
    7: {1: 0.037109375, 4: 0.17025221101954405, 5: 0.06021653898045596, 6: -0.017578125},
    8: {1: 0.03709200011850479, 4: 0.17038392571223998, 5: 0.10726203044637328,
        6: -0.015319437748624402, 7: 0.008273789163814023},
    9: {1: 0.6241109587160757, 4: -3.3608926294469414, 5: -0.868219346841726, 6: 27.59209969944671,
        7: 20.154067550477894, 8: -43.48988418106996},
    10: {1: 0.47766253643826434, 4: -2.4881146199716677, 5: -0.590290826836843,
         6: 21.230051448181193, 7: 15.279233632882423, 8: -33.28821096898486,
         9: -0.020331201708508627},
    11: {1: -0.9371424300859873, 4: 5.186372428844064, 5: 1.0914373489967295,
         6: -8.149787010746927, 7: -18.52006565999696, 8: 22.739487099350505,
         9: 2.4936055526796523, 10: -3.0467644718982196},
    12: {1: 2.273310147516538, 4: -10.53449546673725, 5: -2.0008720582248625, 6: -17.9589318631188,
         7: 27.94888452941996, 8: -2.8589982771350235, 9: -8.87285693353063,
         10: 12.360567175794303, 11: 0.6433927460157636},
}
_B = {1: 0.054293734116568765, 6: 4.450312892752409, 7: 1.8915178993145003, 8: -5.801203960010585,
      9: 0.3111643669578199, 10: -0.1521609496625161, 11: 0.20136540080403034,
      12: 0.04471061572777259}
_E5 = {1: 0.01312004499419488, 6: -1.2251564463762044, 7: -0.4957589496572502,
       8: 1.6643771824549864, 9: -0.35032884874997366, 10: 0.3341791187130175,
       11: 0.08192320648511571, 12: -0.022355307863886294}
_BHH = {1: 0.2440944881889764, 9: 0.7338466882816118, 12: 0.022058823529411766}

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

    DOP853 at rtol = ``_RTOL``, atol = ``_ATOL``: Hairer's error norm
    |h| e5 / sqrt(n (e5 + e3 / 100)), e5 and e3 the sums of squares of
    the scaled 5th- and 3rd-order estimates over every x component,
    then every y component, then Q, and the step exponent -1/8.  The
    safety factor is 0.75, so a new step aims at err = 0.75^8 = 0.1,
    not the 0.43 of the usual 0.9: at large q, where a row of M(T/2)
    ends small after a large excursion, the trace then keeps as close
    to Hill's determinant as the DP5 kernel's did.  The step is clamped
    to land exactly on each target, and the time stamp is set to the
    target itself, so no landing error accumulates.  w(t) = omega1^2 -
    2 eps cos(omega t) does not depend on the state, so it is evaluated
    once per stage for both columns, each column runs its stages on
    scalars, and the next step's first slope reuses stage 12's w
    (c = 1).  Q does not feed back, so it is a quadrature: its weight
    -eps omega sin(omega t) is needed only at stages 1 and 6..12, the
    ones B and the error weights use.  Non-finite stages (an eps so
    large that the coefficients or the solution overflow) end in
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
    *nodes, _ = _C.values()  # c2..c11; c12 = 1
    ((a21,), (a31, a32), (a41, a43), (a51, a53, a54), (a61, a64, a65), (a71, a74, a75, a76),
     (a81, a84, a85, a86, a87), (a91, a94, a95, a96, a97, a98),
     (a10_1, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_1, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (a12_1, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11)) = \
        [row.values() for row in _A.values()]
    b1, b6, b7, b8, b9, b10, b11, b12 = _B.values()
    e1, e6, e7, e8, e9, e10, e11, e12 = _E5.values()
    bhh1, bhh9, bhh12 = _BHH.values()
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
            w2, w3, w4, w5, w6, w7, w8, w9, w10, w11 = [
                om1sq - two_eps * cos(om * (t + c * hh)) for c in nodes]
            w12 = om1sq - two_eps * cos(om * (t + hh))
            new = []
            err5 = err3 = 0.0  # the x terms, then the y terms, then the energy form
            ey = []
            for x, y, p1, q1 in cols:
                p2 = y + hh * (a21 * q1)
                q2 = -w2 * (x + hh * (a21 * p1))
                p3 = y + hh * (a31 * q1 + a32 * q2)
                q3 = -w3 * (x + hh * (a31 * p1 + a32 * p2))
                p4 = y + hh * (a41 * q1 + a43 * q3)
                q4 = -w4 * (x + hh * (a41 * p1 + a43 * p3))
                p5 = y + hh * (a51 * q1 + a53 * q3 + a54 * q4)
                q5 = -w5 * (x + hh * (a51 * p1 + a53 * p3 + a54 * p4))
                p6 = y + hh * (a61 * q1 + a64 * q4 + a65 * q5)
                X6 = x + hh * (a61 * p1 + a64 * p4 + a65 * p5)
                q6 = -w6 * X6
                p7 = y + hh * (a71 * q1 + a74 * q4 + a75 * q5 + a76 * q6)
                X7 = x + hh * (a71 * p1 + a74 * p4 + a75 * p5 + a76 * p6)
                q7 = -w7 * X7
                p8 = y + hh * (a81 * q1 + a84 * q4 + a85 * q5 + a86 * q6 + a87 * q7)
                X8 = x + hh * (a81 * p1 + a84 * p4 + a85 * p5 + a86 * p6 + a87 * p7)
                q8 = -w8 * X8
                p9 = y + hh * (a91 * q1 + a94 * q4 + a95 * q5 + a96 * q6 + a97 * q7 + a98 * q8)
                X9 = x + hh * (a91 * p1 + a94 * p4 + a95 * p5 + a96 * p6 + a97 * p7 + a98 * p8)
                q9 = -w9 * X9
                p10 = y + hh * (a10_1 * q1 + a10_4 * q4 + a10_5 * q5 + a10_6 * q6 + a10_7 * q7
                                + a10_8 * q8 + a10_9 * q9)
                X10 = x + hh * (a10_1 * p1 + a10_4 * p4 + a10_5 * p5 + a10_6 * p6 + a10_7 * p7
                                + a10_8 * p8 + a10_9 * p9)
                q10 = -w10 * X10
                p11 = y + hh * (a11_1 * q1 + a11_4 * q4 + a11_5 * q5 + a11_6 * q6 + a11_7 * q7
                                + a11_8 * q8 + a11_9 * q9 + a11_10 * q10)
                X11 = x + hh * (a11_1 * p1 + a11_4 * p4 + a11_5 * p5 + a11_6 * p6 + a11_7 * p7
                                + a11_8 * p8 + a11_9 * p9 + a11_10 * p10)
                q11 = -w11 * X11
                p12 = y + hh * (a12_1 * q1 + a12_4 * q4 + a12_5 * q5 + a12_6 * q6 + a12_7 * q7
                                + a12_8 * q8 + a12_9 * q9 + a12_10 * q10 + a12_11 * q11)
                X12 = x + hh * (a12_1 * p1 + a12_4 * p4 + a12_5 * p5 + a12_6 * p6 + a12_7 * p7
                                + a12_8 * p8 + a12_9 * p9 + a12_10 * p10 + a12_11 * p11)
                q12 = -w12 * X12
                pb = (b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10 + b11 * p11
                      + b12 * p12)
                qb = (b1 * q1 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9 + b10 * q10 + b11 * q11
                      + b12 * q12)
                xn, yn = x + hh * pb, y + hh * qb
                a, b = abs(x), abs(xn)
                sk = atol + rtol * (b if b > a else a)
                e = (e1 * p1 + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10 + e11 * p11
                     + e12 * p12) / sk
                err5 += e * e
                e = (pb - bhh1 * p1 - bhh9 * p9 - bhh12 * p12) / sk
                err3 += e * e
                a, b = abs(y), abs(yn)
                sk = atol + rtol * (b if b > a else a)
                e = (e1 * q1 + e6 * q6 + e7 * q7 + e8 * q8 + e9 * q9 + e10 * q10 + e11 * q11
                     + e12 * q12) / sk
                f = (qb - bhh1 * q1 - bhh9 * q9 - bhh12 * q12) / sk
                ey.append((e * e, f * f))
                new.append((xn, yn, yn, -w12 * xn))  # the next first slope, at c = 1
                if energy:
                    xs.append((X6, X7, X8, X9, X10, X11, X12, xn))
            for u, v in ey:
                err5 += u
                err3 += v
            if energy:
                s12 = -eps_om * sin(om * (t + hh))
                g6, g7, g8, g9, g10, g11, g12, g13 = [
                    (s * a * a, s * b * b, s * a * b) for s, a, b in zip(
                        [-eps_om * sin(om * (t + c * hh)) for c in nodes[4:]] + [s12, s12],
                        *xs)]
                xs.clear()
                quad_new = []
                for q, k1, k6, k7, k8, k9, k10, k11, k12 in zip(quad, g1, g6, g7, g8, g9, g10,
                                                                 g11, g12):
                    kb = (b1 * k1 + b6 * k6 + b7 * k7 + b8 * k8 + b9 * k9 + b10 * k10 + b11 * k11
                          + b12 * k12)
                    qn = q + hh * kb
                    a, b = abs(q), abs(qn)
                    sk = atol + rtol * (b if b > a else a)
                    e = (e1 * k1 + e6 * k6 + e7 * k7 + e8 * k8 + e9 * k9 + e10 * k10
                         + e11 * k11 + e12 * k12) / sk
                    err5 += e * e
                    e = (kb - bhh1 * k1 - bhh9 * k9 - bhh12 * k12) / sk
                    err3 += e * e
                    quad_new.append(qn)
            deno = err5 + 0.01 * err3
            err = hh * err5 / math.sqrt(deno * n) if deno else 0.0
            if err <= 1.0:
                t, cols = (target if clamped else t + hh), new
                if energy:
                    quad, g1 = quad_new, g13
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.75 * err ** -0.125))
                h = hh * factor
            else:
                h = hh * max(0.2, 0.75 * err ** -0.125)
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

    DOP853 solves (M, Q) at s_j for j <= spp/2 and at T/2 (one more target
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


def _propagate(params: SystemParams, x0: float, y0: float, n_periods: int,
               samples_per_period: int, table: bool) -> list[tuple]:
    """The one loop over the period grid: a row per sample i = 0..n spp (see
    ``integrate_orbit``).

    With ``table`` a row is (k, t, x, y, E, d, r), k = i // spp, d =
    sqrt(omega1^2 x^2 + y^2), r = hypot(x, y); without, it is the
    PhaseState (x, y, t, E).  Either is built in the pass that propagates
    z and E: a PhaseState projected from a table row afterwards costs more
    than the whole sample does here.
    """
    if n_periods < 1 or samples_per_period < 1:
        raise InvalidInput("n_periods and samples_per_period must be >= 1")
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise InvalidInput("the initial condition must be finite")
    if x0 == 0.0 and y0 == 0.0:
        raise InvalidInput("the initial condition is the origin, a fixed point: "
                           "its orbit is (0, 0) at every time")
    x, y, e = x0, y0, -params.hamiltonian(x0, y0, 0.0)
    if not math.isfinite(e):
        raise InvalidInput(f"the initial energy -H(x0, y0, 0) = {e}: the start is too large")
    spp = samples_per_period
    T = params.period
    om1 = float(params.omega1)
    om1sq = om1 * om1  # as trajectory_rows forms it, so d agrees bit for bit
    sqrt, hypot, isfinite, state = math.sqrt, math.hypot, math.isfinite, tuple.__new__
    grid = _one_period(params, params.epsilon, spp)
    rows = [(0, 0.0, x, y, e, sqrt(om1sq * x * x + y * y), hypot(x, y)) if table
            else state(PhaseState, (x, y, 0.0, e))]
    append = rows.append
    i = 0
    for k in range(n_periods):
        for m11, m12, m21, m22, q11, q22, q12 in grid:
            i += 1
            energy = e + q11 * x * x + q22 * y * y + 2.0 * q12 * x * y
            # E is quadratic in the state, so it is the first to overflow
            if not isfinite(energy):
                raise Unbounded(f"the state overflows in period {k + 1}; the orbit is unbounded")
            u, v = m11 * x + m12 * y, m21 * x + m22 * y
            if table:
                append((i // spp, (i / spp) * T, u, v, energy, sqrt(om1sq * u * u + v * v),
                        hypot(u, v)))
            else:
                append(state(PhaseState, (u, v, (i / spp) * T, energy)))
        x, y, e = u, v, energy
    return rows


def orbit_rows(params: SystemParams, x0: float, y0: float, n_periods: int,
               samples_per_period: int = 1) -> list[tuple]:
    """The orbit table over n periods: rows (k, t, x, y, E, d, r), one per sample.

    The samples, checks and errors are ``integrate_orbit``'s; k is the
    period index of the sample, d = sqrt(omega1^2 x^2 + y^2) and r =
    hypot(x, y).
    """
    return _propagate(params, x0, y0, n_periods, samples_per_period, table=True)


def integrate_orbit(params: SystemParams, x0: float, y0: float, n_periods: int,
                    samples_per_period: int = 1) -> list[PhaseState]:
    """Propagate the extended system over n periods: PhaseStates (x, y, t, E).

    Samples land on the uniform sub-period grid t = (k + i/spp) * T,
    always hitting the section times t = k*T exactly.  E starts at
    -H(x0, y0, 0) and advances by the integrated energy form Q, never
    by re-evaluating H.  Raises Unbounded once the propagated state
    overflows (InvalidInput if E(0) already does).  The origin is a
    fixed point and is rejected as a start.
    """
    return _propagate(params, x0, y0, n_periods, samples_per_period, table=False)


def stroboscopic_section(params: SystemParams, x0: float, y0: float,
                         n_periods: int) -> list[SectionPoint]:
    """Section points t = kT, k = 0..n_periods, of the orbit from (x0, y0).

    Row k of the one-sample-per-period ``orbit_rows`` is the point at t = kT.
    """
    sqrt, point = math.sqrt, tuple.__new__
    return [point(SectionPoint, (x, y, E, k, d, sqrt(x * x + y * y)))
            for k, _, x, y, E, d, _ in orbit_rows(params, x0, y0, n_periods)]


def monodromy(params: SystemParams, epsilon: float, n: int = 1) -> Monodromy:
    """Fundamental matrix of the linear system over [0, n*T].

    The one-period matrix M(T) is the exact flow map of the linear
    system (not a linearization), and the coefficients are T-periodic,
    so the n-period matrix is M(T)^n.  The solve carries the columns of
    M alone, over half a period, and ``_full_period`` assembles M(T).
    """
    if not math.isfinite(epsilon):
        raise InvalidInput("epsilon must be finite")
    half, = _hill_points(params, float(epsilon), [0.5 * params.period])
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
