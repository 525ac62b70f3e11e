"""Stroboscopic sections, orbits, monodromy and escapes, mostly without an ODE solve.

The equations of motion are linear in (x, y) with period T = 2 pi/omega,

    dx/dt = y,    dy/dt = -(omega1^2 - 2 eps cos(omega t)) x,

and the conjugate momentum of time, E with dE/dt = -dH/dt, is E = -H(x,
y, t) along every orbit: each row takes it so from its state.

By Floquet theory one period serves every stroboscopic study, and the
driving is even in t, so half a period does: with M(s) the fundamental
matrix and H = M(T/2), M(T) = R H^-1 R H, R = diag(1, -1)
(``_full_period``), and the n-period monodromy is M(T)^n.  H comes from
Hill's determinants (``_half_period``).  With z = omega t/2 the equation
is Mathieu's x'' + (a - 2q cos 2z) x = 0, a = 4 omega1^2/omega^2, q =
4 eps/omega^2; C and S, the even and odd solutions (C(0) = 1, S'(0) =
1), give H = ((C, (2/omega) S), ((omega/2) C', S')) at z = pi/2.  As
entire functions of a, C' vanishes at z = pi/2 exactly on the
characteristic values a_2n(q), S on b_2n+2, C on a_2n+1 and S' on b_2n+1
(DLMF 28.2; Magnus & Winkler, Hill's Equation, ch. 1-2), the eigenvalues
of the four symmetric tridiagonal Hill matrices A(q) (DLMF 28.4).
Hadamard's factorisation of an entire function of order 1/2 by its zeros
then gives f(a; q) = f(a; 0) det(a - A(q)) / det(a - A(0)): both sides
have the same zeros and order, and their ratio tends to 1 as a -> -inf.
The free values f(a; 0) are -sqrt(a) sin(pi sqrt(a)/2), sin(pi
sqrt(a)/2)/sqrt(a), cos(pi sqrt(a)/2) and cos(pi sqrt(a)/2), each a
product over the free diagonal k^2 of A(0), so dividing row k by -k^2
cancels det(a - A(0)) row by row, and no zero of a sine is divided by
(``_hill_factors``; the row k = 0 of C' keeps its free value's factor
a).  Every entry of M(T) = ((h11 h22 + h12 h21, 2 h12 h22), (2 h11 h21,
h11 h22 + h12 h21)) is then a sum or product of determinants (the
diagonal is 1 + 2 h12 h21 when det H = 1).

A Dormand-Prince 8(5,3) method (DOP853, error control at rtol = atol =
1e-12, ``_hill_points``) solves M forward, each sample to its own size,
at the samples strictly inside (0, T) of orbits with two or more samples
per period (``_one_period``), and z(kT + s) = M(s) z(kT).  Sample k of a
one-sample orbit is the section point at t = kT, where nothing is solved.

One loop walks the period grid (``orbit_blocks``).  In the pass that
propagates z it builds the orbit table rows (k, t, x, y, E, d, r) and
yields them in blocks of whole periods, which the CLI writes as they
come, so its memory does not grow with the horizon.  ``integrate_orbit``
is the one list form, the rows as OrbitSamples, and the stroboscopic
section is the one-sample-per-period orbit.  ``escape_diagnostics``
reads rows of either form up to the first one past the escape radius;
the growth rate of an escaped orbit is its Floquet exponent.  The flow
preserves area (Liouville), so det M(T) = 1: the multipliers and exponent
come from tr M(T) alone, never from the entries' det (0 at eps = 1e4).

The stepper also cross-checks the determinants (``analysis._stepped``).
The generic stepper it reproduces bit for bit lives in
``tests/dop853_reference.py``; a Dormand-Prince 5(4) stepper in
``tests/dp5_reference.py``, which still integrates the energy form, is
the independent oracle for M and for E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

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
_MAX_STEPS = 5_000_000  # the budget of one solve's steps and of one table's rows
R_ESCAPE = 1e3  # the radius r = hypot(x, y) past which an orbit has escaped
_BLOCK_ROWS = 1024  # the least rows of an orbit_blocks block (but the last)
_HUGE = 2.0 ** 600  # the rescaling step of Hill's determinant recurrence


def _hill_points(params: SystemParams, epsilon: float, targets: Sequence[float]):
    """The fundamental matrix of x'' = -(omega1^2 - 2 eps cos(omega t)) x.

    The columns (1, 0) and (0, 1) of M share one step; M at each target
    is yielded row-major.

    DOP853 at rtol = ``_RTOL``, atol = ``_ATOL``: Hairer's error norm
    |h| e5 / sqrt(n (e5 + e3 / 100)), e5 and e3 the sums of squares of
    the scaled 5th- and 3rd-order estimates over every x component,
    then every y component, and the step exponent -1/8.  The safety
    factor is 0.75, so a new step aims at err = 0.75^8 = 0.1,
    not the 0.43 of the usual 0.9: at large q, where a row of M(T/2)
    ends small after a large excursion, the trace then keeps as close
    to Hill's determinant as the DP5 kernel's did.  The step is clamped
    to land exactly on each target, and the time stamp is set to the
    target itself, so no landing error accumulates.  w(t) = omega1^2 -
    2 eps cos(omega t) does not depend on the state, so it is evaluated
    once per stage for both columns, each column runs its stages on
    scalars, and the next step's first slope reuses stage 12's w
    (c = 1).  Non-finite stages (an eps so large that the coefficients
    or the solution overflow) end in Unbounded.  A span holding more
    unperturbed oscillations than the step budget has steps raises
    StepFailure before the first step.
    """
    cycles = float(params.omega1) * targets[-1] / (2.0 * math.pi)
    if cycles > _MAX_STEPS:
        raise StepFailure(f"the solve over [0, {targets[-1]:.3g}] spans {cycles:.3g} "
                          f"oscillations of omega1, more than its budget of {_MAX_STEPS} steps")
    om = float(params.omega)
    om1sq = float(params.omega1) ** 2
    two_eps = 2.0 * epsilon
    cos = math.cos
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
    t = 0.0
    w = om1sq - two_eps * cos(om * t)
    # per column of M: x, y and the stage-1 slopes (x', y') = (y, -w x)
    cols = [(x, y, y, -w * x) for x, y in ((1.0, 0.0), (0.0, 1.0))]
    h = min(1e-2 * targets[-1], 0.1)
    steps = 0
    for target in targets:
        while t < target:
            clamped = t + h >= target
            hh = (target - t) if clamped else h
            w2, w3, w4, w5, w6, w7, w8, w9, w10, w11 = [
                om1sq - two_eps * cos(om * (t + c * hh)) for c in nodes]
            w12 = om1sq - two_eps * cos(om * (t + hh))
            new = []
            err5 = err3 = 0.0  # the x terms, then the y terms
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
                q6 = -w6 * (x + hh * (a61 * p1 + a64 * p4 + a65 * p5))
                p7 = y + hh * (a71 * q1 + a74 * q4 + a75 * q5 + a76 * q6)
                q7 = -w7 * (x + hh * (a71 * p1 + a74 * p4 + a75 * p5 + a76 * p6))
                p8 = y + hh * (a81 * q1 + a84 * q4 + a85 * q5 + a86 * q6 + a87 * q7)
                q8 = -w8 * (x + hh * (a81 * p1 + a84 * p4 + a85 * p5 + a86 * p6 + a87 * p7))
                p9 = y + hh * (a91 * q1 + a94 * q4 + a95 * q5 + a96 * q6 + a97 * q7 + a98 * q8)
                q9 = -w9 * (x + hh * (a91 * p1 + a94 * p4 + a95 * p5 + a96 * p6 + a97 * p7
                                      + a98 * p8))
                p10 = y + hh * (a10_1 * q1 + a10_4 * q4 + a10_5 * q5 + a10_6 * q6 + a10_7 * q7
                                + a10_8 * q8 + a10_9 * q9)
                q10 = -w10 * (x + hh * (a10_1 * p1 + a10_4 * p4 + a10_5 * p5 + a10_6 * p6
                                        + a10_7 * p7 + a10_8 * p8 + a10_9 * p9))
                p11 = y + hh * (a11_1 * q1 + a11_4 * q4 + a11_5 * q5 + a11_6 * q6 + a11_7 * q7
                                + a11_8 * q8 + a11_9 * q9 + a11_10 * q10)
                q11 = -w11 * (x + hh * (a11_1 * p1 + a11_4 * p4 + a11_5 * p5 + a11_6 * p6
                                        + a11_7 * p7 + a11_8 * p8 + a11_9 * p9 + a11_10 * p10))
                p12 = y + hh * (a12_1 * q1 + a12_4 * q4 + a12_5 * q5 + a12_6 * q6 + a12_7 * q7
                                + a12_8 * q8 + a12_9 * q9 + a12_10 * q10 + a12_11 * q11)
                q12 = -w12 * (x + hh * (a12_1 * p1 + a12_4 * p4 + a12_5 * p5 + a12_6 * p6
                                        + a12_7 * p7 + a12_8 * p8 + a12_9 * p9 + a12_10 * p10
                                        + a12_11 * p11))
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
            for u, v in ey:
                err5 += u
                err3 += v
            deno = err5 + 0.01 * err3
            err = hh * err5 / math.sqrt(deno * 4) if deno else 0.0
            if err <= 1.0:
                t, cols = (target if clamped else t + hh), new
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
        yield m11, m12, m21, m22


class OrbitSample(NamedTuple):
    """One orbit sample, a row of the orbit table: k is the period index of
    the sample, d = sqrt(omega1^2 x^2 + y^2) and r = hypot(x, y)."""

    k: int
    t: float
    x: float
    y: float
    E: float  # the conjugate momentum of time, -H along the orbit
    d: float
    r: float


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

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return self.m11 * x + self.m12 * y, self.m21 * x + self.m22 * y

    def power(self, n: int) -> Monodromy:
        """The matrix over n times as many periods, M^n, by repeated squaring.

        The bits of n are taken highest first, so every power formed is
        M^m for a leading part m of n: none past M^n can overflow.  The
        products group otherwise than n - 1 sequential ones do, which
        moves the entries by rounding: by 4.5e-14 of the largest entry at
        most for n <= 1000 over eight stable and unstable (omega1, eps).
        """
        if n < 1:
            raise InvalidInput("n must be >= 1")
        product = m = (self.m11, self.m12, self.m21, self.m22)
        for bit in bin(n)[3:]:  # below the highest bit
            product = _product(product, product)
            if bit == "1":
                product = _product(product, m)
        periods = n * self.n
        if not all(map(math.isfinite, (*product, product[0] + product[3]))):  # and tr ~ lambda_big
            raise Unbounded(f"the monodromy over {periods} period{'s' * (periods > 1)} overflows")
        return Monodromy(*product, n=periods)

    def eigenvalues(self) -> tuple[complex, complex]:
        """The roots (tr + s)/2 and (tr - s)/2 of l^2 - tr l + 1, s^2 = tr^2 - 4.

        With tau = tr/2, a real pair takes the root of larger modulus as tau
        + tau sqrt((1 - 1/tau)(1 + 1/tau)), which neither cancels nor
        overflows, and the other as 1 over it.
        """
        tau = self.trace / 2.0
        if abs(tau) < 1.0:
            root = math.sqrt((1.0 - tau) * (1.0 + tau))
            return complex(tau, root), complex(tau, -root)
        big = tau + tau * math.sqrt((1.0 - 1.0 / tau) * (1.0 + 1.0 / tau))
        pair = complex(big), complex(1.0 / big)
        return pair if tau > 0.0 else pair[::-1]


def _product(p: tuple, q: tuple) -> tuple[float, float, float, float]:
    """The 2x2 product p q, both row-major."""
    a, b, c, d = p
    e, f, g, h = q
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _hill_factors(params: SystemParams, eps: float, odd: bool = False) -> tuple[float, ...]:
    """(C'(pi/2), S(pi/2)), or (C(pi/2), S'(pi/2), g_C, g_S') if ``odd``: Hill's
    determinants, and the growth of the odd values' rounding.

    Two of H's entries, by the Hadamard form of the module docstring.
    Row k of the class's Hill matrix, divided by -k^2, has 1 - s^2/u^2 on
    the diagonal (s = omega1/omega, u = k/2 = n, or n + 1/2 if ``odd``)
    and couples to the next by (q^2/16)/(u (u + 1))^2; the first row,
    k = 0 or 1, differs.  D1 and D2, the determinants of the rows n >= 1
    and n >= 2 up to N, come from a recurrence without division, rescaled
    by 2^-+600 whenever it leaves [2^-600, 2^600] (at large q it decays
    far below 1 over the rows past sqrt(q), then grows to the size of H),
    so it leaves float64 only where the value does.  The rows past N enter as a factor: prod (1 - s^2/u^2)
    by Euler-Maclaurin, and the couplings b_u = (q^2/16)/((u^2 - s^2)
    ((u + 1)^2 - s^2)) to first order.  With N = 3s + (C/1e-13)^(1/7),
    C = (s^2 + q^2)/10 + q^4/500, the neglected terms (second order in
    b_u and the next Euler-Maclaurin terms: O(N^-7) at most) stay below
    1e-13 of the value; rounding adds a few 1e-13 at large q.  A value
    may be +-inf.  N past ``_MAX_STEPS`` raises Unbounded where a < |q| (the
    solution grows like exp(0.85 sqrt|q|) within half a period) and
    StepFailure otherwise; neither calls cos or sin.  The first row sums
    two terms into each value; g is their sizes' sum over its size (inf at 0).
    """
    a, q = float(params.mathieu_a), params.mathieu_q(eps)
    s, x, q2 = 0.5 * math.sqrt(a), 0.25 * a, q * q
    qq = q2 / 16.0
    size = 3.0 * s + ((x + q2) * 1e12 + q2 * q2 * 2e10) ** (1 / 7)
    if not size <= _MAX_STEPS:
        if a < abs(q):
            raise Unbounded(f"the solution leaves float64 within half a period at eps = {eps}")
        raise StepFailure(f"half a period spans {0.5 * s:.3g} oscillations of omega1 at q = "
                          f"{q:.3g}: Hill's determinant needs more rows than its budget "
                          f"of {_MAX_STEPS}")
    N, h = math.ceil(size), 0.5 if odd else 0.0
    d1, d2, scale, tiny = 1.0, 0.0, 0, 1.0 / _HUGE
    for n in range(N, 0, -1):
        u = n + h
        d1, d2 = (1.0 - x / (u * u)) * d1 - qq / (u * (u + 1.0)) ** 2 * d2, d1
        if not tiny < abs(d1) < _HUGE:
            if abs(d1) >= _HUGE:
                d1, d2, scale = d1 * tiny, d2 * tiny, scale + 1
            elif abs(d2) <= tiny:  # both small: decaying, not crossing zero
                d1, d2, scale = d1 * _HUGE, d2 * _HUGE, scale - 1
    # sum over the rows past N of g(u) = log(1 - x/u^2): its integral from
    # L = N + h + 1/2 plus the midpoint corrections at L, g'/24 - 7 g'''/5760
    # + 31 g^(5)/967680
    u = N + h
    L = u + 0.5
    g1 = 2.0 * x / (L * (L * L - x))
    g3 = 2.0 / (L - s) ** 3 + 2.0 / (L + s) ** 3 - 4.0 / L ** 3
    g5 = 24.0 / (L - s) ** 5 + 24.0 / (L + s) ** 5 - 48.0 / L ** 5
    diag = (-L * math.log1p(-x / (L * L)) - 2.0 * s * math.atanh(s / L) + g1 / 24
            - 7 * g3 / 5760 + 31 * g5 / 967680)
    # sum from row N on of b_u/qq = F(u + 1/2), F(v) = 1/((v^2 - al^2)(v^2 - be^2)):
    # its integral from u = N + h, by partial fractions, plus F'(u)/24
    al, be = s + 0.5, abs(s - 0.5)
    p, r = u * u - al * al, u * u - be * be
    coupling = ((math.atanh(al / u) / al - (math.atanh(be / u) / be if be else 1.0 / u)) / (2.0 * s)
                - u * (p + r) / (12.0 * (p * r) ** 2))
    tail = math.exp(diag - qq * coupling)
    if odd:  # row k = 1 holds 1 +- q - a and couples to row 3 by q^2/9
        plus, minus, coupled = (1.0 + q - a) * d1, (1.0 - q - a) * d1, q2 / 9.0 * d2
        first, second = plus - coupled, minus - coupled
        growth = [(abs(t) + abs(coupled)) / abs(v) if v else math.inf
                  for t, v in ((plus, first), (minus, second))]
    else:  # row k = 0, not divided, holds a and couples to row 2 by q^2/2
        tail *= 0.5 * math.pi
        first, second, growth = -(a * d1 + 8.0 * qq * d2), d1, ()
    first, second = first * tail, second * tail
    factor = _HUGE if scale > 0 else tiny
    for _ in range(abs(scale)):  # powers of two: exact, or +-inf or 0 past float64
        first, second = first * factor, second * factor
    return first, second, *growth


def _half_period(params: SystemParams, eps: float) -> tuple[float, float, float, float]:
    """H = M(T/2) = ((C, (2/omega) S), ((omega/2) C', S')) at z = pi/2, row-major.

    det H = 1 gives h11 = (1 + h12 h21)/h22 too, whose rounding grows by
    (1 + |h12 h21|)/|h11 h22| + g_S' (g of ``_hill_factors``) on entries
    with up to 1e-13 of truncation: it is taken where g_C is over 1000 times
    that (C cancels by 3.8e4 at q = 104), never at a zero of S' or h11 h22.
    """
    c_prime, s = _hill_factors(params, eps)
    c, s_prime, grows_c, grows_s = _hill_factors(params, eps, odd=True)
    om = float(params.omega)
    h12, h21 = 2.0 * s / om, 0.5 * om * c_prime
    product = 1.0 + h12 * h21  # h11 h22
    if product and grows_c > 1e3 * ((1.0 + abs(h12 * h21)) / abs(product) + grows_s):
        c = product / s_prime
    return c, h12, h21, s_prime


def _full_period(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """M(T) row-major from H = M(T/2) = ((a, b), (c, d)).

    w(t) is even, so M(-u) = R M(u) R with R = diag(1, -1), and the flow
    over [T/2, T] is R H^-1 R: M(T) = R H^-1 R H, which det H = 1 makes
    ((ad + bc, 2bd), (2ac, ad + bc)) (Magnus & Winkler, Hill's Equation).
    """
    diag = a * d + b * c
    return diag, 2.0 * b * d, 2.0 * a * c, diag


def _one_period(params: SystemParams, eps: float, samples_per_period: int) -> list[tuple]:
    """(m11, m12, m21, m22, g) at s_j = (j/spp) * T, j = 1..spp, g = eps cos(omega
    s_j) - omega1^2/2, so that E = g x^2 - y^2/2 = -H at s_j.  M(T) comes from
    Hill's determinants, first, so a period they refuse takes no step; DOP853
    solves M forward at the s_j strictly inside (0, T), each to its own size.
    """
    spp, T = samples_per_period, params.period
    last = _full_period(*_half_period(params, eps))
    inner = [(j / spp) * T for j in range(1, spp)]
    grid = [*(_hill_points(params, eps, inner) if inner else ()), last]
    g0 = 0.5 * float(params.omega1) ** 2
    return [(*m, eps * math.cos(2.0 * math.pi * j / spp) - g0) for j, m in enumerate(grid, 1)]


def orbit_blocks(params: SystemParams, x0: float, y0: float, n_periods: int,
                 samples_per_period: int = 1) -> Iterator[list[tuple]]:
    """The orbit table over n periods, rows (k, t, x, y, E, d, r), in blocks
    of whole periods, each but the last of at least ``_BLOCK_ROWS`` rows.

    The one loop over the period grid: row i = 0..n spp is the sample at t
    = (i/spp) T, hitting the section times t = kT exactly, with k = i //
    spp, d = sqrt(omega1^2 x^2 + y^2), r = hypot(x, y) and E = -H(x, y, t),
    from ``_one_period``'s g.  The checks (InvalidInput for the origin, a fixed
    point, for an E(0) that overflows or n spp past the ``_MAX_STEPS``
    budget) and ``_one_period`` run at the call; Unbounded comes
    when the iteration reaches the period that overflows.  The rows are
    plain tuples: an OrbitSample per row would cost a quarter of the loop.
    """
    if n_periods < 1 or samples_per_period < 1:
        raise InvalidInput("n_periods and samples_per_period must be >= 1")
    if n_periods * samples_per_period > _MAX_STEPS:
        raise InvalidInput(f"the horizon needs more than the budget of {_MAX_STEPS} rows "
                           "(periods times samples per period)")
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise InvalidInput("the initial condition must be finite")
    if x0 == 0.0 and y0 == 0.0:
        raise InvalidInput("the initial condition is the origin, a fixed point: "
                           "its orbit is (0, 0) at every time")
    e = -params.hamiltonian(x0, y0, 0.0)
    if not math.isfinite(e):
        raise InvalidInput(f"the initial energy -H(x0, y0, 0) = {e}: the start is too large")
    grid = _one_period(params, params.epsilon, samples_per_period)

    def blocks(x, y, spp=samples_per_period):
        T = params.period
        om1 = float(params.omega1)
        om1sq = om1 * om1  # as trajectory_rows forms it, so d agrees bit for bit
        sqrt, hypot, isfinite = math.sqrt, math.hypot, math.isfinite
        per_block = -(-_BLOCK_ROWS // spp)
        rows = [(0, 0.0, x, y, e, sqrt(om1sq * x * x + y * y), hypot(x, y))]
        i = 0
        for start in range(0, n_periods, per_block):
            append = rows.append
            for k in range(start, min(start + per_block, n_periods)):
                for m11, m12, m21, m22, g in grid:
                    i += 1
                    u, v = m11 * x + m12 * y, m21 * x + m22 * y
                    energy = g * u * u - 0.5 * v * v
                    # E is quadratic in the state, so it is the first to overflow;
                    # its terms may overflow where E does not: take them at 2^-512
                    if not isfinite(energy):
                        a, b = u * 2.0 ** -256, v * 2.0 ** -256
                        energy = (g * a * a - 0.5 * b * b) * 2.0 ** 512
                        if not isfinite(energy):
                            raise Unbounded(f"the state overflows in period {k + 1}; "
                                            "the orbit is unbounded")
                    append((i // spp, (i / spp) * T, u, v, energy,
                            sqrt(om1sq * u * u + v * v), hypot(u, v)))
                x, y = u, v
            yield rows
            rows = []

    return blocks(x0, y0)


def integrate_orbit(params: SystemParams, x0: float, y0: float, n_periods: int,
                    samples_per_period: int = 1) -> list[OrbitSample]:
    """Propagate the extended system over n periods: the rows of ``orbit_blocks``
    in one list, as OrbitSamples (k, t, x, y, E, d, r), with its checks and errors."""
    sample = tuple.__new__
    return [sample(OrbitSample, row)
            for block in orbit_blocks(params, x0, y0, n_periods, samples_per_period)
            for row in block]


def stroboscopic_section(params: SystemParams, x0: float, y0: float,
                         n_periods: int) -> list[OrbitSample]:
    """Section points t = kT, k = 0..n_periods, of the orbit from (x0, y0):
    the one-sample-per-period orbit."""
    return integrate_orbit(params, x0, y0, n_periods)


def monodromy(params: SystemParams, epsilon: float, n: int = 1) -> Monodromy:
    """Fundamental matrix of the linear system over [0, n*T].

    The one-period matrix M(T) is the exact flow map of the linear
    system (not a linearization), and the coefficients are T-periodic,
    so the n-period matrix is M(T)^n.  ``_full_period`` assembles M(T)
    from Hill's determinants (``_half_period``); nothing is solved.
    """
    if not math.isfinite(epsilon):
        raise InvalidInput("epsilon must be finite")
    return Monodromy(*_full_period(*_half_period(params, float(epsilon))), n=1).power(n)


@dataclass(frozen=True)
class EscapeReport:
    """Escape verdict, and the growth rate of an orbit that escaped."""

    escaped: bool
    k_escape: int | None
    growth_rate: float | None


def escape_diagnostics(params: SystemParams, section: Iterable[Sequence],
                       r_escape: float = R_ESCAPE) -> EscapeReport:
    """Escape test of an orbit's rows (k, t, x, y, E, d, r) or OrbitSamples.

    The rows are read by position, up to the first whose r exceeds
    ``r_escape``: the orbit escaped there, at period index k_escape.  The
    growth rate of an escaped orbit is the Floquet exponent log|lambda_1|/T
    = arccosh(|tr|/2)/T of monodromy(params, params.epsilon) (det M = 1),
    0 where |tr| <= 2: the rate of log r once the orbit follows the
    unstable direction (Magnus & Winkler, Hill's Equation, ch. 1).
    """
    if not 0.0 < r_escape < math.inf:
        raise InvalidInput(f"the escape radius must be positive and finite, got {r_escape}")
    empty = True
    for row in section:
        if row[6] > r_escape:
            half_trace = abs(monodromy(params, params.epsilon).trace) / 2.0
            return EscapeReport(True, row[0], math.acosh(max(1.0, half_trace)) / params.period)
        empty = False
    if empty:
        raise InvalidInput("escape_diagnostics needs a non-empty section")
    return EscapeReport(False, None, None)
