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

Inside a period a Taylor stepper (``_hill_points``) solves M forward at
the samples strictly inside (0, T) of orbits with two or more samples per
period (``_one_period``), and z(kT + s) = M(s) z(kT).  The equation is
linear with an entire coefficient, so each step's series is an exact
recurrence, summed to a term count bounded a priori: no error estimate,
no rejected step, and equal steps, set by the last sample before the
first, off whose series every sample is read.  Sample k of a one-sample
orbit is the section point at t = kT, where nothing is solved.

One loop walks the period grid (``orbit_blocks``).  In the pass that
propagates z it builds the orbit table rows (k, t, x, y, E, d, r) and
yields them in blocks of whole periods, which ``output`` writes as they
come, so its memory does not grow with the horizon; the same loop also runs
from a later period, whose state the one-period map alone gives
(``OrbitBlocks.split``: the writer's second process starts there).  ``integrate_orbit``
is the one list form, the rows as OrbitSamples, and the stroboscopic
section is the one-sample-per-period orbit.  ``escape_diagnostics``
reads rows of either form up to the first one past the escape radius;
the growth rate of an escaped orbit is its Floquet exponent.  The flow
preserves area (Liouville), so det M(T) = 1: the multipliers and exponent
come from tr M(T) alone, never from the entries' det (0 at eps = 1e4).

The stepper also checks find_periodic_orbit's closures (``analysis._stepped``).
A Dormand-Prince 5(4) stepper in ``tests/dp5_reference.py``, which still
integrates the energy form, is the independent oracle for M and for E.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .builder import SystemParams
from .errors import InvalidInput, StepFailure, Unbounded
from .trigseries import _Value

_RHO = 1.5  # a Taylor step's h times the fastest rate of the flow, at most
_MAX_STEPS = 5_000_000  # the budget of one solve's steps and of one table's rows
R_ESCAPE = 1e3  # the radius r = hypot(x, y) past which an orbit has escaped
_BLOCK_ROWS = 1024  # the least rows of an orbit_blocks block (but the last)
_HUGE = 2.0 ** 600  # the rescaling step of Hill's determinant recurrence and of d
_D_MIN = 2.0 ** -511  # below it, d's squares leave float64's normal range
_LOG_MAX = 1024 * math.log(2.0)  # float64's largest value is below e^709.78
_TOL = 2.0 ** -53  # a Taylor step's tail against its start: float64's rounding


def _term_count(a: float, b: float, c: float) -> int:
    """The terms of a step's series whose tail is below ``_TOL`` of its start.

    a = h^2 omega1^2, b = 2 |eps| h^2 and c = h omega bound the recurrence's
    coefficients by a + b and b c^k/k!, so |X_n| <= m_n max(|X_0|, |X_1|), m the
    positive series of u'' = (a + b e^(c s)) u, u(0) = u'(0) = 1; N >= 3 is the
    least with sum n m_n, n >= N, below ``_TOL`` (a bound on x's tail and h y's
    whatever the signs).  It grows with h: the largest step's serves every step.
    """
    u, m, cutoff = [a + b, b * c], [1.0, 1.0], _TOL * 2.0 ** -17
    while len(m) * m[-1] >= cutoff:  # the tail past m stays far below _TOL
        n = len(m) - 2
        m.append(sum(map(operator.mul, u, m[n::-1])) / ((n + 1) * (n + 2)))
        u.append(u[-1] * c / len(u))
    tails = accumulate(n * m[n] for n in reversed(range(3, len(m))))
    return len(m) - sum(tail <= _TOL for tail in tails)


def _hill_points(params: SystemParams, epsilon: float, targets: Sequence[float]):
    """The fundamental matrix of x'' = -w(t) x, w(t) = omega1^2 - 2 eps cos(omega t).

    M at each target (ascending from 0) is yielded row-major.  [0, t], t the last target,
    is cut into equal steps, h <= ``_RHO``/max(sqrt(omega1^2 + 2|eps|), omega), counted
    against ``_MAX_STEPS`` before the first.  With t = t0 + h s over a step, w's Taylor
    coefficients are closed-form from one cos and one sin at t0: h^k W_k = -2 eps (h
    omega)^k/k! cos(omega t0 + k pi/2) (+ omega1^2 at k = 0), and x = sum X_n s^n solves
    (n + 1)(n + 2) X_{n+2} = -h^2 sum_k h^k W_k X_{n-k} (Jorba & Zou, Exp. Math. 14,
    2005) for both columns at once, summed with x' to ``_term_count`` terms at each
    target in the step and at s = 1, which starts the next.  Each step's tail stays
    below ``_TOL`` of its start.  A state past float64 is Unbounded.
    """
    om, om1sq, two_eps = float(params.omega), float(params.omega1) ** 2, 2.0 * epsilon
    t = targets[-1] if targets else 0.0
    rate = max(math.sqrt(om1sq + abs(two_eps)), om) / _RHO  # steps per unit time
    steps = math.ceil(t * rate) if t * rate < math.inf else math.inf
    if steps > _MAX_STEPS:
        raise StepFailure(f"the solve over [0, {t:.3g}] takes {steps:.3g} steps, more than "
                          f"its budget of {_MAX_STEPS}")
    h = t / steps if steps else 0.0
    count = _term_count(h * h * om1sq, abs(two_eps) * h * h, h * om)
    p = [-two_eps * h * h * (h * om) ** k / math.factorial(k) for k in range(count - 2)]
    cos, sin, mul, isfinite = math.cos, math.sin, operator.mul, cmath.isfinite
    x, y, j = 1.0 + 0.0j, 1.0j, 0  # the columns (1, 0) and (0, 1) of M; the next target
    for i in range(steps):
        theta = om * (i * h)
        c, s = complex(cos(theta)), complex(sin(theta))  # complex products are quicker
        turn = (c, -s, -c, s)  # cos(theta + k pi/2) by k mod 4
        v = [h * h * om1sq + p[0] * c, *(p[k] * turn[k & 3] for k in range(1, len(p)))]
        terms = [x, h * y]
        for k in range(count - 2):
            terms.append(-sum(map(mul, v, terms[k::-1])) / ((k + 1) * (k + 2)))
        while j < len(targets) and targets[j] < min((i + 1) * h, t):  # at s = u in [0, 1)
            u, z, dz = (targets[j] - i * h) / h, terms[-1], 0j
            for term in terms[-2::-1]:  # x and h x' by Horner's rule, at once
                z, dz = z * u + term, dz * u + z
            yield z.real, z.imag, dz.real / h, dz.imag / h
            j += 1
        x, y = sum(reversed(terms)), sum(map(mul, range(count), terms)) / h
        if not (isfinite(x) and isfinite(y)):
            raise Unbounded(f"the solution leaves float64 at t = {(i + 1) * h}")
    yield from [(x.real, x.imag, y.real, y.imag)] * (len(targets) - j)  # those at t


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


class Monodromy(_Value):
    """Fundamental-solution matrix of the linear flow over n periods."""

    __slots__ = ("m11", "m12", "m21", "m22", "n")

    def __init__(self, m11: float, m12: float, m21: float, m22: float, n: int):
        self._set(m11, m12, m21, m22, n)

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
    so it leaves float64 only where the value does.  The rows past N enter as a factor, its
    exponent rescaled alike: prod (1 - s^2/u^2) by Euler-Maclaurin, and the couplings b_u =
    (q^2/16)/((u^2 - s^2) ((u + 1)^2 - s^2)) to first order.  With N = 3s + (C/1e-13)^(1/7),
    C = (s^2 + q^2)/10 + q^4/500, the neglected terms (second order in
    b_u and the next Euler-Maclaurin terms: O(N^-7) at most) stay below
    1e-13 of the value; rounding adds a few 1e-13 at large q.  A value
    may be +-inf.  Where 2|q| cos 2z > a, C and S' grow by exp of the integral of
    sqrt(2|q| cos 2z - a) (WKB), at least G = 0.8472 sqrt|q| - (pi/4) sqrt(a); log
    max(|C|, |S'|) fell at most 0.23 below G over q from 1 to 3e6 and a from 0 to
    1.15|q|, both signs.  Where G - 1 passes log 2^1024 (|q| = 7.06e5 at a = 0.81, where
    H leaves float64 at 6.88e5) Unbounded is raised before the first row, as it is
    wherever a < |q| and N passes ``_MAX_STEPS``; any other N past it raises
    StepFailure.  Neither calls cos or sin.  The first row sums two terms into each
    value; g is their sizes' sum over its size (inf at 0).
    """
    a, q = float(params.mathieu_a), params.mathieu_q(eps)
    s, x, q2 = 0.5 * math.sqrt(a), 0.25 * a, q * q
    if 0.847 * math.sqrt(abs(q)) - 0.5 * math.pi * s - 1.0 > _LOG_MAX:
        raise Unbounded(f"the solution leaves float64 within half a period at eps = {eps}")
    qq = q2 / 16.0
    size = 3.0 * s + ((x + q2) * 1e12 + q2 * q2 * 2e10) ** (1 / 7)
    if not size <= _MAX_STEPS:
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
    log_tail = diag - qq * coupling  # about -s/3 at large s: its exp underflows past s = 2240
    shift = round(log_tail / math.log(_HUGE))  # whole powers of _HUGE join the rescaling
    tail, scale = math.exp(log_tail - shift * math.log(_HUGE)), scale + shift
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
    Hill's determinants, first, so a period they refuse takes no step; the
    Taylor stepper solves M forward at the s_j strictly inside (0, T).
    """
    spp, T = samples_per_period, params.period
    last = _full_period(*_half_period(params, eps))
    inner = [(j / spp) * T for j in range(1, spp)]
    grid = [*_hill_points(params, eps, inner), last]
    g0 = 0.5 * float(params.omega1) ** 2
    return [(*m, eps * math.cos(2.0 * math.pi * j / spp) - g0) for j, m in enumerate(grid, 1)]


class OrbitBlocks:
    """The blocks of ``orbit_blocks`` as an iterator, its number of rows (len), and the
    same table split in two (``split``), each part made without the rows of the other."""

    def __init__(self, blocks: Callable[[int, int], Iterator[list[tuple]]], spp: int, n: int):
        self._blocks, self._spp, self._n, self._all = blocks, spp, n, blocks(0, n)

    def __iter__(self) -> OrbitBlocks:
        return self

    def __len__(self) -> int:
        return self._n * self._spp + 1

    def __next__(self) -> list[tuple]:
        return next(self._all)

    def split(self, row: int) -> tuple[int, Iterator[list[tuple]], Iterator[list[tuple]]]:
        """(h, the blocks of rows 0 to h - 1, those of rows h, h + 1, ...) for h = p spp
        + 1, the first row of period p, the last period to start by ``row`` (p >= 1).
        The tail's state at t = pT is the start's times M(T) p times, the products the
        row loop makes at each period's end, so each row is bit for bit the whole table's."""
        p = max(1, (row - 1) // self._spp)
        return p * self._spp + 1, self._blocks(0, p), self._blocks(p, self._n)


def _distance(om1: float, x: float, y: float) -> float:
    """d = sqrt(om1^2 x^2 + y^2), at 2^+-600 where its squares leave the normal range."""
    d = math.sqrt(om1 * om1 * x * x + y * y)
    if not _D_MIN <= d < math.inf:
        s = _HUGE if d < 1.0 else 1.0 / _HUGE
        d = math.sqrt(om1 * om1 * (x * s) * (x * s) + (y * s) * (y * s)) / s
    return d


def _check_start(x0: float, y0: float):
    """InvalidInput for a start that is not finite or is the origin, a fixed point."""
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise InvalidInput("the initial condition must be finite")
    if x0 == 0.0 and y0 == 0.0:
        raise InvalidInput("the initial condition is the origin, a fixed point: "
                           "its orbit is (0, 0) at every time")


def orbit_blocks(params: SystemParams, x0: float, y0: float, n_periods: int,
                 samples_per_period: int = 1) -> OrbitBlocks:
    """The orbit table over n periods, rows (k, t, x, y, E, d, r), in blocks
    of whole periods, each but the last of at least ``_BLOCK_ROWS`` rows.

    The one loop over the period grid: row i = 0..n spp is the sample at t = (i/spp) T,
    hitting the section times t = kT exactly, with k = i // spp, d = sqrt(omega1^2 x^2 +
    y^2) (``_distance`` where its squares leave the normal range), r = hypot(x, y) and E =
    -H(x, y, t), from ``_one_period``'s g.  The checks (InvalidInput for the origin, a
    fixed point, for an E(0) that overflows or n spp past the ``_MAX_STEPS`` budget) and
    ``_one_period`` run at the call; Unbounded comes when the iteration reaches the period
    that overflows.  The rows are plain tuples of an int and six floats: an OrbitSample per
    row would cost a quarter of the loop.  ``OrbitBlocks.split`` runs the same loop over a
    head and a tail of the periods.
    """
    if n_periods < 1 or samples_per_period < 1:
        raise InvalidInput("n_periods and samples_per_period must be >= 1")
    if n_periods * samples_per_period > _MAX_STEPS:
        raise InvalidInput(f"the horizon needs more than the budget of {_MAX_STEPS} rows "
                           "(periods times samples per period)")
    _check_start(x0, y0)
    e = -params.hamiltonian(x0, y0, 0.0)
    if not math.isfinite(e):
        raise InvalidInput(f"the initial energy -H(x0, y0, 0) = {e}: the start is too large")
    grid = _one_period(params, params.epsilon, samples_per_period)

    def blocks(first, last, spp=samples_per_period):  # periods first to last - 1
        T = params.period
        om1 = float(params.omega1)
        om1sq = om1 * om1
        sqrt, hypot, isfinite, tiny = math.sqrt, math.hypot, math.isfinite, _D_MIN
        per_block = -(-_BLOCK_ROWS // spp)
        x, y = float(x0), float(y0)  # every row an int and six floats
        t11, t12, t21, t22, _ = grid[-1]  # M(T)
        for _ in range(first):  # the products the loop makes at each period's end
            x, y = t11 * x + t12 * y, t21 * x + t22 * y
        rows = [] if first else [(0, 0.0, x, y, e, _distance(om1, x, y), hypot(x, y))]
        i = first * spp
        for start in range(first, last, per_block):
            append = rows.append
            for k in range(start, min(start + per_block, last)):
                for m11, m12, m21, m22, g in grid:
                    i += 1
                    u, v = m11 * x + m12 * y, m21 * x + m22 * y
                    energy = g * u * u - 0.5 * v * v
                    d = sqrt(om1sq * u * u + v * v)
                    if not (isfinite(energy + d) and d >= tiny):
                        d = _distance(om1, u, v)
                        if not isfinite(energy):  # its terms may overflow where it does not
                            a, b = u * 2.0 ** -256, v * 2.0 ** -256
                            energy = (g * a * a - 0.5 * b * b) * 2.0 ** 512
                            if not isfinite(energy):
                                raise Unbounded(f"the state overflows in period {k + 1}; "
                                                "the orbit is unbounded")
                    append((i // spp, (i / spp) * T, u, v, energy, d, hypot(u, v)))
                x, y = u, v
            yield rows
            rows = []

    return OrbitBlocks(blocks, samples_per_period, n_periods)


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


class EscapeReport(_Value):
    """Escape verdict, and the growth rate of an orbit that escaped."""

    __slots__ = ("escaped", "k_escape", "growth_rate")

    def __init__(self, escaped: bool, k_escape: int | None, growth_rate: float | None):
        self._set(escaped, k_escape, growth_rate)


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
