"""Construction of formal (truncated-series) integrals of motion.

The system is the driven oscillator

    H = H0 + eps*H1,   H0 = (y^2 + omega1^2 x^2)/2,   H1 = -x^2 cos(omega t)

whose equations of motion are a Mathieu equation.  A formal integral
``Phi = Phi_0 + eps Phi_1 + ... + eps^S Phi_S`` is produced order by
order: each new order is the time integral, along the unperturbed flow,
of ``K_s = -[Phi_s, H1]``,

    Phi_{s+1} = int_0^t K_s dt,

evaluated by substituting the zero-order solution

    x = sqrt(2 Phi_0)/omega1 * sin(omega1 (t - t0)),
    y = sqrt(2 Phi_0)   * cos(omega1 (t - t0)),

and converting the result back to a quadratic form in (x^2, y^2, xy)
with coefficients that are trigonometric polynomials in multiples of
omega*t.  Every order is homogeneous quadratic, so the substitution is
run at unit amplitude 2*Phi_0 = 1 and homogeneity is restored during
back-substitution; this avoids carrying a symbolic radical.

The phase offset t0 enters only through the generators
c0 = cos(2 omega1 t0), s0 = sin(2 omega1 t0).  The recursion runs in one
of two modes, switched by ``resonant``: the non-resonant build runs
unphased with secular terms forbidden, the resonant construction phased
with secular powers of t kept.

Each step is a fixed linear map on the harmonic coefficients.
``recursion_step`` applies it in closed form to a ``Form``, one order as
integer numerators over one denominator (converters ``to_form`` and
``from_form``); the composition of ``poisson_bracket_with_h1``,
``substitute_zero_order``, ``TrigSeries.integrate`` and
``back_substitute`` computes the same step in TrigSeries arithmetic and
is kept as its reference.

A built order is ``from_form`` of its ``Form``: its series keep those
integers, as every TrigSeries stores its coefficients.
``FormalIntegral.json_document`` hands the orders to ``output.json_chunks``,
which reduces each coefficient by one gcd as it writes that order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import InvalidInput, MalformedSpectrum, ResonanceDetected, SecularTerm
from .trigseries import (COS, SIN, FrequencyBase, TrigSeries, _evaluate_table,
                         _float_table, _reduce_generators, _Value, as_rational)


class SystemParams(_Value):
    """System parameters: driving frequency, unperturbed frequency, strength.

    ``omega`` and ``omega1`` are exact rationals (they feed the symbolic
    layer); ``epsilon`` is a float used only at evaluation time.  In
    Mathieu normalization the system corresponds to a = 4*omega1^2/omega^2
    and q = 4*epsilon/omega^2; omega, omega1, a and 4/omega^2 must be
    nonzero finite floats.
    """

    __slots__ = ("omega", "omega1", "epsilon", "__dict__")

    def __init__(self, omega: Fraction, omega1: Fraction, epsilon: float = 0.0):
        self._set(as_rational(omega), as_rational(omega1), epsilon)
        if self.omega <= 0 or self.omega1 <= 0:
            raise InvalidInput("omega and omega1 must be positive")
        if not math.isfinite(self.epsilon):
            raise InvalidInput("epsilon must be finite")
        values = []
        for exact in (self.omega, self.omega1, self.mathieu_a):
            try:
                values.append(float(exact))
            except OverflowError:
                values.append(math.inf)
        square = values[0] * values[0]
        values.append(4.0 / square if square else math.inf)
        for name, value in zip(("omega", "omega1", "a = 4 omega1^2/omega^2", "4/omega^2"),
                               values):
            if not 0.0 < value < math.inf:
                raise InvalidInput(f"{name} is {value} as a float; the numeric layer "
                                   "needs it nonzero and finite")

    @property
    def base(self) -> FrequencyBase:
        return FrequencyBase(self.omega, self.omega1)

    @property
    def period(self) -> float:
        """Driving period T = 2*pi/omega."""
        return 2.0 * math.pi / float(self.omega)

    @cached_property
    def mathieu_a(self) -> Fraction:
        """a = 4 omega1^2/omega^2, built once per params (the Hill trace reads it per eps)."""
        return 4 * self.omega1 ** 2 / self.omega ** 2

    def mathieu_q(self, epsilon: float) -> float:
        return 4.0 * epsilon / float(self.omega) ** 2

    def hamiltonian(self, x: float, y: float, t: float) -> float:
        eps, om1 = self.epsilon, float(self.omega1)
        return 0.5 * (y * y + om1 * om1 * x * x) - eps * x * x * math.cos(float(self.omega) * t)


class QuadFormSeries(_Value):
    """Quadratic form cxx*x^2 + cyy*y^2 + cxy*xy with TrigSeries coefficients.

    The coefficients are envelopes in the driving frequency alone
    (m = 0 lattice terms); the omega1 content of the motion lives in the
    (x, y) variables themselves.
    """

    __slots__ = ("cxx", "cyy", "cxy", "__dict__")

    def __init__(self, cxx: TrigSeries, cyy: TrigSeries, cxy: TrigSeries):
        self._set(cxx, cyy, cxy)
        if not (self.cxx.base == self.cyy.base == self.cxy.base):
            raise ValueError("coefficient series live over different bases")
        for series in (self.cxx, self.cyy, self.cxy):
            if series.m_values() - {0}:
                raise ValueError("quadratic-form coefficients must be pure "
                                 "driving-frequency envelopes (m = 0)")

    @property
    def base(self) -> FrequencyBase:
        return self.cxx.base

    @classmethod
    def constant(cls, base: FrequencyBase, cxx, cyy, cxy) -> "QuadFormSeries":
        return cls(TrigSeries.constant(base, cxx),
                   TrigSeries.constant(base, cyy),
                   TrigSeries.constant(base, cxy))

    def __add__(self, other: "QuadFormSeries") -> "QuadFormSeries":
        return QuadFormSeries(self.cxx + other.cxx, self.cyy + other.cyy, self.cxy + other.cxy)

    def __sub__(self, other: "QuadFormSeries") -> "QuadFormSeries":
        return QuadFormSeries(self.cxx - other.cxx, self.cyy - other.cyy, self.cxy - other.cxy)

    def __neg__(self) -> "QuadFormSeries":
        return QuadFormSeries(-self.cxx, -self.cyy, -self.cxy)

    def scale(self, factor) -> "QuadFormSeries":
        return QuadFormSeries(self.cxx.scale(factor), self.cyy.scale(factor), self.cxy.scale(factor))

    @property
    def is_zero(self) -> bool:
        return self.cxx.is_zero and self.cyy.is_zero and self.cxy.is_zero

    def secular_part(self) -> "QuadFormSeries":
        return QuadFormSeries(self.cxx.secular_part(), self.cyy.secular_part(), self.cxy.secular_part())

    def max_secular_degree(self) -> int:
        return max(self.cxx.max_secular_degree(), self.cyy.max_secular_degree(),
                   self.cxy.max_secular_degree())

    def max_harmonic(self) -> int:
        return max(self.cxx.max_harmonic(), self.cyy.max_harmonic(), self.cxy.max_harmonic())

    @cached_property
    def _tables(self) -> tuple[list, list, list]:
        """Float tables of (cxx, cyy, cxy), converted on first numeric use."""
        return _float_table(self.cxx), _float_table(self.cyy), _float_table(self.cxy)

    @cached_property
    def _sums_at_zero(self) -> dict:
        """The three tables summed at t = 0, per (c0, s0); see ``conic_at_section``."""
        return {}

    def evaluate(self, x: float, y: float, t: float, c0: float = 1.0, s0: float = 0.0) -> float:
        xx, yy, xy = self._tables
        return (_evaluate_table(xx, t, c0, s0) * x * x
                + _evaluate_table(yy, t, c0, s0) * y * y
                + _evaluate_table(xy, t, c0, s0) * x * y)

    def value_at_zero(self) -> tuple[Fraction, Fraction, Fraction]:
        """Exact (cxx, cyy, cxy) at t = 0 for generator-free coefficients."""
        return (self.cxx.constant_at_zero(), self.cyy.constant_at_zero(),
                self.cxy.constant_at_zero())

    def to_json_obj(self) -> dict:
        return {"x2": self.cxx.to_json_terms(),
                "y2": self.cyy.to_json_terms(),
                "xy": self.cxy.to_json_terms()}

    def pretty(self) -> str:
        return (f"x^2: {self.cxx.pretty()}\n"
                f"y^2: {self.cyy.pretty()}\n"
                f"xy : {self.cxy.pretty()}")


def h0_form(params: SystemParams) -> QuadFormSeries:
    """H0 = (omega1^2/2) x^2 + (1/2) y^2 as a quadratic form."""
    return QuadFormSeries.constant(params.base, params.omega1 ** 2 / 2, Fraction(1, 2), 0)


def h1_form(params: SystemParams) -> QuadFormSeries:
    """H1 = -x^2 cos(omega t) as a quadratic form."""
    base = params.base
    return QuadFormSeries(TrigSeries.harmonic(base, -1, k=1, m=0, phase=COS),
                          TrigSeries.zero(base), TrigSeries.zero(base))


def poisson_bracket_with_h1(params: SystemParams, f: QuadFormSeries) -> QuadFormSeries:
    """K = -[f, H1] for H1 = -x^2 cos(omega t).

    With the bracket convention [f, H] = df/dx dH/dy - df/dy dH/dx and
    dH1/dy = 0 this collapses to K = -2 x cos(omega t) df/dy, which
    stays quadratic: the x^2 coefficient gains -2 cos(omega t) * cxy and
    the xy coefficient gains -4 cos(omega t) * cyy.
    """
    base = params.base
    env = TrigSeries.harmonic(base, -2, k=1, m=0, phase=COS)  # -2 cos(omega t)
    return QuadFormSeries(env * f.cxy, TrigSeries.zero(base), (env * f.cyy).scale(2))


def substitute_zero_order(params: SystemParams, f: QuadFormSeries, phased: bool = False) -> TrigSeries:
    """Evaluate a quadratic form on the zero-order orbit at unit amplitude.

    With 2*Phi_0 = 1 and psi = omega1*(t - t0):

        x^2 -> (1 - cos 2psi) / (2 omega1^2)
        y^2 -> (1 + cos 2psi) / 2
        xy  -> sin 2psi / (2 omega1)

    Unphased (t0 = 0) the 2psi harmonics are plain (0, +-2) lattice
    terms; phased they expand through the generators c0, s0.
    """
    base = params.base
    om1 = params.omega1
    if phased:
        # cos 2psi = c0 cos(2 w1 t) + s0 sin(2 w1 t); sin 2psi = c0 sin(2 w1 t) - s0 cos(2 w1 t)
        cos2psi = (TrigSeries.harmonic(base, 1, k=0, m=2, phase=COS, c0_pow=1)
                   + TrigSeries.harmonic(base, 1, k=0, m=2, phase=SIN, s0_pow=1))
        sin2psi = (TrigSeries.harmonic(base, 1, k=0, m=2, phase=SIN, c0_pow=1)
                   - TrigSeries.harmonic(base, 1, k=0, m=2, phase=COS, s0_pow=1))
    else:
        cos2psi = TrigSeries.harmonic(base, 1, k=0, m=2, phase=COS)
        sin2psi = TrigSeries.harmonic(base, 1, k=0, m=2, phase=SIN)
    one = TrigSeries.constant(base, 1)
    x2 = (one - cos2psi).scale(Fraction(1, 2) / om1 ** 2)
    y2 = (one + cos2psi).scale(Fraction(1, 2))
    xy = sin2psi.scale(Fraction(1, 2) / om1)
    return f.cxx * x2 + f.cyy * y2 + f.cxy * xy


def back_substitute(params: SystemParams, s: TrigSeries, phased: bool = False,
                    secular_allowed: bool = False) -> QuadFormSeries:
    """Invert the zero-order substitution.

    Every term must have m in {-2, 0, 2}.  At unit amplitude the m = 0
    content maps to (y^2 + omega1^2 x^2), cos 2psi to (y^2 - omega1^2 x^2)
    and sin 2psi to 2 omega1 xy; |m| = 2 harmonics are first split into
    products of the k*omega envelope with cos/sin(2 omega1 t) by the
    angle-addition identities, and in phased mode those convert through

        cos(2 w1 t) = c0 cos 2psi - s0 sin 2psi
        sin(2 w1 t) = s0 cos 2psi + c0 sin 2psi.

    The result has m = 0 envelopes only.
    """
    base = params.base
    om1sq = params.omega1 ** 2
    two_om1 = 2 * params.omega1
    raw_xx: list = []
    raw_yy: list = []
    raw_xy: list = []

    for (p, k, m, phase, a, b), coeff in s.terms():
        if p > 0 and not secular_allowed:
            raise SecularTerm(
                f"secular term of degree {p} at harmonic (k={k}, m={m}) "
                "is not allowed in this construction"
            )
        if m == 0:
            # envelope * (y^2 + om1^2 x^2)
            raw_yy.append(((p, k, 0, phase, a, b), coeff))
            raw_xx.append(((p, k, 0, phase, a, b), coeff * om1sq))
            continue
        if m not in (2, -2):
            raise MalformedSpectrum(
                f"term with m = {m} cannot be expressed back in (x^2, y^2, xy)"
            )
        # split trig((k w + m w1) t) into envelope(k w t) * trig(2 w1 t) products:
        #   cos((kw+2w1)t) = cos kwt cos 2w1t - sin kwt sin 2w1t
        #   sin((kw+2w1)t) = sin kwt cos 2w1t + cos kwt sin 2w1t
        # and with m = -2 the cross signs flip.
        sgn = 1 if m == 2 else -1
        if phase == COS:
            pieces = [(COS, "c", Fraction(1)), (SIN, "s", Fraction(-sgn))]
        else:
            pieces = [(SIN, "c", Fraction(1)), (COS, "s", Fraction(sgn))]
        for env_phase, osc, factor in pieces:
            c = coeff * factor
            if phased:
                # cos2w1t -> c0*C - s0*S ; sin2w1t -> s0*C + c0*S
                # with C the cos-2psi form and S the sin-2psi form
                if osc == "c":
                    combos = [("C", a + 1, b, c), ("S", a, b + 1, -c)]
                else:
                    combos = [("C", a, b + 1, c), ("S", a + 1, b, c)]
            else:
                combos = [("C" if osc == "c" else "S", a, b, c)]
            for form, aa, bb, cc in combos:
                key = (p, k, 0, env_phase, aa, bb)
                if form == "C":  # y^2 - om1^2 x^2
                    raw_yy.append((key, cc))
                    raw_xx.append((key, -cc * om1sq))
                else:  # 2 om1 xy
                    raw_xy.append((key, cc * two_om1))

    return QuadFormSeries(TrigSeries(base, raw_xx), TrigSeries(base, raw_yy),
                          TrigSeries(base, raw_xy))


#: one order as (den, [xx, yy, xy]), each a dict from TrigSeries term keys to nonzero ints
Form = tuple[int, list[dict]]


def to_form(q: QuadFormSeries) -> Form:
    """q's coefficients as numerators over the lcm of their series' denominators."""
    parts = (q.cxx, q.cyy, q.cxy)
    den = math.lcm(*(s._den for s in parts))
    return den, [{key: n * (den // s._den) for key, n in s._nums.items()} for s in parts]


def from_form(base: FrequencyBase, form: Form) -> QuadFormSeries:
    """The quadratic form with coefficients numerator/den."""
    den, parts = form
    return QuadFormSeries(*(TrigSeries._from_numerators(base, part, den) for part in parts))


def _add(acc: dict, key, value: int):
    acc[key] = acc.get(key, 0) + value


def _times_cos_omega(acc: dict, terms: dict, factor: int):
    """acc += factor * cos(omega t) * terms by product-to-sum; ``factor`` is even."""
    half = factor // 2
    for (p, k, _, ph, a, b), c in terms.items():
        if k == 0:
            _add(acc, (p, 1, 0, COS, a, b), factor * c)
            continue
        c *= half
        _add(acc, (p, k + 1, 0, ph, a, b), c)
        if k > 1 or ph == COS:  # sin(0) vanishes
            _add(acc, (p, k - 1, 0, ph, a, b), c)


def _antiderivative(p: int, phase: int, c: int, scale: int, n: int) -> tuple[list, int]:
    """int_0^t c s^p trig(nu s) ds for nu = n/scale != 0, by parts.

    Returns the terms (degree, phase, coefficient) and the constant that
    makes the antiderivative vanish at t = 0.  ``c`` must carry the
    factor n^(p+1), so every division is exact.
    """
    out = []
    while True:
        c = c * scale // n
        if phase == COS:
            out.append((p, SIN, c))
            if not p:
                return out, 0
            c, phase = -c * p, SIN
        else:
            out.append((p, COS, -c))
            if not p:
                return out, c
            c, phase = c * p, COS
        p -= 1


def _add_phased(acc: dict, p: int, a: int, b: int, xc: int, xs: int, resonant: bool):
    """acc += (xc c0 + xs s0) t^p c0^a s0^b, or xc t^p c0^a s0^b if not ``resonant``."""
    if not resonant:
        _add(acc, (p, 0, 0, COS, a, b), xc)
        return
    for a2, b2, c in _reduce_generators(a + 1, b, xc):
        _add(acc, (p, 0, 0, COS, a2, b2), c)
    _add(acc, (p, 0, 0, COS, a, b + 1), xs)


def recursion_step(params: SystemParams, form: Form, resonant: bool = False) -> Form:
    """One order of the recursion, in closed form per envelope harmonic.

    Maps a ``Form`` to the next order's, over the least common denominator
    of its coefficients; through ``to_form`` and ``from_form`` it equals
    ``back_substitute(substitute_zero_order(poisson_bracket_with_h1(f))
    .integrate())``, which stays as the reference.  ``resonant`` runs it
    phased with secular terms kept; else it runs unphased and a secular
    term raises SecularTerm.  It multiplies by cos(omega t) once, so no
    output harmonic exceeds the largest of its only inputs, cyy and cxy,
    by more than one (else AssertionError).
    With P = -2 vd^2 cos(wt) cxy and Q = -4 vd vn cos(wt) cyy (omega1 =
    vn/vd), the integrand on the orbit is proportional to P - P cos 2psi
    + Q sin 2psi.  The first term is a pure envelope (m = 0) and
    integrates onto the (y^2 + omega1^2 x^2) channel; the others are
    split into the lattice frequencies k*omega -+ 2*omega1 (m = -+2),
    integrated there and recombined into the (y^2 - omega1^2 x^2) and xy
    channels.  Phasing rotates (cos 2psi, sin 2psi) by the same angle
    before and after the integration, so it changes only the constant of
    integration and the exact-zero-frequency (resonant) terms, which pick
    up c0 and s0.
    """
    om, om1 = params.omega, params.omega1
    vn, vd = om1.numerator, om1.denominator
    scale = om.denominator * vd  # nu(k, m) = (k * kw + m * mw) / scale
    kw, mw = om.numerator * vd, vn * om.denominator
    den, (_, cyy, cxy) = form
    P: dict = {}
    Q: dict = {}
    _times_cos_omega(P, cxy, -2 * vd * vd)
    _times_cos_omega(Q, cyy, -4 * vd * vn)

    # one multiplier that makes every division below exact
    divisors = {(k * kw) ** (p + 1) for (p, k, *_) in P}
    for (p, k, *_) in (*P, *Q):
        divisors.update((p + 1, (k * kw + 2 * mw) ** (p + 1), (k * kw - 2 * mw) ** (p + 1)))
    divisors.discard(0)
    mult = math.lcm(*divisors)

    # the m = 0 channel; the m = -+2 lattice drops its product-to-sum halves,
    # so this channel is doubled to share the scale
    A: dict = {}
    for (p, k, _, ph, a, b), c in P.items():
        c *= 2 * mult
        if k == 0:
            _add(A, (p + 1, 0, 0, COS, a, b), c // (p + 1))
            continue
        out, const = _antiderivative(p, ph, c, scale, k * kw)
        for q, ph2, c2 in out:
            _add(A, (q, k, 0, ph2, a, b), c2)
        _add(A, (0, 0, 0, COS, a, b), const)

    # the m = -+2 channel: U cos(2 w1 t) + V sin(2 w1 t) with U = -P, V = Q
    U: dict = {}
    V: dict = {}
    for osc, terms, sign in ((COS, P, -mult), (SIN, Q, mult)):
        for (p, k, _, ph, a, b), c in terms.items():
            c *= sign
            lam = ph ^ osc
            for sigma in (1, -1):
                # trig(kwt) trig(2w1t) -> (1/2) trig((kw + sigma 2w1) t)
                cc = -c if osc == SIN and (ph == SIN) == (sigma == 1) else c
                n = k * kw + 2 * sigma * mw
                if n == 0:
                    # resonance: cos of the exact zero frequency is 1, its sine 0
                    xc, xs = (cc, 0) if lam == COS else (0, cc)
                    _add_phased(A, p + 1, a, b, xc // (p + 1), xs // (p + 1), resonant)
                    continue
                out, _ = _antiderivative(p, lam, cc, scale, n)
                for q, ph2, c2 in out:
                    # trig((kw + sigma 2w1) t) back to trig(kwt) x {cos, sin}(2w1t)
                    if ph2 == COS:
                        _add(U, (q, k, 0, COS, a, b), c2)
                        if k:
                            _add(V, (q, k, 0, SIN, a, b), -sigma * c2)
                    else:
                        if k:
                            _add(U, (q, k, 0, SIN, a, b), c2)
                        _add(V, (q, k, 0, COS, a, b), sigma * c2)
    # the constant of integration cancels the m = -+2 part at t = 0, where
    # it is the phase rotation of (U(0), V(0))
    consts: dict = {}
    for sign, terms, i in ((-1, U, 0), (1, V, 1)):
        for (q, _, _, ph, a, b), c in terms.items():
            if q == 0 and ph == COS:
                consts.setdefault((a, b), [0, 0])[i] += sign * c
    for (a, b), (xc, xs) in consts.items():
        _add_phased(A, 0, a, b, xc, xs, resonant)

    # (1, cos 2psi, sin 2psi) -> (y^2 + w1^2 x^2, y^2 - w1^2 x^2, 2 w1 xy)
    yy = {key: vd * vd * c for key, c in A.items()}
    xx = {key: vn * vn * c for key, c in A.items()}
    for key, c in U.items():
        _add(yy, key, vd * vd * c)
        _add(xx, key, -vn * vn * c)
    xy = {key: 2 * vn * vd * c for key, c in V.items()}
    den_out = 4 * den * mult * vn * vn * vd * vd
    g = math.gcd(den_out, *(c for terms in (xx, yy, xy) for c in terms.values()))
    parts = [{key: c // g for key, c in terms.items() if c} for terms in (xx, yy, xy)]
    bound = max((key[1] for terms in (cyy, cxy) for key in terms), default=0) + 1
    if any(key[1] > bound for terms in parts for key in terms):
        raise AssertionError(f"the step yields harmonics above {bound}*omega; "
                             "recursion is broken")
    if not resonant:
        secular = [key for terms in parts for key in terms if key[0]]
        if secular:
            p, k, *_ = min(secular)
            raise SecularTerm(f"secular term of degree {p} at harmonic k={k} "
                              "is not allowed in this construction")
    return den_out // g, parts


class FormalIntegral(_Value):
    """A truncated series integral: orders Phi_0 ... Phi_S plus metadata."""

    __slots__ = ("params", "orders", "seed", "secular_allowed", "phased")

    def __init__(self, params: SystemParams, orders: tuple[QuadFormSeries, ...],
                 seed: str = "H0", secular_allowed: bool = False, phased: bool = False):
        self._set(params, orders, seed, secular_allowed, phased)

    @property
    def order(self) -> int:
        return len(self.orders) - 1

    def truncated(self, order: int) -> "FormalIntegral":
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order {order} outside [0, {self.order}]")
        return FormalIntegral(self.params, self.orders[: order + 1], self.seed,
                              self.secular_allowed, self.phased)

    def evaluate(self, x: float, y: float, t: float, epsilon: float | None = None,
                 c0: float = 1.0, s0: float = 0.0) -> float:
        """sum_s eps^s * Phi_s(x, y, t), via Horner in eps."""
        eps = self.params.epsilon if epsilon is None else epsilon
        acc = 0.0
        for q in reversed(self.orders):
            acc = acc * eps + q.evaluate(x, y, t, c0, s0)
        return acc

    def json_document(self) -> dict:
        """The integral's JSON document, with the quadratic forms themselves as its
        "orders": ``output.json_chunks`` converts each order to its JSON object
        (``QuadFormSeries.to_json_obj``), reducing its coefficients, as it writes it."""
        return {
            "omega": str(self.params.omega),
            "omega1": str(self.params.omega1),
            "seed": self.seed,
            "order": self.order,
            "phased": self.phased,
            "secular_allowed": self.secular_allowed,
            "orders": self.orders,
        }

    def pretty(self) -> str:
        blocks = [f"-- order eps^{s} --\n{q.pretty()}" for s, q in enumerate(self.orders)]
        return "\n".join(blocks)


MAX_ORDER = 40


def check_nonresonant(params: SystemParams, order: int):
    """Raise ResonanceDetected(j) if j*omega = 2*omega1 for some j <= order + 1."""
    j = 2 * params.omega1 / params.omega
    if j.denominator == 1 and j <= order + 1:
        raise ResonanceDetected(int(j))


def _series(params: SystemParams, seed: QuadFormSeries, name: str, order: int,
            resonant: bool = False) -> FormalIntegral:
    """The recursion from ``seed`` through ``order``, phased with secular terms if ``resonant``.

    The orders are chained as ``Form``s; each becomes a QuadFormSeries once.
    """
    if order < 0:
        raise InvalidInput("order must be >= 0")
    form = to_form(seed)
    orders = [seed]
    for _ in range(order):
        form = recursion_step(params, form, resonant)
        orders.append(from_form(params.base, form))
    return FormalIntegral(params, tuple(orders), name, secular_allowed=resonant, phased=resonant)


def build_integral(params: SystemParams, order: int = 10) -> FormalIntegral:
    """Build the non-resonant formal integral seeded with H0 to the given order.

    Raises ResonanceDetected when j*omega = 2*omega1 for some j <= order+1
    (the recursion would divide by the vanishing frequency), and
    SecularTerm if a secular term survives despite non-resonance (an
    internal-consistency failure).
    """
    if order > MAX_ORDER:
        raise InvalidInput(f"order {order} exceeds the hard cap {MAX_ORDER}")
    check_nonresonant(params, order)
    return _series(params, h0_form(params), "H0", order)


def conic_at_section(phi: FormalIntegral, epsilon: float | None = None,
                     c0: float = 1.0, s0: float = 0.0) -> tuple[float, float, float]:
    """Quadratic-form coefficients (A, B, D) at section times t = kT.

    At t = kT every cos(j omega t) is 1 and every sin vanishes, so the
    coefficients equal the series evaluated at t = 0.  The form is read
    as A x^2 + B y^2 + 2 D xy, hence the xy coefficient is halved.
    """
    eps = phi.params.epsilon if epsilon is None else epsilon
    a = b = d = 0.0
    for q in reversed(phi.orders):
        sums = q._sums_at_zero
        if (c0, s0) not in sums:  # they depend on the phase pair alone, not on eps
            sums[c0, s0] = tuple(_evaluate_table(tab, 0.0, c0, s0) for tab in q._tables)
        xx, yy, xy = sums[c0, s0]
        a, b, d = a * eps + xx, b * eps + yy, d * eps + 0.5 * xy
    return a, b, d


class PsiSeries(_Value):
    """The companion integral in extended phase space, seeded with E.

    Psi_0 is the energy-momentum marker E itself (bound numerically at
    evaluation), Psi_1 = H1 - Phi_1 and Psi_s = -Phi_s for s >= 2, so
    Phi + Psi telescopes to H0 + eps*H1 + E = H + E.
    """

    __slots__ = ("params", "orders_from_one")

    def __init__(self, params: SystemParams, orders_from_one: tuple[QuadFormSeries, ...]):
        self._set(params, orders_from_one)

    def evaluate(self, x: float, y: float, t: float, energy: float,
                 epsilon: float | None = None) -> float:
        eps = self.params.epsilon if epsilon is None else epsilon
        acc = 0.0
        for q in reversed(self.orders_from_one):
            acc = (acc + q.evaluate(x, y, t)) * eps
        return energy + acc


def psi_series(phi: FormalIntegral) -> PsiSeries:
    """Derive Psi from a built Phi by arithmetic, not by a second recursion."""
    if phi.order < 1:
        raise ValueError("psi_series needs Phi built through order >= 1")
    first = h1_form(phi.params) - phi.orders[1]
    rest = tuple(-q for q in phi.orders[2:])
    return PsiSeries(phi.params, (first,) + rest)
