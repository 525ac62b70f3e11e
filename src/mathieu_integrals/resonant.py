"""Formal integrals at the primary resonance omega = 2*omega1.

At this commensurability the non-resonant recursion divides by zero and
its series would pick up secular terms.  Two additional zero-order
invariants exist,

    C0 = (y^2 - omega1^2 x^2) cos(omega t) + 2 omega1 xy sin(omega t)
    S0 = (y^2 - omega1^2 x^2) sin(omega t) - 2 omega1 xy cos(omega t),

which reduce on the phased zero-order orbit to the constants
2*Phi0*cos(2 omega1 t0) and 2*Phi0*sin(2 omega1 t0).  Seeding the same
recursion with C0 (phased, secular terms retained) gives a series C
whose secular parts are proportional, order by order, to the secular
parts of the phased H0-seeded series Phi.  Mixing the two,

    Cbar_n = C_n + sum_{i=1}^{min(n, s-1)} q_i * Phi_{n-i},

with q_i in the constant ring Q[c0, s0]/(c0^2 + s0^2 - 1), cancels every
secular term through order s (q_1 = 1/4 at omega = 2, omega1 = 1).  The
recursion step R is linear over that ring, so the partial sums
X_n = C_n + sum_{i<n} q_i Phi_{n-i} obey X_1 = R(C_0) and
X_{n+1} = R(X_n) + q_n Phi_1, where q_n solves sec R(X_n) + q_n sec Phi_1 = 0;
then Cbar_n = X_n + q_n Phi_0 for n < s and Cbar_s = X_s, all as
integer numerators over one denominator (``builder.Form``).

All dependence on the unknown phase t0 is confined to the generators
c0, s0; they are bound numerically from the initial conditions via

    2*Phi0 = y0^2 + omega1^2 x0^2,
    c0 = (y0^2 - omega1^2 x0^2) / (2*Phi0),
    s0 = -2 omega1 x0 y0 / (2*Phi0).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .builder import (Form, FormalIntegral, QuadFormSeries, SystemParams, _add, _series,
                      conic_at_section, from_form, h0_form, recursion_step, to_form)
from .errors import InvalidInput, NotResonant, UnsolvableSecular, UnsupportedResonance
from .trigseries import COS, SIN, TrigSeries, _reduce_generators, _Value


def require_primary_resonance(params: SystemParams):
    """Accept omega = 2*omega1 only.

    Higher commensurabilities j*omega = 2*omega1 (j >= 2) would need
    their own seed invariants and are not implemented; anything else is
    simply not resonant.
    """
    j = 2 * params.omega1 / params.omega
    if j == 1:
        return
    if j.denominator == 1:
        raise UnsupportedResonance(
            f"resonance {j}*omega = 2*omega1 requires its own seed invariants; "
            "only the primary resonance omega = 2*omega1 is implemented"
        )
    raise NotResonant(
        f"omega = {params.omega} and omega1 = {params.omega1} do not satisfy "
        "omega = 2*omega1"
    )


def resonant_seed(params: SystemParams) -> QuadFormSeries:
    """The zero-order invariant C0 as a quadratic form."""
    require_primary_resonance(params)
    om1 = params.omega1
    cos_env = TrigSeries.harmonic(params.base, 1, k=1, m=0, phase=COS)
    sin_env = TrigSeries.harmonic(params.base, 1, k=1, m=0, phase=SIN)
    return QuadFormSeries(cos_env.scale(-om1 ** 2), cos_env, sin_env.scale(2 * om1))


def build_resonant_c(params: SystemParams, order: int) -> FormalIntegral:
    """C-series seeded with C0, phased, secular terms retained."""
    return _series(params, resonant_seed(params), "C0", order, resonant=True)


def build_resonant_phi(params: SystemParams, order: int) -> FormalIntegral:
    """Phi-series seeded with H0 run with the phased zero-order solution.

    Same recursion as the non-resonant build, but the phase generators
    are carried and secular terms are legal (Phi_1 already contains
    (y^2 + x^2) s0 t / 2 at omega = 2, omega1 = 1).
    """
    require_primary_resonance(params)
    return _series(params, h0_form(params), "H0", order, resonant=True)


class PhaseConstants(_Value):
    """Numeric binding of the generators (c0, s0) from initial conditions."""

    __slots__ = ("c0", "s0")

    def __init__(self, c0: float, s0: float):
        if not (math.isfinite(c0) and math.isfinite(s0)):
            raise InvalidInput("phase constants must be finite")
        if abs(c0 ** 2 + s0 ** 2 - 1.0) > 1e-9:
            raise InvalidInput("phase constants must satisfy c0^2 + s0^2 = 1")
        self._set(c0, s0)

    @classmethod
    def from_initial_conditions(cls, params: SystemParams, x0: float, y0: float) -> "PhaseConstants":
        om1 = float(params.omega1)
        two_phi0 = y0 * y0 + om1 * om1 * x0 * x0
        if not math.isfinite(two_phi0):
            raise InvalidInput("initial conditions give a non-finite 2*Phi0 = "
                               "y0^2 + omega1^2 x0^2")
        if two_phi0 == 0.0:
            raise InvalidInput("phase constants are undefined at the origin")
        return cls((y0 * y0 - om1 * om1 * x0 * x0) / two_phi0,
                   -2.0 * om1 * x0 * y0 / two_phi0)


class ResonantIntegral(_Value):
    """Mixing coefficients and the secular-free combination.

    ``mix[i]`` is the coefficient q_{i+1} of the eps^{i+1} * Phi admixture,
    an element of the constant ring Q[c0, s0]/(c0^2 + s0^2 - 1) stored as
    a constant TrigSeries.  q_1 is a plain rational (1/4 at omega = 2,
    omega1 = 1); from q_2 on the coefficients may carry c0 powers.
    """

    __slots__ = ("mix", "combined")

    def __init__(self, mix: tuple[TrigSeries, ...], combined: FormalIntegral):
        self._set(mix, combined)

    @property
    def order(self) -> int:
        return self.combined.order

    def mix_rational(self, i: int) -> Fraction:
        """q_i as an exact rational; raises if it carries generator content."""
        return self.mix[i - 1].constant_at_zero()

    def evaluate(self, x: float, y: float, t: float, epsilon: float | None = None,
                 constants: PhaseConstants | None = None) -> float:
        c = constants or PhaseConstants(1.0, 0.0)
        return self.combined.evaluate(x, y, t, epsilon, c0=c.c0, s0=c.s0)


def _secular(form: Form) -> Form:
    den, parts = form
    return den, [{key: c for key, c in part.items() if key[0]} for part in parts]


def _add_multiple(x: Form, y: Form, q: tuple[int, dict]) -> Form:
    """x + q*y for q = sum_(a, b) n_ab c0^a s0^b / qden, reduced with c0^2 = 1 - s0^2.

    q*y is a convolution over the generator monomials; everything else in
    the term key is left alone, because q does not depend on t.  Zero sums drop out.
    """
    (xden, xparts), (yden, yparts), (qden, qn) = x, y, q
    den = math.lcm(xden, yden * qden)
    xscale, yscale = den // xden, den // (yden * qden)
    out = []
    for xpart, ypart in zip(xparts, yparts):
        acc = {key: c * xscale for key, c in xpart.items()}
        for (p, k, m, ph, a, b), c in ypart.items():
            for (qa, qb), qc in qn.items():
                for a2, b2, v in _reduce_generators(a + qa, b + qb, c * qc * yscale):
                    _add(acc, (p, k, m, ph, a2, b2), v)
        out.append({key: c for key, c in acc.items() if c})
    return den, out


def _solve_ratio(target: Form, reference: Form) -> tuple[int, dict]:
    """Solve target + q*reference = 0 for q in the constant ring, exactly.

    q is a t-independent element of Q[c0, s0]/(c0^2 + s0^2 - 1),
    returned as numerators over a denominator (den, {(a, b): n}).  At
    order 2 the solution is a plain rational (1/4 for omega = 2,
    omega1 = 1); at higher orders the residual may be proportional to
    the reference only up to generator monomials, so the quotient picks
    up c0 powers.  The candidate is built by monomial division against
    the smallest reference component and then verified by exact
    multiplication; if the verification fails, no constant multiple of
    the reference cancels the target and UnsolvableSecular is raised.
    """
    tden, tgt_parts = target
    rden, ref_parts = reference
    candidates = [(ref, tgt) for ref, tgt in zip(ref_parts, tgt_parts) if ref]
    if not candidates:
        if not any(tgt_parts):
            return 1, {}
        raise UnsolvableSecular("no reference secular term available for cancellation")
    ref, tgt = min(candidates, key=lambda pair: len(pair[0]))
    rkey = min(ref)
    rp, rk, rm, rph, ra, rb = rkey
    quotient = {}
    for (p, k, m, ph, a, b), c in tgt.items():
        if (p, k, m, ph) != (rp, rk, rm, rph) or a < ra or b < rb:
            raise UnsolvableSecular(
                "secular parts are not proportional over the constant ring"
            )
        quotient[(a - ra, b - rb)] = Fraction(-c * rden, tden * ref[rkey])
    qden = math.lcm(*(c.denominator for c in quotient.values()))
    q = (qden, {ab: c.numerator * (qden // c.denominator) for ab, c in quotient.items()})
    if any(_add_multiple(target, reference, q)[1]):
        raise UnsolvableSecular(
            "secular parts are not proportional; the mixing ansatz cannot cancel them")
    return q


def eliminate_secular(params: SystemParams, order: int) -> ResonantIntegral:
    """Mix the C and Phi series so no secular term survives through ``order``.

    Runs X_1 = R(C_0), X_{n+1} = R(X_n) + q_n Phi_1 (module docstring),
    R the phased ``recursion_step``, on ``builder.Form``s: Phi_0 = H0,
    Phi_1 = R(Phi_0), C_0 (``resonant_seed``, the one resonance check)
    and every X_n stay integer numerators; only the final Cbar_n become
    QuadFormSeries.  Each q_n is solved exactly with the generators kept
    symbolic (so q_1 = 1/4 comes out even for initial phases with s0 =
    0), and each Cbar_n is checked for secular terms.
    """
    c0 = resonant_seed(params)
    if order < 0:
        raise InvalidInput("order must be >= 0")
    base = params.base
    qs: list[tuple[int, dict]] = []
    cbars: list[Form] = []
    if order >= 1:
        phi0 = to_form(h0_form(params))
        phi1 = recursion_step(params, phi0, phased=True, secular_allowed=True)
        x = recursion_step(params, to_form(c0), phased=True, secular_allowed=True)
        for _ in range(1, order):
            nxt = recursion_step(params, x, phased=True, secular_allowed=True)
            qs.append(_solve_ratio(_secular(nxt), _secular(phi1)))
            cbars.append(_add_multiple(x, phi0, qs[-1]))
            x = _add_multiple(nxt, phi1, qs[-1])
        cbars.append(x)
    for n, (_, parts) in enumerate(cbars, start=1):
        if any(key[0] for part in parts for key in part):
            raise UnsolvableSecular(f"secular content survives at order {n}")

    mix = tuple(TrigSeries._from_numerators(base, {(0, 0, 0, COS, a, b): c
                                                   for (a, b), c in q.items()}, den)
                for den, q in qs)
    combined = (c0, *(from_form(base, cbar) for cbar in cbars))
    combined_integral = FormalIntegral(params, combined, seed="C0",
                                       secular_allowed=False, phased=True)
    return ResonantIntegral(mix=mix, combined=combined_integral)


def resonant_section_form(resonant: ResonantIntegral, epsilon: float,
                          constants: PhaseConstants | None = None) -> tuple[float, float, float]:
    """(A, B, D) of the combined integral at section times t = k*pi.

    For small eps this is a hyperbola-type form (A*B < 0): the level
    sets of (y^2 - x^2) plus the order-eps correction.
    """
    c = constants or PhaseConstants(1.0, 0.0)
    return conic_at_section(resonant.combined, epsilon, c0=c.c0, s0=c.s0)
