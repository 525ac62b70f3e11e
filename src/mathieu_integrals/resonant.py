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

    Cbar_n = C_n + sum_i q_i * Phi_{n-i},

with rational q_i solved order by order, cancels every secular term;
for omega = 2, omega1 = 1 the first mixing coefficient is exactly 1/4.

All dependence on the unknown phase t0 is confined to the generators
c0, s0; they are bound numerically from the initial conditions via

    2*Phi0 = y0^2 + omega1^2 x0^2,
    c0 = (y0^2 - omega1^2 x0^2) / (2*Phi0),
    s0 = -2 omega1 x0 y0 / (2*Phi0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .builder import (FormalIntegral, QuadFormSeries, SystemParams,
                      conic_at_section, h0_form, recursion_step)
from .errors import InvalidInput, NotResonant, UnsolvableSecular, UnsupportedResonance
from .trigseries import COS, SIN, TrigSeries

_RESONANCE_SCAN = 64


def require_primary_resonance(params: SystemParams):
    """Accept omega = 2*omega1 only.

    Higher commensurabilities j*omega = 2*omega1 (j >= 2) would need
    their own seed invariants and are not implemented; anything else is
    simply not resonant.
    """
    if params.omega == 2 * params.omega1:
        return
    for j in range(2, _RESONANCE_SCAN + 1):
        if j * params.omega == 2 * params.omega1:
            raise UnsupportedResonance(
                f"resonance {j}*omega = 2*omega1 requires its own seed invariants; "
                "only the primary resonance omega = 2*omega1 is implemented"
            )
    raise NotResonant(
        f"omega = {params.omega} and omega1 = {params.omega1} do not satisfy "
        "omega = 2*omega1"
    )


def resonant_seeds(params: SystemParams) -> tuple[QuadFormSeries, QuadFormSeries]:
    """The zero-order invariants (C0, S0) as quadratic forms."""
    require_primary_resonance(params)
    base = params.base
    om1 = params.omega1
    cos_env = TrigSeries.harmonic(base, 1, k=1, m=0, phase=COS)
    sin_env = TrigSeries.harmonic(base, 1, k=1, m=0, phase=SIN)
    c0 = QuadFormSeries(cos_env.scale(-om1 ** 2), cos_env, sin_env.scale(2 * om1))
    s0 = QuadFormSeries(sin_env.scale(-om1 ** 2), sin_env, cos_env.scale(-2 * om1))
    return c0, s0


def build_resonant_c(params: SystemParams, order: int) -> FormalIntegral:
    """C-series seeded with C0, phased, secular terms retained."""
    require_primary_resonance(params)
    if order < 0:
        raise InvalidInput("order must be >= 0")
    seed, _ = resonant_seeds(params)
    orders = [seed]
    for _ in range(order):
        orders.append(recursion_step(params, orders[-1], phased=True, secular_allowed=True))
    return FormalIntegral(params, tuple(orders), seed="C0", secular_allowed=True, phased=True)


def build_resonant_phi(params: SystemParams, order: int) -> FormalIntegral:
    """Phi-series seeded with H0 run with the phased zero-order solution.

    Same recursion as the non-resonant build, but the phase generators
    are carried and secular terms are legal (Phi_1 already contains
    (y^2 + x^2) s0 t / 2 at omega = 2, omega1 = 1).
    """
    require_primary_resonance(params)
    if order < 0:
        raise InvalidInput("order must be >= 0")
    orders = [h0_form(params)]
    for _ in range(order):
        orders.append(recursion_step(params, orders[-1], phased=True, secular_allowed=True))
    return FormalIntegral(params, tuple(orders), seed="H0", secular_allowed=True, phased=True)


@dataclass(frozen=True)
class PhaseConstants:
    """Numeric binding of the generators (c0, s0) from initial conditions."""

    c0: float
    s0: float

    def __post_init__(self):
        if abs(self.c0 ** 2 + self.s0 ** 2 - 1.0) > 1e-9:
            raise ValueError("phase constants must satisfy c0^2 + s0^2 = 1")

    @classmethod
    def from_initial_conditions(cls, params: SystemParams, x0: float, y0: float) -> "PhaseConstants":
        om1 = float(params.omega1)
        two_phi0 = y0 * y0 + om1 * om1 * x0 * x0
        if two_phi0 == 0.0:
            raise InvalidInput("phase constants are undefined at the origin")
        return cls((y0 * y0 - om1 * om1 * x0 * x0) / two_phi0,
                   -2.0 * om1 * x0 * y0 / two_phi0)


@dataclass(frozen=True)
class ResonantIntegral:
    """C-series, mixing coefficients, and the secular-free combination.

    ``mix[i]`` is the coefficient q_{i+1} of the eps^{i+1} * Phi admixture,
    an element of the constant ring Q[c0, s0]/(c0^2 + s0^2 - 1) stored as
    a constant TrigSeries.  q_1 is a plain rational (1/4 at omega = 2,
    omega1 = 1); from q_2 on the coefficients may carry c0 powers.
    """

    base: FormalIntegral
    phi: FormalIntegral
    mix: tuple[TrigSeries, ...]
    combined: FormalIntegral

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


def _solve_ratio(target: QuadFormSeries, reference: QuadFormSeries) -> TrigSeries:
    """Solve target + q*reference = 0 for q in the constant ring, exactly.

    q is a t-independent element of Q[c0, s0]/(c0^2 + s0^2 - 1),
    returned as a constant TrigSeries.  At order 2 the solution is a
    plain rational (1/4 for omega = 2, omega1 = 1); at higher orders the
    residual may be proportional to the reference only up to generator
    monomials, so the quotient picks up c0 powers.  The candidate is
    built by monomial division against the smallest reference component
    and then verified by exact multiplication; if the verification
    fails, no constant multiple of the reference cancels the target and
    UnsolvableSecular is raised.
    """
    base = target.base
    ref_components = (reference.cxx, reference.cyy, reference.cxy)
    tgt_components = (target.cxx, target.cyy, target.cxy)

    candidates = [(ref, tgt) for ref, tgt in zip(ref_components, tgt_components)
                  if not ref.is_zero]
    if not candidates:
        if target.is_zero:
            return TrigSeries.constant(base, 0)
        raise UnsolvableSecular("no reference secular term available for cancellation")
    ref, tgt = min(candidates, key=lambda pair: len(pair[0].terms()))
    (rp, rk, rm, rph, ra, rb), rcoeff = ref.terms()[0]

    raw = []
    for (p, k, m, ph, a, b), coeff in tgt.terms():
        if (p, k, m, ph) != (rp, rk, rm, rph) or a < ra or b < rb:
            raise UnsolvableSecular(
                "secular parts are not proportional over the constant ring"
            )
        raw.append(((0, 0, 0, 0, a - ra, b - rb), -coeff / rcoeff))
    q = TrigSeries(base, raw)

    for ref_c, tgt_c in zip(ref_components, tgt_components):
        if not (tgt_c + ref_c * q).is_zero:
            raise UnsolvableSecular(
                "secular parts are not proportional; the mixing ansatz cannot cancel them"
            )
    return q


def eliminate_secular(c_series: FormalIntegral, phi_series: FormalIntegral,
                      order: int | None = None) -> ResonantIntegral:
    """Mix the C and Phi series so no secular term survives through ``order``.

    The coefficient q_{n-1} is fixed by the order-n cancellation
    q_{n-1} * sec(Phi_1) = -(sec(C_n) + sum_{i<=n-2} q_i sec(Phi_{n-i})),
    solved exactly over the rationals with the generators kept symbolic
    (so q_1 = 1/4 comes out even for initial phases with s0 = 0).
    """
    if c_series.params != phi_series.params:
        raise ValueError("C and Phi series were built over different parameters")
    s = c_series.order if order is None else order
    if s > c_series.order:
        raise ValueError(f"C-series only built through order {c_series.order}")
    if s >= 1 and phi_series.order < max(1, s - 1):
        raise ValueError("Phi-series not built deep enough for the requested mixing")

    qs: list[TrigSeries] = []
    if s >= 2:
        phi1_sec = phi_series.orders[1].secular_part()
        for n in range(2, s + 1):
            residual = c_series.orders[n].secular_part()
            for i, q in enumerate(qs, start=1):
                residual = residual + phi_series.orders[n - i].secular_part().mul_series(q)
            qs.append(_solve_ratio(residual, phi1_sec))

    combined = [c_series.orders[0]]
    for n in range(1, s + 1):
        term = c_series.orders[n]
        for i, q in enumerate(qs, start=1):
            if i > n:
                break
            term = term + phi_series.orders[n - i].mul_series(q)
        if not term.secular_part().is_zero:
            raise UnsolvableSecular(f"secular content survives at order {n}")
        combined.append(term)

    combined_integral = FormalIntegral(c_series.params, tuple(combined), seed="C0",
                                       secular_allowed=False, phased=True)
    return ResonantIntegral(base=c_series, phi=phi_series, mix=tuple(qs),
                            combined=combined_integral)


def resonant_section_form(resonant: ResonantIntegral, epsilon: float,
                          constants: PhaseConstants | None = None) -> tuple[float, float, float]:
    """(A, B, D) of the combined integral at section times t = k*pi.

    For small eps this is a hyperbola-type form (A*B < 0): the level
    sets of (y^2 - x^2) plus the order-eps correction.
    """
    c = constants or PhaseConstants(1.0, 0.0)
    return conic_at_section(resonant.combined, epsilon, c0=c.c0, s0=c.s0)
