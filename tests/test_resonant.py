"""Resonant-construction tests at omega = 2*omega1.

The closed forms asserted here (phased Phi_1, C_1 generic and at
(2, 1), C_2, the secular parts, q_1 = 1/4) were re-derived by hand for
this suite; the combined integral's conservation is checked against
numerically integrated resonant orbits.
"""

import math
from fractions import Fraction as F

import pytest

from mathieu_integrals import (NotResonant, PhaseConstants, QuadFormSeries,
                               SystemParams, UnsolvableSecular, build_resonant_c,
                               build_resonant_phi, eliminate_secular, monodromy,
                               resonant_seed, resonant_section_form)
from mathieu_integrals.builder import from_form, recursion_step, substitute_zero_order, to_form
from mathieu_integrals.errors import InvalidInput, UnsupportedResonance
from mathieu_integrals.resonant import _secular, _solve_ratio
from mathieu_integrals.trigseries import COS, SIN, TrigSeries

P = SystemParams(F(2), F(1), 0.05)
BASE = P.base
TOL = 1e-12  # the unit of the stepper bounds


def h(coeff, k, m, phase, base=BASE, **kw):
    return TrigSeries.harmonic(base, coeff, k=k, m=m, phase=phase, **kw)


@pytest.fixture(scope="module")
def c_series():
    return build_resonant_c(P, 3)


@pytest.fixture(scope="module")
def phi_series():
    return build_resonant_phi(P, 3)


@pytest.fixture(scope="module")
def combo():
    return eliminate_secular(P, 3)


class TestSeeds:
    def test_c0_form(self):
        c0 = resonant_seed(P)
        assert c0.cxx == h(-1, 1, 0, COS)
        assert c0.cyy == h(1, 1, 0, COS)
        assert c0.cxy == h(2, 1, 0, SIN)

    def test_c0_at_t0_is_constant_quadratic(self):
        c0 = resonant_seed(P)
        assert c0.cxx.evaluate(0.0) == -1.0
        assert c0.cyy.evaluate(0.0) == 1.0
        assert c0.cxy.evaluate(0.0) == 0.0

    def test_c0_reduces_to_cos_phase_constant(self):
        # on the phased zero-order orbit (unit amplitude) all time
        # dependence cancels and C0 becomes the generator c0
        c0 = resonant_seed(P)
        reduced = substitute_zero_order(P, c0, phased=True)
        assert reduced == TrigSeries.harmonic(BASE, 1, k=0, m=0, phase=COS, c0_pow=1)

    def test_s0_reduces_to_sin_phase_constant(self):
        # validates the sign convention of the companion invariant
        # S0 = (y^2 - x^2) sin 2t - 2 xy cos 2t, which no builder needs
        s0 = QuadFormSeries(h(-1, 1, 0, SIN), h(1, 1, 0, SIN), h(-2, 1, 0, COS))
        reduced = substitute_zero_order(P, s0, phased=True)
        assert reduced == TrigSeries.harmonic(BASE, 1, k=0, m=0, phase=COS, s0_pow=1)

    def test_not_resonant(self):
        with pytest.raises(NotResonant):
            resonant_seed(SystemParams(F(2), F(9, 10), 0.0))

    def test_higher_resonance_not_implemented(self):
        with pytest.raises(NotImplementedError):
            resonant_seed(SystemParams(F(2), F(2), 0.0))  # 2*omega = 2*omega1

    def test_far_resonance_is_still_a_resonance(self):
        # 65*omega = 2*omega1: the exact ratio has no largest j to scan up to
        with pytest.raises(UnsupportedResonance, match="65"):
            resonant_seed(SystemParams(F(1), F(65, 2), 0.0))


class TestPhasedPhi:
    def test_phi1_closed_form(self, phi_series):
        # Phi_1 = (1/8)[(y^2 - x^2) cos 2t - 2 xy sin 2t - (y^2 + x^2) c0]
        #         + (1/2)(y^2 + x^2) s0 t        (omega = 2, omega1 = 1)
        ph1 = phi_series.orders[1]
        want_cyy = (h(F(1, 8), 1, 0, COS) + h(F(-1, 8), 0, 0, COS, c0_pow=1)
                    + h(F(1, 2), 0, 0, COS, p=1, s0_pow=1))
        want_cxx = (h(F(-1, 8), 1, 0, COS) + h(F(-1, 8), 0, 0, COS, c0_pow=1)
                    + h(F(1, 2), 0, 0, COS, p=1, s0_pow=1))
        want_cxy = h(F(-1, 4), 1, 0, SIN)
        assert (ph1.cyy, ph1.cxx, ph1.cxy) == (want_cyy, want_cxx, want_cxy)

    def test_phi1_secular_part(self, phi_series):
        sec = phi_series.orders[1].secular_part()
        want = h(F(1, 2), 0, 0, COS, p=1, s0_pow=1)
        assert sec.cxx == want and sec.cyy == want and sec.cxy.is_zero


def generic_c1(params):
    """C_1 for a general (omega, omega1), from the hand-computed closed form.

    C_1 = [y^2 (1 - cos 2wt)
           + x^2 (cos 2wt (2 w w1 - w1^2) + w1^2 - 2 w^2 + 2 w w1)
           - 2 w xy sin 2wt] / (2 w (w - w1))
    """
    om, om1 = params.omega, params.omega1
    base = params.base
    den = 2 * om * (om - om1)
    one = TrigSeries.constant(base, 1)
    c2w = TrigSeries.harmonic(base, 1, k=2, m=0, phase=COS)
    s2w = TrigSeries.harmonic(base, 1, k=2, m=0, phase=SIN)
    cyy = (one - c2w).scale(1 / den)
    cxx = (c2w.scale(2 * om * om1 - om1 ** 2)
           + one.scale(om1 ** 2 - 2 * om ** 2 + 2 * om * om1)).scale(1 / den)
    cxy = s2w.scale(-2 * om / den)
    return QuadFormSeries(cxx, cyy, cxy)


class TestCSeries:
    def test_c1_closed_form_at_2_1(self, c_series):
        # C_1 = (1/4)[(y^2 - 3 x^2)(1 - cos 4t) - 4 xy sin 4t]
        one = TrigSeries.constant(BASE, 1)
        c4t = h(1, 2, 0, COS)
        s4t = h(1, 2, 0, SIN)
        want = QuadFormSeries((one - c4t).scale(F(-3, 4)),
                              (one - c4t).scale(F(1, 4)), s4t.scale(-1))
        assert c_series.orders[1] == want

    def test_c1_generic_formula_reduces_at_2_1(self, c_series):
        assert generic_c1(P) == c_series.orders[1]

    def test_c1_generic_formula_off_resonance(self):
        # the same recursion run unphased at a non-resonant frequency pair
        # reproduces the closed form, so the formula holds generally
        # (the seed is built by hand: resonant_seed would refuse off-resonance)
        params = SystemParams(F(2), F(9, 10), 0.0)
        base = params.base
        om1 = params.omega1
        cos_env = TrigSeries.harmonic(base, 1, k=1, m=0, phase=COS)
        sin_env = TrigSeries.harmonic(base, 1, k=1, m=0, phase=SIN)
        c0_form = QuadFormSeries(cos_env.scale(-om1 ** 2), cos_env,
                                 sin_env.scale(2 * om1))
        c1 = from_form(base, recursion_step(params, to_form(c0_form)))
        assert c1 == generic_c1(params)

    def test_c1_vanishes_at_section_times(self, c_series):
        for k in (1, 2, 3):
            t = k * math.pi
            q = c_series.orders[1]
            for series in (q.cxx, q.cyy, q.cxy):
                assert abs(series.evaluate(t)) < 1e-12

    def test_c2_closed_form(self, c_series):
        # C_2 = (1/64)[ y^2(-10 cos 2t + 5/3 cos 6t - 13 c0 + 64/3)
        #             + x^2(-22 cos 2t - 37/3 cos 6t - 13 c0 + 64/3)
        #             - 2 xy (6 sin 2t - 5 sin 6t)] - (1/8)(y^2 + x^2) s0 t
        c2 = c_series.orders[2]
        sec = h(F(-1, 8), 0, 0, COS, p=1, s0_pow=1)
        want_cyy = (h(F(-10, 64), 1, 0, COS) + h(F(5, 192), 3, 0, COS)
                    + h(F(-13, 64), 0, 0, COS, c0_pow=1)
                    + TrigSeries.constant(BASE, F(1, 3)) + sec)
        want_cxx = (h(F(-22, 64), 1, 0, COS) + h(F(-37, 192), 3, 0, COS)
                    + h(F(-13, 64), 0, 0, COS, c0_pow=1)
                    + TrigSeries.constant(BASE, F(1, 3)) + sec)
        want_cxy = h(F(-12, 64), 1, 0, SIN) + h(F(10, 64), 3, 0, SIN)
        assert (c2.cyy, c2.cxx, c2.cxy) == (want_cyy, want_cxx, want_cxy)

    def test_c2_secular_matches_phi1_shape(self, c_series):
        sec = c_series.orders[2].secular_part()
        want = h(F(-1, 8), 0, 0, COS, p=1, s0_pow=1)
        assert sec.cxx == want and sec.cyy == want and sec.cxy.is_zero


class TestElimination:
    def test_q1_is_exactly_one_quarter(self, combo):
        assert combo.mix[0] == TrigSeries.constant(BASE, F(1, 4))
        assert combo.mix_rational(1) == F(1, 4)

    def test_q2_carries_generator_content(self, combo):
        # the order-3 cancellation requires a constant-ring coefficient;
        # frozen from the exact solve: q_2 = -2/3 + (15/32) c0
        want = (TrigSeries.constant(BASE, F(-2, 3))
                + h(F(15, 32), 0, 0, COS, c0_pow=1))
        assert combo.mix[1] == want
        with pytest.raises(ValueError):
            combo.mix_rational(2)

    def test_no_secular_terms_through_order_3(self, combo):
        for q in combo.combined.orders:
            assert q.secular_part().is_zero
            assert q.max_secular_degree() == 0

    def test_combined_order_zero_is_c0(self, combo, c_series):
        assert combo.combined.orders[0] == c_series.orders[0]

    def test_s0_zero_initial_conditions_still_give_quarter(self):
        # the solve is symbolic over the generators, so the initial phase
        # never enters; rebuilding changes nothing
        again = eliminate_secular(P, 2)
        assert again.mix[0] == TrigSeries.constant(BASE, F(1, 4))

    def test_elimination_stays_solvable_deeper(self):
        # the order-by-order solve keeps working well past order 3
        combo = eliminate_secular(P, 6)
        assert len(combo.mix) == 5
        assert all(q.secular_part().is_zero for q in combo.combined.orders)

    def test_unsolvable_secular_raises(self, c_series, phi_series):
        # C_2 and Phi_1 carry their secular parts on x^2 and y^2 alike, so
        # q_1 = 1/4 solves the pair; a reference with it on x^2 alone is not
        # proportional to C_2's
        target = _secular(to_form(c_series.orders[2]))
        reference = _secular(to_form(phi_series.orders[1]))
        assert _solve_ratio(target, reference) == (4, {(0, 0): 1})
        den, (xx, _, _) = reference
        with pytest.raises(UnsolvableSecular):
            _solve_ratio(target, (den, [xx, {}, {}]))


class TestMixingRecurrence:
    """The loop over X_n against the direct sum it replaces.

    The reference rebuilds Cbar_n = C_n + sum_{i=1}^{min(n, s-1)} q_i Phi_{n-i}
    with the Fraction TrigSeries product from full-depth C and Phi series,
    and checks that it is secular-free, so a wrong q cannot pass either.
    """

    @pytest.mark.parametrize("omega, omega1", [(F(2), F(1)), (F(3), F(3, 2))],
                             ids=["2,1", "3,3/2"])
    def test_combined_equals_direct_sum(self, omega, omega1):
        params = SystemParams(omega, omega1, 0.0)
        c_full, phi_full = build_resonant_c(params, 12), build_resonant_phi(params, 12)
        mix = eliminate_secular(params, 12).mix
        products = {}

        def q_phi(i, j):
            if (i, j) not in products:
                q, f = mix[i - 1], phi_full.orders[j]
                products[i, j] = QuadFormSeries(q * f.cxx, q * f.cyy, q * f.cxy)
            return products[i, j]

        for s in range(13):
            combo = eliminate_secular(params, s)
            assert combo.mix == mix[:max(0, s - 1)]
            want = [c_full.orders[0]]
            for n in range(1, s + 1):
                cbar = c_full.orders[n]
                for i in range(1, min(n, s - 1) + 1):
                    cbar = cbar + q_phi(i, n - i)
                assert cbar.secular_part().is_zero
                want.append(cbar)
            assert combo.combined.orders == tuple(want)


class TestSectionForm:
    def test_unperturbed_hyperbola(self, combo):
        a, b, d = resonant_section_form(combo, 0.0)
        assert (a, b, d) == (-1.0, 1.0, 0.0)

    def test_order_eps_coefficients_exact(self, combo):
        # Cbar_1 at t = 0 is exactly ((1/8), (1/8), 0): the section form is
        # (y^2 - x^2) + (eps/8)(x^2 + y^2) + O(eps^2) for the built series
        assert combo.combined.orders[1].value_at_zero() == (F(1, 8), F(1, 8), F(0))

    def test_hyperbola_type_for_small_eps(self, combo):
        a, b, d = resonant_section_form(combo, 0.05)
        assert a * b - d * d < 0

    def test_section_residual_eps_005(self, combo, orbit_cache):
        _, _, pts = orbit_cache("1", 0.05, 15)
        a, b, d = resonant_section_form(combo, 0.05)
        level = b  # value at (0, 1)
        resid = max(abs(a * p.x ** 2 + b * p.y ** 2 + 2 * d * p.x * p.y - level)
                    / abs(level) for p in pts)
        assert resid <= 1e-2

    def test_section_residual_eps_015(self, combo, orbit_cache):
        _, _, pts = orbit_cache("1", 0.15, 15)
        a, b, d = resonant_section_form(combo, 0.15)
        level = b
        resid = max(abs(a * p.x ** 2 + b * p.y ** 2 + 2 * d * p.x * p.y - level)
                    / abs(level) for p in pts)
        assert resid <= 5e-2

    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("c0, s0", [(1.0, 0.0), (0.6, 0.8)])
    def test_order10_form_is_the_monodromy_invariant_form(self, form_miss, eps, c0, s0):
        # the exact hyperbolic section invariant, from Hill's determinants (about
        # 1e-15) and sharing no code with the rationals; the bound leaves 1e-10
        params = SystemParams(F(2), F(1), 0.0)
        m = monodromy(params, eps)
        assert abs(m.trace) > 2.0

        def miss(order):
            conic = resonant_section_form(eliminate_secular(params, order), eps,
                                          PhaseConstants(c0, s0))
            return form_miss(conic, m)

        assert miss(10) <= 1e-10  # 1.5e-15 measured
        assert miss(2) > 1e-5  # 3.9e-5 to 1.9e-3 measured

    @pytest.mark.parametrize("c0, s0", [(1.0, 0.0), (0.6, 0.8)])
    def test_order40_form_at_eps_1(self, form_miss, c0, s0):
        # the abstract's resonant claim far from eps = 0: order 40 meets the
        # hyperbolic invariant to 10 * TOL = 1e-11, the accuracy a stepper at
        # rtol = TOL gives M (Hill's determinants, which give m here: about
        # 1e-15), while order 10 misses it by 1e5 * TOL
        params = SystemParams(F(2), F(1), 0.0)
        m = monodromy(params, 1.0)

        def miss(order):
            conic = resonant_section_form(eliminate_secular(params, order), 1.0,
                                          PhaseConstants(c0, s0))
            return form_miss(conic, m)

        assert miss(40) <= 10 * TOL  # 1.7e-16 measured
        assert miss(10) > 1e5 * TOL  # 2.6e-6 and 6.2e-6 measured


class TestPhaseConstants:
    def test_binding_formula(self):
        pc = PhaseConstants.from_initial_conditions(P, 0.6, 0.7)
        two_phi0 = 0.7 ** 2 + 0.6 ** 2
        assert pc.c0 == pytest.approx((0.49 - 0.36) / two_phi0)
        assert pc.s0 == pytest.approx(-2 * 0.42 / two_phi0)
        assert pc.c0 ** 2 + pc.s0 ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_start_on_y_axis_is_zero_phase(self):
        pc = PhaseConstants.from_initial_conditions(P, 0.0, 1.0)
        assert (pc.c0, pc.s0) == (1.0, 0.0)

    def test_relation_enforced(self):
        with pytest.raises(ValueError):
            PhaseConstants(1.0, 1.0)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            PhaseConstants.from_initial_conditions(P, 0.0, 0.0)

    @pytest.mark.parametrize("c0, s0", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_constants_rejected(self, c0, s0):
        # abs(nan) > 1e-9 is False, so the relation check alone lets nan through
        with pytest.raises(InvalidInput, match="finite"):
            PhaseConstants(c0, s0)

    @pytest.mark.parametrize("x0, y0", [(math.inf, 1.0), (0.0, math.nan), (1e200, 1.0)])
    def test_non_finite_initial_conditions_rejected(self, x0, y0):
        with pytest.raises(InvalidInput, match="non-finite 2\\*Phi0"):
            PhaseConstants.from_initial_conditions(P, x0, y0)


class TestConservation:
    def test_combined_beats_raw_c_on_generic_phase_orbit(self, combo, c_series,
                                                         orbit_cache):
        # an orbit with s0 != 0 keeps the secular terms alive in raw C
        _, traj, _ = orbit_cache("1", 0.05, 15, 8, 0.6, 0.7)
        pc = PhaseConstants.from_initial_conditions(P, 0.6, 0.7)
        comb = [combo.evaluate(s.x, s.y, s.t, 0.05, pc) for s in traj]
        raw = [c_series.evaluate(s.x, s.y, s.t, 0.05, c0=pc.c0, s0=pc.s0)
               for s in traj]
        resid_comb = max(abs(v - comb[0]) for v in comb)
        resid_raw = max(abs(v - raw[0]) for v in raw)
        assert resid_comb <= resid_raw
        assert resid_comb < 1e-3  # and it is genuinely conserved
