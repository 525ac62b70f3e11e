"""Integral-builder tests: the recursion against hand-checked coefficients.

The first- and second-order closed-form coefficients used here were derived
independently by solving the recursion by hand, so they pin the whole
pipeline: bracket, substitution, exact integration, back-substitution.
The order-28 conic is checked against the one-period map's exact
invariant conic in test_analysis.py, TestInvariantCurves::
test_order28_conic_is_the_monodromy_invariant_form.
"""

import math
import random
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import series_reference as ref
from mathieu_integrals import (QuadFormSeries, ResonanceDetected,
                               SecularTerm, SystemParams, build_integral,
                               conic_at_section, h0_form, h1_form, psi_series)
from mathieu_integrals import output, resonant
from mathieu_integrals.builder import (MAX_ORDER, back_substitute, poisson_bracket_with_h1,
                                       substitute_zero_order)
from mathieu_integrals.cli import DEFAULT_EPS_GRID, main
from mathieu_integrals.errors import MalformedSpectrum
from mathieu_integrals.trigseries import COS, SIN, TrigSeries

P = SystemParams(F(2), F(9, 10), 0.1)
BASE = P.base

# non-resonant rational pairs for the exactness sweeps (j*omega != 2*omega1)
RANDOM_PAIRS = [
    (F(2), F(9, 10)),
    (F(5, 2), F(7, 10)),
    (F(3), F(4, 5)),
    (F(7, 3), F(6, 5)),
    (F(2), F(13, 7)),
]


def h(coeff, k, m, phase, base=BASE, **kw):
    return TrigSeries.harmonic(base, coeff, k=k, m=m, phase=phase, **kw)


class TestSystemParams:
    def test_mathieu_map(self):
        assert P.mathieu_a == F(81, 100)
        assert P.mathieu_q(0.1) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(F(-1), F(1))
        with pytest.raises(TypeError):
            SystemParams(2.0, 0.9)

    def test_string_construction(self):
        q = SystemParams("2", "0.9", 0.1)
        assert q.omega1 == F(9, 10)


class TestQuadFormInvariants:
    def test_envelopes_must_be_driving_only(self):
        with pytest.raises(ValueError):
            QuadFormSeries(h(1, 0, 2, COS), TrigSeries.zero(BASE),
                           TrigSeries.zero(BASE))

    def test_base_mismatch_rejected(self):
        other = SystemParams(F(2), F(1), 0.0).base
        with pytest.raises(ValueError):
            QuadFormSeries(TrigSeries.zero(BASE), TrigSeries.zero(other),
                           TrigSeries.zero(BASE))


class TestBracket:
    def test_h0_seed_gives_minus_2xy_cos(self):
        k = poisson_bracket_with_h1(P, h0_form(P))
        assert k.cxy == h(-2, 1, 0, COS)
        assert k.cxx.is_zero and k.cyy.is_zero

    def test_pure_y2_form(self):
        f = QuadFormSeries.constant(BASE, 0, F(3), 0)
        k = poisson_bracket_with_h1(P, f)
        assert k.cxy == h(-12, 1, 0, COS)

    def test_forms_without_y_dependence_commute(self):
        f = QuadFormSeries.constant(BASE, F(5), 0, 0)
        assert poisson_bracket_with_h1(P, f).is_zero


class TestSubstitution:
    def test_x_squared(self):
        f = QuadFormSeries.constant(BASE, 1, 0, 0)
        got = substitute_zero_order(P, f)
        om1 = F(9, 10)
        want = (TrigSeries.constant(BASE, 1) - h(1, 0, 2, COS)).scale(F(1, 2) / om1 ** 2)
        assert got == want

    def test_y_squared(self):
        f = QuadFormSeries.constant(BASE, 0, 1, 0)
        got = substitute_zero_order(P, f)
        want = (TrigSeries.constant(BASE, 1) + h(1, 0, 2, COS)).scale(F(1, 2))
        assert got == want

    def test_xy(self):
        f = QuadFormSeries.constant(BASE, 0, 0, 1)
        got = substitute_zero_order(P, f)
        assert got == h(F(1, 2) / F(9, 10), 0, 2, SIN)


class TestBackSubstitution:
    def test_cos_2om1t(self):
        got = back_substitute(P, h(1, 0, 2, COS))
        assert got.cyy == TrigSeries.constant(BASE, 1)
        assert got.cxx == TrigSeries.constant(BASE, -F(81, 100))
        assert got.cxy.is_zero

    def test_constant(self):
        got = back_substitute(P, TrigSeries.constant(BASE, 1))
        assert got.cyy == TrigSeries.constant(BASE, 1)
        assert got.cxx == TrigSeries.constant(BASE, F(81, 100))

    def test_malformed_spectrum(self):
        with pytest.raises(MalformedSpectrum):
            back_substitute(P, h(1, 0, 1, COS))

    def test_secular_rejected_unless_allowed(self):
        with pytest.raises(SecularTerm):
            back_substitute(P, h(1, 0, 0, COS, p=1))
        back_substitute(P, h(1, 0, 0, COS, p=1), secular_allowed=True)

    def test_round_trip_on_basis_and_random_forms(self):
        rng = random.Random(17)
        basis = [QuadFormSeries.constant(BASE, 1, 0, 0),
                 QuadFormSeries.constant(BASE, 0, 1, 0),
                 QuadFormSeries.constant(BASE, 0, 0, 1)]

        def random_envelope(generators=False):
            terms = []
            for _ in range(rng.randint(1, 3)):
                key = (0, rng.randint(0, 3), 0, rng.choice([COS, SIN]),
                       rng.randint(0, 1) if generators else 0,
                       rng.randint(0, 2) if generators else 0)
                terms.append((key, F(rng.randint(-9, 9), rng.randint(1, 9))))
            return TrigSeries(BASE, terms)

        forms = list(basis)
        for _ in range(50):
            forms.append(QuadFormSeries(random_envelope(), random_envelope(),
                                        random_envelope()))
        for f in forms:
            assert back_substitute(P, substitute_zero_order(P, f)) == f
        # phased round trip (off resonance the keys stay distinguishable)
        for _ in range(25):
            f = QuadFormSeries(random_envelope(True), random_envelope(True),
                               random_envelope(True))
            got = back_substitute(P, substitute_zero_order(P, f, phased=True),
                                  phased=True)
            assert got == f


def first_order_forms(params):
    """The hand-derived order-eps coefficients of the H0-seeded integral."""
    om, om1 = params.omega, params.omega1
    base = params.base
    d1 = om ** 2 - 4 * om1 ** 2
    cxx = (h(1, 1, 0, COS, base) + TrigSeries.constant(base, 1)).scale(2 * om1 ** 2 / d1)
    cyy = (h(1, 1, 0, COS, base) - TrigSeries.constant(base, 1)).scale(-2 / d1)
    cxy = h(1, 1, 0, SIN, base).scale(-2 * om / d1)
    return cxx, cyy, cxy


class TestBuildIntegral:
    def test_order_zero_is_h0(self):
        phi = build_integral(P, 0)
        assert phi.orders[0] == h0_form(P)
        assert phi.order == 0

    def test_resonance_detected(self):
        with pytest.raises(ResonanceDetected) as err:
            build_integral(SystemParams(F(2), F(1), 0.0), 2)
        assert err.value.j == 1
        with pytest.raises(ResonanceDetected) as err:
            build_integral(SystemParams(F(2), F(2), 0.0), 2)
        assert err.value.j == 2
        # resonance beyond the built order is fine
        build_integral(SystemParams(F(2), F(3), 0.0), 1)
        with pytest.raises(ResonanceDetected):
            build_integral(SystemParams(F(2), F(3), 0.0), 2)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            build_integral(P, -1)
        with pytest.raises(ValueError):
            build_integral(P, MAX_ORDER + 1)

    @pytest.mark.parametrize("om,om1", RANDOM_PAIRS)
    def test_first_order_closed_form(self, om, om1):
        params = SystemParams(om, om1, 0.0)
        phi = build_integral(params, 1)
        cxx, cyy, cxy = first_order_forms(params)
        assert phi.orders[1].cxx == cxx
        assert phi.orders[1].cyy == cyy
        assert phi.orders[1].cxy == cxy

    @pytest.mark.parametrize("om,om1", RANDOM_PAIRS)
    def test_second_order_closed_form(self, om, om1):
        params = SystemParams(om, om1, 0.0)
        phi = build_integral(params, 2)
        d1 = om ** 2 - 4 * om1 ** 2
        den = d1 ** 2 * (om ** 2 - om1 ** 2)
        two = phi.orders[2]
        # coefficient of x^2 is (om1^2/2) times the C_x series
        cx2 = two.cxx.scale(2 / om1 ** 2)
        assert cx2.coefficient(0, 1, 0, COS) == 16 * (om ** 2 - om1 ** 2) / den
        assert cx2.coefficient(0, 2, 0, COS) == (4 * om1 ** 2 + 7 * om ** 2
                                                 - 2 * om ** 4 / om1 ** 2) / den
        assert cx2.coefficient(0, 0, 0, COS) == (12 * om1 ** 2 - 7 * om ** 2
                                                 + 4 * om ** 4 / om1 ** 2) / den
        cy2 = two.cyy.scale(2)
        assert cy2.coefficient(0, 1, 0, COS) == -16 * (om ** 2 - om1 ** 2) / den
        assert cy2.coefficient(0, 2, 0, COS) == 3 * d1 / den
        assert cy2.coefficient(0, 0, 0, COS) == (13 * om ** 2 - 4 * om1 ** 2) / den
        cxy2 = two.cxy.scale(2)
        assert cxy2.coefficient(0, 1, 0, SIN) == -16 * om * (om ** 2 - om1 ** 2) / den
        assert cxy2.coefficient(0, 2, 0, SIN) == 6 * om * d1 / den

    def test_harmonic_bound_and_pure_sine_xy(self, phi28):
        for s, q in enumerate(phi28.orders):
            assert q.max_harmonic() <= s
            assert all(key[3] == SIN for key, _ in q.cxy.terms())
            assert q.max_secular_degree() == 0

    def test_truncation(self, phi28):
        t6 = phi28.truncated(6)
        assert t6.order == 6
        assert t6.orders == phi28.orders[:7]
        with pytest.raises(ValueError):
            phi28.truncated(29)


class TestConic:
    def test_unperturbed_limit(self):
        phi = build_integral(P, 4)
        a, b, d = conic_at_section(phi, 0.0)
        assert (a, b, d) == (pytest.approx(0.81 / 2), 0.5, 0.0)

    def test_b_is_half_and_d_zero_exactly_at_every_order(self, phi28):
        for s, q in enumerate(phi28.orders):
            if s >= 1:
                assert q.cyy.constant_at_zero() == 0
            assert q.cxy.constant_at_zero() == 0  # pure sine series

    def test_first_order_A(self):
        phi = build_integral(P, 1)
        om, om1 = P.omega, P.omega1
        d1 = om ** 2 - 4 * om1 ** 2
        # A = (om1^2/2)(1 + 8 eps/d1) + O(eps^2)
        a1_exact = phi.orders[1].cxx.constant_at_zero()
        assert a1_exact == om1 ** 2 / 2 * 8 / d1

    def test_second_order_A(self):
        phi = build_integral(P, 2)
        om, om1 = P.omega, P.omega1
        a2 = phi.orders[2].cxx.constant_at_zero()
        want = om ** 2 * (om ** 2 + 8 * om1 ** 2) / (
            (om ** 2 - 4 * om1 ** 2) ** 2 * (om ** 2 - om1 ** 2))
        assert a2 == want

    def test_semiaxis_estimate(self):
        # a = sqrt(Phi/A) ~ (1/om1)(1 - 4 eps/(om^2 - 4 om1^2)) for small eps
        phi = build_integral(P, 6)
        eps = 0.01
        a_coef, _, _ = conic_at_section(phi, eps)
        semiaxis = math.sqrt(0.5 / a_coef)
        om1 = 0.9
        estimate = (1 / om1) * (1 - 4 * eps / (4 - 4 * om1 ** 2))
        assert abs(semiaxis - estimate) < 30 * eps ** 2


#: the epsilon grid of ``build-integral --conics-out`` at the default --epsilon 0.1
CLI_GRID = sorted(set(DEFAULT_EPS_GRID + [0.1]))


@pytest.fixture(scope="module")
def combined():
    """The order-10 resonant combined integral at omega = 2, omega1 = 1."""
    return resonant.eliminate_secular(SystemParams(F(2), F(1), 0.05), 10)


class TestFloatTables:
    """The float tables reproduce the per-call Fraction conversion bit for bit."""

    @pytest.mark.parametrize("omega1", ["9/10", "1/10", "11/10"])
    def test_conic_grid(self, omega1):
        phi = build_integral(SystemParams(F(2), F(omega1), 0.1), 28)
        for eps in CLI_GRID:
            assert conic_at_section(phi, eps) == ref.conic_at_section(phi, eps)

    @pytest.mark.parametrize("x0, y0", [(0.3, 0.8), (-1.1, 0.45)])
    def test_resonant_conic_grid(self, combined, x0, y0):
        pc = resonant.PhaseConstants.from_initial_conditions(combined.combined.params, x0, y0)
        for eps in CLI_GRID:
            want = ref.conic_at_section(combined.combined, eps, c0=pc.c0, s0=pc.s0)
            assert resonant.resonant_section_form(combined, eps, pc) == want

    def test_phased_conic_grid_per_phase_pair(self):
        # odd powers of s0 survive at t = 0 here: (0.6, 0.8) and (0.6, -0.8) differ in D
        phi = resonant.build_resonant_phi(SystemParams(F(2), F(1), 0.05), 3)
        for c0, s0 in [(0.6, 0.8), (0.6, -0.8), (1.0, 0.0)]:
            for eps in CLI_GRID:
                want = ref.conic_at_section(phi, eps, c0=c0, s0=s0)
                assert conic_at_section(phi, eps, c0, s0) == want

    def test_conics_csv_bytes(self, tmp_path):
        out = tmp_path / "conics28.csv"
        res = CliRunner().invoke(main, ["build-integral", "--order", "28", "--out",
                                        str(tmp_path / "phi28.json"), "--conics-out", str(out)],
                                 catch_exceptions=False)
        assert res.exit_code == 0
        phi = build_integral(P, 28)
        rows = [(eps, *ref.conic_at_section(phi, eps)) for eps in CLI_GRID]
        assert out.read_text() == output.columns_csv(("epsilon", "A", "B", "D"), rows)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.floats(-3.0, 3.0)] * 4), st.floats(-200.0, 200.0),
           st.floats(-0.2, 0.2), st.floats(-math.pi, math.pi))
    def test_evaluate(self, phi28, combined, xyc0s0, t, eps, phase):
        x, y, c0, s0 = xyc0s0
        for phi in (phi28, combined.combined):
            assert phi.evaluate(x, y, t, eps, c0, s0) == ref.formal_evaluate(phi, x, y, t, eps,
                                                                             c0, s0)
        pc = resonant.PhaseConstants(math.cos(phase), math.sin(phase))
        assert combined.evaluate(x, y, t, eps, pc) == ref.formal_evaluate(
            combined.combined, x, y, t, eps, pc.c0, pc.s0)
        for q in phi28.orders[:4] + combined.combined.orders[:4]:
            for series in (q.cxx, q.cyy, q.cxy):
                assert series.evaluate(t, c0, s0) == ref.trig_evaluate(series, t, c0, s0)


class TestEvaluation:
    def test_eps_zero_reduces_to_h0(self, phi28):
        for x, y, t in [(0.3, -0.7, 1.3), (1.0, 0.0, 0.0), (-0.2, 0.4, 7.7)]:
            want = 0.5 * (y * y + 0.81 * x * x)
            assert phi28.evaluate(x, y, t, epsilon=0.0) == pytest.approx(want, rel=1e-14)

    def test_first_order_vanishes_at_0_1_0(self):
        # cyy_1(0) = 0 exactly, so Phi(0,1,0) = 1/2 + O(eps^2)
        phi = build_integral(P, 1)
        assert phi.orders[1].cyy.constant_at_zero() == 0
        assert phi.evaluate(0.0, 1.0, 0.0, epsilon=1e-3) == pytest.approx(0.5, abs=1e-9)

    def test_conservation_along_orbit_oracle(self, phi28, orbit_cache):
        # frozen from the numerical-orbit oracle: the order-6 truncation at
        # eps = 0.1 conserves to ~1.8e-2 relative over 200 periods (the
        # truncation error dictated by the eps_crit convergence radius; see
        # the acceptance suite for the corresponding criterion discussion)
        _, traj, _ = orbit_cache("9/10", 0.1, 200, 8)
        phi6 = phi28.truncated(6)
        v0 = phi6.evaluate(0.0, 1.0, 0.0, 0.1)
        resid = max(abs(phi6.evaluate(s.x, s.y, s.t, 0.1) - v0) for s in traj) / abs(v0)
        assert 1.2e-2 < resid < 2.3e-2

    def test_residual_decays_with_order(self, phi28, orbit_cache):
        # dPhi/dt along the orbit, by finite differences of the evaluation
        _, traj, _ = orbit_cache("9/10", 0.1, 200, 8)
        sub = traj[:400]
        rates = []
        for order in (2, 4, 6):
            phi_s = phi28.truncated(order)
            vals = [phi_s.evaluate(s.x, s.y, s.t, 0.1) for s in sub]
            dt = sub[1].t - sub[0].t
            rates.append(max(abs(b - a) / dt for a, b in zip(vals, vals[1:])))
        assert rates[0] > rates[1] > rates[2]


class TestPsiSeries:
    def test_psi1_closed_form(self):
        phi = build_integral(P, 2)
        psi = psi_series(phi)
        om, om1 = P.omega, P.omega1
        d1 = om ** 2 - 4 * om1 ** 2
        # Psi_1 = [((2 om1^2 - om^2) x^2 + 2 y^2) cos wt + 2 w xy sin wt
        #          - 2(om1^2 x^2 + y^2)] / d1
        want_cxx = (h(2 * om1 ** 2 - om ** 2, 1, 0, COS)
                    + TrigSeries.constant(BASE, -2 * om1 ** 2)).scale(1 / d1)
        want_cyy = (h(2, 1, 0, COS) + TrigSeries.constant(BASE, -2)).scale(1 / d1)
        want_cxy = h(2 * om, 1, 0, SIN).scale(1 / d1)
        assert psi.orders_from_one[0].cxx == want_cxx
        assert psi.orders_from_one[0].cyy == want_cyy
        assert psi.orders_from_one[0].cxy == want_cxy

    def test_psi1_plus_phi1_is_h1(self):
        phi = build_integral(P, 2)
        psi = psi_series(phi)
        total = psi.orders_from_one[0] + phi.orders[1]
        assert total == h1_form(P)

    def test_psi2_is_minus_phi2(self):
        phi = build_integral(P, 3)
        psi = psi_series(phi)
        assert psi.orders_from_one[1] == -phi.orders[2]
        assert psi.orders_from_one[2] == -phi.orders[3]

    def test_requires_first_order(self):
        with pytest.raises(ValueError):
            psi_series(build_integral(P, 0))

    def test_phi_plus_psi_vanishes_along_orbit(self, phi28, orbit_cache):
        _, traj, _ = orbit_cache("9/10", 0.1, 200, 8)
        phi6 = phi28.truncated(6)
        psi6 = psi_series(phi6)
        worst = 0.0
        for s in traj[::5]:
            total = (phi6.evaluate(s.x, s.y, s.t, 0.1)
                     + psi6.evaluate(s.x, s.y, s.t, s.E, 0.1))
            worst = max(worst, abs(total))
        assert worst <= 1e-6
