"""Integrator, section, monodromy and escape tests.

The harmonic-oscillator limit (eps = 0) provides closed-form oracles;
the Hamiltonian structure provides det M = 1 and reversibility; the
extended energy provides an independent accuracy monitor.
"""

import math
import random
import re
import time
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dop853_reference
from dp5_reference import integration_points, one_period, rhs_linear, rhs_matrix, rhs_period
from mathieu_integrals import (StepFailure, SystemParams, Unbounded, dynamics,
                               escape_diagnostics, integrate_orbit, monodromy,
                               stroboscopic_section)
from mathieu_integrals.dynamics import _hill_points
from mathieu_integrals.errors import DomainError, InvalidInput

P01 = SystemParams(F(2), F(9, 10), 0.1)


def _count_trig(monkeypatch, names=("cos", "sin")):
    """Record the arguments of every call of ``names`` made by ``dynamics``."""
    args = []

    def counted(fn):
        def g(x):
            args.append(x)
            return fn(x)
        return g

    proxy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                     if not k.startswith("_")})
    for name in names:
        setattr(proxy, name, counted(getattr(math, name)))
    monkeypatch.setattr(dynamics, "math", proxy)
    return args


class TestHarmonicLimit:
    def test_closed_form_solution(self):
        params = SystemParams(F(2), F(9, 10), 0.0)
        traj = integrate_orbit(params, 0.0, 1.0, 10, samples_per_period=16)
        om1 = 0.9
        for s in traj:
            assert s.x == pytest.approx(math.sin(om1 * s.t) / om1, abs=1e-9)
            assert s.y == pytest.approx(math.cos(om1 * s.t), abs=1e-9)

    def test_energy_constant_without_driving(self):
        params = SystemParams(F(2), F(9, 10), 0.0)
        traj = integrate_orbit(params, 0.0, 1.0, 10, samples_per_period=4)
        assert all(s.E == traj[0].E for s in traj)  # dE/dt is identically zero

    def test_section_rotation_step(self):
        params = SystemParams(F(2), F(9, 10), 0.0)
        pts = stroboscopic_section(params, 0.0, 1.0, 40)
        # rigid rotation by 2 pi omega1/omega = 0.9 pi per period in (om1 x, y)
        step = 2 * math.pi * 0.9 / 2.0
        for a, b in zip(pts, pts[1:]):
            tha = math.atan2(a.y, 0.9 * a.x)
            thb = math.atan2(b.y, 0.9 * b.x)
            d = (thb - tha + math.pi) % (2 * math.pi) - math.pi
            assert abs(abs(d) - step) < 1e-9


class TestSampling:
    def test_section_times_exact(self, orbit_cache):
        params, traj, pts = orbit_cache("9/10", 0.1, 200)
        T = params.period
        for k, s in enumerate(traj):
            assert s.t == k * T  # bitwise: the stepper lands on targets
        assert [p.k for p in pts] == list(range(201))

    def test_subperiod_sampling_counts(self):
        traj = integrate_orbit(P01, 0.0, 1.0, 5, samples_per_period=8)
        assert len(traj) == 41
        assert [s.t for s in traj[::8]] == [k * P01.period for k in range(6)]
        assert len(stroboscopic_section(P01, 0.0, 1.0, 5)) == 6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate_orbit(P01, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            integrate_orbit(P01, 0.0, 1.0, 1, samples_per_period=0)
        with pytest.raises(InvalidInput, match="origin"):
            integrate_orbit(P01, 0.0, -0.0, 1)

    def test_step_failure_on_impossible_tolerance(self, monkeypatch):
        # below the roundoff floor of the embedded error estimate the
        # controller shrinks the step into underflow
        monkeypatch.setattr(dynamics, "_RTOL", 1e-40)
        monkeypatch.setattr(dynamics, "_ATOL", 1e-40)
        with pytest.raises(StepFailure, match="step size underflow"):
            integrate_orbit(P01, 0.0, 1.0, 1)

    def test_step_failure_on_exhausted_budget(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
        with pytest.raises(StepFailure, match="step budget exhausted"):
            monodromy(P01, 0.1)

    def test_span_beyond_the_step_budget_fails_before_stepping(self, monkeypatch):
        # omega = 1e-150 puts 4.5e149 oscillations of omega1 into T/2
        trig = _count_trig(monkeypatch)
        params = SystemParams(F(1, 10**150), F(9, 10), 0.1)
        with pytest.raises(StepFailure, match="oscillations of omega1"):
            monodromy(params, 0.1)
        with pytest.raises(StepFailure, match="oscillations of omega1"):
            integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=32)
        assert trig == []
        # the bound is the step budget itself: 10.5 oscillations against 10 steps
        # fail at once, 9.5 run into the budget
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
        cycle = 2 * math.pi / 0.9
        with pytest.raises(StepFailure, match="oscillations of omega1"):
            list(_hill_points(P01, 0.1, [10.5 * cycle]))
        assert trig == []
        with pytest.raises(StepFailure, match="step budget exhausted"):
            list(_hill_points(P01, 0.1, [9.5 * cycle]))

    def test_tolerance_below_float64_floor_fails_before_stepping(self):
        calls = []

        def rhs(t, u):
            calls.append(t)
            return rhs_linear(P01, 0.1)(t, u)

        with pytest.raises(StepFailure, match="float64 floor"):
            list(integration_points(rhs, 0.0, (0.0, 1.0), [1.0], 1e-15, 1e-12))
        assert calls == []
        list(integration_points(rhs, 0.0, (0.0, 1.0), [1.0], 1e-13, 1e-12))  # above the floor


class TestExtendedEnergy:
    def test_h_plus_e_bounded_by_1e8(self, orbit_cache):
        params, traj, _ = orbit_cache("9/10", 0.1, 200, 8)
        worst = max(abs(params.hamiltonian(s.x, s.y, s.t) + s.E) for s in traj)
        assert worst <= 1e-8

    def test_e_starts_at_minus_h0(self):
        traj = integrate_orbit(P01, 0.0, 1.0, 1)
        assert traj[0].E == -0.5  # H(0,1,0) = 1/2 at x0 = 0

    def test_bounded_energy_band_below_zero(self, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.18, 60)
        energies = [p.E for p in pts]
        assert max(energies) < 0.0
        assert min(energies) > -2.0  # oscillates in a band, no runaway


class TestOrbitGeometry:
    def test_ring_with_central_hole(self, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.1, 200)
        ds = [p.d for p in pts]
        assert max(ds) <= 1.0 + 1e-9
        assert 0.2 < min(ds) < 0.9  # spirals inward, leaving an empty hole
        assert max(ds[1:]) > 0.995  # and returns near d = 1 recurrently

    def test_negative_eps_outside_unperturbed_ellipse(self, orbit_cache):
        _, _, pts = orbit_cache("9/10", -0.1, 200)
        assert min(p.d for p in pts) >= 1.0 - 1e-9


class TestEscape:
    def test_bounded_run(self, orbit_cache):
        params, _, pts = orbit_cache("9/10", 0.1, 200)
        report = escape_diagnostics(pts, period=params.period)
        assert not report.escaped
        assert report.k_escape is None and report.growth_rate is None
        assert all(p.r <= 2.0 for p in pts)

    def test_escape_at_019_is_log_linear(self, orbit_cache):
        params, _, pts = orbit_cache("9/10", 0.19, 150)
        report = escape_diagnostics(pts, period=params.period)
        assert report.escaped and report.k_escape is not None
        assert report.growth_rate > 0
        assert report.r_squared > 0.999

    def test_growth_increases_with_eps(self, orbit_cache):
        params, _, p19 = orbit_cache("9/10", 0.19, 150)
        _, _, p20 = orbit_cache("9/10", 0.20, 150)
        r19 = escape_diagnostics(p19, period=params.period)
        r20 = escape_diagnostics(p20, period=params.period)
        assert r20.growth_rate > r19.growth_rate

    def test_empty_section_rejected(self):
        with pytest.raises(ValueError):
            escape_diagnostics([])

    @pytest.mark.parametrize("r_escape", [-1.0, 0.0, math.nan, math.inf])
    def test_escape_radius_must_be_positive_and_finite(self, orbit_cache, r_escape):
        params, _, pts = orbit_cache("9/10", 0.19, 150)
        with pytest.raises(InvalidInput, match="escape radius"):
            escape_diagnostics(pts, r_escape=r_escape, period=params.period)

    @pytest.mark.parametrize("period", [None, 0.0, -math.pi, math.nan, math.inf])
    def test_period_is_required(self, orbit_cache, period):
        _, _, pts = orbit_cache("9/10", 0.19, 150)
        with pytest.raises(InvalidInput, match="period"):
            escape_diagnostics(pts, period=period)

    def test_growth_rate_is_floquet_exponent_at_omega_3(self):
        # T = 2 pi/3, not the pi of omega = 2: the fitted slope of log r
        # against t must be log|lambda_max| / T of the monodromy
        params = SystemParams(F(3), F(3, 2), 0.3)
        pts = stroboscopic_section(params, 0.0, 1.0, 100)
        report = escape_diagnostics(pts, period=params.period)
        lam = max(abs(ev) for ev in monodromy(params, 0.3).eigenvalues())
        assert report.escaped
        assert report.growth_rate == pytest.approx(math.log(lam) / params.period, rel=1e-3)


class TestMonodromy:
    def test_unperturbed_trace_analytic(self):
        m = monodromy(SystemParams(F(2), F(9, 10), 0.0), 0.0)
        assert abs(m.trace - 2 * math.cos(0.9 * math.pi)) < 1e-9

    def test_det_is_one_for_random_eps(self):
        rng = random.Random(42)
        for _ in range(20):
            eps = rng.uniform(-0.25, 0.25)
            m = monodromy(P01, eps)
            assert abs(m.det - 1.0) < 1e-9

    def test_flow_linearity(self):
        rng = random.Random(1)
        m = monodromy(P01, 0.1)
        for _ in range(5):
            x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            traj = integrate_orbit(P01, x0, y0, 1)
            mx, my = m.apply(x0, y0)
            assert math.hypot(traj[-1].x - mx, traj[-1].y - my) < 1e-9

    def test_stability_dichotomy(self):
        for eps in (0.05, 0.1, 0.15, 0.18):
            assert abs(monodromy(P01, eps).trace) < 2.0
        for eps in (0.19, 0.25):
            assert abs(monodromy(P01, eps).trace) > 2.0

    def test_multi_period_composition(self):
        m1 = monodromy(P01, 0.1, n=1)
        m3 = monodromy(P01, 0.1, n=3)
        # M(3T) = M(T)^3 for the periodic coefficient flow
        a, b = m1.m11, m1.m12
        c, d = m1.m21, m1.m22
        m2 = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
        m3x = (m2[0] * a + m2[1] * c, m2[0] * b + m2[1] * d,
               m2[2] * a + m2[3] * c, m2[2] * b + m2[3] * d)
        assert m3.m11 == pytest.approx(m3x[0], abs=1e-9)
        assert m3.m22 == pytest.approx(m3x[3], abs=1e-9)

    def test_elliptic_eigenvalues_unit_modulus(self):
        m = monodromy(P01, 0.1)
        e1, e2 = m.eigenvalues()
        assert abs(abs(e1) - 1.0) < 1e-9 and abs(abs(e2) - 1.0) < 1e-9

    def test_n_validation(self):
        with pytest.raises(ValueError):
            monodromy(P01, 0.1, n=0)
        with pytest.raises(ValueError):
            monodromy(P01, 0.1).power(0)

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_power_is_the_n_period_monodromy(self, n):
        # bit for bit: monodromy(n) is the power of the one-period solve
        m = monodromy(P01, 0.18).power(n)
        assert m == monodromy(P01, 0.18, n=n) and m.n == n
        assert m.power(2).n == 2 * n

    @pytest.mark.parametrize("omega1, eps", [("9/10", 0.0), ("9/10", 0.18), ("9/10", -0.185),
                                             ("1/10", 0.9), ("11/10", 0.1),
                                             ("301/100", 0.1), ("1/2", 1.5)])
    def test_matrix_only_solve_matches_energy_solve(self, omega1, eps):
        # monodromy solves for M alone, so its error norm runs over 4
        # components instead of 7 and the accepted steps differ slightly
        params = SystemParams(F(2), F(omega1), eps)
        m = monodromy(params, eps)
        (a, b, c, d, *_), = dynamics._one_period(params, eps, 1)
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
        diff = max(abs(m.m11 - a), abs(m.m12 - b), abs(m.m21 - c), abs(m.m22 - d))
        assert diff <= 2e-12 * scale


def _bits(values):
    return [v.hex() for v in values]


def _assert_orbit_solve_is_generic_solve(params, spp):
    """The half-period (M, Q) solve equals the generic 7-component DOP853 bit for bit.

    Its targets are s_j = (j/spp) T for j <= spp/2, then T/2 where spp is
    odd; ``_one_period`` returns the first spp // 2 of them unchanged.
    Returns its grid.
    """
    eps, T = params.epsilon, params.period
    targets = [(j / spp) * T for j in range(1, spp // 2 + 1)] + ([0.5 * T] if spp % 2 else [])
    kernel = list(_hill_points(params, eps, targets, energy=True))
    generic = [u for _, u in dop853_reference.integration_points(
        rhs_period(params, eps), 0.0, (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0), targets,
        dynamics._RTOL, dynamics._ATOL)]
    assert [_bits(u) for u in kernel] == [_bits(u) for u in generic]
    grid = dynamics._one_period(params, eps, spp)
    assert grid[:spp // 2] == kernel[:spp // 2]
    return grid


def _assert_assembled_period_matches_full_period_solve(params, grid):
    """The assembled (M, Q) grid against the generic DP5 solve over all of [0, T].

    Up to spp/2 the grid is the DOP853 solve and the reference a DP5 one,
    which share no code.  Sample j > spp/2 is R M(u) R M(T) and
    Q(T) + M(T)^T R Q(u) R M(T) at u = s_(spp-j), so the error of grid
    row spp - j (row 0 is (I, 0)) returns amplified by up to |M(T)|^2.
    Over 1200 random draws of the property range below and its 300
    corners (omega in {1/2, 21/20, 2, 4}, omega1 in {1/20, 1, 3}, eps in
    {0, +-1/2, +-1}, every spp) the worst entry error was 9.8e-12 of
    max(1, |row j|) before the middle and 2.0e-11 of max(1, |row j|,
    |M(T)|^2 |row spp - j|) past it: the bound is 1e-10 of that scale.
    """
    spp = len(grid)
    full = one_period(params, params.epsilon, spp, dynamics._RTOL, dynamics._ATOL)
    assert len(full) == spp
    m_T = max(map(abs, grid[-1][:4]))
    rows = [(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)] + grid
    for j, (got, want) in enumerate(zip(grid, full), start=1):
        scale = max(1.0, *map(abs, want))
        if j > spp // 2:
            scale = max(scale, m_T * m_T * max(map(abs, rows[spp - j])))
        assert all(abs(u - v) <= 1e-10 * scale for u, v in zip(got, want)), j


class TestTableau:
    """The DOP853 constants, in exact arithmetic on their float64 values."""

    NODES = {1: F(0), **{i: F(c) for i, c in dynamics._C.items()}}

    def test_nodes_are_the_row_sums(self):
        # c_i = sum_j a_ij, up to the rounding of the row's entries
        for i, row in dynamics._A.items():
            weights = [F(a) for a in row.values()]
            assert abs(sum(weights) - self.NODES[i]) <= 1e-15 * sum(map(abs, weights)), i

    def test_weights_integrate_polynomials_of_degree_below_8(self):
        # the quadrature conditions of an 8th-order method: sum_i b_i c_i^(k-1) = 1/k
        for k in range(1, 9):
            got = sum(F(b) * self.NODES[i] ** (k - 1) for i, b in dynamics._B.items())
            assert abs(got - F(1, k)) <= 1e-15, k

    def test_error_weights_sum_to_zero(self):
        # E5 is the difference of two 5th-order weight sets and E3 = B - BHH of
        # two 3rd-order ones: each annihilates c^(k-1) up to k = 5 and k = 3
        e3 = {i: F(b) - F(dynamics._BHH.get(i, 0.0)) for i, b in dynamics._B.items()}
        for weights, order in (({i: F(e) for i, e in dynamics._E5.items()}, 5), (e3, 3)):
            for k in range(1, order + 1):
                assert abs(sum(e * self.NODES[i] ** (k - 1) for i, e in weights.items())) <= 1e-15


#: M(T/2) and Q(T/2) at omega = 2, as (m11, m12, m21, m22, q11, q22, q12), from
#: mpmath's Taylor-series ``odefun`` on the 7-component system at 32 and at 42
#: digits, which agree in all 30 digits kept; eps is the float the solve receives.
THIRTY_DIGITS = {
    ("9/10", 0.1): ("0.237747844073993417775230579472", "1.09717596265093196776913923406",
                    "-0.895592795831429474928722029913", "0.0730905138513204694832065309428",
                    "-0.12458786684030336899180039459", "-0.110587633582119667833676518956",
                    "-0.099000197119054077467696222842"),
    ("9/10", 0.185): ("0.305244201123168532613899918384", "1.09655696395758530385907839847",
                      "-0.911757341483334567274452072467",
                      "0.000675320796387947219375533418483",
                      "-0.250623398042778581444728179421", "-0.20943816139937646509020722968",
                      "-0.197175551778093797058706772977"),
    ("301/100", 0.8): ("0.00285349379681209707254396211197", "-0.336872505703713673675256101036",
                       "2.96841390753532980489777217938", "0.00804943148896190653202742349697",
                       "-0.675733962766806361641422890991",
                       "-0.104902914406098252259852916633",
                       "-0.0068234391101400382597719230224"),
}


class TestHillKernel:
    """The specialised Hill-equation stepper against the generic one."""

    @pytest.mark.parametrize("omega1, eps", list(THIRTY_DIGITS))
    def test_half_period_solve_matches_30_digits(self, omega1, eps):
        # worst 6.5e-14 of max(1, |entry|) for (M, Q) and 1.2e-13 for M alone, at
        # omega1 = 301/100; the DP5 kernel missed by up to 2.0e-12
        params = SystemParams(F(2), F(omega1), eps)
        want = [float(v) for v in THIRTY_DIGITS[omega1, eps]]
        m_q, = _hill_points(params, eps, [0.5 * params.period], energy=True)
        m, = _hill_points(params, eps, [0.5 * params.period])
        for got in (m_q, m):
            assert all(abs(u - v) <= 5e-13 * max(1.0, abs(v)) for u, v in zip(got, want))

    # against the DP5 reference, which shares no code with the kernel: the
    # output of a command moves by this much from the DP5 kernel's, most of it
    # DP5's own error (worst 2.2e-12 of max(1, |entry|) in 1200 draws and the corners)
    @settings(max_examples=30, deadline=None)
    @given(omega=st.fractions(min_value=2, max_value=4, max_denominator=20),
           omega1=st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20),
           eps=st.floats(min_value=-1.5, max_value=1.5))
    def test_half_period_solve_matches_dp5(self, omega, omega1, eps):
        params = SystemParams(omega, omega1, eps)
        half = [0.5 * params.period]
        got, = _hill_points(params, eps, half, energy=True)
        (_, want), = integration_points(rhs_period(params, eps), 0.0,
                                        (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0), half,
                                        dynamics._RTOL, dynamics._ATOL)
        assert all(abs(u - v) <= 1e-11 * max(1.0, abs(v)) for u, v in zip(got, want))

    def test_half_period_solve_takes_few_steps(self, monkeypatch):
        # 11 cos calls per step attempt: 188 for the (M, Q) solve at omega1 =
        # 9/10, eps = 0.1, where the DP5 kernel made 426
        cos = _count_trig(monkeypatch, ("cos",))
        list(_hill_points(P01, 0.1, [0.5 * P01.period], energy=True))
        assert 0 < len(cos) <= 200

    @pytest.mark.parametrize("eps, periods", [(0.1857848562 - 1e-3, 40),
                                              (-(0.1857848562 - 1e-3), 40),
                                              (0.25, 60)])  # the last one escapes
    def test_one_column_stream_is_bit_identical(self, eps, periods):
        # both columns of M streamed over many periods, one target per period
        params = SystemParams(F(2), F(9, 10), eps)
        targets = [k * params.period for k in range(1, periods + 1)]
        kernel = list(_hill_points(params, eps, targets))
        generic = [u for _, u in dop853_reference.integration_points(
            rhs_matrix(params, eps), 0.0, (1.0, 0.0, 0.0, 1.0), targets,
            dynamics._RTOL, dynamics._ATOL)]
        assert len(kernel) == periods
        assert [_bits(u) for u in kernel] == [_bits(u) for u in generic]
        if eps == 0.25:
            assert max(map(abs, kernel[-1])) > 1e3

    @pytest.mark.parametrize("omega1, eps", [("9/10", 0.0), ("9/10", 0.18), ("9/10", -0.185),
                                             ("1/10", 0.9), ("11/10", 0.1),
                                             ("301/100", 0.1), ("1/2", 1.5)])
    @pytest.mark.parametrize("n", [1, 17])
    def test_monodromy_is_bit_identical_to_generic_solve(self, omega1, eps, n):
        # the generic solve over half a period, assembled into M(T) and raised to n
        params = SystemParams(F(2), F(omega1), eps)
        (_, (a, b, c, d)), = dop853_reference.integration_points(
            rhs_matrix(params, eps), 0.0, (1.0, 0.0, 0.0, 1.0), [0.5 * params.period],
            dynamics._RTOL, dynamics._ATOL)
        a, b, c, d = a * d + b * c, 2.0 * b * d, 2.0 * a * c, a * d + b * c
        m11, m12, m21, m22 = a, b, c, d
        for _ in range(n - 1):
            m11, m12, m21, m22 = (a * m11 + b * m21, a * m12 + b * m22,
                                  c * m11 + d * m21, c * m12 + d * m22)
        m = monodromy(params, eps, n=n)
        assert _bits((m.m11, m.m12, m.m21, m.m22)) == _bits((m11, m12, m21, m22))

    # omega >= 2 keeps omega1 T / 2 pi <= 3/2 oscillations per period: the det
    # error of the 1e-12 solve grows with their number, for the full-period
    # solve as much as for the half-period one
    @settings(max_examples=40, deadline=None)
    @given(omega=st.fractions(min_value=2, max_value=4, max_denominator=20),
           omega1=st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20),
           eps=st.floats(min_value=-1.5, max_value=1.5))
    def test_half_period_monodromy_matches_full_period_solve(self, omega, omega1, eps):
        params = SystemParams(omega, omega1, eps)
        m = monodromy(params, eps)
        full, = _hill_points(params, eps, [params.period])
        scale = max(1.0, *map(abs, full))
        assert all(abs(u - v) <= 1e-11 * scale
                   for u, v in zip((m.m11, m.m12, m.m21, m.m22), full))
        assert m.m11 == m.m22 and abs(m.det - 1.0) <= 1e-11

    @pytest.mark.parametrize("omega1, eps, spp", [("9/10", 0.1, 1), ("9/10", -0.185, 64),
                                                  ("1/10", 0.9, 4), ("301/100", 0.1, 3)])
    def test_orbit_solve_is_bit_identical_to_generic_solve(self, omega1, eps, spp):
        params = SystemParams(F(2), F(omega1), eps)
        grid = _assert_orbit_solve_is_generic_solve(params, spp)
        _assert_assembled_period_matches_full_period_solve(params, grid)
        # the last entry is M(T) from _full_period: equal diagonal, det 1
        m11, m12, m21, m22, *_ = grid[-1]
        assert m11 == m22 and abs(m11 * m22 - m12 * m21 - 1.0) <= 1e-11

    @settings(max_examples=20, deadline=None)
    @given(omega=st.fractions(min_value=F(1, 2), max_value=4, max_denominator=20),
           omega1=st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20),
           eps=st.floats(min_value=-1.0, max_value=1.0),
           spp=st.sampled_from([1, 2, 3, 8, 64]))
    def test_orbit_solve_matches_generic_solve_property(self, omega, omega1, eps, spp):
        params = SystemParams(omega, omega1, eps)
        grid = _assert_orbit_solve_is_generic_solve(params, spp)
        _assert_assembled_period_matches_full_period_solve(params, grid)
        # the det error grows with the number of steps, which scales with 1 +
        # omega1/omega (the driving cycle plus the unperturbed oscillations of a
        # period), and with |M(T)|^2: worst 1.5e-13 of that scale in 1500 draws
        m11, m12, m21, m22, *_ = grid[-1]
        scale = (1 + omega1 / omega) * max(1.0, abs(m11), abs(m12), abs(m21)) ** 2
        assert m11 == m22 and abs(m11 * m22 - m12 * m21 - 1.0) <= 1e-11 * scale


class TestReversibility:
    def test_forward_backward_round_trip(self):
        traj = integrate_orbit(P01, 0.0, 1.0, 50)
        xe, ye = traj[-1].x, traj[-1].y
        # the driving is even in t, so time reversal is the conjugation (x, y) -> (x, -y)
        xb, myb = monodromy(P01, 0.1, n=50).apply(xe, -ye)
        yb = -myb
        assert math.hypot(xb - 0.0, yb - 1.0) < 1e-7


def _direct_dp5(params, n_periods):
    """Section states (x, y) from DP5 streamed over the whole horizon,
    which shares nothing with the one-period propagator but the stepper.
    """
    T = params.period
    f = rhs_linear(params, params.epsilon)
    targets = [k * T for k in range(1, n_periods + 1)]
    return [z for _, z in integration_points(f, 0.0, (0.0, 1.0), targets, 1e-12, 1e-12)]


class TestPropagator:
    """The one-period propagator against direct multi-period integration."""

    @pytest.mark.parametrize("omega1,eps,periods,tol", [
        ("9/10", 0.1, 200, 1e-8),
        ("9/10", 0.18, 200, 1e-8),
        ("9/10", 0.185, 200, 1e-8),
        ("9/10", -0.185, 200, 1e-8),
        ("9/10", 0.19, 200, 1e-8),
        ("1/10", 0.1, 200, 1e-8),
        ("11/10", 0.1, 200, 1e-8),
        ("11/10", -0.1, 200, 1e-8),
        ("9/10", 0.185, 2000, 1e-6),
        ("9/10", -0.185, 2000, 1e-6),
    ])
    def test_agrees_with_direct_dp5(self, omega1, eps, periods, tol):
        params = SystemParams(F(2), F(omega1), eps)
        traj = integrate_orbit(params, 0.0, 1.0, periods)
        ref = _direct_dp5(params, periods)
        for s, (x, y) in zip(traj[1:], ref):
            assert math.hypot(s.x - x, s.y - y) <= tol * max(1.0, math.hypot(x, y))

    # a short horizon covers many parameters: 6.8e-11 worst of 150 random draws
    @settings(max_examples=30, deadline=None)
    @given(omega=st.fractions(min_value=F(1, 2), max_value=F(3), max_denominator=10),
           omega1=st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20),
           eps=st.floats(min_value=-0.5, max_value=0.5),
           periods=st.integers(min_value=1, max_value=20))
    def test_agrees_with_direct_dp5_over_random_parameters(self, omega, omega1, eps, periods):
        params = SystemParams(omega, omega1, eps)
        traj = integrate_orbit(params, 0.0, 1.0, periods)
        ref = _direct_dp5(params, periods)
        assert len(traj) == len(ref) + 1
        for s, (x, y) in zip(traj[1:], ref):
            assert math.hypot(s.x - x, s.y - y) <= 1e-8 * max(1.0, math.hypot(x, y))

    @pytest.mark.parametrize("omega1,eps", [
        ("9/10", e) for e in (0.01, 0.05, 0.1, 0.15, 0.18, 0.185, 0.19, 0.2, 0.22,
                              -0.1, -0.15, -0.18, -0.185)
    ] + [("1/10", 0.1), ("11/10", 0.1), ("11/10", -0.1), ("1", 0.05)])
    def test_extended_energy_over_200_periods(self, omega1, eps):
        params = SystemParams(F(2), F(omega1), eps)
        traj = integrate_orbit(params, 0.0, 1.0, 200, samples_per_period=4)
        for s in traj:
            assert abs(params.hamiltonian(s.x, s.y, s.t) + s.E) <= 1e-7 * max(1.0, abs(s.E))

    def test_work_independent_of_horizon(self, monkeypatch):
        # the stages evaluate cos(omega t) and sin(omega t) once each
        trig = _count_trig(monkeypatch)
        counts = []
        for n in (20, 2000):
            trig.clear()
            integrate_orbit(P01, 0.0, 1.0, n)
            counts.append(len(trig))
            # half a period of integration, never more
            assert max(trig) <= float(P01.omega) * (0.5 * P01.period)
        assert counts[0] == counts[1] > 0


class TestRecords:
    """Orbit samples and section points: immutable, ordered, compared by value."""

    def test_phase_state_unpacks_as_x_y_t_e(self):
        state = dynamics.PhaseState(1.0, 2.0, 3.0, 4.0)
        x, y, t, E = state
        assert (x, y, t, E) == (state.x, state.y, state.t, state.E) == (1.0, 2.0, 3.0, 4.0)

    def test_section_point_unpacks_as_x_y_e_k_d_r(self):
        point = dynamics.SectionPoint(1.0, 2.0, 3.0, 4, 5.0, 6.0)
        x, y, E, k, d, r = point
        assert ((x, y, E, k, d, r) == (point.x, point.y, point.E, point.k, point.d, point.r)
                == (1.0, 2.0, 3.0, 4, 5.0, 6.0))

    @pytest.mark.parametrize("record, field", [
        (dynamics.PhaseState(1.0, 2.0, 3.0, 4.0), "x"),
        (dynamics.PhaseState(1.0, 2.0, 3.0, 4.0), "E"),
        (dynamics.SectionPoint(1.0, 2.0, 3.0, 4, 5.0, 6.0), "k"),
        (dynamics.SectionPoint(1.0, 2.0, 3.0, 4, 5.0, 6.0), "r"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)

    def test_equal_by_value(self):
        a = dynamics.PhaseState(1.0, 2.0, 3.0, 4.0)
        assert a == dynamics.PhaseState(x=1.0, y=2.0, t=3.0, E=4.0)
        assert a != dynamics.PhaseState(1.0, 2.0, 3.0, 5.0)
        assert hash(a) == hash(dynamics.PhaseState(1.0, 2.0, 3.0, 4.0))
        p = dynamics.SectionPoint(1.0, 2.0, 3.0, 4, 5.0, 6.0)
        assert p == dynamics.SectionPoint(x=1.0, y=2.0, E=3.0, k=4, d=5.0, r=6.0)
        assert p != dynamics.SectionPoint(1.0, 2.0, 3.0, 5, 5.0, 6.0)

    @pytest.mark.parametrize("eps, periods", [(0.1, 200), (0.19, 150), (-0.185, 200),
                                              (0.5, 3000)])  # 0.19 escapes, 0.5 overflows
    def test_section_is_the_stroboscopic_section(self, eps, periods):
        # at one sample per period sample k is the section point at t = kT, bit for bit
        params = SystemParams(F(2), F(9, 10), eps)
        try:
            traj = integrate_orbit(params, 0.03, 0.97, periods, 1)
        except Unbounded as exc:
            with pytest.raises(Unbounded, match=f"^{re.escape(str(exc))}$"):
                stroboscopic_section(params, 0.03, 0.97, periods)
            assert eps == 0.5
            return
        assert all(type(s) is dynamics.PhaseState for s in traj)
        assert [s.t for s in traj] == [k * params.period for k in range(periods + 1)]
        om1 = float(params.omega1)
        want = [dynamics.SectionPoint(x, y, E, k, math.sqrt(om1 * om1 * x * x + y * y),
                                      math.sqrt(x * x + y * y))
                for k, (x, y, _, E) in enumerate(traj)]
        got = stroboscopic_section(params, 0.03, 0.97, periods)
        assert all(type(p) is dynamics.SectionPoint for p in got)
        assert [tuple(map(repr, p)) for p in got] == [tuple(map(repr, p)) for p in want]

    def test_section_points_carry_the_samples_at_kt(self):
        # Sample i*spp of a denser orbit lands on t = kT too, but its one-period map
        # comes from another step sequence, so it differs by rounding that the flow
        # amplifies over the horizon: worst 9.9e-10 of max(1, |z_k|) at eps = -0.185
        # over 110 periods (spp = 64), at most 1.2e-10 for the other cases below;
        # spp = 2 solves to T/2 alone, as spp = 1 does, and agrees bit for bit.
        for omega1, eps, periods in [("9/10", 0.1, 200), ("9/10", -0.185, 110),
                                     ("1/10", 0.1, 200), ("11/10", 0.1, 200), ("1", 0.05, 15)]:
            params = SystemParams(F(2), F(omega1), eps)
            sec = stroboscopic_section(params, 0.0, 1.0, periods)
            assert [p.k for p in sec] == list(range(periods + 1))
            for spp in (2, 3, 8, 64):
                samples = integrate_orbit(params, 0.0, 1.0, periods, spp)[::spp]
                assert len(samples) == len(sec)
                for p, (x, y, t, E) in zip(sec, samples):
                    assert t == p.k * params.period
                    assert math.hypot(p.x - x, p.y - y) <= 5e-9 * max(1.0, p.r)
                    assert abs(p.E - E) <= 5e-9 * max(1.0, abs(p.E))


class TestNonFinite:
    def test_overflow_is_unbounded_with_period_index(self):
        params = SystemParams(F(2), F(9, 10), 0.5)
        with pytest.raises(Unbounded, match=r"overflows in period \d+") as states:
            integrate_orbit(params, 0.0, 1.0, 3000)
        with pytest.raises(Unbounded, match=f"^{re.escape(str(states.value))}$"):
            dynamics.orbit_rows(params, 0.0, 1.0, 3000)
        with pytest.raises(Unbounded):
            monodromy(params, 0.5, n=3000)

    def test_power_stops_at_the_first_overflow(self):
        # the entries overflow within ~100 periods; all 1e9 products would
        # take minutes
        start = time.perf_counter()
        with pytest.raises(Unbounded, match="over 1000000000 periods overflows"):
            monodromy(SystemParams(F(2), F(9, 10), 5.0), 5.0, n=10**9)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("eps", [1e300, 1e308, -1e308])
    def test_overflowing_coefficients_are_unbounded_with_time(self, eps):
        # 2 eps cos(omega t) overflows or the stages do: not a step-size underflow
        params = SystemParams(F(2), F(9, 10), eps)
        with pytest.raises(Unbounded, match=r"at t = 0\.0"):
            monodromy(params, eps)
        with pytest.raises(Unbounded, match=r"at t = 0\.0"):
            integrate_orbit(params, 0.0, 1.0, 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(InvalidInput, match="finite") as info:
            SystemParams(F(2), F(9, 10), eps)
        assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)

    def test_non_finite_initial_condition_rejected(self):
        with pytest.raises(InvalidInput):
            integrate_orbit(P01, math.nan, 1.0, 1)
