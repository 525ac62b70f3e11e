"""Integrator, section, monodromy and escape tests.

The harmonic-oscillator limit (eps = 0) provides closed-form oracles;
the Hamiltonian structure provides det M = 1 and reversibility; E = -H
holds by construction, so the DP5 reference's integrated energy form and
30-digit solves are the oracles for E.
"""

import ast
import cmath
import inspect
import math
import random
import re
import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5_reference import integration_points, one_period, rhs_linear, rhs_matrix
from mathieu_integrals import (StepFailure, SystemParams, Unbounded, analysis, cli, dynamics,
                               escape_diagnostics, integrate_orbit, monodromy, output,
                               stroboscopic_section)
from mathieu_integrals.dynamics import _hill_points
from mathieu_integrals.errors import DomainError, InvalidInput
from mathieu_integrals.output import ORBIT_COLUMNS
from orbit_reference import orbit_rows, tail_fit

P01 = SystemParams(F(2), F(9, 10), 0.1)
TOL = 1e-12  # the DP5 reference's rtol = atol


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


def _count_products(monkeypatch, limit):
    """Record every 2x2 product ``dynamics`` forms, and fail at once past ``limit``."""
    products = []
    product = dynamics._product

    def counted(p, q):
        products.append(p)
        assert len(products) <= limit, "more products than repeated squaring forms"
        return product(p, q)

    monkeypatch.setattr(dynamics, "_product", counted)
    return products


class TestHarmonicLimit:
    def test_closed_form_solution(self):
        params = SystemParams(F(2), F(9, 10), 0.0)
        traj = integrate_orbit(params, 0.0, 1.0, 10, samples_per_period=16)
        om1 = 0.9
        for s in traj:
            assert s.x == pytest.approx(math.sin(om1 * s.t) / om1, abs=1e-9)
            assert s.y == pytest.approx(math.cos(om1 * s.t), abs=1e-9)

    def test_energy_constant_without_driving(self):
        # E = -H(x, y, t) and dE/dt = -dH/dt is identically zero: E moves only by
        # the error of the state (3.2e-13 measured)
        params = SystemParams(F(2), F(9, 10), 0.0)
        traj = integrate_orbit(params, 0.0, 1.0, 10, samples_per_period=4)
        assert all(abs(s.E - traj[0].E) <= 1e-12 for s in traj)

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

    @pytest.mark.parametrize("n, spp", [(3 * 10 ** 307, 1), (5_000_001, 1), (2_500_001, 2),
                                        (1, 5_000_001), (10 ** 400, 10 ** 400)])
    def test_table_beyond_the_row_budget_fails_fast(self, monkeypatch, n, spp):
        # n spp rows over the step budget are refused before the period's grid is
        # solved, so before any row
        solves = []
        one_period = dynamics._one_period
        monkeypatch.setattr(dynamics, "_one_period",
                            lambda *args: solves.append(args) or one_period(*args))
        for build in (orbit_rows, integrate_orbit):
            with pytest.raises(InvalidInput, match="budget of 5000000 rows"):
                build(P01, 0.0, 1.0, n, spp)
        with pytest.raises(InvalidInput, match="budget"):
            stroboscopic_section(P01, 0.0, 1.0, n * spp)
        assert solves == []
        integrate_orbit(P01, 0.0, 1.0, 2, 4)
        assert len(solves) == 1  # and it sees the solve of a table within the budget

    def test_table_at_the_row_budget_is_allowed(self, monkeypatch):
        # 50, not fewer: Hill's determinant takes 43 rows of the same budget here
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 50)
        assert len(orbit_rows(P01, 0.0, 1.0, 5, 10)) == 51
        with pytest.raises(InvalidInput, match="budget of 50 rows"):
            orbit_rows(P01, 0.0, 1.0, 51, 1)

    def test_step_failure_on_exhausted_budget(self, monkeypatch):
        # T/2 = pi/2 takes 3 steps at omega = 2
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 2)
        with pytest.raises(StepFailure, match="takes 3 steps, more than its budget of 2$"):
            list(_hill_points(P01, 0.1, [0.5 * P01.period]))

    def test_the_step_budget_is_exact(self, monkeypatch):
        # [0, t] to the last target is cut into steps of at most _RHO/rate before
        # the first: 9.5 steps' worth takes 10 steps, 2 trig calls each, and 10.5
        # steps' worth takes 11, over a budget of 10, and fails before any cos or sin
        trig = _count_trig(monkeypatch)
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
        step = dynamics._RHO / max(math.sqrt(0.81 + 0.2), 2.0)
        got, = _hill_points(P01, 0.1, [9.5 * step])
        assert len(trig) == 20 and all(map(math.isfinite, got))
        trig.clear()
        with pytest.raises(StepFailure, match="^the solve over \\[0, 7.88\\] takes 11 steps, "
                                               "more than its budget of 10$"):
            list(_hill_points(P01, 0.1, [10.5 * step]))
        assert trig == []
        # the last target alone sets the steps: the ones before it are read off
        # the same 10 steps (a span cut per target took 4 + 4 + 3 = 11), and 10.5
        # steps' worth behind them still takes 11
        rows = list(_hill_points(P01, 0.1, [3.5 * step, 7.0 * step, 9.5 * step]))
        assert len(rows) == 3 and rows[-1] == got and len(trig) == 20
        trig.clear()
        with pytest.raises(StepFailure, match="takes 11 steps"):
            list(_hill_points(P01, 0.1, [3.5 * step, 7.0 * step, 10.5 * step]))
        assert trig == []

    def test_span_beyond_the_step_budget_fails_before_stepping(self, monkeypatch):
        # omega = 1e-150 puts 4.5e149 oscillations of omega1 into T/2: Hill's
        # determinant (monodromy) would need 3 rows for each, the stepper 4.7 steps;
        # neither calls cos or sin
        trig = _count_trig(monkeypatch)
        params = SystemParams(F(1, 10**150), F(9, 10), 0.1)
        with pytest.raises(StepFailure, match="oscillations of omega1"):
            monodromy(params, 0.1)
        with pytest.raises(StepFailure, match="oscillations of omega1"):
            integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=32)
        with pytest.raises(StepFailure, match="takes 2.1e\\+150 steps"):
            list(_hill_points(params, 0.1, [0.5 * params.period]))
        assert trig == []

    def test_an_orbit_takes_no_step_past_the_determinants_budget(self, monkeypatch):
        # an orbit's solve spans [0, 7T/8] to the last s_j inside (0, T), in steps of
        # at most _RHO/omega1 where omega1 > omega.  Hill's determinants need more
        # than 3 omega1/omega rows, and M(T) is taken before the solve: at
        # omega1/omega = 20 and a budget of 100 the orbit fails at once, where the
        # stepper alone takes ceil(7 pi/8 sqrt(1600.2)/1.5) = 74 steps over the
        # 8-sample grid and runs (77 when each span to a sample was cut alone)
        trig = _count_trig(monkeypatch)
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 100)
        params = SystemParams(F(2), F(40), 0.1)
        for spp in (2, 8):
            with pytest.raises(StepFailure, match="Hill's determinant needs more rows"):
                integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=spp)
        assert trig == []
        grid = list(_hill_points(params, 0.1, [(j / 8) * params.period for j in range(1, 8)]))
        assert len(grid) == 7 and len(trig) == 2 * 74

    def test_a_non_finite_state_is_unbounded_at_its_step(self, monkeypatch):
        # the state at eps = 1e4 grows by about 1e75 a period and passes 1e308 in
        # period 5: the step that overflows raises, and no step follows it (each
        # step sums a fixed number of terms, so no inf or NaN term can hold it)
        trig = _count_trig(monkeypatch)
        params = SystemParams(F(2), F(9, 10), 1e4)
        span = 100 * params.period
        steps = math.ceil(span * math.sqrt(0.81 + 2e4) / dynamics._RHO)
        with pytest.raises(Unbounded, match=r"^the solution leaves float64 at t = 12\.7\d+$") as err:
            list(_hill_points(params, 1e4, [span]))
        t = float(str(err.value).rsplit(" ", 1)[1])
        assert len(trig) == 2 * round(t / (span / steps)) < steps / 10

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
        # E = -H(x, y, t) of each row: only the rounding of the two forms differs
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
        report = escape_diagnostics(params, pts)
        assert not report.escaped
        assert report.k_escape is None and report.growth_rate is None
        assert all(p.r <= 2.0 for p in pts)

    def test_escape_at_019_is_log_linear(self, orbit_cache):
        params, _, pts = orbit_cache("9/10", 0.19, 150)
        report = escape_diagnostics(params, pts)
        assert report.escaped and report.k_escape is not None
        assert report.growth_rate > 0
        assert tail_fit(pts).r_squared > 0.999

    def test_growth_increases_with_eps(self, orbit_cache):
        params19, _, p19 = orbit_cache("9/10", 0.19, 150)
        params20, _, p20 = orbit_cache("9/10", 0.20, 150)
        r19 = escape_diagnostics(params19, p19)
        r20 = escape_diagnostics(params20, p20)
        assert r20.growth_rate > r19.growth_rate

    def test_empty_section_rejected(self):
        for empty in ([], iter(())):
            with pytest.raises(InvalidInput, match="^escape_diagnostics needs a non-empty section$"):
                escape_diagnostics(P01, empty)

    def test_one_escape_radius(self):
        # the library default, the CLI's --r-escape default and cover_count share R_ESCAPE
        default = inspect.signature(escape_diagnostics).parameters["r_escape"].default
        option = {p.name: p for p in cli.cmd_distances.params}["r_escape"]
        assert default is option.default is analysis.R_ESCAPE is dynamics.R_ESCAPE == 1e3

    @pytest.mark.parametrize("r_escape", [-1.0, 0.0, math.nan, math.inf])
    def test_escape_radius_must_be_positive_and_finite(self, orbit_cache, r_escape):
        params, _, pts = orbit_cache("9/10", 0.19, 150)
        with pytest.raises(InvalidInput, match="^the escape radius must be positive and finite, "
                                               f"got {r_escape}$"):
            escape_diagnostics(params, pts, r_escape=r_escape)

    def test_growth_rate_is_floquet_exponent_at_omega_3(self):
        # T = 2 pi/3, not the pi of omega = 2: the fitted slope of log r
        # against t must be log|lambda_max| / T of the monodromy
        params = SystemParams(F(3), F(3, 2), 0.3)
        pts = stroboscopic_section(params, 0.0, 1.0, 100)
        report = escape_diagnostics(params, pts)
        lam = max(abs(ev) for ev in monodromy(params, 0.3).eigenvalues())
        assert report.escaped
        assert report.growth_rate == pytest.approx(math.log(lam) / params.period, rel=1e-3)
        assert report.growth_rate == pytest.approx(tail_fit(pts).growth_rate, rel=1e-3)

    @pytest.mark.parametrize("eps, periods", [(0.19, 150), (0.20, 150), (1.0, 60)])
    def test_growth_rate_is_the_fitted_slope(self, orbit_cache, eps, periods):
        # the Floquet exponent against the least-squares slope of log r over the
        # tail: 7.4e-5, 6.8e-5 and 1.1e-5 apart, relative
        params, _, pts = orbit_cache("9/10", eps, periods)
        report, fit = escape_diagnostics(params, pts), tail_fit(pts)
        assert report.escaped and fit.escaped and report.k_escape == fit.k_escape
        assert fit.r_squared > 0.999
        assert report.growth_rate == pytest.approx(fit.growth_rate, rel=1e-3)

    def test_reads_no_row_past_the_first_crossing(self):
        params = SystemParams(F(2), F(9, 10), 0.19)
        rows = orbit_rows(params, 0.0, 1.0, 150)
        first = next(i for i, row in enumerate(rows) if row[6] > 1e3)

        def stream():
            yield from rows[:first + 1]
            raise AssertionError("a row past the first crossing was read")

        report = escape_diagnostics(params, stream())
        assert report.escaped and report.k_escape == rows[first][0] == 114

    def test_rows_and_samples_give_one_report(self):
        for eps, periods, r_escape in [(0.1, 200, 1e3), (0.19, 150, 1e3), (0.19, 40, 1.5),
                                       (0.1, 20, 0.5)]:
            params = SystemParams(F(2), F(9, 10), eps)
            rows = orbit_rows(params, 0.0, 1.0, periods)
            samples = stroboscopic_section(params, 0.0, 1.0, periods)
            assert (escape_diagnostics(params, rows, r_escape)
                    == escape_diagnostics(params, samples, r_escape)
                    == escape_diagnostics(params, iter(rows), r_escape))

    def test_early_crossing_has_a_growth_rate(self):
        # the fit needed 3 tail points and gave None when r passed the radius
        # within the first 3 samples; the Floquet exponent needs no samples
        params = SystemParams(F(2), F(9, 10), 0.19)
        pts = stroboscopic_section(params, 0.0, 2.0, 10)
        report = escape_diagnostics(params, pts, r_escape=1.0)
        assert report.escaped and report.k_escape == 0
        assert tail_fit(pts, r_escape=1.0).growth_rate is None
        m = monodromy(params, 0.19)
        assert report.growth_rate == math.acosh(abs(m.trace) / 2.0) / params.period > 0
        lam = max(abs(ev) for ev in m.eigenvalues())
        assert report.growth_rate == pytest.approx(math.log(lam) / params.period, rel=1e-12)

    @pytest.mark.parametrize("omega1, eps", [("9/10", 0.0), ("11/10", 0.0), ("9/10", -0.18),
                                             ("9/10", 0.1)])
    def test_an_escaped_stable_orbit_grows_at_zero(self, omega1, eps):
        # r = 1 passes the radius at k = 0; |tr| < 2, so the exponent is 0, not
        # the +-1e-16 of log|lambda| on the unit circle
        params = SystemParams(F(2), F(omega1), eps)
        report = escape_diagnostics(params, stroboscopic_section(params, 0.0, 1.0, 5),
                                    r_escape=0.5)
        assert report.escaped and report.k_escape == 0
        assert report.growth_rate == 0.0


class TestMonodromy:
    def test_unperturbed_trace_analytic(self):
        m = monodromy(SystemParams(F(2), F(9, 10), 0.0), 0.0)
        assert abs(m.trace - 2 * math.cos(0.9 * math.pi)) < 1e-9

    def test_det_is_one_for_random_eps(self):
        rng = random.Random(42)
        for _ in range(20):
            eps = rng.uniform(-0.25, 0.25)
            m = monodromy(P01, eps)
            assert abs(m.m11 * m.m22 - m.m12 * m.m21 - 1.0) < 1e-9

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

    @pytest.mark.parametrize("eps", [0.1, 0.19])  # stable, unstable
    @pytest.mark.parametrize("n", [3, 17, 64, 1000])
    def test_power_by_squaring_matches_sequential_products(self, eps, n):
        # the squares group the products otherwise: 4.5e-14 of the largest entry
        # the worst measured for n <= 1000
        m = monodromy(P01, eps)
        a, b, c, d = m.m11, m.m12, m.m21, m.m22
        want = (a, b, c, d)
        for _ in range(n - 1):
            p, q, r, s = want
            want = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
        got = m.power(n)
        diff = max(abs(u - v) for u, v in zip((got.m11, got.m12, got.m21, got.m22), want))
        assert diff <= 1e-13 * max(map(abs, want))
        assert got.n == n

    def test_power_squares_no_further_than_n_needs(self):
        # 2^1000 is finite, 2^1024 is not: a square past bit 9 of n = 1000 would overflow
        m = dynamics.Monodromy(2.0, 0.0, 0.0, 0.5, n=1)
        assert m.power(1000) == dynamics.Monodromy(2.0 ** 1000, 0.0, 0.0, 0.5 ** 1000, n=1000)
        with pytest.raises(Unbounded, match="^the monodromy over 1024 periods overflows$"):
            m.power(1024)

    def test_power_of_a_billion_stable_periods_is_quick(self, monkeypatch):
        # at most a square and a product per bit of n below the highest, not n - 1
        # sequential products
        products = _count_products(monkeypatch, 2 * (10**9).bit_length())
        m = monodromy(P01, 0.1, n=10**9)
        assert products
        assert m.n == 10**9 and abs(m.trace) < 2.0

    @pytest.mark.parametrize("eps", [0.19, 0.25, -0.3, 1.0, 10.0, 100.0])
    def test_real_eigenvalues_keep_product_and_sum(self, eps):
        # det M = 1: the small root is 1 over the large one, whatever the
        # entries' det; the order stays (tr + s)/2, (tr - s)/2
        m = monodromy(P01, eps)
        e1, e2 = m.eigenvalues()
        assert e1.imag == e2.imag == 0.0
        assert abs(e1.real * e2.real - 1.0) <= 1e-15
        assert e1.real + e2.real == pytest.approx(m.trace, rel=1e-14)
        assert (abs(e1) > abs(e2)) == (m.trace > 0.0)

    def test_complex_eigenvalues_are_the_half_trace_pair(self):
        m = monodromy(P01, 0.18)
        tau = m.trace / 2.0
        root = math.sqrt((1.0 - tau) * (1.0 + tau))
        assert m.eigenvalues() == (complex(tau, root), complex(tau, -root))
        e1, e2 = m.eigenvalues()
        assert abs((e1 * e2).real - 1.0) <= 1e-15 and e1 + e2 == m.trace

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.18, 0.19])
    def test_small_eps_multipliers_agree_with_the_entries_det(self, eps):
        # where the entries' det is 1 to ~1e-14, the roots of l^2 - tr l + det
        # move by 2.4e-13 relative at most (the imaginary part at 0.18)
        m = monodromy(P01, eps)
        tr, det = m.trace, m.m11 * m.m22 - m.m12 * m.m21
        root = cmath.sqrt(tr * tr - 4.0 * det)
        for got, want in zip(m.eigenvalues(), ((tr + root) / 2.0, (tr - root) / 2.0)):
            assert got.real == pytest.approx(want.real, rel=1e-12)
            assert got.imag == pytest.approx(want.imag, rel=1e-12)

    @pytest.mark.parametrize("eps", [100.0, 1e4, 3e4, 1e5])
    def test_large_eps_multipliers_come_from_the_trace(self, eps):
        # the entries' det reads 0.992, 0, -1.3e238 and NaN here: each entry is
        # accurate only to its own size, so the multipliers take det M = 1
        params = SystemParams(F(2), F(9, 10), eps)
        m = monodromy(params, eps)
        big, small = sorted(m.eigenvalues(), key=abs, reverse=True)
        assert big.imag == small.imag == 0.0
        assert abs(big.real * small.real - 1.0) <= 1e-15
        assert math.copysign(1.0, small.real) == math.copysign(1.0, m.trace)
        # the stepper's M(T), which shares no code with the determinants
        stepped = analysis._stepped(params, eps).trace
        assert abs(big.real - stepped) <= 1e-9 * abs(stepped)

    @settings(max_examples=300, deadline=None)
    @given(half=st.floats(min_value=0.0, max_value=5e299), negative=st.booleans(),
           m12=st.floats(allow_nan=False, allow_infinity=False),
           m21=st.floats(allow_nan=False, allow_infinity=False))
    def test_multipliers_depend_on_the_trace_alone(self, half, negative, m12, m21):
        # |tr| in [0, 1e300]: tr/2 + tr/2 and tr + 0 are both tr exactly
        tr = -2.0 * half if negative else 2.0 * half
        pair = dynamics.Monodromy(tr / 2.0, m12, m21, tr / 2.0, n=1).eigenvalues()
        assert dynamics.Monodromy(tr, m21, m12, 0.0, n=1).eigenvalues() == pair
        e1, e2 = pair
        assert all(map(cmath.isfinite, pair))
        assert abs((e1 * e2).real - 1.0) <= 1e-15 and (e1 * e2).imag == 0.0
        assert abs((e1 + e2).real - tr) <= 1e-15 * abs(tr)

    @pytest.mark.parametrize("omega1, eps", [("9/10", 0.0), ("9/10", 0.18), ("9/10", -0.185),
                                             ("1/10", 0.9), ("11/10", 0.1),
                                             ("301/100", 0.1), ("1/2", 1.5)])
    def test_matrix_only_solve_matches_energy_solve(self, omega1, eps):
        # The energy solve is gone (E = -H), so the one-sample grid is the
        # monodromy itself, from Hill's determinants; the stepper's matrix-only
        # solve, which shares no code with them, is within 2e-12 of its scale
        # (1.8e-14 measured, 9.9e-13 with DOP853)
        params = SystemParams(F(2), F(omega1), eps)
        m = monodromy(params, eps)
        (a, b, c, d, _), = dynamics._one_period(params, eps, 1)
        assert (a, b, c, d) == (m.m11, m.m12, m.m21, m.m22)
        s = analysis._stepped(params, eps)
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
        diff = max(abs(m.m11 - s.m11), abs(m.m12 - s.m12), abs(m.m21 - s.m21),
                   abs(m.m22 - s.m22))
        assert diff <= 2e-12 * scale


def _bits(values):
    return [v.hex() for v in values]


def _assert_grid_matches_dp5_solve(params, grid):
    """``_one_period``'s grid against the generic DP5 solve over all of [0, T].

    The grid is the Taylor solve at the s_j = (j/spp) T inside (0, T) and
    Hill's M(T) at the end, and the reference a DP5 solve of (M, Q), which
    shares no code with either.
    Each sample is compared relative to its own size: the worst over 1800
    random draws of the property range below and 40 of its corners was
    1.8e-11 of max(1, |row j|) (1.9e-11 with DOP853), most of it DP5's own
    error, and 1.8e-11 over 300 draws and 16 corners with the samples read
    off full steps.  Each sample's g is eps cos(omega s_j) - omega1^2/2, so that
    g x^2 - y^2/2 is -H there.
    """
    spp, eps = len(grid), params.epsilon
    full = one_period(params, eps, spp, TOL, TOL)
    assert len(full) == spp
    om, om1 = float(params.omega), float(params.omega1)
    for j, (got, want) in enumerate(zip(grid, full), start=1):
        scale = max(1.0, *map(abs, want[:4]))
        assert all(abs(u - v) <= 1e-10 * scale for u, v in zip(got[:4], want[:4])), j
        g = eps * math.cos(om * (j / spp) * params.period) - 0.5 * om1 * om1
        assert abs(got[4] - g) <= 1e-15 * max(1.0, abs(eps)), j


#: H = M(T/2) row-major at (omega, omega1, eps), to 30 digits, from
#: tests/make_literals.py: mpmath's Taylor-series ``odefun`` at 40 and at 50
#: digits, which agree in all 30 kept.  eps is the float the library receives
#: (6.485 is 5.7e-16 below the decimal, which moves h11 by 7.9e-12 of itself).
HALF_PERIOD = {
    ("2", "9/10", 0.1): (
        "0.237747844073993417775230579472",
        "1.09717596265093196776913923406",
        "-0.895592795831429474928722029913",
        "0.0730905138513204694832065309428",
    ),
    ("2", "9/10", 0.185): (
        "0.305244201123168532613899918384",
        "1.09655696395758530385907839847",
        "-0.911757341483334567274452072467",
        "0.000675320796387947219375533418483",
    ),
    ("2", "301/100", 0.8): (
        "0.00285349379681209707254396211197",
        "-0.336872505703713673675256101036",
        "2.96841390753532980489777217938",
        "0.00804943148896190653202742349697",
    ),
    ("1/2", "1/20", 6.485): (
        "0.148013541284346510858861144314",
        "0.0412543213702934098263589172470",
        "-19966.5972640684896387743692385",
        "-5558.33211653662334551407152430",
    ),
    ("2", "1", 0.05): (
        "0.0390238274014400588088423747862",
        "0.999937729623518709953654659208",
        "-1.00160438509863633126949676827",
        "-0.0395146995866946837695104472375",
    ),
    ("2", "2", 0.5): (
        "-0.847678850066164462093172763451",
        "-0.00408972774338225637509367489231",
        "-0.0817306445496375837984951257994",
        "-1.18008636880160379937724316078",
    ),
}
#: E = -H(x, y, t) at t = (j/16) T, j = 1..16, on the orbit from (0, 1) at omega = 2,
#: omega1 = 9/10, eps = 100, from the 30-digit solve of tests/make_literals.py
E_AT_EPS_100 = (
    "-1.17997330888916983161553801841",
    "-270.924089713976472387699408656",
    "-34702.8353320718519279824265022",
    "-1181767.75821310642481372272826",
    "-6909770.44117503374787395041753",
    "-8489857.68229787858897105530460",
    "-10050054.5721484004287356176508",
    "-10529171.4632739126249551932889",
    "-9988023.24655871491534169821114",
    "-8532927.66426684033898101029650",
    "-7195173.09540876054518260873509",
    "-412799.506665343056759506206803",
    "4393970.57899832093959877520524",
    "37242868.0858667623288589865894",
    "2000113255.41245837968198356419",
    "65568132861.9609329045736279224",
)
#: x and y at t = (j/spp) T, j = 1..spp, flattened as x1, y1, x2, y2, ..., on the
#: orbit from (0, 1) over one period at (omega, omega1, eps, spp), from the 30-digit
#: solves of tests/make_literals.py
ORBIT_STATES = {
    ("2", "9/10", 100.0, 16): (
        "0.552019485403804597425430611419", "7.64323568366580833859879765994",
        "7.25911998702653163073898707720", "89.1702792761193716339127201105",
        "63.7859894768251498953806728613", "614.419432782577671274516707544",
        "286.422958843952373372855212162", "1515.61362036316632502506125493",
        "380.181797351030457022624048350", "-1624.80463996627081514320101692",
        "-267.951861152014469505243213829", "-2601.49188316182438838137214891",
        "86.4839531788901702119420250705", "4325.73972317180909107890861494",
        "39.2922211984375374580421786296", "-4555.03201476154323051265578546",
        "-160.659994090005190329483162045", "3896.89248689427351258155581160",
        "314.889057792258092578684886527", "-1721.30424838296083027506283559",
        "-336.077773893463272112796175920", "-2377.85023820297954696962231058",
        "-394.256746177561327940217837063", "836.477091130657635248005641477",
        "-397.513977060891855195657994408", "-1782.74789814721710472367369990",
        "-2106.28095618642738914868416843", "-23437.6880650688973708713094959",
        "-23885.2568590546992843194116412", "-317731.544046852747044041903211",
        "-357954.650979950309932364566340", "-5038986.36879120384433246838939",
    ),
    ("2", "9/10", 1000.0, 8): (
        "204193.407053953633932583298030", "7773200.89360962570052065896362",
        "10087338090.7931622476687409900", "116363132871.970113534503963086",
        "-10359076167.8332050533776136843", "-17410430160.7555263659869314558",
        "6009983641.50067372862275222064", "-330225257399.174282776074647951",
        "2685690771.96966729265881874474", "378657101732.700390107262749564",
        "-19045056348.7072172196475558084", "-173797522371.151930705258871819",
        "-258737685843480.471343224556228", "-9589324197094990.56525156269721",
        "-3969296789958773514599.13877004", "-177431910025637972881410.374525",
    ),
    ("2", "9/10", 0.185, 64): (
        "0.0490787012978902684418847486677", "0.999468867751731627495559264516",
        "0.0981050576823819546793473513280", "0.997863187884048931176014606879",
        "0.147025522685874738437300053505", "0.995146376101426274625367164550",
        "0.195784172716117905547247155240", "0.991258339721896071964257950362",
        "0.244321583212211879366370613544", "0.986116790743836645952407562283",
        "0.292573781774763304407491772591", "0.979619066373643100813369126867",
        "0.340471302744345420105552563402", "0.971644438199689306146018079741",
        "0.387938366616182226377492375077", "0.962056884431474358483319067374",
        "0.434892206239654708965194567238", "0.950708291995523617578529214169",
        "0.481242559916186882017667163432", "0.937442046792041732474596766844",
        "0.526891349238128228823002052616", "0.922096961169164669489576465269",
        "0.571732556771736782248457648594", "0.904511477870539576687869221160",
        "0.615652315459265556086866852345", "0.884528079665979577507817571661",
        "0.658529217896005740128587771595", "0.861997823988478148419955527898",
        "0.700234849447376625707713800045", "0.836784912658401928484934997599",
        "0.740634544553519695355015308557", "0.808771198719813997930017693918",
        "0.779588360596595316782127485018", "0.777860526117210669451726785290",
        "0.816952258479511054020193855771", "0.743982793972897990207396876979",
        "0.852579473711674817687067013395", "0.707097636115376772989702300391",
        "0.886322056469347841279924536080", "0.667197608709138056174324009684",
        "0.918032553966551950456532740768", "0.624310784682883728625186806024",
        "0.947565803721550993647439934604", "0.578502663334536404836787558307",
        "0.974780802122981896323118430929", "0.529877317019808460293369559409",
        "0.999542609273948913733897210954", "0.478577714024452207281674069752",
        "1.02172424859311265632140803406", "0.424785177194281921800534759123",
        "1.04120855822653747369942300573", "0.368717961069596368462600567707",
        "1.05788995108724802999949800401", "0.310628955379457846452258054192",
        "1.07167604136428128305891089390", "0.250802548884125151980374367948",
        "1.08248909765506698934619294334", "0.189550713690288860810868153750",
        "1.09026728644807139384331535307", "0.127208395225996404232647860676",
        "1.09496567443750465950300306436", "0.0641283159729642011069862740494",
        "1.09655696395758530385907839847", "0.000675320796387947219375533418483",
        "1.09503194250220497021902034126", "-0.0627795926116261351160720765269",
        "1.09039963462861542431954670798", "-0.125865403775265734985072393901",
        "1.08268715228223984368970291285", "-0.188217199984177738050388798764",
        "1.07193924745607480235316960494", "-0.249482147353207161749074267368",
        "1.05821757883806407329775112378", "-0.309325147949429513942002438034",
        "1.04159971143541463833094122851", "-0.367434039399759980478714312801",
        "1.02217787484724865435719277122", "-0.423524209044215919228546329790",
        "1.00005751166785117316024127710", "-0.477342514421859448636951378073",
        "0.975355652263709872786446183642", "-0.528670424771264416135439632899",
        "0.948199155747380074765472282786", "-0.577326323278551991868494792876",
        "0.918722859290405803064142196299", "-0.623166935936533650174040307050",
        "0.887067678949673883167038877582", "-0.666087879010642308299731468888",
        "0.853378704951988949134106549228", "-0.706023342220350119904274175511",
        "0.817803332963296629240094274458", "-0.742944947925906980711367995603",
        "0.780489470376090545007515275960", "-0.776859847096548214017342413582",
        "0.741583853228485173554863723093", "-0.807808130044976240806775159824",
        "0.701230505192394328255264104798", "-0.835859643458721245432207875504",
        "0.659569365321335700445000534110", "-0.861110314958924619817754687030",
        "0.616735106119852768378794333543", "-0.883678092282614767469071060951",
        "0.572856158170698813671101947582", "-0.903698606403011503160739053401",
        "0.528053952204085083633904499333", "-0.921320666809795256385374065414",
        "0.482442384267312353926423894102", "-0.936701693218739263798124651029",
        "0.436127504680622386007019977086", "-0.950003181696804960655655634878",
        "0.389207426846651241364116602120", "-0.961386295143909391217894025500",
        "0.341772447788803117268786174661", "-0.971007658838600072968072998843",
        "0.293905368573057283334426055735", "-0.979015431874483102686191903436",
        "0.245681999537719880244497504269", "-0.985545715272119066976362662395",
        "0.197171832514080121825404522741", "-0.990719347751920368132969615693",
        "0.148438859947893323134141816351", "-0.994639130906851424680274156362",
        "0.0995425189944843282183639838934", "-0.997387517025510817196052782555",
        "0.0505387372189046797216433894825", "-0.999024785187611727508925421326",
        "0.00148105544436917208538847386741", "-0.999587724486009398186913579679",
    ),
    ("2", "1", 0.05, 64): (
        "0.0490696423538781432161589732393", "0.998915598759929643330540218696",
        "0.0980328055219178414451301362889", "0.995661276774343422266255331031",
        "0.146782901894568746836792275950", "0.990233762412675391249760225634",
        "0.195213135151409494266806528872", "0.982627878452723852500535019664",
        "0.243216416078298916501626639853", "0.972836949315580012753182322967",
        "0.290685302121244396029721794645", "0.960853359260446498771935498850",
        "0.337511967812004915198009299793", "0.946669249798640850386118260515",
        "0.383588212547882160453305074055", "0.930277341511176080355483631465",
        "0.428805511409714518481587325822", "0.911671862594365570448371458142",
        "0.473055113769610133360835219732", "0.890849563865454434685822307197",
        "0.516228193387887559480732845290", "0.867810797689304546103435156229",
        "0.558216052544153667445644272469", "0.842560636392139541350702020584",
        "0.598910381510216185287575816509", "0.815110004262925955048223823317",
        "0.638203573374957018172349288377", "0.785476796258143017564327509212",
        "0.675989092898133824128546827141", "0.753686956067749486327453348013",
        "0.712161896728189577039746720889", "0.719775486308246717692364073984",
        "0.746618900997087605307883102389", "0.683787364312397871982066624451",
        "0.779259491032669996637360891872", "0.645778338301820799877533338531",
        "0.809986066736287883119866875803", "0.605815580661334753387238697195",
        "0.838704616090453068869376500379", "0.563978177569225959512793604647",
        "0.865325308316901306719692516324", "0.520357437344258870526219082292",
        "0.889763097426637229431512259351", "0.475057003498361176274866320200",
        "0.911938326314235308245857789280", "0.428192762564753543261417389064",
        "0.931777321169067453783459859941", "0.379892541218195396209218009474",
        "0.949212965821718707980721887782", "0.330295591913961282668706428347",
        "0.964185245724733056163953247879", "0.279551871128330500693999457948",
        "0.976641751587090511842503157180", "0.227821119158480946208836762706",
        "0.986538133239119373002112595222", "0.175271755200007998591974599174",
        "0.993838495089929804543839440401", "0.122079605930257937726743939435",
        "0.998515725537351345880293868379", "0.0684264899527322979989445636088",
        "1.00055175387887350474660907453", "0.0144986840775007456465449639506",
        "0.999937729623518709953654659208", "-0.0395146995866946837695104472375",
        "0.996674120586148712917424854032", "-0.0934233944652754576597447497682",
        "0.990770727720535427777128781644", "-0.147037685510430330940196491199",
        "0.982246616275744013202292071954", "-0.200170106920864042047800646128",
        "0.971129964500371285246273480025", "-0.252637098345027540629813193331",
        "0.957457832728935382081378341410", "-0.304260587364220672327138784478",
        "0.941275857223133212614667746707", "-0.354869467910613247903284144001",
        "0.922637874568917798061512522433", "-0.404300946894154536052249383393",
        "0.901605483712995506120869769337", "-0.452401734609779673268117687744",
        "0.878247553828521768773526169786", "-0.499029058370455009129236369470",
        "0.852639687104008997263593795162", "-0.544051483144673411784166676914",
        "0.824863646232354872135579994065", "-0.587349527639988350542308333480",
        "0.795006756825564337124539901785", "-0.628816069131750162019224766440",
        "0.763161295188978879924650035903", "-0.668356535251823046322153397817",
        "0.729423871857080167864008010770", "-0.705888885792773570075350050538",
        "0.693894821027985011617021112626", "-0.741343392223950330698766677121",
        "0.656677605548230060985581796946", "-0.774662226944055844461648060012",
        "0.617878246411180088969948148422", "-0.805798878212306570612890083152",
        "0.577604784863596354784120854068", "-0.834717410126436573915197911728",
        "0.535966784191289015775159139381", "-0.861391589888641660429329381903",
        "0.493074877104640217749686051544", "-0.885803906877256841126276164234",
        "0.449040363398050176679557543370", "-0.907944509698497784998601099113",
        "0.403974861244692794326606908477", "-0.927810088422698755624935563645",
        "0.357990014139941994001525637464", "-0.945402729622914551358364420166",
        "0.311197254153186661578732283076", "-0.960728771654192236263807104781",
        "0.263707620816778911701303193043", "-0.973797686874390974593158391747",
        "0.215631633698892132945196464153", "-0.984621016256159296753798904872",
        "0.167079215498109508962947218570", "-0.993211380124948500330410080794",
        "0.118159661383047975539347792600", "-0.999581586634118049525471553651",
        "0.0689816492989507971606599391722", "-1.00374385711155555964998923850",
        "0.0196532850908840384879689940331", "-1.00570918463928430311930559665",
        "-0.0297178244368734390293550720914", "-1.00548683921370435957717288046",
        "-0.0790244779829497504307190324433", "-1.00308402963298185633427507380",
    ),
    ("2", "1", 0.5, 4): (
        "0.758560809309505022290859747308", "0.837090510206738160431138678612",
        "0.993774081185053070666148350918", "-0.416589832500556018681372780963",
        "0.210629146129171367496137516358", "-1.32396507059258615579998440486",
        "-0.827992356048550434333248730227", "-1.30620945331233016778211550883",
    ),
    ("2", "1", -0.5, 4): (
        "0.657639265811416959342054243783", "0.584357229103999037586799014156",
        "0.993774081185053070666148350918", "0.367519115234193183044682078716",
        "1.21521046078894259403312451186", "0.0309362982602404960935870808719",
        "0.730461942119607942118574369505", "-1.30620945331233016778211550883",
    ),
}


class TestHillKernel:
    """The Taylor stepper against 30-digit literals and the DP5 reference."""

    @pytest.mark.parametrize("omega1, eps", [("9/10", 0.1), ("9/10", 0.185), ("301/100", 0.8)])
    def test_half_period_solve_matches_30_digits(self, omega1, eps):
        # worst 8.9e-16 of max(1, |entry|), at omega1 = 301/100; the DOP853 kernel
        # missed by up to 1.2e-13 and the DP5 kernel by 2.0e-12
        params = SystemParams(F(2), F(omega1), eps)
        want = [float(v) for v in HALF_PERIOD["2", omega1, eps]]
        got, = _hill_points(params, eps, [0.5 * params.period])
        assert all(abs(u - v) <= 2e-15 * max(1.0, abs(v)) for u, v in zip(got, want))

    # against the DP5 reference, which shares no code with the kernel: the
    # output of a command moves by this much from the DP5 kernel's, most of it
    # DP5's own error (worst 1.6e-12 of max(1, |entry|) in 1200 draws and 12 corners;
    # 2.2e-12 with DOP853)
    @settings(max_examples=30, deadline=None)
    @given(omega=st.fractions(min_value=2, max_value=4, max_denominator=20),
           omega1=st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20),
           eps=st.floats(min_value=-1.5, max_value=1.5))
    def test_half_period_solve_matches_dp5(self, omega, omega1, eps):
        params = SystemParams(omega, omega1, eps)
        half = [0.5 * params.period]
        got, = _hill_points(params, eps, half)
        (_, want), = integration_points(rhs_matrix(params, eps), 0.0, (1.0, 0.0, 0.0, 1.0),
                                        half, TOL, TOL)
        assert all(abs(u - v) <= 1e-11 * max(1.0, abs(v)) for u, v in zip(got, want))

    def test_half_period_solve_takes_few_steps(self, monkeypatch):
        # one cos and one sin per step, and T/2 = pi/2 at steps of at most _RHO/omega
        # = 3/4: 3 steps at omega1 = 9/10, eps = 0.1, where DOP853 made 188 cos
        # calls and the DP5 kernel 426
        trig = _count_trig(monkeypatch)
        list(_hill_points(P01, 0.1, [0.5 * P01.period]))
        assert len(trig) == 6

    @pytest.mark.parametrize("spp", [4, 64, 1500])
    def test_a_grid_takes_the_steps_of_its_last_sample(self, monkeypatch, spp):
        # the samples inside (0, T) are read off full steps over [0, (spp - 1) T/spp]:
        # at most ceil(T rate) = 5 steps, one cos and one sin each, whatever spp (a
        # span cut per sample took 2 * 1499 calls at 1500)
        trig = _count_trig(monkeypatch)
        rate = max(math.sqrt(0.81 + 0.2), 2.0) / dynamics._RHO
        inner = [(j / spp) * P01.period for j in range(1, spp)]
        assert len(list(_hill_points(P01, 0.1, inner))) == spp - 1
        assert len(trig) <= 2 * math.ceil(P01.period * rate) == 10

    def test_targets_on_step_ends_and_repeated_targets(self, monkeypatch):
        # 2.25 takes 3 steps of exactly 3/4 at omega = 2: a target at 0 is I, one on a
        # step's end is read at s = 0 of the next step (its x as a step landing there
        # gives it), a repeated target gives the same M twice; all within 1e-11 of
        # max(1, |M|) of the DP5 solve over the same targets
        trig = _count_trig(monkeypatch)
        targets = [0.0, 0.75, 0.75, 1.5, 2.0, 2.0, 2.25]
        got = list(_hill_points(P01, 0.1, targets))
        assert len(trig) == 2 * 3 and len(got) == len(targets)
        assert got[0] == (1.0, 0.0, 0.0, 1.0) and got[1] == got[2] and got[4] == got[5]
        landed, = _hill_points(P01, 0.1, [0.75])
        assert got[1][:2] == landed[:2]
        dp5 = [u for _, u in integration_points(rhs_matrix(P01, 0.1), 0.0, (1.0, 0.0, 0.0, 1.0),
                                                targets, TOL, TOL)]
        for row, want in zip(got, dp5):
            assert all(abs(u - v) <= 1e-11 * max(1.0, abs(v)) for u, v in zip(row, want))

    @pytest.mark.parametrize("omega, omega1, eps, spp", list(ORBIT_STATES))
    def test_samples_read_off_a_step_agree_with_a_step_that_lands_on_them(
            self, omega, omega1, eps, spp):
        # each inner sample, read off the series of a full step, against a solve to
        # it alone, whose last step ends there: within 5e-15 of max(1, |M|) for
        # |eps| <= 1 and 1e-13 at eps = 100 and 1000 (worst 1.6e-15, 9.4e-15 and
        # 6.4e-14)
        params = SystemParams(F(omega), F(omega1), eps)
        inner = [(j / spp) * params.period for j in range(1, spp)]
        bound = 5e-15 if abs(eps) <= 1.0 else 1e-13
        for s, row in zip(inner, _hill_points(params, eps, inner)):
            alone, = _hill_points(params, eps, [s])
            scale = max(1.0, *map(abs, alone))
            assert all(abs(u - v) <= bound * scale for u, v in zip(row, alone))

    @pytest.mark.parametrize("a, b, c", [(0.0, 2.25, 1.5), (0.5625, 0.5625, 1.5), (2.25, 0.0, 0.1),
                                         (1e-3, 2.0, 0.05), (0.01, 0.01, 0.1)])
    def test_the_term_count_bounds_the_tail(self, a, b, c):
        # a step's series of x'' = -V(s) x, h^2 w(t0 + h s) = V(s) = a -+ b cos(theta +
        # c s) for eps >< 0, at 16 phases theta (among them 0 and pi, where w = w' = 0
        # if a = b): past _term_count's N terms, sum n |X_n| stays below 2^-53 for
        # both columns, whatever the first terms look like
        n = dynamics._term_count(a, b, c)
        for sign in (1, -1):
            for theta in (j * math.pi / 8 for j in range(16)):
                v = [a - sign * b * math.cos(theta)] + [
                    -sign * b * c ** k / math.factorial(k) * math.cos(theta + k * math.pi / 2)
                    for k in range(1, 60)]
                for xs in ([1.0, 0.0], [0.0, 1.0]):
                    for k in range(58):
                        xs.append(-sum(v[i] * xs[k - i] for i in range(k + 1)) / ((k + 1) * (k + 2)))
                    assert sum(k * abs(x) for k, x in enumerate(xs) if k >= n) <= 2.0 ** -53

    def test_a_nearly_free_step_sums_three_terms(self):
        # at omega1 = 1e-9, eps = 0 the tail past X_0 + X_1 s is 5.6e-19 of the start,
        # yet the count is 3: the step still takes w's coefficient (it had none at 2)
        params = SystemParams(F(2), F(1, 10**9), 0.0)
        got, = _hill_points(params, 0.0, [0.5 * params.period])
        c, s = math.cos(1e-9 * math.pi / 2), math.sin(1e-9 * math.pi / 2)
        want = c, s / 1e-9, -1e-9 * s, c
        assert all(abs(u - v) <= 1e-15 * abs(v) for u, v in zip(got, want))

    @pytest.mark.parametrize("eps", [0.5, -0.5])
    def test_a_step_from_a_double_zero_of_w_sums_every_term(self, eps):
        # at omega = 2, omega1 = 1, eps = 1/2 (-1/2), w = 1 - 2 eps cos 2t and w' vanish
        # at t = 0 (T/2): a step from there has X2 = X3 = 0 in both columns and X4
        # about 1e-2, so two small terms say nothing of the tail (a rule that stopped
        # at them took w as 0 over the step: H 7.7e-2 off).  Every solve's first step
        # starts at 0, where eps = 1/2 has the double zero; the flow at -1/2 from T/2
        # is that flow, and the 4-sample grid's 4 steps of 3 pi/16 start at no T/2.
        # _stepped and the grid against the DP5 solve: 6.4e-13 and 5.2e-13 of max(1,
        # |M|) the worst (ORBIT_STATES pins the orbit to 30 digits)
        params = SystemParams(F(2), F(1), eps)
        _assert_grid_matches_dp5_solve(params, dynamics._one_period(params, eps, 4))
        m = analysis._stepped(params, eps)
        (_, half), = integration_points(rhs_matrix(params, eps), 0.0, (1.0, 0.0, 0.0, 1.0),
                                        [0.5 * params.period], TOL, TOL)
        want = dynamics._full_period(*half)
        assert all(abs(u - v) <= 1e-11 * max(1.0, abs(v))
                   for u, v in zip((m.m11, m.m12, m.m21, m.m22), want))

    @pytest.mark.parametrize("eps, periods", [(0.1857848562 - 1e-3, 40),
                                              (-(0.1857848562 - 1e-3), 40),
                                              (0.25, 60)])  # the last one escapes
    def test_one_column_stream_is_bit_identical(self, eps, periods):
        # both columns of M streamed over many periods, one target per period: a
        # target's M depends on the targets after it only through the step the last
        # one sets, so the first half is the same bit for bit where both solves take
        # the same step (5 pi/21: 168 and 84 steps to 40 T and 20 T, 252 and 126 to
        # 60 T and 30 T), and the whole is within 2e-11 of max(1, |M|) of the DP5
        # solve over the same targets (worst 7.0e-12, at eps = 0.25, where |M|
        # reaches 2.4e7)
        params = SystemParams(F(2), F(9, 10), eps)
        targets = [k * params.period for k in range(1, periods + 1)]
        kernel = list(_hill_points(params, eps, targets))
        head = list(_hill_points(params, eps, targets[:periods // 2]))
        assert len(kernel) == periods
        assert [_bits(u) for u in kernel[:periods // 2]] == [_bits(u) for u in head]
        dp5 = [u for _, u in integration_points(rhs_matrix(params, eps), 0.0,
                                                (1.0, 0.0, 0.0, 1.0), targets, TOL, TOL)]
        for got, want in zip(kernel, dp5):
            scale = max(1.0, *map(abs, want))
            assert all(abs(u - v) <= 2e-11 * scale for u, v in zip(got, want))
        if eps == 0.25:
            assert max(map(abs, kernel[-1])) > 1e3

    @pytest.mark.parametrize("omega1, eps", [("9/10", 0.0), ("9/10", 0.18), ("9/10", -0.185),
                                             ("1/10", 0.9), ("11/10", 0.1),
                                             ("301/100", 0.1), ("1/2", 1.5)])
    @pytest.mark.parametrize("n", [1, 17])
    def test_monodromy_is_bit_identical_to_generic_solve(self, omega1, eps, n):
        # the stepper's monodromy, which cross-checks the Hill one in analysis,
        # against the generic DP5 solve over half a period, assembled into M(T) by
        # hand and raised to n: within 1e-11 n of max(1, |M^n|) (worst 5.3e-11 at
        # n = 17, omega1 = 301/100, most of it DP5's own error)
        params = SystemParams(F(2), F(omega1), eps)
        m = analysis._stepped(params, eps, n)
        got = (m.m11, m.m12, m.m21, m.m22)
        (_, (a, b, c, d)), = integration_points(rhs_matrix(params, eps), 0.0,
                                                (1.0, 0.0, 0.0, 1.0), [0.5 * params.period],
                                                TOL, TOL)
        w = dynamics.Monodromy(a * d + b * c, 2.0 * b * d, 2.0 * a * c, a * d + b * c,
                               n=1).power(n)
        want = w.m11, w.m12, w.m21, w.m22
        scale = max(1.0, *map(abs, want))
        assert all(abs(u - v) <= 1e-11 * n * scale for u, v in zip(got, want))

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
        assert m.m11 == m.m22 and abs(m.m11 * m.m22 - m.m12 * m.m21 - 1.0) <= 1e-11

    @pytest.mark.parametrize("omega, omega1, eps, spp", list(ORBIT_STATES))
    def test_orbit_over_one_period_matches_30_digits(self, omega, omega1, eps, spp):
        # every sample is solved forward, so it keeps the solve's relative accuracy
        # where the solution grows by 1e17 within the period: worst 8.1e-14 at eps =
        # 100 and 6.8e-14 at eps = 1000 (9.1e-13 and 2.9e-12 with DOP853), whose
        # samples 5-7 were 2.1e9, 2.7e8 and 0.32 off when they were mirrored from
        # the first half as R M(u) R M(T); on the orbits workload's dense grids
        # 1.3e-13 at eps = 0.185, at t = T from the determinants, and 1.4e-14 inside
        # (3.0e-13 in the y = 6.8e-4 at T/2 with a step landing on each sample, 4.7e-13
        # with DOP853), and 2.3e-14 at omega1 = 1 (4.2e-14 and 1.2e-14); 6.6e-15 at
        # omega1 = 1, eps = +-1/2, whose steps from a double zero of w left them
        # 1.1e-2 and 4.0e-2 off when two small terms ended a step's series
        params = SystemParams(F(omega), F(omega1), eps)
        want = list(map(float, ORBIT_STATES[omega, omega1, eps, spp]))
        rows = integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=spp)
        got = [v for row in rows[1:] for v in (row.x, row.y)]
        assert len(got) == len(want) == 2 * spp
        assert all(abs(u - v) <= 5e-13 * abs(v) for u, v in zip(got, want))
        res = CliRunner().invoke(cli.main, ["orbit", "--omega", omega, "--omega1", omega1,
                                            "--epsilon", repr(eps), "--periods", "1",
                                            "--samples", str(spp)])
        assert res.exit_code == 0
        printed = [float(v) for line in res.stdout.splitlines()[2:] for v in line.split(",")[2:4]]
        assert printed == got

    @pytest.mark.parametrize("omega1, eps, spp", [("9/10", 0.1, 1), ("9/10", -0.185, 64),
                                                  ("1/10", 0.9, 4), ("301/100", 0.1, 3)])
    def test_orbit_solve_is_bit_identical_to_generic_solve(self, omega1, eps, spp):
        params = SystemParams(F(2), F(omega1), eps)
        grid = dynamics._one_period(params, eps, spp)
        _assert_grid_matches_dp5_solve(params, grid)
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
        grid = dynamics._one_period(params, eps, spp)
        _assert_grid_matches_dp5_solve(params, grid)
        # the det error grows with the number of steps, which scales with 1 +
        # omega1/omega (the driving cycle plus the unperturbed oscillations of a
        # period), and with |M(T)|^2: worst 1.5e-13 of that scale in 1500 draws
        m11, m12, m21, m22, *_ = grid[-1]
        scale = (1 + omega1 / omega) * max(1.0, abs(m11), abs(m12), abs(m21)) ** 2
        assert m11 == m22 and abs(m11 * m22 - m12 * m21 - 1.0) <= 1e-11 * scale


def test_no_test_module_imports_mpmath():
    # the literals are made by hand with tests/make_literals.py, which pytest does
    # not collect; the suite runs without mpmath
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "make_literals.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not imported & {"mpmath", "make_literals"}, path.name


#: the relative bound of each entry of H at each HALF_PERIOD case, and of
#: h11 h22 - h12 h21 - 1 over max(1, |h11 h22|), with the worst measured: rounding
#: at small q (8.2e-16, 1.3e-13 in an h22 of 6.8e-4 whose terms cancel, 4.0e-15,
#: 3.5e-16 at the half-integer omega1/omega, 1.1e-15 at the integer one), and at
#: q = 104, where the recurrence of C cancels and h11 comes from det H = 1, 8.4e-13
#: in h11 and h12 (the recurrence gave h11 1.2e-11 off); 2.2e-16, 6.7e-16, 1.6e-15,
#: 0, 3.3e-16 and 1.8e-15 for the Wronskian
HALF_PERIOD_BOUND = {("2", "9/10", 0.1): 1e-14, ("2", "9/10", 0.185): 5e-13,
                     ("2", "301/100", 0.8): 2e-14, ("1/2", "1/20", 6.485): 2e-12,
                     ("2", "1", 0.05): 1e-14, ("2", "2", 0.5): 1e-14}
#: the (omega1, eps) of the benchmark's section, orbit and monodromy recipes, at omega = 2
RECIPES = [("9/10", e) for e in (0.01, 0.05, 0.1, 0.15, 0.1500034, 0.18, 0.185, 0.19, 0.2,
                                 0.22, -0.1, -0.15, -0.18, -0.185)] + [
    ("1/10", 0.1), ("11/10", 0.1), ("11/10", -0.1), ("1", 0.05)]


class TestHalfPeriod:
    """H = M(T/2) from Hill's determinants, which solve no ODE."""

    @pytest.mark.parametrize("omega, omega1, eps", list(HALF_PERIOD))
    def test_matches_30_digits(self, omega, omega1, eps):
        params = SystemParams(F(omega), F(omega1), eps)
        got = dynamics._half_period(params, eps)
        want = [float(v) for v in HALF_PERIOD[omega, omega1, eps]]
        bound = HALF_PERIOD_BOUND[omega, omega1, eps]
        assert all(abs(u - v) <= bound * abs(v) for u, v in zip(got, want))
        h11, h12, h21, h22 = got
        assert abs(h11 * h22 - h12 * h21 - 1.0) <= bound * max(1.0, abs(h11 * h22))

    def test_h11_comes_from_det_h_only_where_c_cancels(self):
        # C(pi/2) sums terms 3.8e4 times its size at q = 104 and at most 16 times
        # at the other cases and recipes, where the recurrence's value stands
        for omega, omega1, eps in [*HALF_PERIOD, *(("2", *r) for r in RECIPES)]:
            params = SystemParams(F(omega), F(omega1), eps)
            h11, h12, h21, h22 = dynamics._half_period(params, eps)
            c, s_prime, grows_c, _ = dynamics._hill_factors(params, eps, odd=True)
            assert s_prime == h22
            if (omega, omega1, eps) == ("1/2", "1/20", 6.485):
                assert grows_c > 3e4 and h11 == (1.0 + h12 * h21) / h22
                want = float(HALF_PERIOD[omega, omega1, eps][0])
                assert abs(c - want) > 1e-11 * want and abs(h11 - want) < 1e-12 * want
            else:
                assert grows_c < 20 and h11 == c, (omega1, eps)

    def test_one_sample_per_period_solves_nothing(self, monkeypatch):
        # the stepper gets no target, so it takes no step: a grid's only cos is its
        # g at s = T, cos(2 pi), and the determinants call neither cos nor sin
        trig = _count_trig(monkeypatch)
        params = SystemParams(F(2), F(9, 10), 0.19)
        assert len(stroboscopic_section(params, 0.0, 1.0, 40)) == 41
        assert escape_diagnostics(params, orbit_rows(params, 0.0, 1.0, 150)).escaped
        assert abs(monodromy(params, 0.19, n=3).trace) > 2.0
        assert trig == [2.0 * math.pi] * 2
        integrate_orbit(params, 0.0, 1.0, 2, samples_per_period=2)  # it solves T/2
        assert len(trig) == 2 + 2 * 3 + 2  # 3 steps to T/2 = pi/2, then g at T/2 and T

    @pytest.mark.parametrize("ratio", ["900", "9000/7", "216045/100", "2300", "2331", "4801/2",
                                       "2700", "10000", "90001/2", "90000"])
    def test_free_oscillator_at_large_ratios(self, ratio):
        # at eps = 0, H = ((cos(pi r), sin(pi r)/omega1), (-omega1 sin(pi r), cos(pi r))),
        # r = omega1/omega, and tr M(T) = 2 cos(2 pi r).  Past r = 2330 the tail factor
        # of the rows past N underflowed before the powers of 2^600 took it back:
        # trace 5.1e-7 off at r = 2300 (a subnormal tail), 2.0009 at 2331, H = 0 at
        # 2700.  The error grows with r (4.5e-12 at 45000.5, where tr = -2 as at 2400.5)
        r = F(ratio)
        params = SystemParams(F(9, 10) / r, F(9, 10), 0.0)
        c, s = math.cos(math.pi * float(r % 2)), math.sin(math.pi * float(r % 2))
        bound = 1e-12 + 1e-16 * float(r)
        got = dynamics._half_period(params, 0.0)
        for u, v in zip(got, (c, s / 0.9, -0.9 * s, c)):
            assert abs(u - v) <= bound * max(1.0, abs(v))
        assert abs(monodromy(params, 0.0).trace - 2.0 * math.cos(2.0 * math.pi * float(r % 1))) \
            <= 4.0 * bound

    def test_past_ratio_2330_matches_dp5(self):
        # at r = 2331, eps = 1e-6 (q = 27) the tail factor underflowed too, and H was
        # 2.3e-4 off; DP5 over the 1166 oscillations to T/2 is 3.0e-9 off itself (a
        # 30-digit mpmath solve would take hours)
        params = SystemParams(F(9, 23310), F(9, 10), 1e-6)
        got = dynamics._half_period(params, 1e-6)
        (_, want), = integration_points(rhs_matrix(params, 1e-6), 0.0, (1.0, 0.0, 0.0, 1.0),
                                        [0.5 * params.period], TOL, TOL)
        assert all(abs(u - v) <= 1e-8 * max(1.0, abs(v)) for u, v in zip(got, want))

    def test_orbit_row_after_one_period_at_a_small_omega(self):
        # omega = 9/24005 (r = 2400.5): from (0, 1) the state at t = T is (0, -1) at
        # eps = 0, where the orbit printed the zero state
        res = CliRunner().invoke(cli.main, ["orbit", "--omega", "9/24005", "--epsilon", "0",
                                            "--periods", "1", "--samples", "1"])
        assert res.exit_code == 0
        k, t, x, y, e = map(float, res.stdout.splitlines()[-1].split(",")[:5])
        assert (k, t) == (1, 2.0 * math.pi * 24005 / 9)
        assert abs(x) <= 1e-11 and abs(y + 1.0) <= 1e-11 and abs(e + 0.5) <= 1e-11

    @pytest.mark.parametrize("eps, bound", [(1e4, 1e-10), (-1e4, 1e-10), (3e4, 1e-10)])
    def test_large_eps_monodromy_matches_the_stepper(self, eps, bound):
        # |M(T)| ~ 1e75 and 1e129: every entry is a product, so each keeps its relative
        # accuracy (1.9e-13, 1.9e-13 and 5.0e-14 from the stepper's measured)
        params = SystemParams(F(2), F(9, 10), eps)
        m, s = monodromy(params, eps), analysis._stepped(params, eps)
        for u, v in zip((m.m11, m.m12, m.m21, m.m22), (s.m11, s.m12, s.m21, s.m22)):
            assert abs(u - v) <= bound * abs(v)

    def test_the_recurrence_rescales_exactly(self, monkeypatch):
        # at eps = 3e5 (q = 3e5) H ~ 1e200 is finite and only M(T) ~ H^2 leaves
        # float64; rescaling by powers of two changes no bit, also every few rows
        cases = [(SystemParams(F(om), F(om1), eps), eps) for om, om1, eps in HALF_PERIOD]
        cases.append((SystemParams(F(2), F(9, 10), 3e5), 3e5))
        want = [dynamics._half_period(*case) for case in cases]
        assert all(map(math.isfinite, want[-1])) and max(map(abs, want[-1])) > 2.0 ** 600
        with pytest.raises(Unbounded, match="overflows"):
            monodromy(*cases[-1])
        monkeypatch.setattr(dynamics, "_HUGE", 2.0 ** 4)
        assert [dynamics._half_period(*case) for case in cases] == want

    def test_a_recurrence_that_decays_first_is_rescaled_up(self):
        # at omega1 = 1000, q = 3e5 (a = 3.3 q) the recurrence falls below 2^-1200 over
        # the rows past sqrt(q) before it grows back to H ~ 840: scaled only down, it
        # gave H = 0; the stepper, sharing no code with it, meets H within 1.9e-14 of
        # max|H|.  (At q = 3e8, a = 0.81, where scaled only down it gave H = 0, M(T) =
        # I and a trace of 2, H is now refused before the first row.)
        params = SystemParams(F(2), F(1000), 3e5)
        hill = dynamics._half_period(params, 3e5)
        stepped, = _hill_points(params, 3e5, [0.5 * params.period])
        size = max(map(abs, hill))
        assert 800 < size < 900
        assert all(abs(u - v) <= 1e-12 * size for u, v in zip(hill, stepped))
        params = SystemParams(F(2), F(9, 10), 3e8)
        with pytest.raises(Unbounded, match="leaves float64 within half a period"):
            monodromy(params, 3e8)

    def test_no_finite_half_period_is_refused(self):
        # at omega = 2, a = 0.81 and q = eps: stepping eps up by 2500, H is finite up to
        # 6.875e5 (it leaves float64 at 6.88e5), past float64 from 6.9e5 and refused
        # (exp(0.847 sqrt|q| - (pi/4) sqrt(a) - 1) past 2^1024 from 7.06e5) from 7.075e5:
        # no finite H is refused, and the refusal starts within 3 % of the last finite H
        params, finite = SystemParams(F(2), F(9, 10), 0.0), []
        for eps in (6.75e5 + 2500.0 * k for k in range(20)):
            try:
                finite.append(all(map(math.isfinite, dynamics._half_period(params, eps))))
            except Unbounded as exc:
                assert str(exc).endswith(f"within half a period at eps = {eps}")
                break
        last = 6.75e5 + 2500.0 * (finite.count(True) - 1)
        assert finite == sorted(finite, reverse=True) and True in finite and False in finite
        assert last == 6.875e5 and eps == 7.075e5 <= 1.03 * last

    @pytest.mark.parametrize("eps", [7.06e5, -7.06e5, 1e7, 1e8, 1e9, 4.4e9])
    def test_what_must_overflow_is_refused_before_the_first_row(self, monkeypatch, eps):
        # the rows of Hill's recurrence, counted: none before the refusal, where
        # eps = 1e8 ran 1.1 million rows per parity class before "overflows"
        rows = []

        def counted(*args):
            for n in range(*args):
                rows.append(n)
                yield n

        monkeypatch.setattr(dynamics, "range", counted, raising=False)
        params = SystemParams(F(2), F(9, 10), eps)
        for hill in (lambda: monodromy(params, eps), lambda: analysis._hill_trace(params, eps),
                     lambda: integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=4)):
            with pytest.raises(Unbounded, match="^the solution leaves float64 within half a"):
                hill()
        assert rows == []
        dynamics._half_period(params, 1e3)  # and the count sees the rows of a value taken
        assert len(rows) > 100

    def test_energy_over_one_period_at_eps_100_matches_30_digits(self):
        # E = -H of the state: 8.0e-13 of |E| at worst, where the samples past T/2
        # were 2.1e-8 off when they were mirrored from the first half
        params = SystemParams(F(2), F(9, 10), 100.0)
        rows = integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=16)
        assert len(rows) == 17
        for row, want in zip(rows[1:], map(float, E_AT_EPS_100)):
            assert abs(row.E - want) <= 2e-12 * abs(want)


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


def _dp5_energies(params, x0, y0, n_periods, spp):
    """E at every sample from the DP5 reference's (M, Q) over one whole period,
    which integrates the energy form and shares no code with -H."""
    grid = one_period(params, params.epsilon, spp, 1e-12, 1e-12)
    x, y, e = x0, y0, -params.hamiltonian(x0, y0, 0.0)
    energies = [e]
    for _ in range(n_periods):
        energies += [e + q11 * x * x + q22 * y * y + 2.0 * q12 * x * y
                     for _, _, _, _, q11, q22, q12 in grid]
        m11, m12, m21, m22, *_ = grid[-1]
        x, y, e = m11 * x + m12 * y, m21 * x + m22 * y, energies[-1]
    return energies


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
        # E = -H(x, y, t) by construction, so its oracle is the energy form Q of
        # the DP5 reference, integrated: E(kT + s) = E(kT) + z^T Q(s) z, z = z(kT)
        params = SystemParams(F(2), F(omega1), eps)
        traj = integrate_orbit(params, 0.0, 1.0, 200, samples_per_period=4)
        ref = _dp5_energies(params, 0.0, 1.0, 200, 4)
        assert len(ref) == len(traj)
        for s, e in zip(traj, ref):
            assert abs(s.E - e) <= 1e-7 * max(1.0, abs(e))

    @pytest.mark.parametrize("omega1, eps, periods", [
        *[("9/10", e, 200) for e in (0.01, 0.05, 0.1, 0.15, 0.18, 0.185, -0.1, -0.15, -0.18)],
        *[("9/10", e, 64) for e in (0.19, 0.2, 0.22)],
        ("1/10", 0.1, 200), ("11/10", 0.1, 200), ("11/10", -0.1, 200), ("1", 0.05, 15)])
    def test_section_rows_match_a_tight_solve(self, omega1, eps, periods):
        # the benchmark's section parameters against M(T) from the Taylor stepper:
        # 3.4e-12 of max(1, |z|) in x, y and 5.3e-12 of max(1, |E|) in E the worst
        # (omega1 = 1/10; 3.3e-12 at omega1 = 9/10, eps = -0.18), 9.1e-13 elsewhere
        params = SystemParams(F(2), F(omega1), eps)
        rows = orbit_rows(params, 0.02, 0.97, periods)
        half, = _hill_points(params, eps, [0.5 * params.period])
        m = dynamics.Monodromy(*dynamics._full_period(*half), n=1)
        x, y = 0.02, 0.97
        for _, _, u, v, e, _, _ in rows[1:]:
            x, y = m.apply(x, y)
            assert max(abs(u - x), abs(v - y)) <= 2e-11 * max(1.0, abs(x), abs(y))
            want = -params.hamiltonian(x, y, 0.0)
            assert abs(e - want) <= 2e-11 * max(1.0, abs(want))

    def test_work_independent_of_horizon(self, monkeypatch):
        # each step takes one cos and one sin at its start, over [0, 3T/4] at four
        # samples a period (one sample per period solves nothing): 3 pi/4 in 4 steps
        # of at most _RHO/omega = 3/4 (6 when each T/4 was cut alone); then g at
        # each sample
        trig = _count_trig(monkeypatch)
        counts = []
        for n in (20, 2000):
            trig.clear()
            integrate_orbit(P01, 0.0, 1.0, n, samples_per_period=4)
            counts.append(len(trig))
            # one period of integration, never more
            assert max(trig) <= float(P01.omega) * P01.period
        assert counts == [2 * 4 + 4, 2 * 4 + 4]


class TestOrbitBlocks:
    """``orbit_blocks`` yields the orbit table in blocks of whole periods."""

    @pytest.mark.parametrize("periods, spp", [(1, 1), (5, 8), (3000, 1), (1023, 1), (1024, 1),
                                              (40, 64), (17, 63), (2, 1500)])
    def test_blocks_are_the_table_in_whole_periods(self, periods, spp):
        blocks = list(dynamics.orbit_blocks(P01, 0.03, 0.97, periods, spp))
        rows = [row for block in blocks for row in block]
        want = orbit_rows(P01, 0.03, 0.97, periods, spp)
        assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in want]
        assert len(rows) == periods * spp + 1
        # each block ends on a section time t = kT, and each but the last holds
        # at least _BLOCK_ROWS rows: the first also holds the start, row 0
        ends = [len(block) for block in blocks]
        assert all(n >= dynamics._BLOCK_ROWS for n in ends[:-1])
        assert all((sum(ends[:j + 1]) - 1) % spp == 0 for j in range(len(ends)))
        assert (len(blocks[0]) - 1) // spp == -(-dynamics._BLOCK_ROWS // spp) or len(blocks) == 1

    @pytest.mark.parametrize("periods, spp, row, h", [
        (106, 64, 3393, 3393), (107, 64, 3425, 3393), (40, 64, 1281, 1281), (700, 3, 1051, 1051),
        (701, 3, 1052, 1051), (2100, 1, 1050, 1050), (5, 8, 40, 33), (1, 3000, 1501, 3001)])
    def test_a_split_is_the_table_in_two(self, periods, spp, row, h):
        # the head holds rows 0 to h - 1 and the tail the rest, bit for bit the whole
        # table's, h the first row of the last period to start by ``row`` (at least
        # period 1: a one-period table's tail is empty)
        want = orbit_rows(P01, 0.03, 0.97, periods, spp)
        split = dynamics.orbit_blocks(P01, 0.03, 0.97, periods, spp).split(row)
        head, tail = ([row for block in part for row in block] for part in split[1:])
        assert split[0] == h == len(head) and (h - 1) % spp == 0
        assert [tuple(map(repr, r)) for r in head + tail] == [tuple(map(repr, r)) for r in want]

    @pytest.mark.parametrize("x0, y0", [(0, 1), (F(1, 2), 0), (0.25, 0.5)])
    def test_every_row_is_an_int_and_six_floats(self, x0, y0):
        # whatever the start's types, so one row's CSV template serves every row
        blocks = dynamics.orbit_blocks(P01, x0, y0, 40, 64)
        kinds = {tuple(map(type, row)) for block in blocks for row in block}
        assert kinds == {(int,) + (float,) * 6}

    def test_checks_and_the_solve_run_at_the_call(self, monkeypatch):
        solves = []
        one_period = dynamics._one_period
        monkeypatch.setattr(dynamics, "_one_period",
                            lambda *args: solves.append(args) or one_period(*args))
        for args in [(0.0, 0.0, 5, 1), (0.0, 1.0, 0, 1), (0.0, 1.0, 1, 0), (math.inf, 1.0, 1, 1),
                     (1e200, 1.0, 3, 1), (0.0, 1.0, 5_000_001, 1)]:
            with pytest.raises(InvalidInput):
                dynamics.orbit_blocks(P01, *args)  # not iterated
        assert solves == []
        blocks = dynamics.orbit_blocks(P01, 0.0, 1.0, 5, 8)
        assert len(solves) == 1
        next(blocks)
        assert len(solves) == 1
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
        with pytest.raises(StepFailure):
            dynamics.orbit_blocks(P01, 0.0, 1.0, 1, 1)

    def test_unbounded_comes_with_the_period_that_overflows(self):
        # E overflows in period 239 at eps = 1: the blocks before it arrive first
        params = SystemParams(F(2), F(9, 10), 1.0)
        blocks = dynamics.orbit_blocks(params, 0.0, 1.0, 5000, 64)
        got = []
        with pytest.raises(Unbounded, match="overflows in period 239;"):
            for block in blocks:
                got.append(block)
        assert len(got) == 14 and got[-1][-1][0] == 14 * 16
        with pytest.raises(Unbounded, match="overflows in period 239;"):
            orbit_rows(params, 0.0, 1.0, 5000, 64)

    def test_d_stays_finite_where_its_squares_overflow(self):
        # at eps = 1 the section's last row before the overflow, k = 239, has a state of
        # about 2.6e154, past the 1.34e154 where omega1^2 x^2 + y^2 leaves float64 while
        # E and r do not: d is taken at 2^-512 there, as E is, and every other row keeps
        # the plain sqrt's value
        params = SystemParams(F(2), F(9, 10), 1.0)
        rows = orbit_rows(params, 0.0, 1.0, 239, 1)
        for k, _, x, y, _, d, _ in rows:
            plain = math.sqrt(0.81 * x * x + y * y)
            assert d == plain or k == 239 and plain == math.inf
        k, _, x, y, e, d, r = rows[-1]
        assert math.isfinite(e) and math.isfinite(r) and math.isfinite(d)
        assert abs(d - math.hypot(0.9 * x, y)) <= 1e-15 * d
        # the tables' references rebuild d alike, bit for bit, on that row too
        points = stroboscopic_section(params, 0.0, 1.0, 239)
        assert output.section_rows(points, params) == rows
        assert output.trajectory_rows(points, params, 1) == rows

    @pytest.mark.parametrize("y0", [1e-170, 1e-160, 1e-300, 2.0 ** -511])
    @pytest.mark.parametrize("spp", [1, 64])
    def test_d_where_its_squares_underflow(self, y0, spp):
        # below d = 2^-511, omega1^2 x^2 + y^2 is below float64's normal range: d is taken
        # at 2^600, row 0 included, and every row at or above 2^-511 keeps the plain sqrt
        params = SystemParams(F(2), F(9, 10), 0.1)
        rows = orbit_rows(params, 0.0, y0, 2, spp)
        for _, _, x, y, _, d, _ in rows:
            plain = math.sqrt(0.81 * x * x + y * y)
            assert d == plain or plain < 2.0 ** -511
            assert abs(d - math.hypot(0.9 * x, y)) <= 1e-15 * d
        assert rows[0][5] == y0
        # the references rebuild d alike, bit for bit
        samples = integrate_orbit(params, 0.0, y0, 2, spp)
        assert output.trajectory_rows(samples, params, spp) == rows
        section = stroboscopic_section(params, 0.0, y0, 2)
        assert output.section_rows(section, params) == rows[::spp]


class TestRecords:
    """Orbit samples: the orbit table's rows, immutable, compared by value."""

    def test_orbit_sample_unpacks_as_k_t_x_y_e_d_r(self):
        sample = dynamics.OrbitSample(4, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0)
        k, t, x, y, E, d, r = sample
        assert ((k, t, x, y, E, d, r)
                == (sample.k, sample.t, sample.x, sample.y, sample.E, sample.d, sample.r)
                == (4, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0))
        assert dynamics.OrbitSample._fields == ORBIT_COLUMNS  # the row's fields, in its order

    def test_orbit_columns_are_the_sample_fields(self):
        # one definition: the table header is the sample type's field tuple itself
        assert ORBIT_COLUMNS is dynamics.OrbitSample._fields

    def test_phase_state_unpacks_as_x_y_t_e(self):
        # a sample's phase state (x, y, t, E) reads the same by position and by name
        sample = dynamics.OrbitSample(4, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0)
        _, t, x, y, E, _, _ = sample
        assert (x, y, t, E) == (sample.x, sample.y, sample.t, sample.E) == (1.0, 2.0, 3.0, 5.0)

    def test_section_point_unpacks_as_x_y_e_k_d_r(self):
        # a section sample's point fields (x, y, E, k, d, r) read the same by position
        # and by name, and r is the point's distance from the origin
        point = stroboscopic_section(P01, 0.03, 0.97, 3)[-1]
        k, _, x, y, E, d, r = point
        assert ((x, y, E, k, d, r) == (point.x, point.y, point.E, point.k, point.d, point.r))
        assert k == 3 and r == math.hypot(x, y)

    @pytest.mark.parametrize("record, field", [
        (dynamics.OrbitSample(4, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0), name) for name in "xEkr"
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)

    def test_equal_by_value(self):
        a = dynamics.OrbitSample(4, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0)
        assert a == dynamics.OrbitSample(k=4, t=3.0, x=1.0, y=2.0, E=5.0, d=6.0, r=7.0)
        assert a != dynamics.OrbitSample(5, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0)
        assert hash(a) == hash(dynamics.OrbitSample(4, 3.0, 1.0, 2.0, 5.0, 6.0, 7.0))

    @pytest.mark.parametrize("eps, periods", [(0.1, 200), (0.19, 150), (-0.185, 200),
                                              (0.5, 3000)])  # 0.19 escapes, 0.5 overflows
    def test_section_is_the_stroboscopic_section(self, eps, periods):
        # the section is the one-sample-per-period orbit table, bit for bit, at t = kT
        params = SystemParams(F(2), F(9, 10), eps)
        try:
            rows = orbit_rows(params, 0.03, 0.97, periods, 1)
        except Unbounded as exc:
            with pytest.raises(Unbounded, match=f"^{re.escape(str(exc))}$"):
                stroboscopic_section(params, 0.03, 0.97, periods)
            assert eps == 0.5
            return
        got = stroboscopic_section(params, 0.03, 0.97, periods)
        assert all(type(p) is dynamics.OrbitSample for p in got)
        assert [tuple(map(repr, p)) for p in got] == [tuple(map(repr, row)) for row in rows]
        assert [(p.k, p.t) for p in got] == [(k, k * params.period) for k in range(periods + 1)]

    @pytest.mark.parametrize("omega1", ["9/10", "1/10", "11/10", "1"])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.185, 0.19, -0.1, -0.185])
    def test_section_r_is_within_an_ulp_of_the_square_root(self, omega1, eps):
        # r is hypot(x, y); the section points had sqrt(x x + y y), at most 1 ulp away
        params = SystemParams(F(2), F(omega1), eps)
        for p in stroboscopic_section(params, 0.03, 0.97, 200 if abs(eps) < 0.19 else 40):
            assert p.r == math.hypot(p.x, p.y)
            assert abs(p.r - math.sqrt(p.x * p.x + p.y * p.y)) <= math.ulp(p.r)

    def test_section_points_carry_the_samples_at_kt(self):
        # Sample i*spp of a denser orbit lands on t = kT too, and every grid ends
        # with Hill's M(T), whatever the stepper solves inside the period: the
        # samples at t = kT are the section's bit for bit
        for omega1, eps, periods in [("9/10", 0.1, 200), ("9/10", -0.185, 110),
                                     ("1/10", 0.1, 200), ("11/10", 0.1, 200), ("1", 0.05, 15)]:
            params = SystemParams(F(2), F(omega1), eps)
            sec = stroboscopic_section(params, 0.0, 1.0, periods)
            assert [p.k for p in sec] == list(range(periods + 1))
            for spp in (2, 3, 8, 64):
                samples = integrate_orbit(params, 0.0, 1.0, periods, spp)[::spp]
                assert samples == sec


class TestNonFinite:
    def test_overflow_is_unbounded_with_period_index(self):
        params = SystemParams(F(2), F(9, 10), 0.5)
        with pytest.raises(Unbounded, match=r"overflows in period \d+") as states:
            integrate_orbit(params, 0.0, 1.0, 3000)
        with pytest.raises(Unbounded, match=f"^{re.escape(str(states.value))}$"):
            orbit_rows(params, 0.0, 1.0, 3000)
        with pytest.raises(Unbounded):
            monodromy(params, 0.5, n=3000)

    def test_power_stops_at_the_first_overflow(self, monkeypatch):
        # the entries overflow within ~100 periods; all 1e9 products would
        # take minutes, and the squares take at most 2 per bit of n
        products = _count_products(monkeypatch, 2 * (10**9).bit_length())
        with pytest.raises(Unbounded, match="over 1000000000 periods overflows"):
            monodromy(SystemParams(F(2), F(9, 10), 5.0), 5.0, n=10**9)
        assert products

    def test_power_with_an_overflowing_trace_is_unbounded(self):
        # at omega = 1/2 the entries of M(T)^162 are alike, 0.95e308 each: finite,
        # but their trace, and with it the larger multiplier, is past float64
        params = SystemParams(F(1, 2), F(9, 10), 1.0004)
        one, most = (monodromy(params, 1.0004, n=n) for n in (1, 161))
        entries = dynamics._product((most.m11, most.m12, most.m21, most.m22),
                                    (one.m11, one.m12, one.m21, one.m22))
        assert all(map(math.isfinite, entries)) and entries[0] + entries[3] == math.inf
        with pytest.raises(Unbounded, match="^the monodromy over 162 periods overflows$"):
            monodromy(params, 1.0004, n=162)

    @pytest.mark.parametrize("eps", [1e300, 1e308, -1e308])
    def test_overflowing_coefficients_are_unbounded_with_time(self, eps):
        # Hill's determinants would need 1e171 rows and more, where the solution
        # grows like exp(0.85 sqrt|q|) within half a period; an orbit takes M(T)
        # from them before it solves, at any number of samples.  The stepper
        # alone would take 1.5e150 steps and more (inf where 2 eps overflows),
        # and refuses them before the first
        params = SystemParams(F(2), F(9, 10), eps)
        with pytest.raises(StepFailure, match=r"takes (\S+e\+\d+|inf) steps"):
            list(_hill_points(params, eps, [0.5 * params.period]))
        for hill in (lambda: monodromy(params, eps),
                     lambda: integrate_orbit(params, 0.0, 1.0, 1),
                     lambda: integrate_orbit(params, 0.0, 1.0, 1, samples_per_period=4)):
            with pytest.raises(Unbounded, match=re.escape(
                    f"the solution leaves float64 within half a period at eps = {eps}")):
                hill()

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(InvalidInput, match="finite") as info:
            SystemParams(F(2), F(9, 10), eps)
        assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)

    def test_non_finite_initial_condition_rejected(self):
        with pytest.raises(InvalidInput):
            integrate_orbit(P01, math.nan, 1.0, 1)
