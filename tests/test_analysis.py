"""Boundary location, convergence, cover counts, periodic orbits, conics."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dp5_reference import integration_points, rhs_matrix
from mathieu_integrals import (DegenerateConic, NoRoot, SystemParams, Unbounded, analysis,
                               build_integral, conic_at_section, convergence_study,
                               cover_count, critical_epsilon, dynamics, find_periodic_orbit,
                               invariant_curve_points, monodromy)
from mathieu_integrals.analysis import (_bracketed_root, _hill_trace, section_residual,
                                        section_semiaxis_x)
from mathieu_integrals.dynamics import _RTOL, Monodromy
from mathieu_integrals.errors import BracketFailure, InvalidInput


P01 = SystemParams(F(2), F(9, 10), 0.1)


class TestCriticalEpsilon:
    def test_canonical_value(self, crit_cache):
        res = crit_cache("9/10")
        assert abs(res.eps_crit - 0.1857848626) < 1e-6
        assert res.bracket[1] - res.bracket[0] <= 1e-9
        assert res.escape_check is True

    def test_small_omega1(self, crit_cache):
        assert abs(crit_cache("1/10").eps_crit - 0.89964) < 1e-4

    def test_above_resonance_omega1(self, crit_cache):
        assert abs(crit_cache("11/10").eps_crit - 0.21598) < 1e-4

    @pytest.mark.parametrize("om1", ["9/10", "1/10", "11/10"])
    def test_sign_symmetry(self, crit_cache, om1):
        plus = crit_cache(om1).eps_crit
        minus = crit_cache(om1, -1).eps_crit
        assert abs(minus + plus) < 1e-6

    def test_trace_changes_sign_across_bracket(self, crit_cache):
        # the search's own trace: the monodromy's error (~1e-12) exceeds |g| at the ends
        # of a 4e-11 bracket, so it is compared with roots, not signs, below
        res = crit_cache("9/10")
        lo, hi = res.bracket
        g = lambda e: abs(_hill_trace(P01, e)) - 2.0
        assert g(lo) < 0 < g(hi)

    def test_works_at_resonance(self):
        # at omega1 = 1 the instability tongue opens at eps = 0: the
        # boundary collapses to zero.  |tr| - 2 grows only quadratically
        # at the tongue tip, so the locator resolves it to about the
        # square root of the trace's rounding.
        res = critical_epsilon(SystemParams(F(2), F(1), 0.0))
        assert abs(res.eps_crit) < 5e-6
        assert res.escape_check is None  # |eps_crit| <= 2e-3 skips the cross-check

    @pytest.mark.parametrize("sign", [1, -1])
    def test_n2_tongue_tip(self, sign):
        # omega1 = 2 (a = 4): tr - 2 ~ 2e2 eps^4 at the tip, which a DP5
        # trace error of ~5e-12 swamped (eps_crit = 0.00385 was printed)
        res = critical_epsilon(SystemParams(F(2), F(2), 0.0), sign=sign)
        assert abs(res.eps_crit) <= 1e-5

    def test_bracket_failure(self):
        # 17/6: the expansion steps over every tongue (ROADMAP item 1), and
        # the message names the last |eps| it tested, 0.05 * 1.6^11
        with pytest.raises(BracketFailure, match=r"^no instability found up to \|eps\| = 8\.8$"):
            critical_epsilon(SystemParams(F(2), F(17, 6), 0.0))
        with pytest.raises(ValueError):
            critical_epsilon(P01, sign=0)

    def test_refuted_root_raises(self):
        # omega = 1/100 (s = 90): the trace swings through +-2 many times
        # within 1e-3 of the expansion's bracket, ITP lands on a later root
        # and the monodromy cross-check refutes it; the library never returns it
        with pytest.raises(BracketFailure, match=r"^eps_crit = 0\.435922411 is refuted"):
            critical_epsilon(SystemParams(F(1, 100), F(9, 10), 0.0))

    @pytest.mark.parametrize("trace", [0.0, 3.0])
    def test_one_sided_cross_check_refutes_the_root(self, monkeypatch, trace):
        # a monodromy trace on the same side of +-2 at eps_crit +- 1e-3 (stable:
        # 0, unstable: 3) refutes the Hill root wherever ITP lands
        m = Monodromy(m11=trace, m12=1.0, m21=-1.0, m22=0.0, n=1)
        monkeypatch.setattr(analysis, "monodromy", lambda params, eps, n=1: m)
        with pytest.raises(BracketFailure, match=r"^eps_crit = \S+ is refuted"):
            critical_epsilon(P01)

    def test_sign_zero_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="sign"):
            critical_epsilon(P01, sign=0)

    @staticmethod
    def _assert_escape_oracle_agrees(crit_cache, om1):
        # the Hill root against the root of the monodromy trace, which shares
        # no code with it, in both signs (1.9e-11 measured)
        params = SystemParams(F(2), F(om1), 0.0)
        g = lambda e: abs(monodromy(params, e).trace) - 2.0
        for sign in (1, -1):
            res = crit_cache(om1, sign)
            lo, hi = res.eps_crit - 1e-3, res.eps_crit + 1e-3
            lo, hi = _bracketed_root(g, lo, hi, g(lo), g(hi), 1e-10)
            assert res.escape_check is True
            assert abs(res.eps_crit - 0.5 * (lo + hi)) <= 1e-9

    def test_escape_oracle_agrees_with_trace(self, crit_cache):
        self._assert_escape_oracle_agrees(crit_cache, "9/10")

    @pytest.mark.parametrize("om1", ["1/10", "11/10"])
    def test_escape_oracle_agrees_other_params(self, crit_cache, om1):
        self._assert_escape_oracle_agrees(crit_cache, om1)

    @settings(max_examples=100, deadline=None)
    @given(omega1=st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20),
           eps=st.floats(min_value=-1.0, max_value=1.0))
    def test_escape_verdict_matches_trace_away_from_boundary(self, omega1, eps):
        params = SystemParams(F(2), omega1, eps)
        trace = monodromy(params, eps).trace
        assume(abs(abs(trace) - 2.0) >= 0.05)
        assert (abs(_hill_trace(params, eps)) > 2.0) == (abs(trace) > 2.0)

    @pytest.mark.parametrize("om1, sign", [("9/10", -1), ("1/10", 1), ("1/10", -1),
                                           ("11/10", 1), ("11/10", -1)])
    def test_escape_check_confirms_boundary(self, crit_cache, om1, sign):
        assert crit_cache(om1, sign).escape_check is True

    @pytest.mark.parametrize("om1, eps_crit", [("9/10", 0.18578485623598096),
                                               ("1/10", 0.899645188056641),
                                               ("11/10", 0.215990180387497)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_boundary_pinned_to_the_bisection_values(self, crit_cache, om1, eps_crit, sign):
        # the values the one-bit-per-solve bisection over full-period solves found
        res = crit_cache(om1, sign)
        assert abs(res.eps_crit - sign * eps_crit) <= 1e-10
        assert abs(res.bracket[1] - res.bracket[0]) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(omega1=st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20),
           sign=st.sampled_from([1, -1]))
    def test_trace_oracle_bracket_and_call_bound(self, omega1, sign):
        traces = []  # (eps, tr M) of every trace evaluation

        def recording(params, eps):
            trace = _hill_trace(params, eps)
            traces.append((eps, trace))
            return trace

        params = SystemParams(F(2), omega1, 0.0)
        tol = 1e-10  # the bracket width critical_epsilon resolves to
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_hill_trace", recording)
            try:
                res = critical_epsilon(params, sign=sign)
            except BracketFailure:
                res = None
        # the expansion: hi = 0.05 * 1.6^k until |tr M| > 2, one call each
        lo, hi, k = 0.0, 0.05, 0
        while k < len(traces) and abs(traces[k][1]) <= 2.0:
            assert traces[k][0] == sign * hi
            lo, hi, k = hi, hi * 1.6, k + 1
        if res is None:
            # 17/6 <= omega1 <= 29/10: the expansion steps over every tongue
            # up to |eps| = 10 and finds all its points stable (ROADMAP item 1)
            assert k == len(traces) == 12
            return
        assert traces[k][0] == sign * hi
        assert len(traces) == res.iterations
        assert len(traces) <= (k + 1) + math.ceil(math.log2((hi - lo) / tol)) + 1
        stable, unstable = res.bracket
        assert abs(unstable - stable) <= tol
        g = lambda e: abs(_hill_trace(params, e)) - 2.0
        if stable == unstable:  # the trace met |tr M| = 2 exactly
            assert g(stable) == 0.0
        else:
            assert g(stable) <= 0.0 < g(unstable)

    def test_canonical_boundary_call_count(self, monkeypatch):
        # the bisection made 34 solves here: 4 to expand, 30 to gain 30 bits
        calls = []

        def recording(params, eps):
            calls.append(eps)
            return _hill_trace(params, eps)

        monkeypatch.setattr(analysis, "_hill_trace", recording)
        res = critical_epsilon(SystemParams(F(2), F(9, 10), 0.0))
        assert len(calls) == res.iterations <= 14

    @pytest.mark.parametrize("omega1, solves", [("9/10", 2), ("11/10", 2), ("2", 0)])
    def test_dp5_runs_only_for_the_cross_check(self, monkeypatch, omega1, solves):
        # the root search reads the Hill trace; the kernel solves eps_crit -+ 1e-3
        # when |eps_crit| > 2e-3 (0.186, 0.216) and nothing at the n = 2 tip
        calls = []
        hill_points = dynamics._hill_points

        def recording(*args, **kwargs):
            calls.append(args[1])
            return hill_points(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_hill_points", recording)
        critical_epsilon(SystemParams(F(2), F(omega1), 0.0))
        assert len(calls) == solves


class TestBracketedRoot:
    def test_unit_values_bisect(self):
        # on +-1 the regula falsi point is the midpoint, so ITP bisects a two-valued f
        lo, hi, tol, root = 0.128, 0.2048, 1e-10, 0.18578
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 if x > root else -1.0

        got = _bracketed_root(f, lo, hi, -1.0, 1.0, tol)
        mids = []
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
        assert seen == mids + mids and got == (lo, hi)
        assert len(mids) == math.ceil(math.log2((0.2048 - 0.128) / tol))

    @settings(max_examples=200, deadline=None)
    @given(root=st.integers(min_value=-2 ** 20 + 1, max_value=2 ** 20 - 1).map(
               lambda k: k / 2 ** 20),  # x - root is exact, so f(x) = 0 only at the root
           power=st.sampled_from([1, 3, 5]),
           scale=st.floats(min_value=1e-3, max_value=1e3),
           flip=st.booleans(),
           tol=st.sampled_from([1e-13, 1e-10, 1e-6]))
    def test_width_sign_change_and_call_bound(self, root, power, scale, flip, tol):
        s = -1.0 if flip else 1.0
        calls = []

        def f(x):
            calls.append(x)
            return s * scale * (x - root) ** power

        lo, hi = _bracketed_root(f, -1.0, 1.0, f(-1.0), f(1.0), tol)
        del calls[:2]
        assert len(calls) <= math.ceil(math.log2(2.0 / tol)) + 1
        assert -1.0 <= lo <= root <= hi <= 1.0 and hi - lo <= tol


#: The kernel holds each step's error to _RTOL of the state, so an entry of
#: H = M(T/2) = ((a, b), (c, d)) ends off by about _RTOL times the largest entry
#: its row reached on the way: X1 for (a, b) and X2 for (c, d), the largest
#: |entry| of each row of M(s) on the T/64 grid over [0, T/2], I included.  A row
#: that ends small after a large excursion keeps that absolute error, and
#: tr M(T) = 2(ad + bc) (``_full_period``) multiplies it by the other row, so to
#: first order |d tr| <= C _RTOL 2((|a| + |b|) X2 + (|c| + |d|) X1).  The miss
#: grows with q a little faster than this: at C = 1 its largest was 1.55 over 2935
#: uniform draws of the ranges below and 2.37 at their corner omega = 1/2,
#: eps = -15 (q = 240; omega1 = 47/18, the worst of 256 values).  C = 15 keeps a
#: margin of about 6x over that, as the former bound (100 _RTOL times the largest
#: entry over the period) had over its own sweep (17.1), and is still the
#: tighter of the two at the median draw (0.55 of the former).  The former bound
#: missed by 1.2x and 6x at omega = 1/2, omega1 = 1/20, eps = 9.0625 and 6.485,
#: which read 0.041 and 0.032 of this model.  The Hill trace's own error is below
#: 3e-13 relative (against a 30-digit Taylor solve at 21 points, q up to 240),
#: added as 3e-13 (2 + |tr M|).
HILL_VS_MONODROMY = 15 * _RTOL
HILL_OWN = 3e-13


def _assert_hill_matches_monodromy(omega, omega1, eps):
    params = SystemParams(F(omega), F(omega1), eps)
    grid = [j * params.period / 64 for j in range(1, 33)]  # ends at T/2 exactly
    rows = list(dynamics._hill_points(params, eps, grid))
    a, b, c, d = rows[-1]
    x1 = max(1.0, *(max(abs(m11), abs(m12)) for m11, m12, _, _ in rows))
    x2 = max(1.0, *(max(abs(m21), abs(m22)) for _, _, m21, m22 in rows))
    hill = _hill_trace(params, eps)
    bound = (HILL_VS_MONODROMY * 2.0 * ((abs(a) + abs(b)) * x2 + (abs(c) + abs(d)) * x1)
             + HILL_OWN * (2.0 + abs(hill)))
    assert abs(hill - monodromy(params, eps).trace) <= bound


class TestHillTrace:
    """The root search's trace: Hill's determinant, checked against the monodromy."""

    @settings(max_examples=100, deadline=None)
    @given(omega=st.fractions(min_value=F(1, 2), max_value=F(3), max_denominator=10),
           omega1=st.one_of(st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20),
                            st.integers(min_value=1, max_value=6)),
           eps=st.floats(min_value=-15.0, max_value=15.0))
    def test_matches_monodromy(self, omega, omega1, eps):
        if isinstance(omega1, int):  # an integer omega1/omega: a = 4 r^2, a zero of the sine
            omega1 = omega1 * omega
            assume(omega1 <= 3)
        _assert_hill_matches_monodromy(omega, omega1, eps)

    @pytest.mark.parametrize("omega, omega1, eps", [
        (2, "301/100", 6.4986), (2, "1/10", 10.0), (2, "3", 10.0),
        (1, "3", 13.72),  # the Yoshida map of the old escape oracle missed by 3.9e-3 here
        (2, "2", 0.5), (1, "2", 1.0), (2, "1", 0.3)])  # omega1/omega = 1, 2 and 1/2
    def test_matches_monodromy_at_fixed_points(self, omega, omega1, eps):
        _assert_hill_matches_monodromy(omega, omega1, eps)

    @pytest.mark.parametrize("omega, omega1", [(2, 2), (1, 3), ("1/2", 3)])
    def test_integer_ratio_is_no_pole(self, omega, omega1):
        # a = 4 r^2 zeroes one diagonal entry of B: tr M(0) = 2 cos(2 pi r) = 2 exactly
        assert _hill_trace(SystemParams(F(omega), F(omega1)), 0.0) == 2.0

    def test_verdicts_reach_no_dynamics(self, monkeypatch):
        cases = [("9/10", 0.1857848626 - 1e-3), ("9/10", 0.1857848626 + 1e-3),
                 ("1/10", 0.5), ("1/10", 1.0), ("11/10", -0.3), ("3/2", 0.3)]
        params = [SystemParams(F(2), F(om1), eps) for om1, eps in cases]
        expected = [abs(monodromy(p, p.epsilon).trace) > 2.0 for p in params]
        assert any(expected) and not all(expected)

        def boom(*args, **kwargs):
            raise AssertionError("the Hill trace reached dynamics")

        for target, name in [(dynamics, "_hill_points"), (dynamics, "monodromy"),
                             (dynamics, "_one_period"), (analysis, "monodromy")]:
            monkeypatch.setattr(target, name, boom)
        assert [abs(_hill_trace(p, p.epsilon)) > 2.0 for p in params] == expected

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_is_invalid_input(self, eps):
        with pytest.raises(InvalidInput, match="finite"):
            _hill_trace(P01, eps)

    def test_overflow_is_unbounded(self):
        # omega = 1/100 makes q = 4e5 at eps = 10: det B leaves float64
        with pytest.raises(Unbounded, match="float64"):
            _hill_trace(SystemParams(F(1, 100), F(9, 10)), 10.0)


class TestConvergence:
    def test_monotone_improvement_and_orders(self, orbit_cache, phi28):
        _, _, pts = orbit_cache("9/10", 0.1, 200)
        residuals = [section_residual(conic_at_section(phi28.truncated(s), 0.1), pts)
                     for s in (2, 4, 6)]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_deeper_truncation_helps_at_015(self, phi28, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.15, 200)
        r6 = section_residual(conic_at_section(phi28.truncated(6), 0.15), pts)
        r20 = section_residual(conic_at_section(phi28.truncated(20), 0.15), pts)
        assert r20 <= r6

    def test_slow_convergence_near_critical(self, phi28, orbit_cache):
        # at eps = 0.18 even order 28 stays above the eps = 0.1 order-6 level
        _, _, p18 = orbit_cache("9/10", 0.18, 200)
        _, _, p10 = orbit_cache("9/10", 0.1, 200)
        r28_018 = section_residual(conic_at_section(phi28, 0.18), p18)
        r6_010 = section_residual(conic_at_section(phi28.truncated(6), 0.1), p10)
        assert r28_018 > r6_010

    def test_convergence_study_wrapper(self):
        report = convergence_study(P01, [2, 4, 6], n_periods=50)
        assert report.orders == (2, 4, 6)
        assert report.residuals[0] > report.residuals[2]
        with pytest.raises(ValueError):
            convergence_study(P01, [4, 2])

    def test_negative_order_rejected_as_input(self):
        with pytest.raises(InvalidInput, match="order -1 is negative"):
            convergence_study(P01, [-1, 2])

    def test_resonance_propagates(self):
        from mathieu_integrals import ResonanceDetected
        with pytest.raises(ResonanceDetected):
            convergence_study(SystemParams(F(2), F(1), 0.1), [2, 4])


class TestCoverCounts:
    @pytest.mark.parametrize("eps,periods,expected", [
        (1e-6, 40, 11), (0.1, 40, 13), (0.15, 40, 17), (0.185, 170, 110)])
    def test_counts_match_within_two(self, orbit_cache, eps, periods, expected):
        _, _, pts = orbit_cache("9/10", eps, periods)
        assert abs(cover_count(pts, 0.9) - expected) <= 2

    def test_monotone_in_eps(self, orbit_cache):
        counts = []
        for eps, periods in [(0.1, 40), (0.15, 40), (0.18, 80), (0.185, 170)]:
            _, _, pts = orbit_cache("9/10", eps, periods)
            counts.append(cover_count(pts, 0.9))
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_unbounded_raises(self, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.19, 150)
        with pytest.raises(Unbounded):
            cover_count(pts, 0.9)

    def test_needs_three_points(self, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.1, 200)
        with pytest.raises(ValueError):
            cover_count(pts[:2], 0.9)

    def test_too_short_section_raises(self, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.1, 200)
        with pytest.raises(Unbounded):
            cover_count(pts[:5], 0.9)  # covered only after ~13 points


class TestPeriodicOrbits:
    def test_unperturbed_20T_closure(self):
        # 20 periods of the omega1 = 0.9 rotation is 18 pi: exact closure
        params = SystemParams(F(2), F(9, 10), 0.0)
        res = find_periodic_orbit(params, 0.0, 20, search_radius=0.005)
        assert abs(res.epsilon) < 1e-6
        assert res.return_distance <= 1e-10

    def test_17T_orbit_near_015(self):
        # the root of tr M = 2 cos(16 pi/17) from a 30-digit mpmath Taylor solve
        # of the one-period map, 0.150003401045792350539 (the Hill root misses
        # it by 1.2e-13; a search on the DP5 trace missed it by 1.7e-12)
        res = find_periodic_orbit(P01, 0.15, 17)
        assert abs(res.epsilon - 0.15000340104579235) <= 5e-13
        assert res.return_distance <= 1e-8
        assert res.winding == 8

    def test_periodic_at_critical(self, crit_cache):
        eps_c = crit_cache("9/10").eps_crit
        res = find_periodic_orbit(P01, eps_c, 2, search_radius=0.002)
        assert res.return_distance <= 1e-6

    def test_no_root(self):
        with pytest.raises(NoRoot):
            find_periodic_orbit(P01, 0.05, 17, search_radius=1e-7)

    def test_no_root_names_the_widest_interval_tested(self):
        # the 8th and last attempt tests 0.15 +- 0.02 * 2^7
        with pytest.raises(NoRoot, match=r"within 2\.56 of 0\.15$"):
            find_periodic_orbit(P01, 0.15, 5)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            find_periodic_orbit(P01, 0.1, 0)

    def test_guess_is_solved_once(self, monkeypatch):
        # the monodromy only verifies: one solve at the guess, whose n-th power is the
        # closure test, and one n-period solve at the root; the search itself
        # runs on the Hill trace
        calls = []

        def recording(params, eps, n=1):
            calls.append((eps, n))
            return monodromy(params, eps, n=n)

        monkeypatch.setattr(analysis, "monodromy", recording)
        res = find_periodic_orbit(P01, 0.15, 17)
        assert calls == [(0.15, 1), (res.epsilon, 17)]

    @pytest.mark.parametrize("om1, n, guess", [("9/10", 5, 6.55), ("9/10", 17, 0.15),
                                               ("1/10", 5, 0.51), ("1/10", 17, 0.09),
                                               ("11/10", 5, 6.02), ("11/10", 17, 0.17)])
    def test_hill_root_agrees_with_dp5_root(self, om1, n, guess):
        # the root of the trace of a generic DP5 solve over half a period, which
        # shares no code with the Hill trace the search runs on, nor with the
        # DOP853 kernel (3.0e-12 the largest miss measured)
        params = SystemParams(F(2), F(om1), 0.0)
        res = find_periodic_orbit(params, guess, n)
        target = 2.0 * math.cos(2.0 * math.pi * res.winding / n)

        def g(e):
            (_, (a, b, c, d)), = integration_points(rhs_matrix(params, e), 0.0,
                                                    (1.0, 0.0, 0.0, 1.0), [0.5 * params.period],
                                                    _RTOL, _RTOL)
            return 2.0 * (a * d + b * c) - target  # tr M(T), with M(T/2) = ((a, b), (c, d))

        lo, hi = res.epsilon - 1e-3, res.epsilon + 1e-3
        lo, hi = _bracketed_root(g, lo, hi, g(lo), g(hi), 1e-12)
        assert abs(res.epsilon - 0.5 * (lo + hi)) <= 1e-9
        assert res.return_distance <= 1e-9


class TestInvariantCurves:
    def test_unperturbed_ellipse(self):
        pts = invariant_curve_points((0.81 / 2, 0.5, 0.0), 0.5, n_samples=100)
        for x, y in pts:
            assert 0.81 * x * x + y * y == pytest.approx(1.0, abs=1e-12)
        assert max(x for x, _ in pts) == pytest.approx(1 / 0.9, abs=1e-9)
        assert max(y for _, y in pts) == pytest.approx(1.0, abs=1e-9)

    def test_order28_conic_is_the_monodromy_invariant_form(self, phi28):
        # M = ((a, b), (c, a)) keeps F = -c x^2 + b y^2 up to det M: the
        # exact invariant conic of the one-period map, with D = 0 exactly
        m = monodromy(P01, 0.1)
        assert m.m11 == m.m22
        form = (-m.m21, m.m12, 0.0)
        conic = conic_at_section(phi28, 0.1)
        scale = conic[1] / form[1]  # B = 1/2 exactly
        worst = max(abs(u - scale * v) for u, v in zip(conic, form))
        assert worst <= 5e-8 * max(map(abs, conic))  # 2.05e-8 measured

    @pytest.mark.parametrize("omega1", ["9/10", "1/10", "11/10", "3/2"])
    def test_series_conic_converges_to_the_monodromy_invariant_form(self, form_miss, omega1):
        # the abstract's non-resonant claim: as the order S grows, the section
        # conic approaches the exact invariant of the one-period map.  The
        # kernel resolves M to its tolerance _RTOL, so the miss may stop falling
        # once it is below _RTOL and must end within 10 * _RTOL at S = 40
        # (3.9e-12, 4.5e-14, 5.0e-14 and 3.3e-14 measured)
        params = SystemParams(F(2), F(omega1), 0.1)
        phi, m = build_integral(params, 40), monodromy(params, 0.1)
        misses = [form_miss(conic_at_section(phi.truncated(s), 0.1), m)
                  for s in (2, 6, 10, 14, 20, 28, 40)]
        assert all(later <= miss for miss, later in zip(misses, misses[1:]) if miss >= _RTOL)
        assert misses[-1] <= 10 * _RTOL

    def test_order6_curve_close_to_section_points(self, phi28, orbit_cache):
        _, _, pts = orbit_cache("9/10", 0.1, 200)
        conic = conic_at_section(phi28.truncated(6), 0.1)
        curve = invariant_curve_points(conic, level=conic[1], n_samples=4000)
        worst = 0.0
        for p in pts:
            dist = min(math.hypot(0.9 * (p.x - cx), p.y - cy) for cx, cy in curve)
            worst = max(worst, dist)
        assert worst <= 1e-2

    def test_hyperbola_branches_satisfy_level(self):
        pts = invariant_curve_points((-1.0, 1.0, 0.0), 1.0, n_samples=100)
        for x, y in pts:
            assert -x * x + y * y == pytest.approx(1.0, rel=1e-9)
        # both branches present: y of both signs
        assert min(y for _, y in pts) < 0 < max(y for _, y in pts)

    def test_negative_level_hyperbola(self):
        pts = invariant_curve_points((-1.0, 1.0, 0.0), -1.0, n_samples=100)
        for x, y in pts:
            assert -x * x + y * y == pytest.approx(-1.0, rel=1e-9)

    def test_degenerate_conic(self):
        with pytest.raises(DegenerateConic):
            invariant_curve_points((1.0, 0.0, 0.0), 1.0)
        with pytest.raises(DegenerateConic):
            invariant_curve_points((-1.0, 1.0, 0.0), 0.0)
        with pytest.raises(DegenerateConic):
            invariant_curve_points((0.5, 0.5, 0.0), -1.0)  # empty level set

    def test_rotated_form_round_trip(self):
        # a tilted ellipse: all sampled points satisfy the form
        conic = (1.3, 0.7, 0.2)
        pts = invariant_curve_points(conic, 0.9, n_samples=64)
        a, b, d = conic
        for x, y in pts:
            assert a * x * x + b * y * y + 2 * d * x * y == pytest.approx(0.9, rel=1e-9)


class TestGeometryFlip:
    @pytest.mark.parametrize("om1,eps,inside", [
        ("9/10", 0.1, True), ("9/10", -0.1, False),
        ("11/10", 0.1, False), ("11/10", -0.1, True)])
    def test_semiaxis_against_unperturbed(self, orbit_cache, om1, eps, inside):
        _, _, pts = orbit_cache(om1, eps, 200)
        ax = section_semiaxis_x(pts)
        bound = 1.0 / float(F(om1))
        assert (ax < bound) == inside
