"""Boundary location, convergence, cover counts, periodic orbits, conics."""

import ast
import inspect
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sturm_reference
from dp5_reference import integration_points, rhs_matrix
from mathieu_integrals import (DegenerateConic, NoRoot, SystemParams, Unbounded, analysis,
                               build_integral, conic_at_section, convergence_study,
                               cover_count, critical_epsilon, dynamics, find_periodic_orbit,
                               invariant_curve_points, monodromy)
from mathieu_integrals.analysis import (_bracketed_root, _hill_trace, section_residual,
                                        section_semiaxis_x)
from mathieu_integrals.errors import BracketFailure, InvalidInput


P01 = SystemParams(F(2), F(9, 10), 0.1)
TOL = 1e-12  # the DP5 reference's rtol = atol, and the unit of the stepper bounds

#: eps_crit at (omega, omega1) from tests/make_literals.py: mpmath bisections, at 40 and
#: 50 digits, of the total parity of 200-row Hill-matrix counts, checked by the sign of
#: |tr M| - 2 from odefun solves on either side
BOUNDARIES = {
    ("2", "9/10"): "0.185784856233133516837481253766",
    ("2", "1/10"): "0.899645188058427718587586609559",
    ("2", "11/10"): "0.215990180376923477019786539941",
    ("2", "2/3"): "0.523483633272901779859918702445",
    ("2", "1/6"): "0.884684118536377338611906130494",
    ("2", "17/15"): "0.295789483048627193818843595134",
    ("1", "18/19"): "0.560358669340236608279088152235",
}


def _dp5_trace(params, eps):
    """tr M(T) = 2(ad + bc) from the DP5 reference's M(T/2) = ((a, b), (c, d))."""
    (_, (a, b, c, d)), = integration_points(rhs_matrix(params, eps), 0.0, (1.0, 0.0, 0.0, 1.0),
                                            [0.5 * params.period], TOL, TOL)
    return 2.0 * (a * d + b * c)


def _parity(params, eps):
    """The count of characteristic values below a over the four classes, mod 2: 1
    where the orbit is bounded (DLMF 28.2(v))."""
    q, a = params.mathieu_q(eps), float(params.mathieu_a)
    return sum(analysis._sturm_count(cls, q, a) for cls in analysis._CLASSES) % 2


def _bottom_up_parity(params, eps, rows):
    """``_parity`` from the bottom-up reference count of ``rows`` rows."""
    q, a = params.mathieu_q(eps), float(params.mathieu_a)
    return sum(sturm_reference.bottom_up_count(name, q, a, rows)
               for name in sturm_reference.NAMES) % 2


#: how far past a bracket's ends the bottom-up count is read, relative: its rounding
#: and the library's differ, and moved its crossing by at most 10 ulp (1.25e-15) over
#: omega = 2, omega1 = p/q <= 3, q <= 20, and by 1 ulp at omega = 1/100
OUTSIDE = 1e-14


class TestCriticalEpsilon:
    @pytest.mark.parametrize("omega, omega1", [(2, "1"), (2, "2"), (4, "2"), (1, "1/2")])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_zero_at_a_1_and_4(self, omega, omega1, sign):
        # a_1, b_1 = 1 +- q + O(q^2) and b_2 = 4 - q^2/12 < 4 < a_2 = 4 + 5q^2/12
        # (DLMF 28.6): the tongue at a = 1 and a = 4 holds a for every q != 0, so
        # eps_crit is 0 in both signs; the DP5 reference's trace, which shares no
        # code with the library, is past 2 at eps = +-0.02 (3.4e-9 past at a = 4,
        # omega = 2)
        params = SystemParams(F(omega), F(omega1), 0.0)
        assert params.mathieu_a in (1, 4)
        res = critical_epsilon(params, sign)
        assert res == analysis.CriticalEpsResult(0.0, (0.0, 0.0), 0)
        assert math.copysign(1.0, res.eps_crit) == 1.0
        assert abs(_dp5_trace(params, sign * 0.02)) > 2.0

    def test_a_9_is_no_special_case(self, crit_cache):
        # the tongue at a = 9 opens at 9 + q^2/16 and does not hold a = 9: stable at
        # eps = +-0.02, and eps_crit is the root
        params = SystemParams(F(2), F(3), 0.0)
        assert all(abs(_dp5_trace(params, e)) < 2.0 for e in (0.02, -0.02))
        res = crit_cache("3")
        assert abs(res.eps_crit - 6.818513197) < 1e-9

    def test_canonical_value(self, crit_cache):
        res = crit_cache("9/10")
        assert abs(res.eps_crit - 0.1857848626) < 1e-6
        assert res.bracket[1] - res.bracket[0] <= 1e-9

    def test_small_omega1(self, crit_cache):
        assert abs(crit_cache("1/10").eps_crit - 0.89964) < 1e-4

    def test_above_resonance_omega1(self, crit_cache):
        assert abs(crit_cache("11/10").eps_crit - 0.21598) < 1e-4

    @pytest.mark.parametrize("om1", ["9/10", "1/10", "11/10", "301/100", "17/6"])
    def test_sign_symmetry(self, crit_cache, om1):
        # the count marches and bisects |eps|: an exact mirror
        plus, minus = crit_cache(om1), crit_cache(om1, -1)
        assert (minus.eps_crit, minus.bracket) == (-plus.eps_crit, tuple(-e for e in plus.bracket))
        assert minus.iterations == plus.iterations

    @pytest.mark.parametrize("sign", [1, -1])
    def test_parity_changes_between_adjacent_floats(self, crit_cache, sign):
        # the search's own count: odd at the stable end, even one float past it
        stable, unstable = crit_cache("9/10", sign).bracket
        assert unstable == math.nextafter(stable, sign * math.inf)
        assert (_parity(P01, stable), _parity(P01, unstable)) == (1, 0)

    def test_works_at_resonance(self):
        # at omega1 = 1 the instability tongue opens at eps = 0: the
        # boundary collapses to zero.  |tr| - 2 grows only quadratically
        # at the tongue tip, so the locator resolves it to about the
        # square root of the trace's rounding.
        res = critical_epsilon(SystemParams(F(2), F(1), 0.0))
        assert abs(res.eps_crit) < 5e-6

    @pytest.mark.parametrize("sign", [1, -1])
    def test_n2_tongue_tip(self, sign):
        # omega1 = 2 (a = 4): tr - 2 ~ 2e2 eps^4 at the tip, which a DP5
        # trace error of ~5e-12 swamped (eps_crit = 0.00385 was printed)
        res = critical_epsilon(SystemParams(F(2), F(2), 0.0), sign=sign)
        assert abs(res.eps_crit) <= 1e-5

    def test_bracket_failure(self):
        # omega1 = 201/2 (a = 10100.25): the levels 100^2 and 101^2 lie 100 from a, and
        # no eigenvalue reaches it before |eps| = 8.8, where the march ends
        with pytest.raises(BracketFailure, match=r"^no instability found up to \|eps\| = 8\.8$"):
            critical_epsilon(SystemParams(F(2), F(201, 2), 0.0))
        with pytest.raises(ValueError):
            critical_epsilon(P01, sign=0)

    def test_a_trace_that_hides_the_boundary_changes_nothing(self, crit_cache, monkeypatch):
        # a trace that reads stable up to 0.5 would hide the boundary at 0.1857848562;
        # the count alone finds it
        def late(params, eps):
            return 0.0 if abs(eps) < 0.5 else 3.0 * math.copysign(1.0, eps)

        expected = [crit_cache("9/10", sign) for sign in (1, -1)]
        monkeypatch.setattr(analysis, "_hill_trace", late)
        assert [critical_epsilon(P01, sign) for sign in (1, -1)] == expected

    @pytest.mark.parametrize("omega, omega1, eps_crit", [
        # the expansion stepped over the first tongue (301/100, 15/19, 13/11), or over
        # all of them (17/6, 401/100), or ITP took a later root of the trace (a = 18^2);
        # a scan of perfbench's Hill matrices (step 2e-3) read 0.885915, 1.524048,
        # 6.620332, 0.619963 and 1.359
        ("2", "301/100", 0.8859152304), ("2", "401/100", 1.524048158),
        ("2", "17/6", 6.620331503), ("1", "15/19", 0.6199625369),
        ("3/2", "13/11", 1.358999558), ("1/10", "9/10", 0.3382962085),
        # near and at a = n^2, n = 3 and 4 (0.9 and 0.27 past 9 and 16 at eps = 0.1)
        ("2", "3", 6.818513197), ("2", "299/100", 7.102131163), ("2/3", "1", 0.7576125775),
        ("1", "2", 2.769753347), ("1", "199/100", 2.673386058), ("1", "201/100", 0.531056034),
        ("1/2", "1", 0.6924383368)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_first_boundary(self, omega, omega1, eps_crit, sign):
        # the count is odd at the bracket's stable end and even 1e-9 past the root (the
        # trace's rounding may move an ITP root by 1e-13), and the DP5 reference's
        # trace crosses 2 within 1e-6 of it
        params = SystemParams(F(omega), F(omega1), 0.0)
        res = critical_epsilon(params, sign)
        assert abs(res.eps_crit - sign * eps_crit) <= 1e-7 * eps_crit
        assert _parity(params, res.bracket[0]) == 1
        assert _parity(params, res.eps_crit * (1.0 + 1e-9)) == 0
        d = sign * 1e-6 * eps_crit
        below, beyond = (abs(_dp5_trace(params, res.eps_crit + e)) for e in (-d, d))
        assert below < 2.0 < beyond

    def test_first_boundary_at_omega_1_100(self):
        # a = 180^2.  The tongues before 0.3732349194 are narrower than 1e-11 (each
        # one's two edges agree to 12 digits); this one is 5.1e-10 wide, the next two
        # 4.2e-8 (at 0.38185462) and 1.8e-6 (at 0.3894257414, which a scan at step
        # 2e-6 reads).  The trace exceeds 2 by about 1e-20 inside it, which no trace
        # resolves; a bottom-up count of 200 rows sees both edges, within OUTSIDE
        params = SystemParams(F(1, 100), F(9, 10), 0.0)
        for sign in (1, -1):
            res = critical_epsilon(params, sign)
            assert abs(res.eps_crit - sign * 0.3732349194) <= 1e-7 * 0.3732349194
            ends = (res.bracket[0] * (1.0 - OUTSIDE), res.bracket[1] * (1.0 + OUTSIDE))
            assert [_bottom_up_parity(params, e, 200) for e in ends] == [1, 0]

    def test_sign_zero_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="sign"):
            critical_epsilon(P01, sign=0)

    @staticmethod
    def _assert_escape_oracle_agrees(crit_cache, om1):
        # the Hill root against the root of the Taylor stepper's trace, which
        # shares no code with it, in both signs (1.9e-11 measured)
        params = SystemParams(F(2), F(om1), 0.0)
        g = lambda e: abs(analysis._stepped(params, e).trace) - 2.0
        for sign in (1, -1):
            res = crit_cache(om1, sign)
            lo, hi = res.eps_crit - 1e-3, res.eps_crit + 1e-3
            lo, hi = _bracketed_root(g, lo, hi, g(lo), g(hi), 1e-10)
            assert abs(res.eps_crit - 0.5 * (lo + hi)) <= 1e-9

    def test_escape_oracle_agrees_with_trace(self, crit_cache):
        self._assert_escape_oracle_agrees(crit_cache, "9/10")

    @pytest.mark.parametrize("om1", ["1/10", "11/10"])
    def test_escape_oracle_agrees_other_params(self, crit_cache, om1):
        self._assert_escape_oracle_agrees(crit_cache, om1)

    @settings(max_examples=100, deadline=None)
    @given(omega=st.fractions(min_value=F(1, 2), max_value=F(4), max_denominator=10),
           omega1=st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20),
           eps=st.floats(min_value=-1.0, max_value=1.0))
    def test_escape_verdict_matches_trace_away_from_boundary(self, omega, omega1, eps):
        # the stepper's, the Hill trace's and the count's parity's verdicts agree
        params = SystemParams(omega, omega1, eps)
        trace = analysis._stepped(params, eps).trace
        assume(abs(abs(trace) - 2.0) >= 0.05)
        assert (abs(_hill_trace(params, eps)) < 2.0) == (abs(trace) < 2.0) == _parity(params, eps)

    @pytest.mark.parametrize("om1, sign", [("9/10", -1), ("1/10", 1), ("1/10", -1),
                                           ("11/10", 1), ("11/10", -1)])
    def test_counts_confirm_boundary(self, crit_cache, om1, sign):
        # bounded 1e-3 inside the boundary (an odd count below a), not 1e-3 beyond it
        params, res = SystemParams(F(2), F(om1), 0.0), crit_cache(om1, sign)
        assert [_parity(params, res.eps_crit + sign * d) for d in (-1e-3, 1e-3)] == [1, 0]

    @pytest.mark.parametrize("om1, eps_crit", [("9/10", 0.18578485623598096),
                                               ("1/10", 0.899645188056641),
                                               ("11/10", 0.215990180387497)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_boundary_pinned_to_the_bisection_values(self, crit_cache, om1, eps_crit, sign):
        # the values the one-bit-per-solve bisection over full-period solves found
        res = crit_cache(om1, sign)
        assert abs(res.eps_crit - sign * eps_crit) <= 1e-10
        assert abs(res.bracket[1] - res.bracket[0]) <= 1e-10

    @pytest.mark.parametrize("omega, omega1", list(BOUNDARIES))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_boundary_within_4_ulp_of_the_literals(self, omega, omega1, sign):
        # 2 ulp is the most measured (11/10, 17/15); the trace's ITP root was 1.9e-11
        # off at 9/10 and printed a wrong tenth digit at 2/3, 1/6 and 17/15
        exact = float(BOUNDARIES[omega, omega1])
        res = critical_epsilon(SystemParams(F(omega), F(omega1), 0.0), sign)
        assert abs(res.eps_crit - sign * exact) <= 4 * math.ulp(exact)

    @settings(max_examples=25, deadline=None)
    @given(omega1=st.fractions(min_value=F(1, 20), max_value=F(3), max_denominator=20),
           sign=st.sampled_from([1, -1]))
    def test_count_bracket_and_call_bound(self, omega1, sign):
        calls, count = [], analysis._sturm_count

        def recording(*args):
            calls.append(args)
            return count(*args)

        params = SystemParams(F(2), omega1, 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_sturm_count", recording)
            mp.setattr(analysis, "_hill_trace", None)  # read no trace
            try:
                res = critical_epsilon(params, sign=sign)
            except BracketFailure:  # 20/7 <= omega1 <= 29/10: no boundary before 8.8
                assert F(20, 7) <= omega1 <= F(29, 10) and len(calls) <= 2000
                return
        if params.mathieu_a in (1, 4):  # eps_crit = 0, with no count (test_zero_at_a_1_and_4)
            assert calls == [] and res.eps_crit == 0.0
            return
        # 1,179 counts at most over omega1 = p/q <= 3, q <= 20
        assert len(calls) <= 2000
        stable, unstable = res.bracket
        assert unstable == math.nextafter(stable, sign * math.inf)
        assert (_parity(params, stable), _parity(params, unstable)) == (1, 0)
        assert _bottom_up_parity(params, stable * (1.0 - OUTSIDE), 300) == 1
        assert _bottom_up_parity(params, unstable * (1.0 + OUTSIDE), 300) == 0
        # each step halves the floats in the march's bracket, <= 5e-11 wide
        assert 0 < res.iterations <= math.log2(5e-11 / math.ulp(stable)) + 1

    def test_canonical_boundary_call_count(self, monkeypatch):
        # the count alone: no trace, and 20 bisections from the march's bracket of
        # 2.8e-11 to adjacent floats (the trace's ITP took 11 traces here)
        calls = []

        def recording(params, eps):
            calls.append(eps)
            return _hill_trace(params, eps)

        monkeypatch.setattr(analysis, "_hill_trace", recording)
        res = critical_epsilon(SystemParams(F(2), F(9, 10), 0.0))
        assert (calls, res.iterations) == ([], 20)

    @pytest.mark.parametrize("omega1", ["9/10", "11/10", "2"])
    def test_dp5_runs_only_for_the_cross_check(self, monkeypatch, omega1):
        # the count alone finds the boundary: no solve
        calls = []
        hill_points = dynamics._hill_points

        def recording(*args, **kwargs):
            calls.append(args[1])
            return hill_points(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_hill_points", recording)
        monkeypatch.setattr(analysis, "_hill_points", recording)
        critical_epsilon(SystemParams(F(2), F(omega1), 0.0))
        assert calls == []


def _call_graph(*modules):
    """Each function name of ``modules`` -> the names it calls, bare or as attributes."""
    graph = {}
    for module in modules:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.FunctionDef):
                graph.setdefault(node.name, set()).update(
                    call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                    for call in ast.walk(node) if isinstance(call, ast.Call)
                    and isinstance(call.func, (ast.Name, ast.Attribute)))
    return graph


def _reach(graph, name, skip=()):
    """The names reachable from ``name`` through ``graph``, not through ``skip``."""
    seen, todo = set(), [name]
    while todo:
        for callee in graph.get(todo.pop(), ()):
            if callee not in seen and callee not in skip:
                seen.add(callee)
                todo.append(callee)
    return seen


class TestIndependentPaths:
    """The closure checks run the stepper, the boundary's certificate the count; the
    searches and the monodromy run neither."""

    GRAPH = _call_graph(analysis, dynamics)
    DETERMINANTS = {"_hill_factors", "_half_period"}

    def test_cross_checks_reach_the_stepper_alone(self):
        # every call but the search's own trace: the guess and root closures
        checks = _reach(self.GRAPH, "find_periodic_orbit", skip={"_hill_trace"})
        assert {"_hill_points", "_full_period"} <= checks
        assert not checks & (self.DETERMINANTS | {"monodromy"})

    def test_the_count_reaches_neither_path(self):
        # the count certifies the boundary alone; critical_epsilon runs no stepper
        for name in ("_sturm_count", "_march", "_first_crossing"):
            reached = _reach(self.GRAPH, name)
            assert "_sturm_count" in reached | {name}
            assert not reached & (self.DETERMINANTS | {"_hill_points", "_hill_trace"})
        assert "_hill_points" not in _reach(self.GRAPH, "critical_epsilon")

    @pytest.mark.parametrize("name", ["_hill_factors", "_half_period", "_hill_trace",
                                      "monodromy"])
    def test_determinants_reach_no_stepper(self, name):
        assert "_hill_points" not in _reach(self.GRAPH, name)

    def test_the_graph_sees_the_calls(self):
        # critical_epsilon reads no trace; find_periodic_orbit witnesses that the graph
        # sees the trace path's calls
        trace_path = {"_hill_factors", "_hill_trace", "_bracketed_root"}
        assert not trace_path & _reach(self.GRAPH, "critical_epsilon")
        assert trace_path <= _reach(self.GRAPH, "find_periodic_orbit")
        assert "_hill_factors" in _reach(self.GRAPH, "monodromy")
        assert "_hill_points" in _reach(self.GRAPH, "_stepped")


class TestSturmCount:
    """``_sturm_count`` against dense references, and the march's rules."""

    @settings(max_examples=40, deadline=None)
    @given(cls=st.integers(min_value=0, max_value=3), q=st.floats(min_value=-12, max_value=12),
           xs=st.lists(st.floats(min_value=-5, max_value=40), min_size=1, max_size=10))
    def test_matches_dense_eigenvalues(self, cls, q, xs):
        values = sturm_reference.eigenvalues(
            sturm_reference.class_matrix(sturm_reference.NAMES[cls], q, 16))
        for x in xs:
            if min(abs(v - x) for v in values) > 1e-9:
                assert analysis._sturm_count(analysis._CLASSES[cls], q, x) == sum(
                    v < x for v in values)

    @settings(max_examples=30, deadline=None)
    @given(cls=st.integers(min_value=0, max_value=3), q=st.floats(min_value=-2e4, max_value=2e4),
           x=st.floats(min_value=-4e4, max_value=4e4))
    def test_matches_a_long_bottom_up_count(self, cls, q, x):
        # 300 rows reach level 598^2, far past x + 2|q|; the count stops near sqrt(x + 2|q|)/2
        assert analysis._sturm_count(analysis._CLASSES[cls], q, x) == (
            sturm_reference.bottom_up_count(sturm_reference.NAMES[cls], q, x, 300))

    @pytest.mark.parametrize("n", [3, 4, 5, 18])
    def test_level_n2_stays_above_a_up_to_the_march_start(self, n):
        # a = n^2: the class holding level n^2 keeps only the levels below it below a
        # on (0, (n - 1)/(n + 1)], where _first_crossing starts its march
        name = ("a_2n", "a_2n+1")[n % 2], ("b_2n+2", "b_2n+1")[n % 2]
        for q in (1e-3, 0.1, (n - 1) / (n + 1)):
            for cls in (0, 3) if n % 2 == 0 else (1, 2):
                values = sturm_reference.eigenvalues(
                    sturm_reference.class_matrix(sturm_reference.NAMES[cls], q, n + 8))
                assert sum(v < n * n for v in values) == n // 2 - (cls == 3)
                assert analysis._sturm_count(analysis._CLASSES[cls], q, n * n) == n // 2 - (cls == 3)

    def test_the_stretch_certifies_and_the_bisection_brackets(self, monkeypatch):
        # b_1 = 1 - q - q^2/8 + ... reaches a = 0.81 at q = 0.1857848562 (omega1 =
        # 9/10): the march to just short of it ends in one stretch, and one past it
        # bisects the count to a bracket of 5e-11
        cls, calls, count = analysis._CLASSES[2], [], analysis._sturm_count
        monkeypatch.setattr(analysis, "_sturm_count", lambda *a: calls.append(a) or count(*a))
        root = 0.18578485621
        assert analysis._march(cls, 0.81, 0.0, root - 1e-9, 1e-10) is None
        assert len(calls) <= 40
        lo, hi = analysis._march(cls, 0.81, 0.0, 0.3, 1e-10)
        assert lo <= root + 1e-10 and root - 1e-10 <= hi and hi - lo <= 5e-11
        assert (count(cls, lo, 0.81), count(cls, hi, 0.81)) == (0, 1)


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


#: TOL = 1e-12 is the bound's unit: the tolerance of the DOP853 kernel that the
#: Taylor stepper replaced, which held each step's error to TOL of the state, so
#: an entry of H = M(T/2) = ((a, b), (c, d)) ended off by about TOL times the
#: largest entry its row reached on the way: X1 for (a, b) and X2 for (c, d), the
#: largest |entry| of each row of M(s) on the T/64 grid over [0, T/2], I included.
#: A row that ends small after a large excursion keeps that absolute error, and
#: tr M(T) = 2(ad + bc) (``_full_period``) multiplies it by the other row, so to
#: first order |d tr| <= C TOL 2((|a| + |b|) X2 + (|c| + |d|) X1).  C = 15 had a
#: margin of about 6x over DOP853's worst (2.37, at omega = 1/2, eps = -15,
#: omega1 = 47/18); the Taylor stepper's worst is C = 0.046 over 1500 uniform
#: draws of the ranges below and 60 values of omega1 at that corner (median
#: 0.005).  The Hill trace's own error is below 3e-13 relative (against a
#: 30-digit Taylor solve at 21 points, q up to 240), added as 3e-13 (2 + |tr M|).
HILL_VS_MONODROMY = 15 * TOL
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
    # the stepper's one-target solve, the critical_epsilon cross-check's trace
    assert abs(hill - analysis._stepped(params, eps).trace) <= bound


class TestHillTrace:
    """The periodic-orbit search's trace: Hill's determinants, checked against the Taylor
    stepper."""

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
        expected = [abs(analysis._stepped(p, p.epsilon).trace) > 2.0 for p in params]
        assert any(expected) and not all(expected)

        def boom(*args, **kwargs):
            raise AssertionError("the Hill trace reached the stepper")

        for target, name in [(dynamics, "_hill_points"), (dynamics, "monodromy"),
                             (dynamics, "_one_period"), (dynamics, "_full_period"),
                             (analysis, "_hill_points"), (analysis, "_stepped")]:
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

    def test_empty_section_rejected_as_input(self):
        with pytest.raises(InvalidInput, match="non-empty section"):
            section_residual((1.0, 1.0, 0.0), [])

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

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_section_is_invalid_input(self, orbit_cache, n):
        _, _, pts = orbit_cache("9/10", 0.1, 200)
        with pytest.raises(InvalidInput, match="at least 3 section points"):
            cover_count(pts[:n], 0.9)

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

    @pytest.mark.parametrize("kwargs, match", [
        # the origin closes at every eps: it returned the guess with distance 0
        ({"x0": 0.0, "y0": 0.0}, "the initial condition is the origin, a fixed point"),
        ({"x0": math.inf}, "the initial condition must be finite"),  # distance inf
        ({"y0": math.nan}, "the initial condition must be finite"),  # distance nan
        ({"search_radius": -0.02}, "search radius must be positive"),  # math domain error
        ({"search_radius": 0.0}, "search radius must be positive"),
        ({"search_radius": math.nan}, "search radius must be positive"),  # "epsilon must be finite"
        ({"search_radius": math.inf}, "search radius must be positive"),
    ])
    def test_a_bad_start_or_radius_is_refused_before_the_first_trace(self, monkeypatch,
                                                                     kwargs, match):
        def no_trace(*args):
            raise AssertionError("a trace was taken")

        monkeypatch.setattr(analysis, "_hill_trace", no_trace)
        monkeypatch.setattr(analysis, "_stepped", no_trace)
        with pytest.raises(InvalidInput, match=match):
            find_periodic_orbit(P01, 0.15, 17, **kwargs)

    def test_guess_is_solved_once(self, monkeypatch):
        # the stepper only verifies: one solve at the guess, whose n-th power is the
        # closure test, and one at the root; the search itself runs on the Hill trace
        calls = []
        stepped = analysis._stepped

        def recording(params, eps, n=1):
            calls.append((eps, n))
            return stepped(params, eps, n)

        monkeypatch.setattr(analysis, "_stepped", recording)
        res = find_periodic_orbit(P01, 0.15, 17)
        assert calls == [(0.15, 17), (res.epsilon, 17)]

    @pytest.mark.parametrize("x0", [1e-9, 1e-12])
    def test_a_start_near_the_origin_is_refined(self, x0):
        # the closure test at the guess is relative to |z0|: an absolute 1e-10 returned
        # the guess 0.15 itself for these starts (distances 3.7e-13 and 3.7e-16); the
        # flow is linear, so they close where the start (1, 0) does, at 0.1500034
        far = find_periodic_orbit(P01, 0.15, 17, x0=1.0, y0=0.0)
        res = find_periodic_orbit(P01, 0.15, 17, x0=x0, y0=0.0)
        assert abs(far.epsilon - 0.1500034) < 1e-7
        assert (res.epsilon, res.winding) == (far.epsilon, far.winding)
        assert res.return_distance <= 1e-6 * x0

    @pytest.mark.parametrize("om1, n, guess", [("9/10", 5, 6.55), ("9/10", 17, 0.15),
                                               ("1/10", 5, 0.51), ("1/10", 17, 0.09),
                                               ("11/10", 5, 6.02), ("11/10", 17, 0.17)])
    def test_hill_root_agrees_with_dp5_root(self, om1, n, guess):
        # the root of the trace of a generic DP5 solve over half a period, which
        # shares no code with the Hill trace the search runs on, nor with the
        # Taylor stepper (3.0e-12 the largest miss measured)
        params = SystemParams(F(2), F(om1), 0.0)
        res = find_periodic_orbit(params, guess, n)
        target = 2.0 * math.cos(2.0 * math.pi * res.winding / n)

        def g(e):
            return _dp5_trace(params, e) - target

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
        # conic approaches the exact invariant of the one-period map.  The miss
        # may stop falling once it is below TOL and must end within 10 * TOL at
        # S = 40
        # (4.0e-12, 6.9e-18, 3.0e-14 and 1.2e-16 measured against Hill's M)
        params = SystemParams(F(2), F(omega1), 0.1)
        phi, m = build_integral(params, 40), monodromy(params, 0.1)
        misses = [form_miss(conic_at_section(phi.truncated(s), 0.1), m)
                  for s in (2, 6, 10, 14, 20, 28, 40)]
        assert all(later <= miss for miss, later in zip(misses, misses[1:]) if miss >= TOL)
        assert misses[-1] <= 10 * TOL

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

    @pytest.mark.parametrize("conic", [(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0)])
    def test_no_samples_is_refused(self, conic):
        # it returned 0 points for an ellipse and 4 for a hyperbola
        with pytest.raises(InvalidInput, match="n_samples must be >= 1"):
            invariant_curve_points(conic, 1.0, n_samples=0)

    @pytest.mark.parametrize("conic", [(1.0, 2.0, 0.25), (-1.0, 1.0, 0.25)])
    @pytest.mark.parametrize("n", [4, 5, 7, 401])
    def test_returns_n_samples_points(self, conic, n):
        # a hyperbola returned 2 max(2, n // 2): 6 points for 7 and 400 for 401; now
        # ceil(n/2) on one branch and floor(n/2) on the other
        a, b, d = conic
        pts = invariant_curve_points(conic, 1.0, n_samples=n)
        assert len(pts) == n
        assert max(abs(a * x * x + b * y * y + 2 * d * x * y - 1.0) for x, y in pts) < 1e-9
        if a * b < d * d:  # y^2 + xy/2 = 1 + x^2 has one root y of each sign: a branch each
            assert sum(y > 0.0 for _, y in pts) in (n // 2, n - n // 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_hyperbola_needs_two_points_a_branch(self, n):
        # 4 points came back for n = 1 and 3; an ellipse takes any n >= 1
        with pytest.raises(InvalidInput, match="n_samples >= 4"):
            invariant_curve_points((-1.0, 1.0, 0.0), 1.0, n_samples=n)
        assert len(invariant_curve_points((1.0, 1.0, 0.0), 1.0, n_samples=n)) == n

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_a_level_that_is_not_finite_is_refused(self, level):
        # a NaN level returned NaN points
        with pytest.raises(InvalidInput, match="the level must be finite"):
            invariant_curve_points((1.0, 1.0, 0.0), level)

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
