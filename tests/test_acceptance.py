"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Criterion 4 is split: its ordering clauses pass, while its absolute
bound (order-6 residual <= 1e-3 at eps = 0.1) is *unattainable for the
series this construction defines* -- the truncation error at order 6 is
pinned near 1.7e-2 by the convergence radius eps_crit ~ 0.1857 (ratio
(0.1/0.1857)^2 ~ 0.29 per order pair, confirmed against the exact
invariant conic of the one-period map, which the order-28 conic matches
to 3e-8: 2.05e-8 measured, held to 5e-8 by test_analysis.py,
TestInvariantCurves::test_order28_conic_is_the_monodromy_invariant_form).
That test is therefore expected to fail; see the project notes for the
full analysis.
"""

import math
import time
from fractions import Fraction as F

from mathieu_integrals import (PhaseConstants, SystemParams, build_integral,
                               build_resonant_c, conic_at_section, cover_count, eliminate_secular,
                               escape_diagnostics, h1_form, monodromy, psi_series,
                               resonant_section_form)
from mathieu_integrals.analysis import section_residual, section_semiaxis_x
from mathieu_integrals.builder import QuadFormSeries
from mathieu_integrals.trigseries import COS, SIN, TrigSeries


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_eps_crit_regression(crit_cache):
    checks = []
    details = []
    for om1, expect, tol in (("9/10", 0.1857848626, 1e-6),
                             ("1/10", 0.89964, 1e-4),
                             ("11/10", 0.21598, 1e-4)):
        start = time.time()
        res = crit_cache(om1)
        elapsed = time.time() - start
        err = abs(res.eps_crit - expect)
        checks.append(err < tol and elapsed <= 10.0)
        details.append(f"om1={om1}: {res.eps_crit:.10f} (err {err:.1e}, {elapsed:.1f}s)")
    assert report("01 eps_crit regression", all(checks), "; ".join(details))


def test_criterion_02_sign_symmetry(crit_cache):
    checks = []
    details = []
    for om1 in ("9/10", "1/10", "11/10"):
        plus = crit_cache(om1).eps_crit
        minus = crit_cache(om1, -1).eps_crit
        gap = abs(minus + plus)
        checks.append(gap < 1e-6)
        details.append(f"om1={om1}: |eps(-)+eps(+)| = {gap:.2e}")
    assert report("02 sign symmetry", all(checks), "; ".join(details))


def test_criterion_03_symbolic_exactness():
    pairs = [(F(2), F(9, 10)), (F(5, 2), F(7, 10)), (F(3), F(4, 5)), (F(7, 3), F(6, 5))]
    ok = True
    for om, om1 in pairs:
        params = SystemParams(om, om1, 0.0)
        phi = build_integral(params, 2)
        base = params.base
        d1 = om ** 2 - 4 * om1 ** 2
        den2 = d1 * (om ** 2 - om1 ** 2)
        # C_x first order: 4 (cos wt + 1)/d1, stored as (om1^2/2) C_x
        want_cxx = (TrigSeries.harmonic(base, 1, 1, 0, COS)
                    + TrigSeries.constant(base, 1)).scale(2 * om1 ** 2 / d1)
        ok &= phi.orders[1].cxx == want_cxx
        # C_y cos(2wt) second-order coefficient: 3/((w^2-4w1^2)(w^2-w1^2))
        ok &= phi.orders[2].cyy.coefficient(0, 2, 0, COS) * 2 == 3 / den2
        # C_xy first order: -4 w sin(wt)/d1
        want_cxy = TrigSeries.harmonic(base, 1, 1, 0, SIN).scale(-2 * om / d1)
        ok &= phi.orders[1].cxy == want_cxy
    assert report("03 symbolic exactness", ok,
                  f"first/second-order closed forms exact for {len(pairs)} rational pairs")


def test_criterion_04a_conservation_orderings(phi28, orbit_cache):
    _, _, pts10 = orbit_cache("9/10", 0.1, 200)
    _, _, pts15 = orbit_cache("9/10", 0.15, 200)
    r = {s: section_residual(conic_at_section(phi28.truncated(s), 0.1), pts10)
         for s in (2, 4, 6)}
    r6_15 = section_residual(conic_at_section(phi28.truncated(6), 0.15), pts15)
    r20_15 = section_residual(conic_at_section(phi28.truncated(20), 0.15), pts15)
    ok = r[2] > r[4] > r[6] and r20_15 <= r6_15
    assert report("04a conservation orderings", ok,
                  f"eps=0.1 residuals S=2:{r[2]:.2e} > S=4:{r[4]:.2e} > S=6:{r[6]:.2e}; "
                  f"eps=0.15: S=20 {r20_15:.2e} <= S=6 {r6_15:.2e}")


def test_criterion_04b_absolute_bound(phi28, orbit_cache):
    _, _, pts10 = orbit_cache("9/10", 0.1, 200)
    r6 = section_residual(conic_at_section(phi28.truncated(6), 0.1), pts10)
    ok = report("04b conservation absolute bound", r6 <= 1e-3,
                f"residual(S=6, eps=0.1) = {r6:.3e} vs required <= 1e-3")
    assert ok, (
        f"residual(S=6, eps=0.1) = {r6:.3e} exceeds the stated 1e-3 bound. "
        "This bound is unattainable for the series this recursion defines: "
        "the truncation error at order 6 is fixed near 1.7e-2 by the "
        "convergence radius (~0.1857); the order-28 section conic matches "
        "the exact invariant conic of the one-period map to 3e-8, ruling "
        "out an implementation error.  Reaching 1e-3 at eps = 0.1 requires "
        "truncation order ~14.  See this module's docstring."
    )


def test_criterion_05_monodromy_properties(crit_cache):
    import random
    params = SystemParams(F(2), F(9, 10), 0.0)
    rng = random.Random(2024)
    det_ok = all(abs(monodromy(params, rng.uniform(-0.25, 0.25)).det - 1.0) < 1e-9
                 for _ in range(20))
    eps_c = crit_cache("9/10").eps_crit
    e1, e2 = monodromy(params, eps_c).eigenvalues()
    eig_ok = abs(abs(e1) - 1.0) < 1e-4 and abs(abs(e2) - 1.0) < 1e-4
    tr0 = monodromy(params, 0.0).trace
    tr_ok = abs(tr0 - 2 * math.cos(0.9 * math.pi)) < 1e-9
    ok = det_ok and eig_ok and tr_ok
    assert report("05 monodromy properties", ok,
                  f"det ok: {det_ok}; |eig|-1 at eps_crit: "
                  f"{max(abs(abs(e1)-1), abs(abs(e2))-1):.1e}; "
                  f"trace(0) err: {abs(tr0 - 2*math.cos(0.9*math.pi)):.1e}")


def test_criterion_06_extended_energy_identities(phi28, orbit_cache):
    params, traj, _ = orbit_cache("9/10", 0.1, 200, 8)
    drift = max(abs(params.hamiltonian(s.x, s.y, s.t) + s.E) for s in traj)
    numeric_ok = drift <= 1e-8
    phi = phi28.truncated(3)
    psi = psi_series(phi)
    sym_ok = (psi.orders_from_one[0] + phi.orders[1] == h1_form(params)
              and psi.orders_from_one[1] == -phi.orders[2])
    ok = numeric_ok and sym_ok
    assert report("06 extended energy", ok,
                  f"max|H+E| = {drift:.2e}; Psi_1 = H1 - Phi_1 and "
                  f"Psi_2 = -Phi_2 exact: {sym_ok}")


def test_criterion_07_escape_phenomenology(orbit_cache):
    params, _, p19 = orbit_cache("9/10", 0.19, 150)
    _, _, p20 = orbit_cache("9/10", 0.20, 150)
    r19 = escape_diagnostics(p19, period=params.period)
    r20 = escape_diagnostics(p20, period=params.period)
    ok = (r19.escaped and r19.r_squared > 0.999
          and r20.growth_rate > r19.growth_rate)
    assert report("07 escape phenomenology", ok,
                  f"eps=0.19: R^2 = {r19.r_squared:.6f}, rate {r19.growth_rate:.4f}; "
                  f"eps=0.20 rate {r20.growth_rate:.4f}")


def test_criterion_08_cover_counts(orbit_cache):
    targets = [(1e-6, 40, 11), (0.1, 40, 13), (0.15, 40, 17), (0.185, 170, 110)]
    checks = []
    details = []
    for eps, periods, expect in targets:
        _, _, pts = orbit_cache("9/10", eps, periods)
        got = cover_count(pts, 0.9)
        checks.append(abs(got - expect) <= 2)
        details.append(f"eps={eps}: {got} (target {expect}+-2)")
    assert report("08 cover counts", all(checks), "; ".join(details))


def test_criterion_09_resonant_construction(orbit_cache):
    params = SystemParams(F(2), F(1), 0.05)
    base = params.base
    c_series = build_resonant_c(params, 3)
    combo = eliminate_secular(params, 3)

    q1_ok = combo.mix[0] == TrigSeries.constant(base, F(1, 4))

    one = TrigSeries.constant(base, 1)
    c4t = TrigSeries.harmonic(base, 1, 2, 0, COS)
    s4t = TrigSeries.harmonic(base, 1, 2, 0, SIN)
    want_c1 = QuadFormSeries((one - c4t).scale(F(-3, 4)),
                             (one - c4t).scale(F(1, 4)), s4t.scale(-1))
    c1_ok = c_series.orders[1] == want_c1

    secular_ok = all(q.secular_part().is_zero for q in combo.combined.orders)

    constants = PhaseConstants.from_initial_conditions(params, 0.0, 1.0)
    a, b, d = resonant_section_form(combo, 0.05, constants)
    _, _, pts = orbit_cache("1", 0.05, 15)
    level = b  # value at (0, 1)
    resid = max(abs(a * p.x ** 2 + b * p.y ** 2 + 2 * d * p.x * p.y - level)
                / abs(level) for p in pts)
    resid_ok = resid <= 1e-2

    ok = q1_ok and c1_ok and secular_ok and resid_ok
    assert report("09 resonant construction", ok,
                  f"q1 = 1/4 exact: {q1_ok}; C1 closed form exact: {c1_ok}; "
                  f"no secular through 3: {secular_ok}; "
                  f"section residual {resid:.2e} <= 1e-2")


def test_criterion_10_geometry_flip(orbit_cache):
    checks = []
    details = []
    for om1, eps, inside in (("9/10", 0.1, True), ("11/10", 0.1, False),
                             ("9/10", -0.1, False), ("11/10", -0.1, True)):
        _, _, pts = orbit_cache(om1, eps, 200)
        ax = section_semiaxis_x(pts)
        bound = 1.0 / float(F(om1))
        checks.append((ax < bound) == inside)
        details.append(f"om1={om1}, eps={eps:+}: {ax:.3f} "
                       f"{'<' if ax < bound else '>'} {bound:.3f}")
    assert report("10 geometry flip", all(checks), "; ".join(details))
