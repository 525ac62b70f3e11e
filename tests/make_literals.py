"""Regenerate the 30-digit literals of the test suite.  Run by hand:

    PYTHONPATH=src python tests/make_literals.py

It needs mpmath (1.3.0 made the literals in the tests); no test imports
it, and pytest does not collect it (no ``test_`` prefix).  Each solve is
mpmath's Taylor-series ``odefun`` on x'' = -(omega1^2 - 2 eps cos(omega t)) x,
run at 40 and at 50 digits; the script stops if the two disagree in the
30 digits it prints.  It shares no code with ``mathieu_integrals``.

* ``HALF_PERIOD`` in tests/test_dynamics.py: H = M(T/2) row-major, the
  columns of the solves from (1, 0) and (0, 1), at each (omega, omega1, eps).
* ``E_AT_EPS_100`` in tests/test_dynamics.py: E = -H(x, y, t) at
  t = (j/16) T, j = 1..16, on the orbit from (0, 1) at omega = 2,
  omega1 = 9/10, eps = 100 (E is -H along every orbit, so the solved state
  gives it exactly).
* ``ORBIT_STATES`` in tests/test_dynamics.py: x and y at t = (j/spp) T,
  j = 1..spp, on the orbit from (0, 1) over one period at omega = 2,
  flattened as x1, y1, x2, y2, ...: at omega1 = 9/10, eps = 100 with 16
  samples and eps = 1000 with 8, where the samples past T/2 show a solve
  whose error grows with the solution, and on the dense grids of the
  benchmark's ``orbits`` workload, 64 samples at omega1 = 9/10, eps = 0.185
  and at omega1 = 1, eps = 0.05, where the Taylor stepper reads about 13
  samples off each step's series, and 4 samples at omega1 = 1, eps =
  +-1/2, where w and w' both vanish at t = 0 and t = T/2.
* ``BOUNDARIES`` in tests/test_analysis.py: eps_crit, the first eps > 0 where
  the orbits escape, at each (omega, omega1).  It is not an ``odefun`` solve:
  the orbit is bounded exactly while an odd number of the characteristic
  values a_0 < b_1 < a_1 < ... lie below a = 4 omega1^2/omega^2 (DLMF
  28.2(v)), and each parity class's count comes from the pivots of its
  200-row Hill matrix (DLMF 28.4) at q = 4 eps/omega^2.  A scan in steps of
  1e-3 finds the first step whose total count is even, and 100 bisections of
  the count pin the boundary; the ``odefun`` trace tr M(T) = 2 (h11 h22 + h12
  h21) from H = M(T/2) then has |tr| < 2 at 1e-25 before it and > 2 at 1e-25
  past it, or the script stops.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

HALF_PERIOD_CASES = [  # (omega, omega1, eps): eps is the float the library receives
    ("2", "9/10", 0.1), ("2", "9/10", 0.185), ("2", "301/100", 0.8),
    ("1/2", "1/20", 6.485), ("2", "1", 0.05), ("2", "2", 0.5),
]
E_CASE = ("2", "9/10", 100.0, 16)  # (omega, omega1, eps, samples per period)
ORBIT_CASES = [("2", "9/10", 100.0, 16), ("2", "9/10", 1000.0, 8),
               ("2", "9/10", 0.185, 64), ("2", "1", 0.05, 64),
               ("2", "1", 0.5, 4), ("2", "1", -0.5, 4)]
BOUNDARY_CASES = [("2", "9/10"), ("2", "1/10"), ("2", "11/10"), ("2", "2/3"), ("2", "1/6"),
                  ("2", "17/15"), ("1", "18/19")]  # (omega, omega1)


def _mp(value) -> mpmath.mpf:
    """An exact rational or a float, exactly."""
    if isinstance(value, str):
        frac = Fraction(value)
        return mpmath.mpf(frac.numerator) / frac.denominator
    return mpmath.mpf(value)


def _flow(omega, omega1, eps, start, times):
    """(x, y) at each time, from (x, y)(0) = start."""
    om, om1sq, two_eps = _mp(omega), _mp(omega1) ** 2, 2 * _mp(eps)
    f = mpmath.odefun(lambda t, u: [u[1], -(om1sq - two_eps * mpmath.cos(om * t)) * u[0]],
                      0, [mpmath.mpf(v) for v in start])
    return [f(t) for t in times]


def _at_two_precisions(compute):
    """compute() at 40 and at 50 digits, as 30-digit strings that agree."""
    results = []
    for dps in (40, 50):
        with mpmath.workdps(dps):
            results.append([mpmath.nstr(v, 30, strip_zeros=False) for v in compute()])
    if results[0] != results[1]:
        raise SystemExit(f"40 and 50 digits disagree: {results}")
    return results[1]


def half_period(omega, omega1, eps):
    def compute():
        half = mpmath.pi / _mp(omega)
        (m11, m21), = _flow(omega, omega1, eps, (1, 0), [half])
        (m12, m22), = _flow(omega, omega1, eps, (0, 1), [half])
        return [m11, m12, m21, m22]
    return _at_two_precisions(compute)


def energies(omega, omega1, eps, spp):
    def compute():
        om, om1, e = _mp(omega), _mp(omega1), _mp(eps)
        times = [2 * mpmath.pi * j / (spp * om) for j in range(1, spp + 1)]
        states = _flow(omega, omega1, eps, (0, 1), times)
        return [-(y * y / 2 + om1 * om1 * x * x / 2 - e * x * x * mpmath.cos(om * t))
                for t, (x, y) in zip(times, states)]
    return _at_two_precisions(compute)


def states(omega, omega1, eps, spp):
    def compute():
        times = [2 * mpmath.pi * j / (spp * _mp(omega)) for j in range(1, spp + 1)]
        return [v for state in _flow(omega, omega1, eps, (0, 1), times) for v in state]
    return _at_two_precisions(compute)


def _hill_parity(a, q):
    """The parity of the characteristic values below a over the four classes: 1 where
    the orbit is bounded.  Row k of a class holds k^2 (k = 0, 2, ... for a_2n; 2, 4, ...
    for b_2n+2; 1, 3, ... for a_2n+1 and b_2n+1, with +q and -q added to the first)
    and q beside it, sqrt(2) q between the first two rows of a_2n."""
    total = 0
    for first, shift, coupling in ((0, 0, 2), (2, 0, 1), (1, 1, 1), (1, -1, 1)):
        pivot = first * first + shift * q - a
        total += pivot < 0
        for row in range(1, 200):
            k = first + 2 * row
            pivot = k * k - a - (coupling if row == 1 else 1) * q * q / pivot
            total += pivot < 0
    return total % 2


def boundary(omega, omega1):
    def compute():
        a, per_eps = 4 * _mp(omega1) ** 2 / _mp(omega) ** 2, 4 / _mp(omega) ** 2
        step = mpmath.mpf("1e-3")
        lo = mpmath.mpf(0)
        while _hill_parity(a, per_eps * (lo + step)) == 1:
            lo += step
        hi = lo + step
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _hill_parity(a, per_eps * mid) == 1 else (lo, mid)
        for eps, bounded in ((lo * (1 - mpmath.mpf("1e-25")), True),
                             (hi * (1 + mpmath.mpf("1e-25")), False)):
            half = mpmath.pi / _mp(omega)
            (h11, h21), = _flow(omega, omega1, eps, (1, 0), [half])
            (h12, h22), = _flow(omega, omega1, eps, (0, 1), [half])
            if (abs(2 * (h11 * h22 + h12 * h21)) < 2) != bounded:
                raise SystemExit(f"the trace disagrees with the count at {omega}, {omega1}")
        return [(lo + hi) / 2]
    return _at_two_precisions(compute)


def main():
    print("HALF_PERIOD = {")
    for case in HALF_PERIOD_CASES:
        print(f"    {case!r}: {tuple(half_period(*case))!r},")
    print("}")
    print(f"E_AT_EPS_100 = {tuple(energies(*E_CASE))!r}")
    print("ORBIT_STATES = {")
    for case in ORBIT_CASES:
        print(f"    {case!r}: {tuple(states(*case))!r},")
    print("}")
    print("BOUNDARIES = {")
    for case in BOUNDARY_CASES:
        print(f"    {case!r}: {boundary(*case)[0]!r},")
    print("}")


if __name__ == "__main__":
    main()
