"""Shared fixtures: expensive orbits, builds and boundary locations are
computed once per session and reused across test modules."""

from fractions import Fraction

import pytest

from mathieu_integrals import (SystemParams, build_integral, critical_epsilon,
                               integrate_orbit, stroboscopic_section)


@pytest.fixture(scope="session")
def params09():
    return SystemParams(Fraction(2), Fraction(9, 10), 0.1)


@pytest.fixture(scope="session")
def phi28(params09):
    return build_integral(params09, 28)


@pytest.fixture(scope="session")
def orbit_cache():
    """Memoized orbits: key (omega1, eps, periods, spp, x0, y0) -> (traj, section)."""
    cache = {}

    def get(omega1, eps, periods, spp=1, x0=0.0, y0=1.0):
        key = (str(omega1), float(eps), periods, spp, x0, y0)
        if key not in cache:
            params = SystemParams(Fraction(2), Fraction(omega1), float(eps))
            traj = integrate_orbit(params, x0, y0, periods, samples_per_period=spp)
            cache[key] = (params, traj, stroboscopic_section(params, x0, y0, periods))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def form_miss():
    """Miss of a section conic (A, B, D) from the one-period map's exact invariant.

    M^T Q M = Q for Q = (-m21, m12, (m11 - m22)/2) and det M = 1.  The conic
    is compared with the least-squares multiple of Q; the largest deviation
    is taken relative to the conic's largest coefficient.
    """
    def miss(conic, m):
        form = (-m.m21, m.m12, 0.5 * (m.m11 - m.m22))
        scale = sum(u * v for u, v in zip(conic, form)) / sum(v * v for v in form)
        return max(abs(u - scale * v) for u, v in zip(conic, form)) / max(map(abs, conic))

    return miss


@pytest.fixture(scope="session")
def crit_cache():
    """Memoized critical-epsilon results: key (omega1, sign) -> CriticalEpsResult."""
    cache = {}

    def get(omega1, sign=1):
        key = (str(omega1), sign)
        if key not in cache:
            params = SystemParams(Fraction(2), Fraction(omega1), 0.0)
            cache[key] = critical_epsilon(params, sign=sign)
        return cache[key]

    return get
