"""The closed-form recursion step against the Fraction round trip.

``recursion_step`` runs per envelope harmonic on integer numerators
(``builder.Form``); ``step`` below reaches it through the form's two
converters and checks that its output is already over the least common
denominator.  The reference is the composition it replaced: the
bracket, the zero-order substitution onto the (k, m) lattice, the
termwise integral and the back-substitution, all in TrigSeries
arithmetic, which shares no code with the integer step.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mathieu_integrals import (QuadFormSeries, SecularTerm, SystemParams, builder,
                               build_integral, eliminate_secular, h0_form)
from mathieu_integrals.builder import (back_substitute, from_form, poisson_bracket_with_h1,
                                       recursion_step, substitute_zero_order, to_form)
from mathieu_integrals.trigseries import COS, SIN, TrigSeries


def step(params, f, phased, secular_allowed=True):
    form = recursion_step(params, to_form(f), phased=phased, secular_allowed=secular_allowed)
    got = from_form(params.base, form)
    assert to_form(got) == form
    return got


def round_trip(params, f, phased, secular_allowed=True):
    on_orbit = substitute_zero_order(params, poisson_bracket_with_h1(params, f), phased=phased)
    return back_substitute(params, on_orbit.integrate(), phased=phased,
                           secular_allowed=secular_allowed)


def seed_form(params, seed):
    """H0, or the zero-order invariant C0 or S0 at any frequency pair.

    C0 and S0 are built by hand because resonant_seed accepts only
    omega = 2*omega1.
    """
    if seed == "H0":
        return h0_form(params)
    base, om1 = params.base, params.omega1
    cos_env = TrigSeries.harmonic(base, 1, k=1, m=0, phase=COS)
    sin_env = TrigSeries.harmonic(base, 1, k=1, m=0, phase=SIN)
    if seed == "C0":
        return QuadFormSeries(cos_env.scale(-om1 ** 2), cos_env, sin_env.scale(2 * om1))
    return QuadFormSeries(sin_env.scale(-om1 ** 2), sin_env, cos_env.scale(-2 * om1))


@pytest.mark.parametrize("phased", [False, True])
@pytest.mark.parametrize("seed", ["H0", "C0", "S0"])
@pytest.mark.parametrize("omega1", ["9/10", "1"])  # non-resonant; primary resonance
def test_step_equals_round_trip_over_12_orders(omega1, seed, phased):
    params = SystemParams(F(2), F(omega1))
    f = seed_form(params, seed)
    for order in range(1, 13):
        got = step(params, f, phased)
        assert got == round_trip(params, f, phased), f"order {order}"
        f = got


@pytest.mark.parametrize("phased", [False, True])
@pytest.mark.parametrize("seed", ["H0", "C0", "S0"])
def test_step_equals_round_trip_at_second_resonance(seed, phased):
    # 2 omega = 2 omega1: the exact zero frequency sits at k = 2, not k = 1
    params = SystemParams(F(2), F(2))
    f = seed_form(params, seed)
    for order in range(1, 7):
        got = step(params, f, phased)
        assert got == round_trip(params, f, phased), f"order {order}"
        f = got


def test_secular_rejected_where_the_round_trip_rejects_it():
    # at omega = 2 omega1 the phased H0 series turns secular at order 1
    params = SystemParams(F(2), F(1))
    with pytest.raises(SecularTerm):
        round_trip(params, h0_form(params), True, secular_allowed=False)
    with pytest.raises(SecularTerm):
        step(params, h0_form(params), True, secular_allowed=False)


@settings(max_examples=30, deadline=None)
@given(omega=st.fractions(min_value=F(1, 5), max_value=F(4), max_denominator=12),
       omega1=st.fractions(min_value=F(1, 10), max_value=F(3), max_denominator=12),
       seed=st.sampled_from(["H0", "C0", "S0"]), phased=st.booleans())
def test_step_equals_round_trip_at_random_frequencies(omega, omega1, seed, phased):
    orders = 5
    assume(all(j * omega != 2 * omega1 for j in range(1, orders + 2)))
    params = SystemParams(omega, omega1)
    f = seed_form(params, seed)
    for _ in range(orders):
        got = step(params, f, phased)
        assert got == round_trip(params, f, phased)
        f = got


def test_step_checks_its_harmonic_bound(monkeypatch):
    # one harmonic too many from harmonic 1 on: Phi_1 = R(H0) stays right, so
    # the elimination trips the check only in its X_n steps
    times_cos_omega = builder._times_cos_omega

    def one_too_many(acc, terms, factor):
        times_cos_omega(acc, terms, factor)
        top = max((key[1] for key in terms), default=0)
        if top:
            acc[(0, top + 2, 0, COS, 0, 0)] = factor

    monkeypatch.setattr(builder, "_times_cos_omega", one_too_many)
    with pytest.raises(AssertionError, match="recursion is broken"):
        build_integral(SystemParams(F(2), F(9, 10)), 3)
    with pytest.raises(AssertionError, match="recursion is broken"):
        eliminate_secular(SystemParams(F(2), F(1)), 3)
