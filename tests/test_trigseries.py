"""Coefficient-engine tests: canonical forms, exact calculus, evaluation."""

import ast
import importlib
import inspect
import math
import pkgutil
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mathieu_integrals
import series_reference as ref
from mathieu_integrals import SystemParams, build_integral
from mathieu_integrals.trigseries import (COS, SIN, FrequencyBase, TrigSeries, _float_table,
                                          as_rational)

BASE = FrequencyBase(F(2), F(9, 10))
RES_BASE = FrequencyBase(F(2), F(1))  # omega = 2*omega1


def h(coeff, k, m, phase, p=0, a=0, b=0, base=BASE):
    return TrigSeries.harmonic(base, coeff, k=k, m=m, phase=phase, p=p,
                               c0_pow=a, s0_pow=b)


def random_series(rng, base=BASE, max_terms=4, secular=False, generators=False):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, 2) if secular else 0,
               rng.randint(-3, 3), rng.choice([-2, 0, 2]),
               rng.choice([COS, SIN]),
               rng.randint(0, 2) if generators else 0,
               rng.randint(0, 2) if generators else 0)
        terms.append((key, F(rng.randint(-9, 9), rng.randint(1, 9))))
    return TrigSeries(base, terms)


class TestCanonicalForm:
    def test_additive_inverse_cancels(self):
        assert (h(1, 1, 0, COS) + h(-1, 1, 0, COS)).is_zero

    def test_distinct_keys_kept(self):
        s = h(1, 1, 0, COS) + h(1, 2, 0, COS)
        assert len(s.terms()) == 2

    def test_like_terms_merge(self):
        s = h(F(1, 2), 1, 0, COS) + h(F(1, 2), 1, 0, COS)
        assert s == h(1, 1, 0, COS)

    def test_negative_frequency_folds_into_sine(self):
        assert h(1, -1, 0, COS) == h(1, 1, 0, COS)
        assert h(1, -1, 0, SIN) == h(-1, 1, 0, SIN)
        assert h(1, 0, -2, SIN) == h(-1, 0, 2, SIN)

    def test_sin_of_zero_frequency_dropped(self):
        assert h(5, 0, 0, SIN).is_zero

    def test_exact_zero_frequency_folds_to_constant(self):
        # at omega = 2*omega1 the lattice point (1, -2) has frequency zero
        s = h(3, 1, -2, COS, base=RES_BASE)
        assert s == TrigSeries.constant(RES_BASE, 3)
        assert h(3, 1, -2, SIN, base=RES_BASE).is_zero

    def test_no_zero_fold_off_resonance(self):
        s = h(3, 1, -2, COS)  # frequency 2 - 1.8 = 0.2, stays put
        assert s.coefficient(0, 1, -2, COS) == 3

    def test_generator_reduction(self):
        # c0^2 -> 1 - s0^2
        s = h(1, 0, 0, COS, a=2)
        assert s == TrigSeries.constant(BASE, 1) - h(1, 0, 0, COS, b=2)
        # c0^2 + s0^2 -> 1
        both = h(1, 1, 0, COS, a=2) + h(1, 1, 0, COS, b=2)
        assert both == h(1, 1, 0, COS)

    def test_canonicalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_series(rng, secular=True, generators=True)
            again = TrigSeries(s.base, s.terms())
            assert again == s

    def test_zero_coefficient_pruned(self):
        assert h(0, 1, 0, COS).is_zero

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            h(1, 1, 0, COS) + h(1, 1, 0, COS, base=RES_BASE)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            TrigSeries.constant(BASE, 0.5)
        with pytest.raises(TypeError):
            h(1, 1, 0, COS).scale(0.5)
        with pytest.raises(TypeError):
            as_rational(0.9)

    def test_string_rationals_exact(self):
        assert as_rational("0.9") == F(9, 10)
        assert as_rational("9/10") == F(9, 10)


class TestProducts:
    def test_product_to_sum_cos_cos(self):
        got = h(1, 1, 0, COS) * h(1, 0, 2, COS)
        want = h(F(1, 2), 1, 2, COS) + h(F(1, 2), 1, -2, COS)
        assert got == want

    def test_multiplicative_identity(self):
        one = TrigSeries.constant(BASE, 1)
        rng = random.Random(3)
        for _ in range(20):
            s = random_series(rng, secular=True, generators=True)
            assert one * s == s

    def test_double_angle(self):
        got = h(1, 0, 1, SIN) * h(1, 0, 1, COS)
        assert got == h(F(1, 2), 0, 2, SIN)

    def test_secular_degrees_add(self):
        got = h(1, 1, 0, COS, p=1) * h(1, 0, 2, COS, p=2)
        assert all(key[0] == 3 for key, _ in got.terms())

    def test_eval_respects_products(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_series(rng, secular=True, generators=True)
            b = random_series(rng, secular=True, generators=True)
            t = rng.uniform(-5, 5)
            c0 = rng.uniform(-1, 1)
            s0 = math.copysign(math.sqrt(1 - c0 * c0), rng.uniform(-1, 1))
            lhs = (a * b).evaluate(t, c0, s0)
            rhs = a.evaluate(t, c0, s0) * b.evaluate(t, c0, s0)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestCalculus:
    def test_cos_antiderivative(self):
        got = h(1, 1, 0, COS).integrate()
        assert got == h(F(1, 2), 1, 0, SIN)  # 1/nu = 1/2 at k=1, omega=2

    def test_sin_antiderivative_vanishes_at_zero(self):
        got = h(1, 1, 0, SIN).integrate()
        want = TrigSeries.constant(BASE, F(1, 2)) + h(-F(1, 2), 1, 0, COS)
        assert got == want

    def test_constant_integrates_to_secular(self):
        got = TrigSeries.constant(BASE, 3).integrate()
        assert got == h(3, 0, 0, COS, p=1)

    def test_resonant_zero_frequency_goes_secular(self):
        s = h(1, 1, -2, COS, base=RES_BASE)  # identically the constant 1
        assert s.integrate() == h(1, 0, 0, COS, p=1, base=RES_BASE)

    def test_derivative_undoes_integral(self):
        rng = random.Random(5)
        for _ in range(60):
            s = random_series(rng, secular=True, generators=True)
            assert ref.derivative(s.integrate()) == s

    def test_integral_is_zero_at_zero(self):
        # a single sin term integrates to (1 - cos)/nu: bitwise zero at t = 0
        assert h(F(7, 3), 2, -2, SIN).integrate().evaluate(0.0) == 0.0
        # in general the integration constants merge across frequencies, so
        # the t = 0 value is exactly zero per generator monomial as rationals
        # (and zero in floats only up to roundoff)
        rng = random.Random(9)
        for _ in range(60):
            s = random_series(rng, secular=True, generators=True)
            F0 = s.integrate()
            by_monomial: dict[tuple[int, int], F] = {}
            for (p, _k, _m, phase, a, b), coeff in F0.terms():
                if p == 0 and phase == COS:
                    by_monomial[(a, b)] = by_monomial.get((a, b), F(0)) + coeff
            assert all(v == 0 for v in by_monomial.values())
            assert abs(F0.evaluate(0.0, 0.3, math.sqrt(1 - 0.09))) < 1e-12
        # and exactly, as rationals, for generator-free series
        s = h(2, 1, 0, SIN) + TrigSeries.constant(BASE, F(1, 3))
        assert s.integrate().constant_at_zero() == 0

    def test_integration_by_parts_against_quadrature(self):
        # independent oracle: composite Simpson quadrature of s matches
        # the closed-form antiderivative, including secular terms
        rng = random.Random(13)
        for _ in range(10):
            s = random_series(rng, secular=True, generators=True)
            t_end = rng.uniform(0.5, 3.0)
            c0 = 0.6
            s0 = -0.8
            n = 4000
            hh = t_end / n
            total = s.evaluate(0.0, c0, s0) + s.evaluate(t_end, c0, s0)
            for i in range(1, n):
                w = 4.0 if i % 2 else 2.0
                total += w * s.evaluate(i * hh, c0, s0)
            quad = total * hh / 3.0
            exact = s.integrate().evaluate(t_end, c0, s0)
            assert abs(quad - exact) <= 1e-8 * max(1.0, abs(exact))


class TestEvaluation:
    def test_cos_at_zero(self):
        assert h(1, 1, 0, COS).evaluate(0.0) == 1.0

    def test_sin_full_period(self):
        T = 2 * math.pi / 2.0
        assert abs(h(1, 1, 0, SIN).evaluate(T)) < 1e-12

    def test_secular_linear(self):
        assert h(F(1, 2), 0, 0, COS, p=1).evaluate(3.0) == 1.5


class TestSerialization:
    def test_schema_and_sorting(self):
        s = h(F(3, 4), 2, 0, SIN, p=1) + h(1, 1, 0, COS) + TrigSeries.constant(BASE, 2)
        objs = s.to_json_terms()
        assert [(o["p"], o["k"], o["m"], o["phase"]) for o in objs] == [
            (0, 0, 0, "cos"), (0, 1, 0, "cos"), (1, 2, 0, "sin")]
        assert objs[0]["num"] == 2 and objs[0]["den"] == 1
        assert objs[2]["num"] == 3 and objs[2]["den"] == 4
        assert all("generators" not in o for o in objs)

    def test_generator_field_only_when_present(self):
        s = h(1, 0, 0, COS, a=1) + h(2, 1, 0, COS)
        objs = s.to_json_terms()
        gens = [o.get("generators") for o in objs]
        assert {"c0": 1, "s0": 0} in gens
        assert any(g is None for g in gens)


# -- the one storage: integer numerators over one denominator, not always the least --

def _bits(most: int):
    """Positive integers of up to ``most`` bits, spread over the bit lengths."""
    return st.integers(1, most).flatmap(lambda b: st.integers(2 ** (b - 1), 2 ** b))


@settings(max_examples=300, deadline=None)
@given(_bits(2000), _bits(2000), _bits(2000), st.booleans())
def test_numerators_divide_and_reduce_as_fractions_do(a, d, g, negative):
    # n and den share the factor g, up to about 4,000 bits each
    n, den = (-a if negative else a) * g, d * g
    series = TrigSeries._from_numerators(BASE, {(0, 1, 0, COS, 0, 0): n}, den)
    want = F(n, den)
    try:
        expected = float(want).hex()
    except OverflowError:
        with pytest.raises(OverflowError):
            _float_table(series)
    else:
        # int true division is correctly rounded, as float(Fraction(n, den)) is
        assert (n / den).hex() == _float_table(series)[0][-1].hex() == expected
    [term] = series.to_json_terms()
    assert (term["num"], term["den"]) == (want.numerator, want.denominator)


def test_numerator_backed_orders_agree_with_fraction_backed():
    phi = build_integral(SystemParams(F(2), F(9, 10), 0.1), 12)
    for q in phi.orders[1:]:
        for s in (q.cxx, q.cyy, q.cxy):
            nums, den = s._nums, s._den
            # the same values through the constructor, over their least denominator
            exact = TrigSeries(s.base, ((key, F(n, den)) for key, n in nums.items()))
            assert list(exact._nums) == list(nums)
            assert _float_table(s) == _float_table(exact)
            assert s.to_json_terms() == exact.to_json_terms()
            assert (s.is_zero, s.max_secular_degree(), s.max_harmonic(), s.m_values()) == (
                exact.is_zero, exact.max_secular_degree(), exact.max_harmonic(),
                exact.m_values())
            assert s.terms() == exact.terms()
            assert [s.coefficient(*key) for key, _ in exact.terms()] == [
                c for _, c in exact.terms()]
            assert s == exact and hash(s) == hash(exact)
            assert s.pretty() == exact.pretty()
            assert s * s == exact * exact
            assert (s - exact).is_zero


def _series_of(terms):
    return TrigSeries(BASE, [((p, k, m, ph, a, b), c) for p, k, m, ph, a, b, c in terms])


series_terms = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3),
                                  st.sampled_from([-2, 0, 2]), st.sampled_from([COS, SIN]),
                                  st.integers(0, 2), st.integers(0, 2),
                                  st.fractions(min_value=-3, max_value=3, max_denominator=12)),
                        max_size=6)


@settings(max_examples=200, deadline=None)
@given(series_terms, st.integers(2, 10 ** 30), series_terms)
def test_a_common_factor_changes_no_value(terms, g, other_terms):
    s, other = _series_of(terms), _series_of(other_terms)
    assume(not other.is_zero)
    scaled = TrigSeries._from_numerators(BASE, {key: n * g for key, n in s._nums.items()},
                                         s._den * g)
    assert scaled == s and s == scaled and hash(scaled) == hash(s)
    assert scaled.terms() == s.terms() and scaled.pretty() == s.pretty()
    assert scaled.to_json_terms() == s.to_json_terms()
    # the float table keeps the storage order and every bit
    assert [(*row[:-1], row[-1].hex()) for row in _float_table(scaled)] == [
        (*row[:-1], row[-1].hex()) for row in _float_table(s)]
    assert scaled + other != s and s + other != scaled


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([-2, 0, 2]),
                          st.sampled_from([COS, SIN]), small_rationals),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([-2, 0, 2]),
                          st.sampled_from([COS, SIN]), small_rationals),
                min_size=1, max_size=4))
def test_ring_axioms(terms_a, terms_b):
    a = TrigSeries(BASE, [((0, k, m, ph, 0, 0), c) for k, m, ph, c in terms_a])
    b = TrigSeries(BASE, [((0, k, m, ph, 0, 0), c) for k, m, ph, c in terms_b])
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b).scale(F(2, 3)) == a.scale(F(2, 3)) + b.scale(F(2, 3))


def _storage_reads() -> set[tuple[str, str]]:
    """(module, outermost function or "<module>") of every ``._nums`` or ``._den``
    in the package."""
    found = set()
    for info in pkgutil.iter_modules(mathieu_integrals.__path__):
        module = importlib.import_module(f"mathieu_integrals.{info.name}")
        tree, owner = ast.parse(inspect.getsource(module)), {}
        for fn in ast.walk(tree):  # outer functions first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        found.update((info.name, owner.get(node, "<module>")) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den"))
    return found


def test_trigseries_owns_the_storage_format():
    # builder.to_form is the one reader outside: resonant does integer algebra on forms
    reads = _storage_reads()
    assert ("trigseries", "_float_table") in reads and ("builder", "to_form") in reads
    assert {read for read in reads if read[0] != "trigseries"} == {("builder", "to_form")}
