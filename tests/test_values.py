"""The package's record types: immutable values with equality, hash and repr over
their fields, as frozen dataclasses have them, built at import with no generated code."""

import copy
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import mathieu_integrals
from mathieu_integrals import (ConvergenceReport, CriticalEpsResult, EscapeReport,
                               FormalIntegral, FrequencyBase, Monodromy, PhaseConstants,
                               PsiSeries, QuadFormSeries, ResonantIntegral, SystemParams,
                               h0_form)
from mathieu_integrals.errors import InvalidInput
from mathieu_integrals.trigseries import COS, TrigSeries

B = FrequencyBase(F(2), F(9, 10))
P = SystemParams(F(2), F(9, 10), 0.1)
Q = h0_form(P)
PHI = FormalIntegral(P, (Q,), "E", True, True)
MIX = TrigSeries.constant(B, F(1, 4))
P_REPR = "SystemParams(omega=Fraction(2, 1), omega1=Fraction(9, 10), epsilon=0.1)"
Q_REPR = "QuadFormSeries(cxx=TrigSeries(81/200), cyy=TrigSeries(1/2), cxy=TrigSeries(0))"
PHI_REPR = (f"FormalIntegral(params={P_REPR}, orders=({Q_REPR},), seed='E', "
            "secular_allowed=True, phased=True)")
OTHER_BASE = TrigSeries.constant(FrequencyBase(F(3), F(9, 10)), 1)
M_1 = TrigSeries.harmonic(B, 1, k=0, m=1, phase=COS)

# class: (fields, values, {field: default}, repr, [(bad values, error, message)])
CASES = {
    FrequencyBase: (
        ("omega", "omega1"), (F(2), F(9, 10)), {},
        "FrequencyBase(omega=Fraction(2, 1), omega1=Fraction(9, 10))",
        [((2, F(1)), TypeError, "requires Fraction frequencies"),
         ((F(0), F(1)), ValueError, "omega and omega1 must be positive")]),
    SystemParams: (
        ("omega", "omega1", "epsilon"), (F(2), F(9, 10), 0.1), {"epsilon": 0.0}, P_REPR,
        [((2.0, 1), TypeError, "refusing to coerce float 2.0"),
         ((0, 1), InvalidInput, "omega and omega1 must be positive"),
         ((2, 1, math.nan), InvalidInput, "epsilon must be finite"),
         ((F(1, 10 ** 200), 1), InvalidInput, "a = 4 omega1^2/omega^2 is inf as a float")]),
    QuadFormSeries: (
        ("cxx", "cyy", "cxy"), (Q.cxx, Q.cyy, Q.cxy), {}, Q_REPR,
        [((Q.cxx, OTHER_BASE, Q.cxy), ValueError, "live over different bases"),
         ((Q.cxx, Q.cyy, M_1), ValueError, "envelopes (m = 0)")]),
    FormalIntegral: (
        ("params", "orders", "seed", "secular_allowed", "phased"), (P, (Q,), "E", True, True),
        {"seed": "H0", "secular_allowed": False, "phased": False}, PHI_REPR, []),
    PsiSeries: (
        ("params", "orders_from_one"), (P, (Q,)), {},
        f"PsiSeries(params={P_REPR}, orders_from_one=({Q_REPR},))", []),
    Monodromy: (
        ("m11", "m12", "m21", "m22", "n"), (1.5, 2.0, 0.25, 1.0, 3), {},
        "Monodromy(m11=1.5, m12=2.0, m21=0.25, m22=1.0, n=3)", []),
    EscapeReport: (
        ("escaped", "k_escape", "growth_rate"), (True, 7, 0.25), {},
        "EscapeReport(escaped=True, k_escape=7, growth_rate=0.25)", []),
    CriticalEpsResult: (
        ("eps_crit", "bracket", "iterations", "escape_check"), (0.5, (0.25, 0.75), 9, True),
        {"escape_check": None},
        "CriticalEpsResult(eps_crit=0.5, bracket=(0.25, 0.75), iterations=9, escape_check=True)",
        []),
    ConvergenceReport: (
        ("orders", "residuals", "epsilon", "n_periods"), ((2, 4), (1e-3, 1e-5), 0.1, 200), {},
        "ConvergenceReport(orders=(2, 4), residuals=(0.001, 1e-05), epsilon=0.1, n_periods=200)",
        []),
    PhaseConstants: (
        ("c0", "s0"), (0.6, 0.8), {}, "PhaseConstants(c0=0.6, s0=0.8)",
        [((math.inf, 0.0), InvalidInput, "phase constants must be finite"),
         ((1.0, 1.0), InvalidInput, "must satisfy c0^2 + s0^2 = 1")]),
    ResonantIntegral: (
        ("mix", "combined"), ((MIX,), PHI), {},
        f"ResonantIntegral(mix=(TrigSeries(1/4),), combined={PHI_REPR})", []),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_a_record_is_an_immutable_value(cls):
    fields, values, defaults, text, bad = CASES[cls]
    value = cls(*values)
    assert tuple(getattr(value, name) for name in fields) == values
    # positional and keyword construction, and the defaults of the last fields
    twin = cls(**dict(zip(fields, values)))
    short = cls(*values[:len(values) - len(defaults)])
    assert all(getattr(short, name) == default for name, default in defaults.items())
    assert (short == value) == (not defaults)
    for args, error, message in bad:
        with pytest.raises(error, match=re.escape(message)):
            cls(*args)
    # equal and hashed by the tuple of its fields, unequal to any other class
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(values)
    assert value.__eq__(values) is NotImplemented and value != values
    assert repr(value) == text
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values
    for copied in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and repr(copied) == text


def test_one_class_is_built_by_dataclass_at_import():
    # a frozen dataclass's methods are made by exec of generated source at every import;
    # PeriodicOrbitResult alone keeps it (the benchmark calls dataclasses.replace on it)
    code = ("import dataclasses\n"
            "made, process = [], dataclasses._process_class\n"
            "def counted(cls, *args):\n"
            "    made.append(cls.__qualname__)\n"
            "    return process(cls, *args)\n"
            "dataclasses._process_class = counted\n"
            "import mathieu_integrals.cli\n"
            "print(*made)\n")
    src = str(Path(mathieu_integrals.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert res.stdout.split() == ["PeriodicOrbitResult"]
