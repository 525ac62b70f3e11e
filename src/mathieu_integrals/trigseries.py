"""Exact-rational algebra of trigonometric polynomials in time.

A :class:`TrigSeries` is a finite sum of terms

    c * c0^a * s0^b * t^p * {cos|sin}((k*omega + m*omega1) * t)

with exact rational coefficient ``c``, nonnegative secular degree ``p``
and frequency drawn from the integer lattice ``k*omega + m*omega1``.
``c0`` and ``s0`` are optional phase generators (cosine/sine of a fixed
reference phase) subject to the relation ``c0^2 + s0^2 = 1``; they stay
at zero power everywhere except in phased (resonant) constructions.

Design rules:

* Coefficients are exact rationals and ``omega``, ``omega1`` must be
  rational, so zero-frequency tests are equality tests, never
  tolerance tests.  Floats enter only through the float table that
  :meth:`TrigSeries.evaluate` sums (``QuadFormSeries`` caches its own).
* Frequencies are stored as ``(k, m)`` integer pairs and never collapsed
  to a single numeric value: distinct lattice points with coincidentally
  equal frequency are kept apart.  The single exception is the exact
  zero frequency ``k*omega + m*omega1 == 0``, whose cosine *is* the
  constant 1 and is folded onto the key ``(0, 0)`` (its sine vanishes
  and is dropped).
* Secular powers of t are first-class citizens; whether they are legal
  is the caller's decision, not this module's.

Canonical form: one entry per key ``(p, k, m, phase, a, b)`` with
``k > 0`` or (``k == 0`` and ``m >= 0``) (sign changes folded into sine
amplitudes), generator powers reduced so that ``a <= 1`` via
``c0^2 -> 1 - s0^2``, and zero coefficients pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator

COS = 0
SIN = 1

_PHASE_NAMES = {COS: "cos", SIN: "sin"}

#: term key: (secular degree p, k, m, phase, c0 power, s0 power)
TermKey = tuple[int, int, int, int, int, int]


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction, refusing floats.

    Strings go through ``Fraction`` directly, so both "9/10" and "0.9"
    parse to the exact rational 9/10.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing to coerce float {value!r} to an exact rational; "
            "pass a Fraction, int or string such as '9/10' or '0.9'"
        )
    return Fraction(value)


@dataclass(frozen=True)
class FrequencyBase:
    """The rational frequency pair (omega, omega1) a series lives over."""

    omega: Fraction
    omega1: Fraction

    def __post_init__(self):
        if not isinstance(self.omega, Fraction) or not isinstance(self.omega1, Fraction):
            raise TypeError("FrequencyBase requires Fraction frequencies")
        if self.omega <= 0 or self.omega1 <= 0:
            raise ValueError("omega and omega1 must be positive")

    def nu(self, k: int, m: int) -> Fraction:
        """Exact frequency value k*omega + m*omega1."""
        return k * self.omega + m * self.omega1


def _reduce_generators(a: int, b: int, coeff: Fraction) -> Iterator[tuple[int, int, Fraction]]:
    """Rewrite c0^a s0^b with a >= 2 using c0^2 = 1 - s0^2.

    Yields (a', b', coeff') monomials with a' in {0, 1}.
    """
    if a < 2:
        yield a, b, coeff
        return
    j, r = divmod(a, 2)
    for i in range(j + 1):
        yield r, b + 2 * i, coeff * comb(j, i) * (-1) ** i


class TrigSeries:
    """Canonical trigonometric polynomial over a fixed frequency base.

    Instances are immutable after construction; all operations return
    new series, so values can be shared freely across threads.
    """

    __slots__ = ("base", "_terms")

    def __init__(self, base: FrequencyBase, terms: Iterable[tuple[TermKey, Fraction]] = ()):
        acc: dict[TermKey, Fraction] = {}
        for (p, k, m, phase, a, b), coeff in terms:
            if coeff == 0:
                continue
            if p < 0 or a < 0 or b < 0:
                raise ValueError("secular degree and generator powers must be >= 0")
            if phase not in (COS, SIN):
                raise ValueError(f"bad phase {phase!r}")
            for a2, b2, c2 in _reduce_generators(a, b, Fraction(coeff)):
                kk, mm, ph, cc = k, m, phase, c2
                if base.nu(kk, mm) == 0:
                    if ph == SIN:
                        continue  # sin of the exact zero frequency vanishes
                    kk = mm = 0  # cos of the exact zero frequency is the constant 1
                elif kk < 0 or (kk == 0 and mm < 0):
                    kk, mm = -kk, -mm
                    if ph == SIN:
                        cc = -cc
                key = (p, kk, mm, ph, a2, b2)
                tot = acc.get(key, _ZERO) + cc
                if tot:
                    acc[key] = tot
                else:
                    acc.pop(key, None)
        self.base = base
        self._terms = acc

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, base: FrequencyBase) -> "TrigSeries":
        return cls(base)

    @classmethod
    def constant(cls, base: FrequencyBase, value) -> "TrigSeries":
        return cls(base, [((0, 0, 0, COS, 0, 0), as_rational(value))])

    @classmethod
    def harmonic(cls, base: FrequencyBase, coeff, k: int, m: int, phase: int,
                 p: int = 0, c0_pow: int = 0, s0_pow: int = 0) -> "TrigSeries":
        """Single term coeff * c0^a s0^b * t^p * trig((k*omega + m*omega1) t)."""
        return cls(base, [((p, k, m, phase, c0_pow, s0_pow), as_rational(coeff))])

    @classmethod
    def _from_numerators(cls, base: FrequencyBase, nums: dict[TermKey, int],
                         den: int) -> "TrigSeries":
        """Series with coefficients n/den, zeros pruned; the keys must already be canonical."""
        out = cls.__new__(cls)
        out.base = base
        out._terms = {key: Fraction(n, den) for key, n in nums.items() if n}
        return out

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms sorted by (p, k, m, phase, a, b)."""
        return sorted(self._terms.items())

    def coefficient(self, p: int, k: int, m: int, phase: int,
                    c0_pow: int = 0, s0_pow: int = 0) -> Fraction:
        return self._terms.get((p, k, m, phase, c0_pow, s0_pow), _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def max_secular_degree(self) -> int:
        return max((key[0] for key in self._terms), default=0)

    def max_harmonic(self) -> int:
        """Largest |k| (driving-frequency multiple) present."""
        return max((abs(key[1]) for key in self._terms), default=0)

    def m_values(self) -> set[int]:
        return {key[2] for key in self._terms}

    def secular_part(self) -> "TrigSeries":
        """The sub-series with secular degree >= 1."""
        return TrigSeries(self.base, ((key, c) for key, c in self._terms.items() if key[0] >= 1))

    def constant_at_zero(self) -> Fraction:
        """Exact value at t = 0 for generator-free series.

        Raises ValueError when a surviving term carries c0/s0 powers,
        because then the value depends on the phase binding.
        """
        total = _ZERO
        for (p, _k, _m, phase, a, b), coeff in self._terms.items():
            if p > 0 or phase == SIN:
                continue
            if a or b:
                raise ValueError("series has phase-generator content; evaluate numerically")
            total += coeff
        return total

    # -- algebra ---------------------------------------------------------

    def _check_base(self, other: "TrigSeries"):
        if self.base != other.base:
            raise ValueError("series live over different (omega, omega1) bases")

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return NotImplemented
        self._check_base(other)
        merged = dict(self._terms)
        for key, c in other._terms.items():
            tot = merged.get(key, _ZERO) + c
            if tot:
                merged[key] = tot
            else:
                merged.pop(key, None)
        out = TrigSeries.__new__(TrigSeries)
        out.base = self.base
        out._terms = merged
        return out

    def __neg__(self) -> "TrigSeries":
        out = TrigSeries.__new__(TrigSeries)
        out.base = self.base
        out._terms = {key: -c for key, c in self._terms.items()}
        return out

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "TrigSeries":
        """Multiply by an exact rational scalar."""
        f = as_rational(factor)
        if f == 0:
            return TrigSeries.zero(self.base)
        out = TrigSeries.__new__(TrigSeries)
        out.base = self.base
        out._terms = {key: c * f for key, c in self._terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, TrigSeries):
            self._check_base(other)
            raw: list[tuple[TermKey, Fraction]] = []
            for (p1, k1, m1, ph1, a1, b1), c1 in self._terms.items():
                for (p2, k2, m2, ph2, a2, b2), c2 in other._terms.items():
                    p, a, b = p1 + p2, a1 + a2, b1 + b2
                    half = c1 * c2 * _HALF
                    ks, ms = k1 + k2, m1 + m2  # sum frequency
                    kd, md = k1 - k2, m1 - m2  # difference frequency
                    if ph1 == COS and ph2 == COS:
                        raw.append(((p, kd, md, COS, a, b), half))
                        raw.append(((p, ks, ms, COS, a, b), half))
                    elif ph1 == SIN and ph2 == SIN:
                        raw.append(((p, kd, md, COS, a, b), half))
                        raw.append(((p, ks, ms, COS, a, b), -half))
                    elif ph1 == SIN:  # sin * cos
                        raw.append(((p, ks, ms, SIN, a, b), half))
                        raw.append(((p, kd, md, SIN, a, b), half))
                    else:  # cos * sin
                        raw.append(((p, ks, ms, SIN, a, b), half))
                        raw.append(((p, kd, md, SIN, a, b), -half))
            return TrigSeries(self.base, raw)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigSeries):
            return NotImplemented
        return self.base == other.base and self._terms == other._terms

    def __hash__(self):
        return hash((self.base, frozenset(self._terms.items())))

    # -- calculus ---------------------------------------------------------

    def integrate(self) -> "TrigSeries":
        """Termwise antiderivative F with F(0) = 0.

        For nonzero frequency nu and secular degree 0:
        int cos(nu t) = sin(nu t)/nu and int sin(nu t) = (1 - cos(nu t))/nu.
        Exact-zero-frequency constants raise the secular degree; terms
        with t^p, p >= 1, integrate by parts.  Secular output is legal
        here; callers decide whether it is fatal.
        """
        raw: list[tuple[TermKey, Fraction]] = []

        def emit(p: int, k: int, m: int, phase: int, a: int, b: int, coeff: Fraction):
            nu = self.base.nu(k, m)
            if nu == 0:
                # canonical form guarantees phase == COS here
                raw.append(((p + 1, 0, 0, COS, a, b), coeff / (p + 1)))
            elif phase == COS:
                raw.append(((p, k, m, SIN, a, b), coeff / nu))
                if p:
                    emit(p - 1, k, m, SIN, a, b, -coeff * p / nu)
            else:
                raw.append(((p, k, m, COS, a, b), -coeff / nu))
                if p:
                    emit(p - 1, k, m, COS, a, b, coeff * p / nu)
                else:
                    raw.append(((0, 0, 0, COS, a, b), coeff / nu))

        for (p, k, m, phase, a, b), coeff in self._terms.items():
            emit(p, k, m, phase, a, b, coeff)
        return TrigSeries(self.base, raw)

    def derivative(self) -> "TrigSeries":
        """Termwise d/dt (exact)."""
        raw: list[tuple[TermKey, Fraction]] = []
        for (p, k, m, phase, a, b), coeff in self._terms.items():
            if p:
                raw.append(((p - 1, k, m, phase, a, b), coeff * p))
            nu = self.base.nu(k, m)
            if nu != 0:
                if phase == COS:
                    raw.append(((p, k, m, SIN, a, b), -coeff * nu))
                else:
                    raw.append(((p, k, m, COS, a, b), coeff * nu))
        return TrigSeries(self.base, raw)

    # -- numerics ----------------------------------------------------------

    def evaluate(self, t: float, c0: float = 1.0, s0: float = 0.0) -> float:
        """Floating evaluation; rationals are converted only here."""
        return _evaluate_table(_float_table(self), t, c0, s0)

    # -- presentation --------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        """JSON-ready term list sorted by (p, k, m, phase).

        Each entry is {"p", "k", "m", "phase", "num", "den"}; a
        "generators" object is attached only when c0/s0 powers occur.
        """
        out = []
        for (p, k, m, phase, a, b), coeff in self.terms():
            obj = {
                "p": p,
                "k": k,
                "m": m,
                "phase": _PHASE_NAMES[phase],
                "num": coeff.numerator,
                "den": coeff.denominator,
            }
            if a or b:
                obj["generators"] = {"c0": a, "s0": b}
            out.append(obj)
        return out

    def pretty(self) -> str:
        """Human-readable rendering, harmonics grouped in key order."""
        if self.is_zero:
            return "0"
        bits = []
        for (p, k, m, phase, a, b), coeff in self.terms():
            factors = [str(coeff)]
            if a:
                factors.append("c0" if a == 1 else f"c0^{a}")
            if b:
                factors.append("s0" if b == 1 else f"s0^{b}")
            if p:
                factors.append("t" if p == 1 else f"t^{p}")
            if (k, m) != (0, 0):
                parts = []
                if k:
                    parts.append(f"{k}w" if k != 1 else "w")
                if m:
                    sign = "+" if (m > 0 and k) else ""
                    parts.append(f"{sign}{m}w1" if m != 1 or k else ("+w1" if k else "w1"))
                factors.append(f"{_PHASE_NAMES[phase]}(({''.join(parts)})t)")
            bits.append(" * ".join(factors))
        return "  +  ".join(bits)

    def __repr__(self):
        return f"TrigSeries({self.pretty()})"


def _float_table(series: TrigSeries) -> list[tuple]:
    """The terms as (k*omega + m*omega1, phase, p, a, b, coefficient) floats, in storage order."""
    om, om1 = float(series.base.omega), float(series.base.omega1)
    return [(k * om + m * om1, phase, p, a, b, float(coeff))
            for (p, k, m, phase, a, b), coeff in series._terms.items()]


def _evaluate_table(table: list[tuple], t: float, c0: float, s0: float) -> float:
    """The value at t; a zero power is a factor 1.0, which changes no bit."""
    total = 0.0
    for nu, phase, p, a, b, coeff in table:
        trig = math.cos(nu * t) if phase == COS else math.sin(nu * t)
        total += coeff * trig * t ** p * c0 ** a * s0 ** b
    return total


_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
