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
* A series stores integer numerators over one positive denominator,
  not necessarily the least.  Fractions are made only when a caller
  reads a coefficient exactly; the float table divides the integers,
  and the JSON terms reduce each numerator by one gcd.
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


class _Value:
    """An immutable record of the fields its class names in ``__slots__`` (bar the
    ``"__dict__"`` a ``cached_property`` needs), set by its ``__init__`` with ``_set``:
    equality, hash and repr as a frozen dataclass has them, written here so that no
    code is generated at import.  Copies and pickles call the class again."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class FrequencyBase(_Value):
    """The rational frequency pair (omega, omega1) a series lives over."""

    __slots__ = ("omega", "omega1")

    def __init__(self, omega: Fraction, omega1: Fraction):
        if not isinstance(omega, Fraction) or not isinstance(omega1, Fraction):
            raise TypeError("FrequencyBase requires Fraction frequencies")
        if omega <= 0 or omega1 <= 0:
            raise ValueError("omega and omega1 must be positive")
        self._set(omega, omega1)

    def nu(self, k: int, m: int) -> Fraction:
        """Exact frequency value k*omega + m*omega1."""
        return k * self.omega + m * self.omega1


def _reduce_generators(a: int, b: int, coeff: int | Fraction
                       ) -> Iterator[tuple[int, int, int | Fraction]]:
    """Rewrite c0^a s0^b with a >= 2 using c0^2 = 1 - s0^2: the one owner of that rule.

    Yields (a', b', coeff') monomials with a' in {0, 1}, s0 powers
    ascending; an int coefficient stays an int.
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

    __slots__ = ("base", "_nums", "_den")

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
                tot = acc.get(key, 0) + cc
                if tot:
                    acc[key] = tot
                else:
                    acc.pop(key, None)
        den = math.lcm(*(c.denominator for c in acc.values()))
        self.base, self._den = base, den
        self._nums = {key: c.numerator * (den // c.denominator) for key, c in acc.items()}

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
        """Series with coefficients n/den, den > 0, zeros pruned; the keys must
        already be canonical."""
        out = cls.__new__(cls)
        out.base, out._nums, out._den = base, {key: n for key, n in nums.items() if n}, den
        return out

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms sorted by (p, k, m, phase, a, b)."""
        return sorted((key, Fraction(n, self._den)) for key, n in self._nums.items())

    def coefficient(self, p: int, k: int, m: int, phase: int,
                    c0_pow: int = 0, s0_pow: int = 0) -> Fraction:
        return Fraction(self._nums.get((p, k, m, phase, c0_pow, s0_pow), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def max_secular_degree(self) -> int:
        return max((key[0] for key in self._nums), default=0)

    def max_harmonic(self) -> int:
        """Largest |k| (driving-frequency multiple) present."""
        return max((abs(key[1]) for key in self._nums), default=0)

    def m_values(self) -> set[int]:
        return {key[2] for key in self._nums}

    def _numerator_bits(self) -> int:
        """The bit lengths of the stored numerators, summed: the size of writing them."""
        return sum(n.bit_length() for n in self._nums.values())

    def secular_part(self) -> "TrigSeries":
        """The sub-series with secular degree >= 1."""
        return TrigSeries._from_numerators(
            self.base, {key: n for key, n in self._nums.items() if key[0] >= 1}, self._den)

    def constant_at_zero(self) -> Fraction:
        """Exact value at t = 0 for generator-free series.

        Raises ValueError when a surviving term carries c0/s0 powers,
        because then the value depends on the phase binding.
        """
        total = 0
        for (p, _k, _m, phase, a, b), n in self._nums.items():
            if p > 0 or phase == SIN:
                continue
            if a or b:
                raise ValueError("series has phase-generator content; evaluate numerically")
            total += n
        return Fraction(total, self._den)

    # -- algebra ---------------------------------------------------------

    def _check_base(self, other: "TrigSeries"):
        if self.base != other.base:
            raise ValueError("series live over different (omega, omega1) bases")

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return NotImplemented
        self._check_base(other)
        den = math.lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        merged = {key: n * f for key, n in self._nums.items()}
        for key, n in other._nums.items():
            merged[key] = merged.get(key, 0) + n * g
        return TrigSeries._from_numerators(self.base, merged, den)

    def __neg__(self) -> "TrigSeries":
        return TrigSeries._from_numerators(
            self.base, {key: -n for key, n in self._nums.items()}, self._den)

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "TrigSeries":
        """Multiply by an exact rational scalar."""
        f = as_rational(factor)
        return TrigSeries._from_numerators(
            self.base, {key: n * f.numerator for key, n in self._nums.items()},
            self._den * f.denominator)

    def __mul__(self, other):
        if isinstance(other, TrigSeries):
            self._check_base(other)
            raw: list[tuple[TermKey, Fraction]] = []
            den = 2 * self._den * other._den
            for (p1, k1, m1, ph1, a1, b1), n1 in self._nums.items():
                for (p2, k2, m2, ph2, a2, b2), n2 in other._nums.items():
                    p, a, b = p1 + p2, a1 + a2, b1 + b2
                    half = Fraction(n1 * n2, den)
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
        """Equal values: the same keys, and n1/d1 == n2/d2 for each."""
        if not isinstance(other, TrigSeries):
            return NotImplemented
        d1, d2, theirs = self._den, other._den, other._nums
        return (self.base == other.base and self._nums.keys() == theirs.keys()
                and all(n * d2 == theirs[key] * d1 for key, n in self._nums.items()))

    def __hash__(self):
        return hash((self.base, frozenset(
            (key, Fraction(n, self._den)) for key, n in self._nums.items())))

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

        for (p, k, m, phase, a, b), n in self._nums.items():
            emit(p, k, m, phase, a, b, Fraction(n, self._den))
        return TrigSeries(self.base, raw)

    def derivative(self) -> "TrigSeries":
        """Termwise d/dt (exact)."""
        raw: list[tuple[TermKey, Fraction]] = []
        for (p, k, m, phase, a, b), n in self._nums.items():
            coeff = Fraction(n, self._den)
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

        Each entry is {"p", "k", "m", "phase", "num", "den"}, the coefficient
        in lowest terms by one gcd, making no Fraction; a "generators" object
        is attached only when c0/s0 powers occur.
        """
        out, den = [], self._den
        for (p, k, m, phase, a, b), num in sorted(self._nums.items()):
            g = math.gcd(num, den)
            obj = {
                "p": p,
                "k": k,
                "m": m,
                "phase": _PHASE_NAMES[phase],
                "num": num // g,
                "den": den // g,
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
    """The terms as (k*omega + m*omega1, phase, p, a, b, coefficient) floats, in storage order.

    Each coefficient is n / den: int true division is correctly rounded, so it
    is float(Fraction(n, den)) to the bit, whether or not n / den is reduced."""
    om, om1, den = float(series.base.omega), float(series.base.omega1), series._den
    return [(k * om + m * om1, phase, p, a, b, n / den)
            for (p, k, m, phase, a, b), n in series._nums.items()]


def _evaluate_table(table: list[tuple], t: float, c0: float, s0: float) -> float:
    """The value at t; a zero power is a factor 1.0, which changes no bit."""
    total = 0.0
    for nu, phase, p, a, b, coeff in table:
        trig = math.cos(nu * t) if phase == COS else math.sin(nu * t)
        total += coeff * trig * t ** p * c0 ** a * s0 ** b
    return total

