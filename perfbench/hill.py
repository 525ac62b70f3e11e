"""Pure-Python Hill-matrix stability count for the Mathieu equation.

Independent reference for ``critical-eps``: it shares no code with the
package (no ODE integration, no monodromy).  The driven oscillator
x'' + (omega1^2 - 2 eps cos(omega t)) x = 0 is the Mathieu equation with
a = 4 omega1^2 / omega^2 and q = 4 eps / omega^2.  Its characteristic
values a_0 < b_1 < a_1 < b_2 < ... are the eigenvalues of four truncated
symmetric tridiagonal Hill matrices (DLMF 28.4, Abramowitz & Stegun 20.2),
and an orbit is bounded exactly when an odd number of them lie below a.
The count comes from a Sturm sequence (signs of the LDL^T pivots), so no
eigenvalue is ever computed.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: harmonics kept per Hill matrix; the characteristic values near a <= 10
#: and |q| <= 4 converge to machine precision far below this size
SIZE = 40


def _matrices(q: float, size: int) -> list[tuple[list[float], list[float]]]:
    """(diagonal, off-diagonal) of the four Hill matrices for a_2n, b_2n+2, a_2n+1, b_2n+1."""
    even_a = ([float((2 * m) ** 2) for m in range(size)],
              [math.sqrt(2.0) * q] + [q] * (size - 2))
    even_b = ([float((2 * m) ** 2) for m in range(1, size + 1)], [q] * (size - 1))
    odd = [float((2 * m + 1) ** 2) for m in range(size)]
    odd_a = ([odd[0] + q] + odd[1:], [q] * (size - 1))
    odd_b = ([odd[0] - q] + odd[1:], [q] * (size - 1))
    return [even_a, even_b, odd_a, odd_b]


def _count_below(diag: list[float], off: list[float], a: float) -> int:
    """Eigenvalues of the tridiagonal matrix below a (Sturm count)."""
    count = 0
    pivot = diag[0] - a
    for i in range(len(diag)):
        if i:
            if pivot == 0.0:
                pivot = 1e-300
            pivot = diag[i] - a - off[i - 1] ** 2 / pivot
        if pivot < 0.0:
            count += 1
    return count


def stable(omega: Fraction, omega1: Fraction, eps: float, size: int = SIZE) -> bool:
    """Is the orbit bounded at this eps (strictly inside a stability band)?"""
    a = float(4 * omega1 ** 2 / omega ** 2)
    q = 4.0 * eps / float(omega) ** 2
    return sum(_count_below(d, o, a) for d, o in _matrices(q, size)) % 2 == 1


def first_boundary(omega: Fraction, omega1: Fraction, sign: int = 1,
                   step: float = 1e-4, limit: float = 10.0, tol: float = 1e-13,
                   size: int = SIZE) -> float:
    """The first eps (in the direction of ``sign``) where stability is lost.

    Scans |eps| upward in ``step`` increments, so no instability tongue
    wider than ``step`` can be skipped, then bisects the count to ``tol``.
    """
    lo = 0.0
    hi = step
    while stable(omega, omega1, sign * hi, size):
        lo, hi = hi, hi + step
        if hi > limit:
            raise ValueError(f"no instability found up to |eps| = {limit}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(omega, omega1, sign * mid, size):
            lo = mid
        else:
            hi = mid
    return sign * 0.5 * (lo + hi)
