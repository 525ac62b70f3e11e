"""Test-side forms of the orbit stream.

``orbit_rows`` joins ``dynamics.orbit_blocks`` in one list of plain
tuples, the table the CLI streams; the two-process formatting tests need
plain tuples, which a forked worker iterates alike.

``tail_fit`` is the least-squares growth of log r(t) over an escaping
section's tail, the oracle for the growth rate that ``escape_diagnostics``
takes from the monodromy's larger multiplier.  It shares no code with it:
it sees only the section's samples.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple, Sequence

from mathieu_integrals.builder import SystemParams
from mathieu_integrals.dynamics import R_ESCAPE, OrbitSample, orbit_blocks
from mathieu_integrals.errors import InvalidInput


def orbit_rows(params: SystemParams, x0: float, y0: float, n_periods: int,
               samples_per_period: int = 1) -> list[tuple]:
    """The orbit table of ``orbit_blocks`` in one list, about 280 B a row."""
    return list(chain.from_iterable(
        orbit_blocks(params, x0, y0, n_periods, samples_per_period)))


class TailFit(NamedTuple):
    escaped: bool
    k_escape: int | None
    growth_rate: float | None
    r_squared: float | None


def tail_fit(section: Sequence[OrbitSample], r_escape: float = R_ESCAPE) -> TailFit:
    """Escape test and least-squares growth of log r(t) over the tail.

    ``escaped`` is true iff r exceeds ``r_escape``; the growth rate is
    the slope of log r versus t fitted over the post-transient tail
    (the second half of the points up to the first threshold crossing).
    """
    if not section:
        raise InvalidInput("escape_diagnostics needs a non-empty section")
    if not 0.0 < r_escape < math.inf:
        raise InvalidInput(f"the escape radius must be positive and finite, got {r_escape}")
    cut = len(section)
    k_escape = None
    for i, pt in enumerate(section):
        if pt.r > r_escape:
            cut = i + 1
            k_escape = pt.k
            break
    escaped = k_escape is not None
    tail = section[cut // 2: cut]
    if not escaped or len(tail) < 3:
        return TailFit(escaped, k_escape, None, None)
    ts = [pt.t for pt in tail]
    ls = [math.log(pt.r) for pt in tail]
    n = len(ts)
    tbar = sum(ts) / n
    lbar = sum(ls) / n
    stt = sum((t - tbar) ** 2 for t in ts)
    stl = sum((t - tbar) * (l - lbar) for t, l in zip(ts, ls))
    slope = stl / stt
    ss_res = sum((l - lbar - slope * (t - tbar)) ** 2 for t, l in zip(ts, ls))
    ss_tot = sum((l - lbar) ** 2 for l in ls)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return TailFit(True, k_escape, slope, r2)
