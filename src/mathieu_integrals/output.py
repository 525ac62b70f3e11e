"""Deterministic CSV/JSON emission.

Data files carry no timestamps and use fixed formatting (17 significant
digits for floats), so identical runs produce byte-identical output.
Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Iterable, Sequence

from .builder import SystemParams
from .dynamics import PhaseState, SectionPoint


def fmt(value: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return format(value, ".17g")


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


ORBIT_COLUMNS = ("k", "t", "x", "y", "E", "d", "r")


def trajectory_rows(states: Sequence[PhaseState], params: SystemParams,
                    samples_per_period: int) -> list[tuple]:
    """Rows k,t,x,y,E,d,r; k is the period index of the sample."""
    om1 = float(params.omega1)
    rows = []
    for i, s in enumerate(states):
        d = math.sqrt(om1 * om1 * s.x * s.x + s.y * s.y)
        rows.append((i // samples_per_period, s.t, s.x, s.y, s.E, d,
                     math.hypot(s.x, s.y)))
    return rows


def section_rows(points: Sequence[SectionPoint], params: SystemParams) -> list[tuple]:
    T = params.period
    return [(p.k, p.k * T, p.x, p.y, p.E, p.d, p.r) for p in points]


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return fmt(value)


def columns_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def columns_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The same tabular payload as columns_csv, as a JSON document."""
    return json_text({"columns": list(header), "rows": [list(row) for row in rows]})


def tabular(header: Sequence[str], rows: Iterable[Sequence], format: str) -> str:
    if format == "json":
        return columns_json(header, rows)
    return columns_csv(header, rows)
