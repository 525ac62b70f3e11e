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


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0o022)  # os.umask reads the mask only by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        # mkstemp creates 0o600; give the mode open(path, "w") would give
        os.chmod(tmp, 0o666 & ~umask)
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
    sqrt, hypot = math.sqrt, math.hypot
    return [(i // samples_per_period, t, x, y, E, sqrt(om1 * om1 * x * x + y * y), hypot(x, y))
            for i, (x, y, t, E) in enumerate(states)]


def section_rows(points: Sequence[SectionPoint], params: SystemParams) -> list[tuple]:
    T = params.period
    return [(k, k * T, x, y, E, d, r) for x, y, E, k, d, r in points]


def columns_csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """One line per row: str and int (bool too) cells as str(), others as %.17g.

    Each row is formatted by one ``%`` with a template built once per
    tuple of cell types, looked up per row because a column's type may
    change between rows.
    """
    lines = [",".join(header)]
    templates: dict[tuple, str] = {}
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join(
                "%s" if issubclass(t, (str, int)) else "%.17g" for t in types)
        lines.append(template % row)
    return "\n".join(lines) + "\n"


def columns_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The same tabular payload as columns_csv, as a JSON document."""
    return json_text({"columns": list(header), "rows": [list(row) for row in rows]})


def tabular(header: Sequence[str], rows: Iterable[tuple], format: str) -> str:
    if format == "json":
        return columns_json(header, rows)
    return columns_csv(header, rows)
