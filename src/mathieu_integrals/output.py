"""Deterministic CSV/JSON emission.

Data files carry no timestamps and use fixed formatting, so identical
runs produce byte-identical output.  Each CSV row and each JSON container
is one ``%`` with a template built once per shape; a JSON table whose
columns are each all ints or all finite floats has one row template.
``trajectory_rows`` and ``section_rows`` turn samples into table rows;
the ``orbit`` command's table comes from ``dynamics.orbit_rows``, built
as it propagates, and ``trajectory_rows`` is its reference.  Files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Sequence

from .builder import SystemParams
from .dynamics import PhaseState, SectionPoint
from .errors import InvalidInput


def atomic_write_text(path: str, text: str):
    """Write by a temp file and a rename; an OSError becomes InvalidInput naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0o022)  # os.umask reads the mask only by setting it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        # mkstemp creates 0o600; give the mode open(path, "w") would give
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _float_text(value: float) -> str:
    """A float as json spells it: repr, or NaN, Infinity, -Infinity."""
    if value - value == 0.0:
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


#: JSON text per exact scalar type (a template takes an int as %d)
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
            bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, byte for byte.

    A dict with str keys, list or tuple is one ``%`` with a template per
    (level, keys, value types): ints fill %d slots, other values their
    JSON text.  Anything else goes to json.dumps, indented to its depth.
    """
    try:
        return _encode(obj, 0, {}) + "\n"
    except RecursionError:  # a circular reference, or nesting too deep: json's error
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _encode(obj, level: int, templates: dict[tuple, tuple]) -> str:
    kind = type(obj)
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    entry = ()
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        keys = tuple(obj) if kind is dict else None
        shape = (level, keys, tuple(map(type, obj if keys is None else obj.values())))
        entry = templates.get(shape)
        if entry is None:
            entry = templates[shape] = _template(obj, level, keys)
    if not entry:  # not a container, or a dict with a key that is not a str
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)
    text, getter, conversions = entry
    args = list(getter(obj))
    for i, convert in conversions:
        args[i] = _encode(args[i], level + 1, templates) if convert is None else convert(args[i])
    return text % tuple(args)


def _template(obj, level: int, keys: tuple | None) -> tuple:
    """(text, getter of the slot values, (slot, converter or None to nest) pairs), or ()."""
    if keys is None:
        values, getter, heads, ends = obj, tuple, [""] * len(obj), "[]"
    elif all(type(key) is str for key in keys):
        keys = sorted(keys)
        values = [obj[key] for key in keys]
        getter = itemgetter(*keys) if len(keys) > 1 else lambda d, key=keys[0]: (d[key],)
        heads = [encode_basestring_ascii(key).replace("%", "%%") + ": " for key in keys]
        ends = "{}"
    else:
        return ()
    types = list(map(type, values))
    inner = "\n" + "  " * (level + 1)
    slots = ("," + inner).join(head + ("%d" if t is int else "%s")
                               for head, t in zip(heads, types))
    return (ends[0] + inner + slots + "\n" + "  " * level + ends[1], getter,
            tuple((i, _SCALARS.get(t)) for i, t in enumerate(types) if t is not int))


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
    """The same tabular payload as columns_csv, as a JSON document: ``json_text``'s bytes.

    A table of equal-length tuple or list rows in which every column is
    all exact ints or all finite exact floats is one row template, %d per
    int column and %r (float.__repr__, json's spelling) per float column,
    applied to each row; any other table goes to ``json_text``.
    """
    rows = list(rows)
    if set(map(type, rows)) <= {tuple, list} and len(set(map(len, rows))) == 1 and rows[0]:
        slots = []
        for column in zip(*rows):
            kinds = set(map(type, column))
            if kinds == {int}:
                slots.append("%d")
            elif kinds == {float} and all(map(math.isfinite, column)):
                slots.append("%r")
            else:
                break
        else:
            template = "[\n      " + ",\n      ".join(slots) + "\n    ]"
            return ('{\n  "columns": ' + _encode(list(header), 1, {}) + ',\n  "rows": [\n    '
                    + ",\n    ".join(map(template.__mod__, map(tuple, rows))) + "\n  ]\n}\n")
    return json_text({"columns": list(header), "rows": rows})


def tabular(header: Sequence[str], rows: Iterable[tuple], format: str) -> str:
    if format == "json":
        return columns_json(header, rows)
    return columns_csv(header, rows)
