"""Deterministic CSV/JSON emission, streamed to disk a block at a time.

Data files carry no timestamps and use fixed formatting, so identical
runs produce byte-identical output.  Each format has one encoder, a
generator of pieces (``csv_chunks``, ``json_chunks``, ``tabular_chunks``)
that ``columns_csv``, ``json_text``, ``columns_json`` and ``tabular``
join; a block of table rows is one ``%`` per row by a template built once
per block.  A table of more than one block (CSV, or a JSON list whose first
block takes a row template) is formatted on two CPUs where the process may
use two and runs no other thread: a forked worker, a copy-on-write copy of
this process that iterates its own copy of the rows, formats the second half
of every block (``_formatted``).  An integral's orders, handed over as
QuadFormSeries (``FormalIntegral.json_document``), are converted here as
they are written, each coefficient reduced by one gcd; where their
numerators hold at least ``_ORDERS_FORK_BITS`` bits (``build-integral``
from order 26 at omega1 = 9/10) the same kind of worker writes the odd
orders while this process writes the even ones: ``build-integral --order
40 --out`` takes about 143 ms in process instead of 185 ms on one process.
``atomic_write_chunks`` writes the pieces to a temp file as they are made
and renames it after the last, so no command holds a whole document or
table; a table's first piece is its head with its first block, read before
the temp file is made, so bad input or an overflow there is named before
an unwritable path.  An orbit sample is a table row:
the CLI streams ``dynamics.orbit_blocks`` rows, and OrbitSamples format
alike.  ``trajectory_rows`` and ``section_rows`` rebuild the rows of an
orbit and of a section from their samples, as references for those tables.
"""

from __future__ import annotations

import gc
import json
import math
import os
import tempfile
import threading
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .builder import QuadFormSeries, SystemParams
from .dynamics import OrbitSample
from .errors import InvalidInput


def atomic_write_text(path: str, text: str):
    """Write ``text`` by ``atomic_write_chunks``."""
    atomic_write_chunks(path, (text,))


def atomic_write_chunks(path: str, chunks: Iterable[str]):
    """Write the pieces to a temp file, renamed to ``path`` after the last one.

    A symbolic link is followed to its target, as open(path, "w") does.  Any
    exception, the pieces' own included, removes the temp file and leaves
    ``path`` as it was; an OSError becomes InvalidInput naming ``path``."""
    target = os.path.realpath(path)
    umask = os.umask(0o022)  # os.umask reads the mask only by setting it
    os.umask(umask)
    tmp, pieces = None, iter(chunks)
    try:
        # a table's first piece holds its first block: bad input or an overflow
        # there is reported before the path is tried
        chunks = chain((next(pieces, ""),), pieces)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-", text=True)
        # mkstemp creates 0o600; give the mode open(path, "w") would give
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, target)
        tmp = None
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if hasattr(pieces, "close"):  # a generator's worker ends with it
            pieces.close()
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
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, byte for byte:
    the pieces of ``json_chunks`` joined."""
    try:
        return "".join(json_chunks(obj))
    except RecursionError:  # a circular reference, or nesting too deep: json's error
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def json_chunks(obj) -> Iterator[str]:
    """The text of json_text(obj) in pieces.

    Each item of a dict with str keys, list or tuple in the top ``_DEPTH``
    levels is a piece, and a list goes ``_BLOCK`` items at a time: a block
    of equal-length tuple or list rows whose columns are each all exact ints
    (%d) or all finite exact floats (%r) is one piece by one row template.
    Deeper, a dict is one ``%`` by a template per (level, keys, value
    types); anything else goes to json.dumps, indented to its depth.  Where
    json_text falls back to json.dumps, this raises RecursionError."""
    yield from _chunks(obj, 0, {})
    yield "\n"


_DEPTH = 3  # the levels whose containers json_chunks splits into pieces
_BLOCK = 1024  # the items of a list, or the rows of a table, in one block
_in_worker = False  # set in a worker, which forks none of its own


#: part(lo, hi) is the text of a block's items lo..hi, and part(0, h) + part(h, n) the whole
_Parts = Callable[[int, int], str]


def _formatted(items: Iterable, parts_of: Callable[[list], _Parts | None], per_block: int = 0,
               worth_a_worker: bool = True) -> Iterator[str | list]:
    """The text part(0, n) of each block of up to ``per_block`` (else ``_BLOCK``) items,
    part = parts_of(block), or the block itself where that is None.  Where the
    items make more than one block, the first has parts, ``worth_a_worker``
    holds and ``_may_fork`` allows, a forked worker sends part(h, n), h = n -
    n // 2, of each block through a pipe while this process formats part(0, h).
    The worker iterates its own copy of ``items``, so they must come out the
    same in both processes (a list, or a generator that computes them).  If the
    worker fails or stops sending, this process formats the rest itself; the
    worker is reaped on every way out."""
    items = iter(items)
    blocks = iter(lambda: list(islice(items, per_block or _BLOCK)), [])
    planned = ((block, parts_of(block)) for block in blocks)
    ahead = list(islice(planned, 1))
    more = list(islice(items, 1))  # a second block's first item, if there is one
    items = chain(more, items)  # which ``blocks`` reads next
    planned, pid, pipe = chain(iter(ahead), planned), None, None
    if more and ahead[0][1] is not None and worth_a_worker and _may_fork():
        pid, pipe = _fork(planned)
    del ahead  # so the first block is freed after its turn (an iterator of it, not it)
    try:
        for block, part in planned:
            n = len(block)
            h = n - n // 2 if pipe else n
            text = part(0, h) if part else None
            if part and h < n:  # the worker's part: its byte length, then its UTF-8 bytes
                size = int.from_bytes(pipe.read(8), "little")
                data = pipe.read(size)
                text += data.decode() if size and len(data) == size else part(h, n)
            yield text if part else block
            text = data = None  # freed before the next block is formatted
    except BaseException:
        if pid:
            import signal  # only here: it takes a millisecond to import
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:
            pipe.close()
            os.waitpid(pid, 0)
            gc.unfreeze()


def _may_fork() -> bool:
    """Whether os.fork exists, this process may run on two or more CPUs, no
    other thread runs (fork copies only the calling one) and it is no worker."""
    affinity = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
    return (not _in_worker and hasattr(os, "fork") and threading.active_count() == 1
            and len(affinity(0)) >= 2)


def _fork(planned: Iterator[tuple[list, _Parts | None]]):
    """(pid, read end of the pipe) of a worker sending the second part of each
    block with parts, or (None, None) if no pipe or process is to be had.  The
    worker leaves by os._exit: it flushes no buffer copied from this process.
    The objects of this process stay out of the cyclic collector until the
    caller has reaped the worker (``gc.freeze``, undone by ``gc.unfreeze``):
    a full collection in either process would otherwise write to the header
    of every object and so copy every page the two share: 10-14 ms, at points
    set by the allocations before it, in a 27 MB process on a 2-CPU x86-64 VM."""
    global _in_worker
    fds = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        gc.freeze()
        pid = os.fork()
    except OSError:
        gc.unfreeze()
        for fd in fds:
            os.close(fd)
        return None, None
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:
        _in_worker = True
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            for block, part in planned:
                if part is not None and (n := len(block)) > 1:
                    data = part(n - n // 2, n).encode()
                    pipe.write(len(data).to_bytes(8, "little") + data)
                    pipe.flush()
    finally:
        os._exit(0)


def _chunks(obj, level: int, templates: dict[tuple, tuple]) -> Iterator[str]:
    kind = type(obj)
    if level < _DEPTH and (kind is list or kind is tuple):
        yield from _list_chunks(obj, level, templates)
    elif level < _DEPTH and kind is dict and obj and all(type(key) is str for key in obj):
        head, inner = "{", "\n" + "  " * (level + 1)
        for key in sorted(obj):
            yield head + inner + encode_basestring_ascii(key) + ": "
            yield from _chunks(obj[key], level + 1, templates)
            head = ","
        yield "\n" + "  " * level + "}"
    else:
        yield _encode(obj, level, templates)


def _list_chunks(items: Iterable, level: int, templates: dict[tuple, tuple]) -> Iterator[str]:
    """A JSON list of any iterable's items, a block at a time; a list or tuple
    of an integral's orders (QuadFormSeries) goes two orders at a time, a
    worker taking the odd ones where their numerators hold at least
    ``_ORDERS_FORK_BITS`` bits (``_order_parts``)."""
    head, outer = "[", "\n" + "  " * (level + 1)
    if type(items) in (list, tuple) and items and all(
            type(q) is QuadFormSeries for q in items):
        bits = sum(s._numerator_bits() for q in items for s in (q.cxx, q.cyy, q.cxy))
        pieces = _formatted(items, lambda pair: _order_parts(pair, level, templates), 2,
                            bits >= _ORDERS_FORK_BITS)
    else:
        pieces = _formatted(items, lambda rows: _table(rows, level))
    for piece in pieces:
        if type(piece) is str:  # a block's table
            yield head + outer + piece
            head = ","
        else:
            for item in piece:
                yield head + outer
                yield from _chunks(item, level + 1, templates)
                head = ","
    yield "[]" if head == "[" else "\n" + "  " * level + "]"


#: the numerator bits of an integral's orders from which two processes write them.
#: The fork, the worker's start and its reaping cost about 5 ms, which the odd
#: orders repay from about order 24 at omega1 = 9/10 (695,492 bits: 38.8 ms on one
#: process and on two; order 26 holds 944,992 bits, order 28 1,255,992)
_ORDERS_FORK_BITS = 800_000


def _order_parts(orders: list[QuadFormSeries], level: int, templates: dict[tuple, tuple]
                 ) -> _Parts:
    """The parts of a block of orders at ``level`` + 1, each converted to its JSON
    object (``QuadFormSeries.to_json_obj``, which reduces its coefficients) as it
    is formatted: the cost of an order grows steeply with its number, so the
    two processes take alternate ones."""
    comma = ",\n" + "  " * (level + 1)
    return lambda lo, hi: (comma if lo else "") + comma.join(
        "".join(_chunks(q.to_json_obj(), level + 1, templates)) for q in orders[lo:hi])


def _encode(obj, level: int, templates: dict[tuple, tuple]) -> str:
    kind = type(obj)
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    if kind is list or kind is tuple:
        return "".join(_list_chunks(obj, level, templates))
    entry = ()
    if kind is dict:
        if not obj:
            return "{}"
        keys = tuple(obj)
        shape = (level, keys, tuple(map(type, obj.values())))
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


def _table(rows: list, level: int) -> _Parts | None:
    """The parts of the rows joined at ``level`` + 1 by one row template, or None."""
    if not (all(isinstance(row, (tuple, list)) for row in rows) and rows[0]
            and len(set(map(len, rows))) == 1):
        return None
    slots = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {int}:
            slots.append("%d")
        elif kinds == {float} and all(map(math.isfinite, column)):
            slots.append("%r")
        else:
            return None
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    template, comma = "[" + inner + ("," + inner).join(slots) + outer + "]", "," + outer
    return lambda lo, hi: (comma if lo else "") + comma.join(
        map(template.__mod__, map(tuple, rows[lo:hi])))


def _template(obj: dict, level: int, keys: tuple) -> tuple:
    """(text, getter of the slot values, (slot, converter or None to nest) pairs), or ()."""
    if not all(type(key) is str for key in keys):
        return ()
    keys = sorted(keys)
    values = [obj[key] for key in keys]
    getter = itemgetter(*keys) if len(keys) > 1 else lambda d, key=keys[0]: (d[key],)
    heads = [encode_basestring_ascii(key).replace("%", "%%") + ": " for key in keys]
    types = list(map(type, values))
    inner = "\n" + "  " * (level + 1)
    slots = ("," + inner).join(head + ("%d" if t is int else "%s")
                               for head, t in zip(heads, types))
    return ("{" + inner + slots + "\n" + "  " * level + "}", getter,
            tuple((i, _SCALARS.get(t)) for i, t in enumerate(types) if t is not int))


ORBIT_COLUMNS = OrbitSample._fields


def trajectory_rows(samples: Sequence[OrbitSample], params: SystemParams,
                    samples_per_period: int) -> list[tuple]:
    """Rows k,t,x,y,E,d,r of an orbit, k = i // spp and d, r recomputed from x and y."""
    om1 = float(params.omega1)
    sqrt, hypot = math.sqrt, math.hypot
    return [(i // samples_per_period, t, x, y, E, sqrt(om1 * om1 * x * x + y * y), hypot(x, y))
            for i, (_, t, x, y, E, _, _) in enumerate(samples)]


def section_rows(points: Sequence[OrbitSample], params: SystemParams) -> list[tuple]:
    """Rows k,t,x,y,E,d,r of a section, t = kT and d, r recomputed from x and y."""
    T, om1 = params.period, float(params.omega1)
    sqrt, hypot = math.sqrt, math.hypot
    return [(k, k * T, x, y, E, sqrt(om1 * om1 * x * x + y * y), hypot(x, y))
            for k, _, x, y, E, _, _ in points]


def columns_csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """One line per row: str and int (bool too) cells as str(), others as %.17g;
    the pieces of ``csv_chunks`` joined."""
    return "".join(csv_chunks(header, rows))


def csv_chunks(header: Sequence[str], rows: Iterable[tuple]) -> Iterator[str]:
    """The text of columns_csv(header, rows): the header line with the first
    block, then one piece per later block of up to ``_BLOCK`` rows of any
    iterable that a forked copy of this process iterates alike
    (``_formatted``).  A block of rows of one length whose columns each hold
    only str and int cells or only other cells takes one ``%`` template; in
    any other block each row takes its own."""
    yield from _with_head(",".join(header) + "\n", _formatted(rows, _csv_parts))


def _with_head(head: str, pieces: Iterator[str]) -> Iterator[str]:
    """``head`` joined to the first of the pieces, then the rest: a table's first
    piece holds its first block, so ``atomic_write_chunks`` reads that block
    before it creates the file."""
    try:
        yield head + next(pieces, "")
        yield from pieces
    finally:
        pieces.close()


def _csv_parts(block: list[tuple]) -> _Parts:
    """The parts of a block's lines: by its one template, or each row by its own."""
    if (template := _csv_template(block)) is None:
        return lambda lo, hi: "".join(_csv_template([row]) % row + "\n" for row in block[lo:hi])
    return lambda lo, hi: "\n".join(map(template.__mod__, block[lo:hi])) + "\n"


def _csv_template(rows: list[tuple]) -> str | None:
    """The one template of the rows, or None if they have none."""
    if len(set(map(len, rows))) != 1:
        return None
    slots = []
    for column in zip(*rows):
        text = {issubclass(t, (str, int)) for t in set(map(type, column))}
        if len(text) > 1:
            return None
        slots.append("%s" if True in text else "%.17g")
    return ",".join(slots)


def columns_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The same tabular payload as columns_csv, as a JSON document: json_text
    of {"columns": header, "rows": rows}, the pieces of ``tabular_chunks`` joined."""
    return "".join(tabular_chunks(header, rows, "json"))


def tabular(header: Sequence[str], rows: Iterable[tuple], format: str) -> str:
    if format == "json":
        return columns_json(header, rows)
    return columns_csv(header, rows)


def tabular_chunks(header: Sequence[str], rows: Iterable[tuple], format: str) -> Iterator[str]:
    """The text of tabular(header, rows, format) in pieces, a block of rows
    at a time, the head with the first block, from any iterable of rows that
    a forked copy iterates alike."""
    if format != "json":
        yield from csv_chunks(header, rows)
        return
    templates: dict[tuple, tuple] = {}
    yield from _with_head('{\n  "columns": ' + _encode(list(header), 1, templates)
                          + ',\n  "rows": ', _list_chunks(rows, 1, templates))
    yield "\n}\n"
