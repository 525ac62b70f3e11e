"""Deterministic CSV/JSON emission, streamed to disk a block at a time.

Data files carry no timestamps and use fixed formatting, so identical
runs produce byte-identical output.  Each format has one encoder, a
generator of pieces (``csv_chunks``, ``json_chunks``, ``tabular_chunks``)
that ``columns_csv``, ``json_text``, ``columns_json`` and ``tabular``
join; a block of table rows is one ``%`` per row by a template built once
per block, and a row's text does not depend on its block.  An integral's
orders (QuadFormSeries, from ``FormalIntegral.json_document``) are each
converted to JSON as they are written.

Where the process may use two CPUs and runs no other thread, a table of
more than two blocks, or orders whose numerators hold at least
``_ORDERS_FORK_BITS`` bits, is split once where its two parts can be made
without each other's items (``_formatted``): a list or tuple is sliced, an
orbit's table (``OrbitBlocks``) is split where a period starts.  A forked
worker, bound off this process's CPU, formats the tail into an unlinked spool
beside the file being written (else in the temp directory) while this process
formats the head, whose pieces the spool's text follows, read back
``_SPOOL_PIECE`` characters at a time.  Any other iterable is formatted by this
process alone.  ``atomic_write_chunks`` writes the pieces to a temp
file and renames it after the last, so no command holds a whole document or
table; a table's first piece is its head with its first block, read before the
temp file is made, so bad input or an overflow there is named before an
unwritable path.  ``trajectory_rows`` and ``section_rows`` rebuild the rows of
an orbit and of a section from their samples, as references for those tables.
"""

from __future__ import annotations

import gc
import json
import math
import os
import tempfile
import threading
from contextlib import suppress
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .builder import QuadFormSeries, SystemParams
from .dynamics import OrbitBlocks, OrbitSample, _distance
from .errors import InvalidInput


def atomic_write_text(path: str, text: str):
    """Write ``text`` by ``atomic_write_chunks``."""
    atomic_write_chunks(path, (text,))


def atomic_write_chunks(path: str, chunks: Iterable[str]):
    """Write the pieces to a temp file, renamed to ``path`` after the last one.

    A symbolic link is followed to its target, as open(path, "w") does.  Any
    exception, the pieces' own included, removes the temp file and leaves
    ``path`` as it was; an OSError becomes InvalidInput naming ``path``.  A worker
    forked for the pieces spools beside ``path``."""
    global _spool_dir
    target = os.path.realpath(path)
    umask = os.umask(0o022)  # os.umask reads the mask only by setting it
    os.umask(umask)
    tmp, pieces, outer = None, iter(chunks), _spool_dir
    try:
        _spool_dir = os.path.dirname(target)
        # a table's first piece holds its first block: bad input or an overflow
        # there is reported before the path is tried
        chunks = chain((next(pieces, ""),), pieces)
        fd, tmp = tempfile.mkstemp(dir=_spool_dir, prefix=".tmp-", text=True)
        # mkstemp creates 0o600; give the mode open(path, "w") would give
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, target)
        tmp = None
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from None
    finally:
        _spool_dir = outer
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
    json_text falls back to json.dumps, this raises RecursionError; an int past Python's
    digit limit raises ValueError unless the caller lifts it, as the CLI does."""
    yield from _chunks(obj, 0, {})
    yield "\n"


_DEPTH = 3  # the levels whose containers json_chunks splits into pieces
_BLOCK = 1024  # the items of a list, or the rows of a table, in one block
_SPOOL_PIECE = 1 << 16  # the characters of a worker's text read back as one piece
_in_worker = False  # set in a worker, which forks none of its own
_spool_dir = None  # the directory of the file atomic_write_chunks writes, else the temp one


_Pieces = Callable[[list, int], Iterable[str]]  # pieces(block, i): text of items i, i + 1, ...


def _formatted(items: Iterable, pieces: _Pieces, parts: tuple | None) -> Iterator[str]:
    """The pieces of each block of up to ``_BLOCK`` items.  Where the caller gives the
    ``parts`` (h, the head, the tail), items 0 to h - 1 and h, h + 1, ..., each made
    without the other's items, and ``_may_fork`` allows, a worker (``_fork``) spools the
    pieces of the tail while this process yields the head's.  Once the worker reports
    its spool whole, this process yields its text ``_SPOOL_PIECE`` characters at a time;
    else it goes on with its own tail, so an error comes from the same item as on one
    process.  The worker is reaped and the spool closed on every way out."""
    pid, h, head, tail = None, 0, items, ()
    if parts and _may_fork():
        h, head, tail = parts
        pid, spool, done = _fork(tail, pieces, h)
    try:
        yield from _blocks(iter(head), pieces, 0)
        if pid and os.read(done, 1):  # the worker's one byte, or b"" once it is gone
            spool.seek(0)
            yield from iter(lambda: spool.read(_SPOOL_PIECE), "")
        else:
            yield from _blocks(iter(tail), pieces, h)
    except BaseException:
        if pid:
            import signal  # only here: it takes a millisecond to import
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:
            os.waitpid(pid, 0)
            os.close(done)
            spool.close()
            gc.unfreeze()


def _blocks(items: Iterator, pieces: _Pieces, i: int) -> Iterator[str]:
    """The pieces of each block of up to ``_BLOCK`` of the items, the first item i."""
    for block in iter(lambda: list(islice(items, _BLOCK)), []):
        yield from pieces(block, i)
        i += len(block)


def _may_fork() -> bool:
    """Whether os.fork exists, this process may run on two or more CPUs, no
    other thread runs (fork copies only the calling one) and it is no worker."""
    affinity = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
    return (not _in_worker and hasattr(os, "fork") and threading.active_count() == 1
            and len(affinity(0)) >= 2)


def _fork(tail: Iterable, pieces: _Pieces, h: int):
    """(pid, spool, read end of a pipe) of a worker that iterates its own copy of the
    tail, items h, h + 1, ..., spools their pieces to an unlinked file beside the file
    being written (``_spool_dir``), then writes one byte to the pipe and leaves by
    os._exit; or (None, None, None) if no file, pipe or process is to be had.  This
    process's objects stay out of the cyclic collector (``gc.freeze``) until the
    worker is reaped: a full collection would write to every object's header and
    copy every shared page (10-14 ms in a 27 MB process on 2 CPUs)."""
    global _in_worker
    spool, fds = None, ()
    try:
        spool = tempfile.TemporaryFile("w+", encoding="utf-8", dir=_spool_dir)
        fds = done, ready = os.pipe()
        gc.freeze()
        cpu = _cpu()
        pid = os.fork()
    except OSError:
        gc.unfreeze()
        for fd in fds:
            os.close(fd)
        if spool:
            spool.close()
        return None, None, None
    if pid:
        os.close(ready)
        with suppress(AttributeError, OSError):  # else it waits on this CPU, may stay all its life
            if cpu is not None and (allowed := os.sched_getaffinity(0) - {cpu}):
                os.sched_setaffinity(pid, allowed)
        return pid, spool, done
    try:
        _in_worker = True
        os.close(done)
        spool.writelines(_blocks(iter(tail), pieces, h))
        spool.flush()
        os.write(ready, b"\1")
    finally:
        os._exit(0)


def _cpu() -> int | None:
    """The CPU this thread last ran on (field 39 of Linux's /proc/thread-self/stat), or None."""
    with suppress(OSError, ValueError, IndexError), open("/proc/thread-self/stat", "rb") as stat:
        return int(stat.read().rpartition(b")")[2].split()[36])


def _table_rows(header: Sequence[str], rows) -> tuple:
    """(rows, parts, fixed).  A list, tuple or ``OrbitBlocks`` of over two blocks has the
    ``parts`` of ``_formatted`` at its middle row h, any other iterable none: a worker
    costs 2.0-2.6 ms at 20 MB on 2 CPUs, repaid by a 64-sample orbit from about 2,000
    rows (two processes were faster in 6-7 of 30 runs at 1,089 rows, 1-18 at 1,537 and
    16-29 at 2,049; in process, 4 sets of 30 alternating runs).  A list or tuple is
    sliced at h; an ``OrbitBlocks`` gives the ``ORBIT_COLUMNS`` the header names, the
    parts of its ``split`` and fixed rows, each of the first row's types."""
    n = len(rows) if isinstance(rows, (list, tuple, OrbitBlocks)) else 0
    h = n - n // 2
    if not isinstance(rows, OrbitBlocks):
        return rows, (h, rows[:h], rows[h:]) if n > 2 * _BLOCK else None, False
    columns = [ORBIT_COLUMNS.index(name) for name in header]
    cut = itemgetter(*columns) if len(columns) > 1 else lambda row: (row[columns[0]],)

    def flat(blocks):
        cells = chain.from_iterable(blocks)
        return cells if tuple(header) == ORBIT_COLUMNS else map(cut, cells)

    h, head, tail = rows.split(h)  # generators, which make no row unless iterated
    return flat(rows), (h, flat(head), flat(tail)) if n > 2 * _BLOCK else None, True


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


def _list_chunks(items: Iterable, level: int, templates: dict[tuple, tuple],
                 parts: tuple | None = None, fixed: bool = False) -> Iterator[str]:
    """A JSON list of any iterable's items, a block at a time, split into ``parts``
    between two processes (``_formatted``); ``fixed`` as for ``_table``.  A list or tuple of an
    integral's orders (QuadFormSeries) goes an order at a time, each converted to its
    JSON object (``QuadFormSeries.to_json_obj``, which reduces its coefficients) as it
    is formatted, sliced at the first order where the cumulative numerator bits reach
    half of all, if all reach ``_ORDERS_FORK_BITS``."""
    outer, convert = "\n" + "  " * (level + 1), None
    if type(items) in (list, tuple) and items and all(
            type(q) is QuadFormSeries for q in items):
        bits = list(accumulate(sum(s._numerator_bits() for s in (q.cxx, q.cyy, q.cxy))
                               for q in items))
        convert = QuadFormSeries.to_json_obj
        if bits[-1] >= _ORDERS_FORK_BITS:
            h = next(i for i, b in enumerate(bits) if 2 * b >= bits[-1])
            parts = h, items[:h], items[h:]

    def pieces(block: list, i: int) -> Iterator[str]:
        if (table := _table(block, level, fixed)) is not None:
            yield ("," if i else "[") + outer + table
            return
        for i, item in enumerate(block, i):
            yield ("," if i else "[") + outer
            yield from _chunks(convert(item) if convert else item, level + 1, templates)

    empty = True
    for piece in _formatted(items, pieces, parts):
        yield piece
        empty = False
    yield "[]" if empty else "\n" + "  " * level + "]"


#: the numerator bits of an integral's orders from which two processes write them: the
#: worker's 2.0-2.6 ms (fork, start, reaping) is repaid from about order 22 to 24 at
#: omega1 = 9/10 (order 24 holds 695,492 bits, order 26 944,992, order 28 1,255,992)
_ORDERS_FORK_BITS = 800_000


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


def _table(rows: list, level: int, fixed: bool = False) -> str | None:
    """The rows joined at ``level`` + 1 by one row template, or None.  ``fixed`` rows (each
    of the types of the first) take the first row's template unless their sum is not
    finite: a NaN or infinity (or a sum past float64) leaves them to the item path."""
    if fixed:
        slots = [{int: "%d", float: "%r"}.get(type(cell)) for cell in rows[0]]
        if None in slots or not math.isfinite(sum(chain.from_iterable(rows))):
            return None
    elif not (all(isinstance(row, (tuple, list)) for row in rows) and rows[0]
              and len(set(map(len, rows))) == 1):
        return None
    else:
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
    template = "[" + inner + ("," + inner).join(slots) + outer + "]"
    return ("," + outer).join(map(template.__mod__, map(tuple, rows)))


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
    return [(i // samples_per_period, t, x, y, E, _distance(om1, x, y), math.hypot(x, y))
            for i, (_, t, x, y, E, _, _) in enumerate(samples)]


def section_rows(points: Sequence[OrbitSample], params: SystemParams) -> list[tuple]:
    """Rows k,t,x,y,E,d,r of a section, t = kT and d, r recomputed from x and y."""
    T, om1 = params.period, float(params.omega1)
    return [(k, k * T, x, y, E, _distance(om1, x, y), math.hypot(x, y))
            for k, _, x, y, E, _, _ in points]


def columns_csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """One line per row: str and int (bool too) cells as str(), others as %.17g;
    the pieces of ``csv_chunks`` joined."""
    return "".join(csv_chunks(header, rows))


def csv_chunks(header: Sequence[str], rows: Iterable[tuple] | OrbitBlocks) -> Iterator[str]:
    """The text of columns_csv(header, rows): the header line with the first block, then one
    piece per later block of up to ``_BLOCK`` rows.  A block of rows of one length whose
    columns each hold only str and int cells or only other cells takes one ``%`` template;
    in any other block each row takes its own.  A list, tuple or orbit's ``OrbitBlocks`` of
    more than two blocks may be split between two processes (``_formatted``), as
    ``_table_rows`` says; any other iterable is formatted by this process alone."""
    rows, parts, fixed = _table_rows(header, rows)
    yield from _with_head(",".join(header) + "\n", _formatted(
        rows, lambda block, i: (_csv_text(block, fixed),), parts))


def _with_head(head: str, pieces: Iterator[str]) -> Iterator[str]:
    """``head`` joined to the first of the pieces, then the rest: ``atomic_write_chunks``
    reads a table's first block before it creates the file."""
    try:
        yield head + next(pieces, "")
        yield from pieces
    finally:
        pieces.close()


def _csv_text(block: list[tuple], fixed: bool) -> str:
    """A block's lines: by the one template of its rows (of its first, if ``fixed``), or
    each row by its own."""
    if (template := _csv_template(block[:1] if fixed else block)) is None:
        return "".join(_csv_template([row]) % row + "\n" for row in block)
    return "\n".join(map(template.__mod__, block)) + "\n"


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


def tabular_chunks(header: Sequence[str], rows: Iterable[tuple] | OrbitBlocks,
                   format: str) -> Iterator[str]:
    """The text of tabular(header, rows, format) in pieces, a block of rows at a time,
    the head with the first block; the rows split between two processes as for
    csv_chunks (a JSON block of an orbit's rows also needs a finite sum: ``_table``)."""
    if format != "json":
        yield from csv_chunks(header, rows)
        return
    rows, parts, fixed = _table_rows(header, rows)
    templates: dict[tuple, tuple] = {}
    yield from _with_head('{\n  "columns": ' + _encode(list(header), 1, templates)
                          + ',\n  "rows": ', _list_chunks(rows, 1, templates, parts, fixed))
    yield "\n}\n"
