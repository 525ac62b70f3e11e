"""CSV and JSON formatting and file writing in ``output``.

``columns_csv`` formats each row with one ``%`` template; the reference
below is the per-cell formatter it replaced, kept verbatim, and every
table must come out byte for byte the same.  ``json_text`` formats each
container with one ``%`` template; its reference is
``json.dumps(obj, indent=2, sort_keys=True)``.
"""

import collections
import contextlib
import gc
import json
import math
import os
import re
import signal
import stat
import tempfile
import threading
import time
from fractions import Fraction as F
from typing import Callable, Iterable, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_integrals import (SystemParams, Unbounded, build_integral, conic_at_section,
                               convergence_study, dynamics, integrate_orbit, output,
                               stroboscopic_section)
from mathieu_integrals.errors import InvalidInput
from orbit_reference import orbit_rows
import series_reference as ref


# -- reference: the per-cell formatter, verbatim -------------------------------

def fmt(value: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return format(value, ".17g")


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


# ------------------------------------------------------------------------------

def _around(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


#: where %.17g changes notation, and the ends of the float64 range
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                  *_around(1e16), *_around(1e17), *_around(-1e16), *_around(-1e17),
                  9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5, 0.1, 1 / 3]

cells = st.one_of(
    st.integers(),
    st.booleans(),
    st.text(max_size=6),
    st.floats(),
    st.floats(min_value=1e15, max_value=1e18),
    st.sampled_from(SPECIAL_FLOATS),
)
tables = st.lists(st.lists(cells, max_size=8).map(tuple), max_size=12)


@settings(max_examples=300, deadline=None)
@given(tables)
def test_matches_per_cell_reference(rows):
    header = ("a", "b", "c")
    assert output.columns_csv(header, rows) == columns_csv(header, rows)


def test_special_floats_one_per_row():
    rows = [(i, v) for i, v in enumerate(SPECIAL_FLOATS)]
    text = output.columns_csv(("i", "v"), rows)
    assert text == columns_csv(("i", "v"), rows)
    lines = text.splitlines()
    # %.17g writes 1e16 in full and switches to exponent notation at 1e17
    assert {"11,10000000000000000", "13,99999999999999984", "14,1e+17", "4,-0",
            "0,nan"} <= set(lines)


def test_column_type_changes_between_rows():
    rows = [(1, 0.5, "a"), (1.5, 2, "b"), (True, False, 3), (0, 0.0, 0.25),
            (1.0, 1, True), ("x", math.inf, -0.0), (1, 0.5, "a")]
    text = output.columns_csv(("p", "q", "r"), rows)
    assert text == columns_csv(("p", "q", "r"), rows)
    assert text.splitlines()[1:4] == ["1,0.5,a", "1.5,2,b", "True,False,3"]


def test_empty_table_is_the_header():
    assert output.columns_csv(("k", "t"), []) == "k,t\n"


# -- the rows the CLI writes ---------------------------------------------------

P = SystemParams(F(2), F(9, 10), 0.15)


@pytest.fixture(scope="module")
def section():
    return stroboscopic_section(P, 0.03, 0.97, 60)


def _both(header, rows):
    assert output.columns_csv(header, rows) == columns_csv(header, rows)


def _same_cells(got, want):
    """Equal rows of equal cell types, float bits included."""
    assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]
    assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]


def test_orbit_rows():
    traj = integrate_orbit(P, 0.03, 0.97, 5, samples_per_period=64)
    want = output.trajectory_rows(traj, P, 64)
    _both(output.ORBIT_COLUMNS, want)
    # the CLI's table, built in the propagation loop, is the rows of the samples
    _same_cells(orbit_rows(P, 0.03, 0.97, 5, samples_per_period=64), want)


def test_escaping_orbit_rows():
    params = SystemParams(F(2), F(9, 10), 0.19)
    for spp in (1, 3, 8):
        traj = integrate_orbit(params, 0.0, 1.0, 40, samples_per_period=spp)
        want = output.trajectory_rows(traj, params, spp)
        _both(output.ORBIT_COLUMNS, want)
        _same_cells(orbit_rows(params, 0.0, 1.0, 40, spp), want)


def test_section_rows(section):
    _both(output.ORBIT_COLUMNS, output.section_rows(section, P))
    # the CLI formats the section's samples as they are: they are its rows
    _both(output.ORBIT_COLUMNS, section)
    _same_cells(section, output.section_rows(section, P))


def test_distance_and_energy_rows(section):
    _both(("k", "t", "d", "r"), [(p.k, p.k * P.period, p.d, p.r) for p in section])
    _both(("k", "t", "x", "E"), [(p.k, p.k * P.period, p.x, p.E) for p in section])


def test_convergence_rows():
    report = convergence_study(P, [2, 4, 6], n_periods=40)
    _both(("order", "residual"), list(zip(report.orders, report.residuals)))


def test_conic_rows():
    phi = build_integral(P, 6)
    rows = [(eps, *conic_at_section(phi, eps)) for eps in [j / 100 for j in range(-18, 19, 2)]]
    _both(("epsilon", "A", "B", "D"), rows)


# -- JSON: json.dumps is the reference -----------------------------------------

def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


json_keys = st.text(st.characters(), max_size=6) | st.sampled_from(
    ["%", "%d", "%(k)s", "%%s", ")(", "\\", '"', "\n\t\x00\x7f", "\u00e9\u2028\ud800", "\U0001f600"])
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 4000), max_value=2 ** 4000),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(st.characters(), max_size=6),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(json_keys, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_json_matches_json_dumps(obj):
    assert output.json_text(obj) == "".join(output.json_chunks(obj)) == dumps(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from("abc"), json_scalars, min_size=3, max_size=3),
                max_size=8))
def test_json_same_keys_other_types(rows):
    # one template per (level, keys, value types): a slot's type may change between dicts
    assert output.json_text(rows) == dumps(rows)


def test_json_bool_is_not_an_int():
    obj = [{"a": 1, "b": True}, {"a": True, "b": 1}, {"a": 1.0, "b": False}, {"a": 0, "b": None},
           [1, True], [True, 1], [0, False, 0.0, -0.0, None]]
    text = output.json_text(obj)
    assert text == dumps(obj)
    assert '"b": true' in text and '"a": true' in text


def test_json_left_to_json_dumps():
    # non-str keys and subclasses of the container and scalar types
    Point = collections.namedtuple("Point", "x y")
    obj = {"ints": {1: "a", 2: [True, {3: 4}]}, "one": {True: 1}, "floats": {2.5: None},
           "point": Point(1, 2.5), "ordered": collections.OrderedDict(b=1, a=[]),
           "empty": [{}, [], ()]}
    assert output.json_text(obj) == dumps(obj)
    # equal keys of other types share no template: 1 == True, but "1" != "true"
    assert output.json_text([{1: "a"}, {True: "a"}]) == dumps([{1: "a"}, {True: "a"}])
    for bad in ({"a": [F(1, 3)]}, {1: "a", "b": 2}):
        with pytest.raises(TypeError):
            output.json_text(bad)


def test_json_errors_are_json_dumps_errors():
    loop = {"a": [1]}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        json.dumps(loop, indent=2, sort_keys=True)
    with pytest.raises(ValueError, match="Circular reference detected"):
        output.json_text(loop)
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(RecursionError):
        json.dumps(deep, indent=2, sort_keys=True)
    with pytest.raises(RecursionError):
        output.json_text(deep)


def test_json_leaves_no_reference_cycle():
    # the templates of one call are freed when it returns or raises, without the cyclic GC;
    # json.dumps with indent leaves cycles of its own, so a failing call is compared with it
    doc = [{"a": [1, 2.5], "b": {"c": "d"}}, {"a": [3, -0.0], "b": {"c": "e"}}]
    bad = {"a": F(1, 3)}
    want = dumps(doc)

    def garbage(call) -> int:
        gc.collect()
        gc.disable()
        try:
            try:
                call()
            except TypeError:
                pass
            return gc.collect()
        finally:
            gc.enable()

    assert garbage(lambda: output.json_text(doc) == want or pytest.fail("text differs")) == 0
    assert (garbage(lambda: output.json_text([doc, bad]))
            == garbage(lambda: json.dumps(bad, indent=2, sort_keys=True)) > 0)


int_cells = st.integers() | st.integers(min_value=-(2 ** 4000), max_value=2 ** 4000)
column_cells = [int_cells, st.floats(allow_nan=False, allow_infinity=False), cells]


@st.composite
def json_tables(draw):
    """Tables of tuple or list rows: columns of one kind each (the row template's
    tables), mixed columns, special floats, bools, strings and unequal row lengths."""
    kinds = draw(st.lists(st.sampled_from(column_cells), max_size=7))
    n = draw(st.integers(0, 8))
    rows = [tuple(draw(kind) for kind in kinds) for _ in range(n)]
    rows += draw(st.lists(st.lists(cells, max_size=8).map(tuple), max_size=2))
    return [list(row) if draw(st.booleans()) else row for row in rows]


@settings(max_examples=300, deadline=None)
@given(json_tables() | tables)
def test_columns_json_matches_json_dumps(rows):
    header = ("k", "t", "%d")
    assert output.columns_json(header, rows) == dumps(
        {"columns": list(header), "rows": [list(r) for r in rows]})


def test_columns_json_special_floats_and_ints():
    # a non-finite float, a bool or a float in an int column leaves the row template;
    # a huge int keeps it
    for bad in (math.nan, math.inf, -math.inf, True, 1.0, 2 ** 70):
        rows = [(0, 0.5, 7), (1, 1.5, 8), (2, 2.5, bad)]
        assert output.columns_json(("a", "b", "c"), rows) == dumps(
            {"columns": ["a", "b", "c"], "rows": [list(r) for r in rows]})


def test_json_documents_the_cli_writes():
    phi = build_integral(P, 8)
    doc = ref.to_json_obj(phi)
    doc["epsilon"] = 0.1
    assert output.json_text(doc) == dumps(doc)
    rows = output.section_rows(stroboscopic_section(P, 0.03, 0.97, 20), P)
    assert output.columns_json(output.ORBIT_COLUMNS, rows) == dumps(
        {"columns": list(output.ORBIT_COLUMNS), "rows": [list(row) for row in rows]})


def test_orbit_samples_take_the_row_template(section, monkeypatch):
    # OrbitSamples are tuples: one row template, never the general encoder's json.dumps
    want = dumps({"columns": list(output.ORBIT_COLUMNS), "rows": [list(p) for p in section]})
    monkeypatch.setattr(output, "json", None)
    assert output.columns_json(output.ORBIT_COLUMNS, section) == want


@st.composite
def nested_tables(draw):
    """A json_tables() table under dict keys and inside lists or tuples, 0 to 3 deep."""
    obj = draw(json_tables() | tables)
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(json_scalars | json_tables(), max_size=2))
        kind = draw(st.sampled_from(["dict", "list", "tuple"]))
        if kind == "dict":
            obj = {**dict(zip(draw(st.lists(json_keys, min_size=2, max_size=2)), siblings)),
                   draw(json_keys): obj}
        else:
            at = draw(st.integers(0, len(siblings)))
            obj = siblings[:at] + [obj] + siblings[at:]
            obj = tuple(obj) if kind == "tuple" else obj
    return obj


@settings(max_examples=300, deadline=None)
@given(nested_tables())
def test_tables_inside_documents_match_json_dumps(obj):
    assert output.json_text(obj) == "".join(output.json_chunks(obj)) == dumps(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False, 1.0, 2 ** 70,
                                 -(2 ** 4000), "s", None, [1]])
def test_tables_at_every_depth_match_json_dumps(bad):
    # a special float, a bool, a float in an int column or a short row leaves the row
    # template; a huge int keeps it
    for rows in ([(0, 0.5, 7), (1, 1.5, 8), (2, 2.5, bad)], [[0, 0.5, 7], [1, 1.5], [bad]]):
        for obj in (rows, {"t": rows}, [{"a": [rows, 1]}], ({"b": rows}, [[rows]])):
            assert output.json_text(obj) == dumps(obj)


def test_row_template_at_depth(section, monkeypatch):
    # a table of OrbitSamples anywhere in a document takes the row template: the general
    # encoder would hand each sample to json.dumps
    doc = {"a": [{"b": section}, (section[:3], 1)], "c": section[:1]}
    want = dumps(doc)
    monkeypatch.setattr(output, "json", None)
    assert output.json_text(doc) == want


# -- streaming: pieces and blocks ----------------------------------------------

BLOCK_SIZES = [1, 2, 7, 1024]


@contextlib.contextmanager
def cpus(n: int):
    """This process may run on n CPUs: with two or more, a table of more than one
    block forks a worker.  Yields the list of the workers forked."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True), \
            mock.patch.object(os, "fork", counted):
        yield forks


def _no_worker_left():
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _at_block_sizes(make) -> list:
    """make() with ``output._BLOCK`` set to each of BLOCK_SIZES in turn."""
    old, texts = output._BLOCK, []
    try:
        for size in BLOCK_SIZES:
            output._BLOCK = size
            texts.append(make())
    finally:
        output._BLOCK = old
    return texts


def _tables_at_block_sizes(header, rows, n_cpus):
    """CSV and JSON tables, alone and inside a document, from a list and from an
    iterator at every block size on n_cpus: the same bytes as the per-row references."""
    csv_rows = [tuple(row) for row in rows]
    csv = columns_csv(header, csv_rows)
    doc = {"columns": list(header), "rows": [list(row) for row in rows]}
    table = dumps(doc)
    nested = dumps({"a": [rows, 1]})
    with cpus(n_cpus) as forks:
        for got in _at_block_sizes(lambda: (
                output.columns_csv(header, csv_rows), output.columns_csv(header, iter(csv_rows)),
                "".join(output.tabular_chunks(header, iter(csv_rows), "csv")),
                output.columns_json(header, rows), output.columns_json(header, iter(rows)),
                "".join(output.tabular_chunks(header, iter(rows), "json")),
                output.json_text(doc), output.json_text({"a": [rows, 1]}))):
            assert got == (csv, csv, csv, table, table, table, table, nested)
    assert bool(forks) == (n_cpus > 1 and len(rows) > 2)  # over two blocks of one row
    _no_worker_left()


# one CPU: a worker per multi-block example would cost the suite about 10 s; the
# block-boundary cases below and the two-process tests further down fork
@settings(max_examples=150, deadline=None)
@given(json_tables() | tables)
def test_tables_match_at_every_block_size(rows):
    _tables_at_block_sizes(("k", "t", "%d"), rows, n_cpus=1)


_BASE = [(i, 0.5 * i, f"s{i}") for i in range(10)]


@pytest.mark.parametrize("rows", [
    _BASE,
    _BASE[:7] + [(7.0, 3.5, "s7")] + _BASE[8:],  # int -> float in a later block
    _BASE[:5] + [(5, 2.5, True)] + _BASE[6:],  # a bool among strings
    _BASE[:3] + [(True, False, "s3")] + _BASE[4:],  # bools among ints and floats
    _BASE[:7] + [(7, "x", "s7")] + _BASE[8:],  # a str among floats
    _BASE[:8] + [(8, math.nan, "s8"), (9, math.inf, "s9")],  # NaN and inf in a later block
    _BASE[:2] + [(2, -math.inf, "s2")] + _BASE[3:],
    [(2 ** 70, 0.5, "a"), (-(2 ** 4000), 1.5, "b"), (3, 2.5, "c")] * 3,  # huge ints
    [(i, float(i)) for i in range(9)] + [(1.5, 2)],  # both columns change type in the last row
    [(1, 2.5)] * 7 + [(1, 2.5, "x")] + [(1,)] * 2,  # row lengths change
    [(), (), ()],
    [],
], ids=["uniform", "int-float", "bool-str", "bools", "str-float", "nan-inf", "minus-inf",
        "huge-int", "last-row", "ragged", "empty-rows", "empty"])
def test_column_type_changes_across_a_block_boundary(rows):
    _tables_at_block_sizes(("a", "b", "c"), rows, n_cpus=2)
    for n_cpus in (1, 2):
        with cpus(n_cpus):
            pieces = _at_block_sizes(lambda: list(output.csv_chunks(("a", "b", "c"), rows)))
        # the header line with the first block, then one piece per later block; on two
        # CPUs a table of more than two blocks goes so up to its split point h, and the
        # worker's spool is one more piece, its text
        n, h = len(rows), len(rows) - len(rows) // 2
        assert [len(p) for p in pieces] == [
            -(-h // size) + 1 if n_cpus == 2 and n > 2 * size else max(1, -(-n // size))
            for size in BLOCK_SIZES]


def test_orbit_tables_go_out_a_block_at_a_time():
    rows = orbit_rows(P, 0.03, 0.97, 50, 64)  # 3201 rows: four blocks
    header = output.ORBIT_COLUMNS
    with cpus(1):
        csv = list(output.tabular_chunks(header, rows, "csv"))
        js = list(output.tabular_chunks(header, iter(rows), "json"))
    assert len(csv) == 4 and len(js) == 4 + 2  # the head with the first block, blocks, both ends
    assert "".join(csv) == columns_csv(header, rows)
    assert "".join(js) == dumps({"columns": list(header), "rows": [list(r) for r in rows]})


def _orbit_of(rows: list) -> dynamics.OrbitBlocks:
    """The list of rows as the ``OrbitBlocks`` of a one-sample orbit: its len, its blocks
    and its split those of ``orbit_blocks``, each a slice of the list."""
    def blocks(first, last):  # periods first to last - 1, row 0 with period 0
        yield rows[first + 1 if first else 0:last + 1]

    return dynamics.OrbitBlocks(blocks, 1, len(rows) - 1)


@pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf, 1e308])
def test_fixed_json_tables_keep_json_spellings(bad):
    # an orbit's rows (an OrbitBlocks, here of the columns k, t, x) take the first row's
    # %d/%r template with no type scan; a block with a NaN or an infinity (or finite
    # floats summing past float64, 1e308 twice) keeps the item path, which spells them
    # as json.dumps does, at every block size
    rows = [(i, 0.5 * i, -1.25 * i) for i in range(10)]
    if bad is not None:
        rows[7] = (7, bad, bad)
    header = ("k", "t", "x")
    want = dumps({"columns": list(header), "rows": [list(r) for r in rows]})
    for n_cpus in (1, 2):
        with cpus(n_cpus):
            for got in _at_block_sizes(lambda: "".join(output.tabular_chunks(
                    header, _orbit_of(rows), "json"))):
                assert got == want
    _no_worker_left()


def test_documents_go_out_an_item_at_a_time():
    # the items of the top three levels are pieces: an integral's term lists at most
    doc = ref.to_json_obj(build_integral(P, 8))
    pieces = list(output.json_chunks(doc))
    assert "".join(pieces) == dumps(doc)
    series = [q[key] for q in doc["orders"] for key in ("x2", "y2", "xy")]
    assert len(pieces) > len(series)
    at_level_3 = [json.dumps(s, indent=2, sort_keys=True).replace("\n", "\n" + " " * 6)
                  for s in series]
    assert max(map(len, pieces)) == max(map(len, at_level_3))


# -- two processes: this one formats the head of a table, a forked worker the tail

def _mixed_rows(n: int) -> list[tuple]:
    """Rows of str (not all ASCII), int and float cells, with a few ragged rows
    and a bool, so some blocks take their template row by row."""
    rows = [(i, 0.1 * i, "é" * (i % 3)) for i in range(n)]
    rows[n // 2] = (True, 1.5)
    rows[n // 3] = (1, 2.5, "x", 3.5)
    return rows


def _references(header, rows) -> tuple[str, str]:
    """The per-row CSV reference and json.dumps of the table."""
    return columns_csv(header, rows), dumps({"columns": list(header),
                                             "rows": [list(row) for row in rows]})


def _tables(header, rows) -> tuple[str, str]:
    """CSV from the list of rows and JSON from a tuple of them: each sliced at its
    middle row where it splits."""
    return (output.columns_csv(header, rows),
            "".join(output.tabular_chunks(header, tuple(rows), "json")))


TWO_PROCESS_CASES = {  # (rows, block size, a worker per table)
    "one-block": (lambda: orbit_rows(P, 0.03, 0.97, 15, 64), 1024, False),  # 961 rows
    "a-block-and-a-row": (lambda: orbit_rows(P, 0.03, 0.97, 16, 64), 1024, False),  # 1025
    "65-row-second-block": (lambda: orbit_rows(P, 0.03, 0.97, 17, 64), 1024, False),
    "two-full-blocks": (lambda: orbit_rows(P, 0.03, 0.97, 32, 64)[:2048], 1024, False),
    "two-blocks-and-a-row": (lambda: orbit_rows(P, 0.03, 0.97, 32, 64), 1024, True),  # 2049
    "many-blocks": (lambda: orbit_rows(P, 0.03, 0.97, 80, 64), 1024, True),  # 5121
    "small-blocks": (lambda: orbit_rows(P, 0.03, 0.97, 3, 64), 7, True),
    # the JSON table of the mixed rows starts with a block that takes no row template
    "mixed-cells": (lambda: _mixed_rows(3000), 1024, True),
    "mixed-small-blocks": (lambda: _mixed_rows(200), 7, True),
}


@pytest.mark.parametrize("case", TWO_PROCESS_CASES)
def test_two_process_tables_match_the_references(case, monkeypatch):
    make, block, forked = TWO_PROCESS_CASES[case]
    monkeypatch.setattr(output, "_BLOCK", block)
    header, rows = ("k", "t", "x", "y", "E", "d", "r"), make()
    with cpus(1) as forks:
        one = _tables(header, rows)
    assert forks == []
    with cpus(2) as forks:
        two = _tables(header, rows)
    assert len(forks) == 2 * forked  # the row count alone decides
    assert two == one == _references(header, rows)
    _no_worker_left()


def test_an_iterator_forks_nothing_whatever_its_length():
    # a list, a tuple or an OrbitBlocks splits; any other iterable, here of 2561 rows,
    # is formatted by this process alone
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 40, 64)
    with cpus(2) as forks:
        got = (output.columns_csv(header, iter(rows)), output.columns_json(header, iter(rows)),
               "".join(output.tabular_chunks(header, (row for row in rows), "json")),
               output.json_text({"columns": list(header), "rows": rows}))
    assert forks == [] and got[:2] == _references(header, rows) and got[3] == got[2] == got[1]


class _SplitAt(dynamics.OrbitBlocks):
    """The list of rows as an ``OrbitBlocks`` whose split moves the middle row h to
    h - 100, as ``OrbitBlocks.split`` may, and calls ``note``(h, i) in the process that
    makes row i of the head or the tail as it comes to it, and as a part ends at
    i = len(rows); the whole table comes from the list."""

    def __init__(self, rows: list, note: Callable[[int, int], None]):
        super().__init__(lambda first, last: iter([rows]), 1, len(rows) - 1)
        self.rows, self.note = rows, note

    def split(self, h):
        def part(start, stop):
            for i in range(start, stop):
                self.note(h, i)
                yield self.rows[i]
            if stop == len(self.rows):
                self.note(h, stop)
        return h - 100, [part(0, h - 100)], [part(h - 100, len(self.rows))]


def _in_the_worker(act: Callable[[int], None]) -> Callable[[int, int], None]:
    """A ``_SplitAt`` note that calls act(i) at each row i a forked worker comes to.
    This process is named here: the worker may be the first to start a part."""
    parent = os.getpid()
    return lambda h, i: os.getpid() != parent and act(i)


def _ended_in_the_worker(at: int, how: str = "exit"):
    # the 5121 rows split at row 2461 (``_SplitAt``): the worker formats rows 2461 to
    # 5120, the tail, and ends its process at row ``at`` (at 5121 after the last row,
    # before its report) by os._exit or SIGKILL; this process then formats them itself
    def end(i):
        if i == at:
            if how == "exit":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)

    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 80, 64)
    with cpus(2) as forks:
        got = tuple("".join(output.tabular_chunks(header, _SplitAt(rows, _in_the_worker(end)),
                                                  fmt)) for fmt in ("csv", "json"))
    assert len(forks) == 2
    assert got == _references(header, rows)
    _no_worker_left()


# the worker's blocks start at rows 2461, 3485 and 4509: it ends before its first row,
# 100 rows into its first block with nothing spooled, with its first block spooled
# (3485, 4000), at its last row, and after it (5121)
@pytest.mark.parametrize("at", [2461, 2561, 3485, 4000, 5120, 5121])
def test_a_worker_that_dies_part_way_changes_no_byte(at):
    _ended_in_the_worker(at)


@pytest.mark.parametrize("at", [2461, 2561, 4000, 5120, 5121])
def test_a_worker_killed_part_way_changes_no_byte(at):
    _ended_in_the_worker(at, "SIGKILL")


@pytest.mark.parametrize("why", ["one-cpu", "no-fork", "fork-fails", "no-spool", "no-pipe",
                                 "no-affinity-one-cpu", "a-thread", "in-a-worker"])
def test_nothing_forks(why, monkeypatch):
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 40, 64)
    want = _references(header, rows)
    stop = threading.Event()
    with cpus(1 if why == "one-cpu" else 2) as forks:
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif why == "fork-fails":  # no process to be had: the same bytes from this one
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=OSError(11, "no process")))
        elif why == "no-spool":  # no temp file to be had
            monkeypatch.setattr(tempfile, "TemporaryFile",
                                mock.Mock(side_effect=OSError(28, "no space")))
        elif why == "no-pipe":
            monkeypatch.setattr(os, "pipe", mock.Mock(side_effect=OSError(24, "no fds")))
        elif why == "no-affinity-one-cpu":
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif why == "in-a-worker":
            monkeypatch.setattr(output, "_in_worker", True)
        elif why == "a-thread":
            thread = threading.Thread(target=stop.wait)
            thread.start()
        try:
            got = _tables(header, rows)
        finally:
            stop.set()
        monkeypatch.undo()
    assert forks == [] and got == want
    _no_worker_left()


@pytest.mark.parametrize("exc", [Unbounded("the state overflows"), KeyboardInterrupt()],
                         ids=["Unbounded", "KeyboardInterrupt"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_worker_is_reaped_when_the_rows_raise(exc, fmt):
    # the rows are 5121 with the split at 2461 (``_SplitAt``), and either part raises
    # ``exc`` at row ``at``, as Unbounded comes, noting (pid, row) in ``raised``: the error
    # of a head row (1000) comes from the head; the worker stops at one in the tail
    # (4000), and this process, going on with its own tail, comes to the same row
    def stop(h, i):
        if i == at:
            raised.append((os.getpid(), at))
            raise exc

    rows = orbit_rows(P, 0.03, 0.97, 80, 64)
    for at in (1000, 4000):
        raised = []
        with cpus(2) as forks, pytest.raises(type(exc)) as info:
            "".join(output.tabular_chunks(output.ORBIT_COLUMNS, _SplitAt(rows, stop), fmt))
        assert info.value is exc and raised == [(os.getpid(), at)]
        assert len(forks) == 1
        _no_worker_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_worker_is_reaped_when_the_pieces_are_dropped(fmt):
    rows = orbit_rows(P, 0.03, 0.97, 80, 64)
    with cpus(2) as forks:
        pieces = output.tabular_chunks(output.ORBIT_COLUMNS, rows, fmt)
        head = "".join(next(pieces) for _ in range(3))
        pieces.close()
    assert len(forks) == 1
    assert head == _references(output.ORBIT_COLUMNS, rows)[fmt == "json"][:len(head)]
    _no_worker_left()


def test_a_failing_write_reaps_the_worker(tmp_path, monkeypatch):
    # an OSError on the temp file (a full disk) at the last piece of the head (the
    # CSV head is three pieces, of 1024, 1024 and 513 rows) or at the first piece of
    # the spool's text: the writer closes its pieces, which reaps the worker and
    # closes the spool before InvalidInput leaves
    fdopen = os.fdopen

    class Full:
        def __init__(self, fd, *args):
            self.handle = fdopen(fd, *args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def writelines(self, pieces):
            for i, piece in enumerate(pieces):
                if i == at:
                    raise OSError(28, "No space left on device")
                self.handle.write(piece)

    monkeypatch.setattr(os, "fdopen", Full)
    rows = orbit_rows(P, 0.03, 0.97, 80, 64)
    for at in (2, 3):
        with cpus(2) as forks, pytest.raises(InvalidInput, match="No space left") as info:
            output.atomic_write_chunks(str(tmp_path / "o.csv"),
                                       output.csv_chunks(output.ORBIT_COLUMNS, rows))
        assert len(forks) == 1 and os.listdir(tmp_path) == []
        _no_worker_left()  # while the error's traceback still holds the pieces' generator
        assert info.value.__traceback__ is not None


def test_the_spool_goes_out_in_bounded_pieces(monkeypatch):
    # the worker's text comes back in pieces of _SPOOL_PIECE characters, cut anywhere,
    # also inside a character of more than one UTF-8 byte
    monkeypatch.setattr(output, "_SPOOL_PIECE", 1000)
    header, rows = ("k", "t", "s"), _mixed_rows(3000)
    with cpus(2) as forks:
        pieces = list(output.csv_chunks(header, rows))
    assert len(forks) == 1
    assert "".join(pieces) == columns_csv(header, rows)
    # after the head's blocks of 1024 and 476 rows, the spool's text
    tail = pieces[2:]
    assert {len(piece) for piece in tail[:-1]} == {1000} and 0 < len(tail[-1]) <= 1000


def test_every_piece_is_a_plain_str():
    # on one process and on two, whatever the worker spooled: CSV and JSON of an
    # orbit's stream (its OrbitBlocks) and of a list, and the order-40 document
    doc = build_integral(P, 40).json_document()
    rows = orbit_rows(P, 0.03, 0.97, 80, 64)

    def orbit_table(fmt):
        return output.tabular_chunks(output.ORBIT_COLUMNS,
                                     dynamics.orbit_blocks(P, 0.03, 0.97, 80, 64), fmt)

    makes = [lambda: output.csv_chunks(output.ORBIT_COLUMNS, rows),
             lambda: output.json_chunks(doc)]
    for fmt in ("csv", "json"):
        makes += [lambda fmt=fmt: orbit_table(fmt),
                  lambda fmt=fmt: output.tabular_chunks(output.ORBIT_COLUMNS, rows, fmt)]
    for n_cpus in (1, 2):
        for make in makes:
            with cpus(n_cpus) as forks:
                kinds = {type(piece) for piece in make()}
            assert kinds == {str} and len(forks) == n_cpus - 1
            _no_worker_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_split_gives_each_process_its_own_rows(fmt):
    # the 5121 rows of 80 periods, split at row 2461: the worker formats rows 2461 to
    # 5120 from the split's tail, and this process makes no row but 0 to 2460, from
    # its head; on one CPU the rows come from the table itself and no split is made
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 80, 64)
    want = _references(header, rows)[fmt == "json"]
    for n_cpus in (1, 2):
        made = []
        with cpus(n_cpus) as forks:
            got = "".join(output.tabular_chunks(
                header, _SplitAt(rows, lambda h, i: made.append((h, i))), fmt))
        assert got == want and len(forks) == n_cpus - 1
        assert made == ([(2561, i) for i in range(2461)] if n_cpus == 2 else [])
        _no_worker_left()


@pytest.mark.parametrize("periods, spp", [(80, 64), (3000, 1)])
def test_an_orbit_table_is_its_rows_cut_to_the_header(periods, spp):
    # the writer takes an orbit's OrbitBlocks itself: the same bytes as its rows in a
    # list cut to the header's columns, CSV and JSON, on one CPU and on two, where the
    # orbit's table (5121 or 3001 rows) forks one worker, reaped once it is written
    rows = orbit_rows(P, 0.03, 0.97, periods, spp)
    for header in (output.ORBIT_COLUMNS, ("k", "t", "x", "E"), ("d",)):
        cut = [tuple(row[output.ORBIT_COLUMNS.index(name)] for name in header) for row in rows]
        for fmt in ("csv", "json"):
            with cpus(1):
                want = "".join(output.tabular_chunks(header, cut, fmt))
            for n_cpus in (1, 2):
                with cpus(n_cpus) as forks:
                    got = "".join(output.tabular_chunks(
                        header, dynamics.orbit_blocks(P, 0.03, 0.97, periods, spp), fmt))
                assert got == want and len(forks) == n_cpus - 1
                _no_worker_left()
    assert want == dumps({"columns": ["d"], "rows": [[row[5]] for row in rows]})


def _noted_in_the_worker(rows, path) -> _SplitAt:
    """The rows, split by ``_SplitAt``; a forked worker writes its process's CPUs to
    ``path`` after its last row, once they are not this process's (its parent binds it,
    so it waits for that up to 5 s)."""
    affinity = os.sched_getaffinity
    mine = affinity(0)

    def note(i):
        if i == len(rows):
            deadline = time.monotonic() + 5.0
            while affinity(0) == mine and time.monotonic() < deadline:
                time.sleep(0.001)
            path.write_text(" ".join(map(str, sorted(affinity(0)))))

    return _SplitAt(rows, _in_the_worker(note))


def test_the_worker_runs_off_the_cpu_this_process_ran_on(tmp_path, monkeypatch):
    # just before the fork this process reads the CPU it runs on; right after it, it binds
    # the worker to the others it may use, and keeps its own CPUs
    allowed, read, cpu = os.sched_getaffinity(0), [], output._cpu
    monkeypatch.setattr(output, "_cpu", lambda: read.append(cpu()) or read[-1])
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 80, 64)
    noted = _noted_in_the_worker(rows, tmp_path / "cpus")
    with cpus(len(allowed)) as forks, \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(allowed)):
        got = "".join(output.tabular_chunks(header, noted, "csv"))
    assert got == _references(header, rows)[0] and os.sched_getaffinity(0) == allowed
    _no_worker_left()
    if len(allowed) < 2:  # nothing to fork for
        assert forks == [] and read == []
        return
    assert len(forks) == 1 and len(read) == 1 and read[0] in allowed
    worker = set(map(int, (tmp_path / "cpus").read_text().split()))
    assert worker == allowed - {read[0]} and read[0] not in worker


@pytest.mark.parametrize("how", ["bound", "no-cpu", "refused", "no-setaffinity"])
def test_the_binding_never_changes_a_byte(how, tmp_path, monkeypatch):
    # on 2 CPUs this process binds the worker to {0, 1} less the CPU read before the fork
    # (0 here); where none was read, or the call is refused or missing, it goes on unbound
    bound = tmp_path / "bound"
    monkeypatch.setattr(output, "_cpu", lambda: None if how == "no-cpu" else 0)
    if how == "no-setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        def setaffinity(pid, cpus):
            bound.write_text(" ".join(map(str, sorted(cpus))))
            if how == "refused":
                raise OSError(22, "Invalid argument")
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity, raising=False)
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 80, 64)
    with cpus(2) as forks:
        got = _tables(header, rows)
    assert len(forks) == 2 and got == _references(header, rows)
    assert (bound.read_text() if bound.exists() else None) == (
        "1" if how in ("bound", "refused") else None)
    _no_worker_left()


def test_this_process_binds_the_worker_it_forked(monkeypatch):
    # the binding is made here, right after the fork, not by the worker once it first
    # runs: until then the worker would wait on the CPU this process keeps busy
    calls, parent = [], os.getpid()
    monkeypatch.setattr(output, "_cpu", lambda: 0)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: calls.append((os.getpid(), pid, set(cpus))),
                        raising=False)
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 80, 64)
    with cpus(2) as forks:
        got = _tables(header, rows)
    assert len(forks) == 2 and got == _references(header, rows)
    assert calls == [(parent, pid, {1}) for pid in forks]
    _no_worker_left()


def test_the_spool_lies_beside_the_file_it_joins(tmp_path, monkeypatch):
    # a table for a file spools in that file's directory; a table for a string in
    # the temp directory
    made, make = [], tempfile.TemporaryFile

    def spool(*args, **kwargs):
        made.append(kwargs.get("dir"))
        return make(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", spool)
    (tmp_path / "data").mkdir()
    header, rows = output.ORBIT_COLUMNS, orbit_rows(P, 0.03, 0.97, 40, 64)
    with cpus(2) as forks:
        output.atomic_write_chunks(str(tmp_path / "data" / "o.csv"),
                                   output.csv_chunks(header, rows))
        text = output.columns_csv(header, rows)
    assert len(forks) == 2 and made == [str(tmp_path / "data"), None]
    assert (tmp_path / "data" / "o.csv").read_text() == text == columns_csv(header, rows)
    assert os.listdir(tmp_path / "data") == ["o.csv"]
    _no_worker_left()


# -- atomic writes -------------------------------------------------------------

@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_file_has_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        output.atomic_write_text(str(tmp_path / "atomic.csv"), "k\n")
        assert os.umask(umask) == umask  # the call put the umask back
        with open(tmp_path / "plain.csv", "w") as handle:
            handle.write("k\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "atomic.csv").st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode)
    assert sorted(os.listdir(tmp_path)) == ["atomic.csv", "plain.csv"]


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_write_follows_a_link_to_an_existing_file(tmp_path):
    # open(path, "w") writes through a symbolic link; so does the atomic write
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(os.path.join("data", "real.csv"))
    output.atomic_write_text(str(link), "new\n")
    assert link.is_symlink() and os.readlink(link) == os.path.join("data", "real.csv")
    assert real.read_text() == "new\n"
    with open(tmp_path / "plain.csv", "w") as handle:
        handle.write("new\n")
    assert _mode(real) == _mode(tmp_path / "plain.csv")
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv", "plain.csv"]
    assert os.listdir(tmp_path / "data") == ["real.csv"]


def test_write_through_a_dangling_link_creates_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "data" / "new.csv")
    output.atomic_write_chunks(str(link), iter(["k\n", "1\n"]))
    assert link.is_symlink() and (tmp_path / "data" / "new.csv").read_text() == "k\n1\n"
    with open(tmp_path / "plain.csv", "w") as handle:
        handle.write("k\n")
    assert _mode(tmp_path / "data" / "new.csv") == _mode(tmp_path / "plain.csv")
    # a link into a missing directory fails as open would, naming the user's path
    missing = tmp_path / "missing.csv"
    missing.symlink_to(tmp_path / "nowhere" / "x.csv")
    with pytest.raises(InvalidInput, match=f"^cannot write {re.escape(str(missing))}: "):
        output.atomic_write_text(str(missing), "k\n")
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv", "missing.csv", "plain.csv"]


@pytest.mark.parametrize("exists", [False, True])
def test_a_failing_stream_leaves_the_path_as_it_was(tmp_path, exists):
    # the pieces' generator raises after some pieces were written: no temp file
    # stays and an existing file keeps its bytes
    path = tmp_path / "f.csv"
    if exists:
        path.write_text("old\n")

    def pieces():
        yield "k\n"
        yield "1\n" * 100_000
        raise Unbounded("the state overflows")

    with pytest.raises(Unbounded, match="the state overflows"):
        output.atomic_write_chunks(str(path), pieces())
    assert os.listdir(tmp_path) == (["f.csv"] if exists else [])
    assert not exists or path.read_text() == "old\n"
