"""CSV and JSON formatting and file writing in ``output``.

``columns_csv`` formats each row with one ``%`` template; the reference
below is the per-cell formatter it replaced, kept verbatim, and every
table must come out byte for byte the same.  ``json_text`` formats each
container with one ``%`` template; its reference is
``json.dumps(obj, indent=2, sort_keys=True)``.
"""

import collections
import gc
import json
import math
import os
import stat
from fractions import Fraction as F
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_integrals import (SystemParams, build_integral, conic_at_section,
                               convergence_study, dynamics, integrate_orbit, output,
                               stroboscopic_section)


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
    _same_cells(dynamics.orbit_rows(P, 0.03, 0.97, 5, samples_per_period=64), want)


def test_escaping_orbit_rows():
    params = SystemParams(F(2), F(9, 10), 0.19)
    for spp in (1, 3, 8):
        traj = integrate_orbit(params, 0.0, 1.0, 40, samples_per_period=spp)
        want = output.trajectory_rows(traj, params, spp)
        _both(output.ORBIT_COLUMNS, want)
        _same_cells(dynamics.orbit_rows(params, 0.0, 1.0, 40, spp), want)


def test_section_rows(section):
    _both(output.ORBIT_COLUMNS, output.section_rows(section, P))


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
    assert output.json_text(obj) == dumps(obj)


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
    doc = phi.to_json_obj()
    doc["epsilon"] = 0.1
    assert output.json_text(doc) == dumps(doc)
    rows = output.section_rows(stroboscopic_section(P, 0.03, 0.97, 20), P)
    assert output.columns_json(output.ORBIT_COLUMNS, rows) == dumps(
        {"columns": list(output.ORBIT_COLUMNS), "rows": [list(row) for row in rows]})


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
