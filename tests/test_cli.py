"""CLI tests: subcommands, exit codes, schemas, determinism."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tomllib
import tracemalloc
import types
from fractions import Fraction as F
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import mathieu_integrals
import series_reference as ref
from mathieu_integrals import (QuadFormSeries, SystemParams, build_integral, builder, cli,
                               dynamics, integrate_orbit, output, resonant,
                               stroboscopic_section)
from mathieu_integrals.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


def on_cpus(monkeypatch, n: int) -> list:
    """This process may run on n CPUs from here on; returns the list of the
    workers forked."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


class TestBuildIntegral:
    def test_json_block_count_and_first_order(self, runner, tmp_path):
        out = tmp_path / "phi.json"
        res = invoke(runner, "build-integral", "--order", "6", "--out", str(out))
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["order"] == 6
        assert len(doc["orders"]) == 7
        assert doc["omega"] == "2" and doc["omega1"] == "9/10"
        # the order-1 x^2 block carries 4 eps (cos wt + 1)/(w^2 - 4 w1^2)
        # times omega1^2/2: constant and k=1 cosine with equal coefficients
        phi = build_integral(SystemParams(F(2), F(9, 10), 0.1), 1)
        want = phi.orders[1].to_json_obj()
        assert doc["orders"][1] == want
        terms = doc["orders"][1]["x2"]
        assert [(t["p"], t["k"], t["m"], t["phase"]) for t in terms] == [
            (0, 0, 0, "cos"), (0, 1, 0, "cos")]
        assert terms[0]["num"] == terms[1]["num"]
        assert terms[0]["den"] == terms[1]["den"]

    def test_resonant_params_exit_code_2(self, runner):
        res = invoke(runner, "build-integral", "--omega1", "1", "--order", "4")
        assert res.exit_code == 2
        assert "resonant" in res.output or "resonance" in res.output

    def test_order_28_takes_28_steps_of_bounded_size(self, runner, tmp_path, monkeypatch):
        # the work, counted where a wall-clock bound tied the test to machine load: 28
        # recursion steps, order s holding s + 1, s + 1 and s terms (x^2, y^2, xy), and
        # numerators of at most 2,020 bits (2,019 at order 28, growing with the order)
        steps, built = [], []
        step, build = builder.recursion_step, builder.build_integral

        def counted(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        def kept(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(builder, "recursion_step", counted)
        monkeypatch.setattr(builder, "build_integral", kept)
        res = invoke(runner, "build-integral", "--order", "28",
                     "--out", str(tmp_path / "o28.json"))
        assert res.exit_code == 0 and len(steps) == 28
        bits = []
        for s, q in enumerate(built[0].orders):
            series = (q.cxx, q.cyy, q.cxy)
            assert [len(x.terms()) for x in series] == [s + 1, s + 1, s]
            bits.append(max(c.numerator.bit_length() for x in series for _, c in x.terms()))
        assert bits == sorted(bits) and bits[-1] <= 2020

    def test_pretty_prints_one_block_per_order(self, runner, tmp_path):
        res = invoke(runner, "build-integral", "--order", "3", "--pretty",
                     "--out", str(tmp_path / "p.json"))
        assert res.exit_code == 0
        lines = res.output.splitlines()
        heads = [i for i, line in enumerate(lines) if line.startswith("-- order")]
        assert [lines[i] for i in heads] == [f"-- order eps^{s} --" for s in range(4)]
        want = build_integral(SystemParams(F(2), F(9, 10)), 1).orders[1].cxx.pretty()
        assert lines[heads[1] + 1] == f"x^2: {want}"

    def test_dump_symbolic_prints_the_written_bytes(self, runner, tmp_path):
        out = tmp_path / "p.json"
        res = invoke(runner, "build-integral", "--order", "3", "--dump-symbolic",
                     "--out", str(out))
        assert res.exit_code == 0
        assert res.stdout_bytes == f"wrote {out}\n".encode() + out.read_bytes()

    def test_conics_table(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        res = invoke(runner, "build-integral", "--order", "4",
                     "--out", str(tmp_path / "p.json"), "--conics-out", str(out))
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,A,B,D"
        assert len(lines) >= 20


class TestOrbitCommands:
    def test_section_csv_shape(self, runner, tmp_path):
        out = tmp_path / "sec.csv"
        res = invoke(runner, "section", "--periods", "200", "--out", str(out))
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,t,x,y,E,d,r"
        assert len(lines) == 202  # header + k = 0..200
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[2]) == 0.0 and float(first[3]) == 1.0

    def test_determinism(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        invoke(runner, "section", "--periods", "20", "--out", str(a))
        invoke(runner, "section", "--periods", "20", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "sec.json"
        res = invoke(runner, "section", "--periods", "10", "--format", "json",
                     "--out", str(out))
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["k", "t", "x", "y", "E", "d", "r"]
        assert len(doc["rows"]) == 11
        assert doc["rows"][0][0] == 0

    def test_orbit_subsampling(self, runner, tmp_path):
        out = tmp_path / "orb.csv"
        res = invoke(runner, "orbit", "--periods", "5", "--samples", "8",
                     "--out", str(out))
        assert res.exit_code == 0
        assert len(out.read_text().splitlines()) == 42  # header + 41 samples

    def test_time_flag_overrides_periods(self, runner, tmp_path):
        out = tmp_path / "sec.csv"
        import math
        res = invoke(runner, "section", "--periods", "999", "--time",
                     str(10 * math.pi), "--out", str(out))
        assert res.exit_code == 0
        assert len(out.read_text().splitlines()) == 12  # 10 periods of T = pi

    def test_distances_escape_annotation(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = invoke(runner, "distances", "--epsilon", "0.19",
                     "--periods", "150", "--out", str(out))
        assert res.exit_code == 0
        text = out.read_text()
        assert "# escaped at k=" in text

    def test_energy_band_vs_runaway(self, runner, tmp_path):
        bounded = tmp_path / "e18.csv"
        invoke(runner, "energy", "--epsilon", "0.18", "--periods", "41",
               "--out", str(bounded))
        rows = [line.split(",") for line in bounded.read_text().splitlines()[1:]]
        es = [float(r[3]) for r in rows]
        assert max(es) < 0.0 and min(es) > -2.0

        runaway = tmp_path / "e19.csv"
        invoke(runner, "energy", "--epsilon", "0.19", "--periods", "40",
               "--out", str(runaway))
        rows = [line.split(",") for line in runaway.read_text().splitlines()[1:]]
        es19 = [float(r[3]) for r in rows]
        assert min(es19) < -2.0  # drifting toward -infinity
        assert es19.index(min(es19)) > len(es19) // 2


    @pytest.mark.parametrize("args", [
        ["orbit", "--samples", "64", "--periods", "20"],
        ["orbit", "--samples", "64", "--periods", "20", "--format", "json"],
        ["orbit", "--samples", "64", "--periods", "40", "--epsilon", "0.19"],
        ["orbit", "--samples", "64", "--periods", "40", "--epsilon", "0.19", "--format", "json"],
        ["orbit", "--samples", "64", "--periods", "15", "--omega1", "1", "--epsilon", "0.05"],
        ["orbit", "--samples", "64", "--periods", "15", "--omega1", "1", "--epsilon", "0.05",
         "--format", "json"],
        ["orbit", "--samples", "3", "--periods", "7", "--epsilon", "-0.185", "--format", "json"],
        ["section", "--periods", "200"],
        ["section", "--periods", "200", "--epsilon", "0.19", "--format", "json"],
        ["distances", "--periods", "150", "--epsilon", "0.19"],
        ["distances", "--periods", "150", "--epsilon", "0.19", "--format", "json"],
        ["energy", "--periods", "40", "--epsilon", "0.19"],
        ["energy", "--periods", "41", "--epsilon", "0.18", "--format", "json"],
    ], ids=lambda args: "-".join(a.lstrip("-") for a in args))
    def test_tables_are_the_library_tables(self, runner, args):
        # the CLI's bytes are output.tabular of the library's samples, column for column
        res = invoke(runner, *args, "--x0", "0.03", "--y0", "0.97")
        assert res.exit_code == 0
        opts = dict(zip(args[1::2], args[2::2]))
        params = SystemParams(F(2), F(opts.get("--omega1", "9/10")),
                              float(opts.get("--epsilon", "0.1")))
        periods, fmt = int(opts["--periods"]), opts.get("--format", "csv")
        if args[0] == "orbit":
            spp = int(opts["--samples"])
            traj = integrate_orbit(params, 0.03, 0.97, periods, spp)
            want = output.tabular(output.ORBIT_COLUMNS, output.trajectory_rows(traj, params, spp),
                                  fmt)
        else:
            pts = stroboscopic_section(params, 0.03, 0.97, periods)
            rows = output.section_rows(pts, params)
            if args[0] == "section":
                want = output.tabular(output.ORBIT_COLUMNS, rows, fmt)
            elif args[0] == "energy":
                want = output.tabular(("k", "t", "x", "E"),
                                      [(k, t, x, E) for k, t, x, _, E, _, _ in rows], fmt)
            else:  # the escape line is the last row, in either format
                want = output.tabular(("k", "t", "d", "r"),
                                      [*((k, t, d, r) for k, t, _, _, _, d, r in rows),
                                       (f"# escaped at k={next(p.k for p in pts if p.r > 1e3)}",)],
                                      fmt)
        assert res.stdout == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("eps, periods", [("0.1", "200"), ("0.19", "40")])
    def test_section_is_the_one_sample_orbit(self, runner, fmt, eps, periods):
        args = ["--epsilon", eps, "--periods", periods, "--x0", "0.03", "--y0", "0.97",
                "--format", fmt]
        section = invoke(runner, "section", *args)
        orbit = invoke(runner, "orbit", "--samples", "1", *args)
        assert section.exit_code == orbit.exit_code == 0
        assert section.stdout == orbit.stdout


OVERFLOW_240 = "the state overflows in period 240; the orbit is unbounded"


class TestLargeEpsilon:
    """At eps = 3e4, |M(T)| ~ 1e129: the state at t = T, E(T) = -H ~ 4e248."""

    def test_overflow_comes_in_the_period_where_e_leaves_float64(self, runner):
        # z(2T) ~ 1e254 puts |E(2T)| = |H(z(2T), 0)| past float64; E(T) fits
        res = invoke(runner, "section", "--epsilon", "3e4", "--periods", "2")
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == "error: the state overflows in period 2; the orbit is unbounded\n"
        res = invoke(runner, "section", "--epsilon", "3e4", "--periods", "1")
        assert res.exit_code == 0
        k, t, x, y, e, _, _ = map(float, res.stdout.splitlines()[-1].split(","))
        params = SystemParams(2, F(9, 10), 3e4)
        assert k == 1 and abs(e) > 1e248
        # -H's terms are 6e4 times E here, so two roundings of it differ by 7.8e-12
        assert abs(e + params.hamiltonian(x, y, t)) <= 1e-10 * abs(e)

    @pytest.mark.parametrize("command", ["section", "distances"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_infinite_d_before_the_overflow(self, runner, command, fmt):
        # at eps = 1 the state of period 239 (2.6e154) squares past float64: d is
        # still its finite 3.1730339124639603e154
        res = invoke(runner, command, "--epsilon", "1", "--periods", "239", "--format", fmt)
        assert res.exit_code == 0
        assert "3.17303391246396" in res.stdout  # %.17g in CSV, repr in JSON
        assert "inf" not in res.stdout.lower()


class TestTinyStates:
    """Below a state of about 1.5e-154, omega1^2 x^2 + y^2 leaves float64's normal range
    (d < 2^-511): d is still formed to float64's precision, row 0 included."""

    @pytest.mark.parametrize("y0", ["1e-170", "1e-160"])
    def test_d_where_its_squares_underflow(self, runner, y0):
        res = invoke(runner, "section", "--x0", "0", "--y0", y0, "--periods", "1")
        assert res.exit_code == 0
        rows = [tuple(map(float, line.split(","))) for line in res.stdout.splitlines()[1:]]
        assert len(rows) == 2 and rows[0][3] == float(y0)
        for _, _, x, y, _, d, _ in rows:
            assert abs(d - math.hypot(0.9 * x, y)) <= 1e-15 * d
        # distances prints the same d, and the references rebuild it alike
        res = invoke(runner, "distances", "--x0", "0", "--y0", y0, "--periods", "1")
        assert [float(line.split(",")[2]) for line in res.stdout.splitlines()[1:]] == [
            row[5] for row in rows]
        params = SystemParams(2, F(9, 10), 0.1)
        points = stroboscopic_section(params, 0.0, float(y0), 1)
        assert [row[5] for row in output.section_rows(points, params)] == [
            row[5] for row in output.trajectory_rows(points, params, 1)] == [
            row[5] for row in rows]


class TestIntegralDocument:
    """build-integral reduces each order's coefficients as it writes that order,
    in a forked worker from the order at which the numerator bits reach half,
    where the orders are large enough."""

    @staticmethod
    def _written(runner, tmp_path, order: int, *extra) -> bytes:
        out = tmp_path / "phi.json"
        res = invoke(runner, "build-integral", "--order", str(order), "--out", str(out), *extra)
        assert res.exit_code == 0
        return out.read_bytes()

    @pytest.mark.parametrize("order, workers", [(6, 0), (28, 1), (40, 1)])
    def test_large_documents_are_written_by_two_processes(self, runner, tmp_path, monkeypatch,
                                                          order, workers):
        one = self._written(runner, tmp_path, order)
        forks = on_cpus(monkeypatch, 2)
        assert self._written(runner, tmp_path, order) == one
        assert len(forks) == workers

    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_a_worker_killed_part_way_changes_no_byte(self, runner, tmp_path, monkeypatch, at):
        # the worker writes orders 34 to 40, where the numerator bits reach half; it is
        # killed as it starts its at-th, and this process writes all seven itself
        one = self._written(runner, tmp_path, 40)
        parent, convert, started = os.getpid(), QuadFormSeries.to_json_obj, []

        def dying(q):
            if os.getpid() != parent:
                if len(started) == at:
                    os.kill(os.getpid(), signal.SIGKILL)
                started.append(q)
            return convert(q)

        monkeypatch.setattr(QuadFormSeries, "to_json_obj", dying)
        forks = on_cpus(monkeypatch, 2)
        assert self._written(runner, tmp_path, 40) == one
        assert len(forks) == 1

    def test_numerators_past_the_int_digit_limit_are_written(self, runner, tmp_path):
        # order 40 at omega1 = 123456/654321 holds numerators and denominators of about
        # 4,700 digits, past Python's default limit of 4,300 on int to str (which ended
        # the command with a traceback and exit 1): the CLI lifts it, for the streamed
        # --out and for the text that --dump-symbolic prints and writes, and --pretty
        out = tmp_path / "phi.json"
        limit, got = sys.get_int_max_str_digits(), []
        try:
            for extra in ([], ["--dump-symbolic", "--pretty"]):
                sys.set_int_max_str_digits(4300)
                res = invoke(runner, "build-integral", "--order", "40", "--omega1",
                             "123456/654321", "--out", str(out), *extra)
                got.append((res.exit_code, res.stdout, out.read_text()))
            phi = build_integral(SystemParams(F(2), F(123456, 654321), 0.1), 40)
            want = json.dumps({**ref.to_json_obj(phi), "epsilon": 0.1}, indent=2,
                              sort_keys=True) + "\n"
            pretty = phi.pretty() + "\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == [(0, f"wrote {out}\n", want), (0, f"wrote {out}\n" + want + pretty, want)]

    @pytest.mark.parametrize("why", ["one-cpu", "a-thread"])
    def test_nothing_forks(self, runner, tmp_path, monkeypatch, why):
        forks = on_cpus(monkeypatch, 1 if why == "one-cpu" else 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if why == "a-thread":
            thread.start()
        try:
            text = self._written(runner, tmp_path, 40)
        finally:
            stop.set()
            if why == "a-thread":
                thread.join(timeout=10)
        assert forks == [] and not thread.is_alive()
        monkeypatch.undo()
        assert text == self._written(runner, tmp_path, 40)


class TestStreamedOutput:
    """Every --out is written as it is formatted, through the atomic writer."""

    def test_out_writes_through_a_symlink(self, runner, tmp_path, monkeypatch):
        # as open("link.csv", "w") would: the link stays and its target gets the bytes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "real.csv"
        real.write_text("old\n")
        (tmp_path / "link.csv").symlink_to(Path("data") / "real.csv")
        res = invoke(runner, "section", "--periods", "2", "--out", "link.csv")
        assert res.exit_code == 0 and res.stdout == "wrote link.csv\n"
        assert (tmp_path / "link.csv").is_symlink()
        assert real.read_text() == invoke(runner, "section", "--periods", "2").stdout
        assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]
        assert os.listdir(tmp_path / "data") == ["real.csv"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("exists", [False, True])
    def test_failure_in_the_middle_of_a_stream(self, runner, tmp_path, fmt, exists):
        # E overflows in period 239, after 14 blocks of 16 periods went to the temp file
        out = tmp_path / f"f.{fmt}"
        if exists:
            out.write_text("old\n")
        args = ["orbit", "--epsilon", "1", "--periods", "5000", "--samples", "64",
                "--format", fmt]
        for extra in (["--out", str(out)], []):
            res = invoke(runner, *args, *extra)
            assert res.exit_code == 2 and res.stdout == ""
            assert res.stderr == ("error: the state overflows in period 239; "
                                  "the orbit is unbounded\n")
            assert os.listdir(tmp_path) == ([out.name] if exists else [])
            assert not exists or out.read_text() == "old\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args, error", [
        (["distances", "--r-escape", "-1"],
         "the escape radius must be positive and finite, got -1.0"),
        (["distances", "--epsilon", "1", "--periods", "5000"], OVERFLOW_240),
        (["section", "--epsilon", "1", "--periods", "5000"], OVERFLOW_240),
        (["energy", "--epsilon", "1", "--periods", "5000"], OVERFLOW_240),
    ], ids=["distances-radius", "distances-overflow", "section-overflow", "energy-overflow"])
    def test_the_first_block_is_checked_before_the_path(self, runner, tmp_path, args, error,
                                                        fmt):
        # the first piece of a table holds its first block, which the writer reads
        # before it makes the temp file: bad input there is named, not the path
        res = invoke(runner, *args, "--format", fmt,
                     "--out", str(tmp_path / "missing" / f"o.{fmt}"))
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: {error}\n"
        assert os.listdir(tmp_path) == []

    def test_no_worker_outlives_its_command(self, runner, tmp_path, monkeypatch):
        # a table of more than two blocks forks a worker on a host with two CPUs;
        # the command reaps it, also when the orbit overflows part way
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", counted)
        for fmt in ("csv", "json"):
            for extra in (["--out", str(tmp_path / f"o.{fmt}")], []):
                ok = invoke(runner, "orbit", "--periods", "40", "--samples", "64",
                            "--format", fmt, *extra)
                overflow = invoke(runner, "orbit", "--epsilon", "1", "--periods", "5000",
                                  "--samples", "64", "--format", fmt, *extra)
                assert ok.exit_code == 0 and overflow.exit_code == 2
                assert overflow.stderr == ("error: the state overflows in period 239; "
                                           "the orbit is unbounded\n")
                # r first passes the radius at k = 1106, in the second block of
                # periods; distances forks no worker, its rows are a generator
                distances = invoke(runner, "distances", "--epsilon", "0.12", "--periods", "3000",
                                   "--x0", "0.3", "--y0", "0.5", "--r-escape", "0.7635084",
                                   "--format", fmt, *extra)
                assert distances.exit_code == 0
                text = (tmp_path / f"o.{fmt}").read_text() if extra else distances.stdout
                assert text.endswith("\n# escaped at k=1106\n" if fmt == "csv" else
                                     '\n      "# escaped at k=1106"\n    ]\n  ]\n}\n')
        assert len(forks) == 8
        with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _peak_mb(runner, *args) -> float:
        """The tracemalloc peak of one CLI command, after a warm-up run."""
        invoke(runner, *args[:1])
        tracemalloc.start()
        try:
            res = invoke(runner, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        return peak / 1e6

    @pytest.mark.parametrize("command, fmt, start", [
        ("orbit", "csv", ()), ("orbit", "json", ()), ("section", "csv", ()),
        ("energy", "json", ()), ("distances", "json", ()),
        # r first passes the radius at k = 13717, deep in the stream
        ("distances", "csv", ("--x0", "0.5", "--y0", "0", "--r-escape", "0.8147323135")),
        ("distances", "json", ("--x0", "0.5", "--y0", "0", "--r-escape", "0.8147323135"))],
        ids=["csv", "json", "section-csv", "energy-json", "distances-json", "distances-csv",
             "distances-escape-json"])
    def test_long_orbit_streams_in_bounded_memory(self, runner, tmp_path, monkeypatch, command,
                                                  fmt, start):
        # the whole table would hold about 280 B a row and its text as much again:
        # about 14 MB at 20,001 rows when formatted whole.  On two CPUs a worker
        # formats rows 10,001 to 20,000 of orbit, section and energy; distances, whose
        # rows are a generator, writes all of its rows and the escape line itself
        out = tmp_path / f"o.{fmt}"
        samples = ["--samples", "1"] if command == "orbit" else []
        forks = on_cpus(monkeypatch, 2)
        peak = self._peak_mb(runner, command, "--periods", "20000", *samples, *start,
                             "--format", fmt, "--out", str(out))
        assert peak < 2.0
        # and the warm-up orbit's 6401 rows
        assert len(forks) == (command != "distances") + (command == "orbit")
        # the bytes of the section list the commands built before they streamed
        x0, y0 = (0.5, 0.0) if start else (0.0, 1.0)
        pts = stroboscopic_section(SystemParams(F(2), F(9, 10), 0.1), x0, y0, 20000)
        header, rows = output.ORBIT_COLUMNS, pts
        if command == "energy":
            header, rows = ("k", "t", "x", "E"), [(p.k, p.t, p.x, p.E) for p in pts]
        elif command == "distances":
            header, rows = ("k", "t", "d", "r"), [(p.k, p.t, p.d, p.r) for p in pts]
        if start:  # the escape line is the last row, in either format
            assert next(p.k for p in pts if p.r > 0.8147323135) == 13717
            rows.append(("# escaped at k=13717",))
        assert out.read_text() == output.tabular(header, rows, fmt)

    @pytest.mark.parametrize("args, digest", [
        (("--format", "json", "--r-escape", "1e90"),
         "ddaa9958766af68448b42cb34b1c95435857ab9a16390fe7e0e5a47361ccf888"),
        (("--r-escape", "0.8147323135"),
         "9da266b2c09d53c5280e25d5e6d8f1f196af8ea106e14dc51d20bc16bc8e536d")],
        ids=["json-no-escape", "csv-escape"])
    def test_distances_bytes_outside_json_escapes_are_unchanged(self, runner, args, digest):
        # SHA-256 of the stdout, recorded before the JSON document carried the
        # escape line: a document without an escape, and the CSV, keep their bytes
        res = invoke(runner, "distances", "--periods", "20000", "--x0", "0.5", "--y0", "0", *args)
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_distances_reads_every_row_once_in_this_process(self, runner, monkeypatch, n_cpus):
        # the rows are a generator, which does not split: on one CPU and on two this
        # process reads each of the 20,001 rows once, checks the escape at k = 13717
        # and writes the escape line
        parent, next_block, pulled = os.getpid(), dynamics.OrbitBlocks.__next__, []

        def counted(self):
            block = next_block(self)
            if os.getpid() == parent:
                pulled.append(len(block))
            return block

        monkeypatch.setattr(dynamics.OrbitBlocks, "__next__", counted)
        forks = on_cpus(monkeypatch, n_cpus)
        res = invoke(runner, "distances", "--periods", "20000", "--x0", "0.5", "--y0", "0",
                     "--r-escape", "0.8147323135")
        assert res.exit_code == 0 and res.stdout.endswith("\n# escaped at k=13717\n")
        assert forks == [] and sum(pulled) == 20_001

    def test_order_40_integral_streams_in_bounded_memory(self, runner, tmp_path):
        # the integral itself holds about 2 MB; its 2.1 MB of text goes out in pieces
        out = tmp_path / "phi40.json"
        assert self._peak_mb(runner, "build-integral", "--order", "40", "--out", str(out)) < 3.5
        assert out.stat().st_size > 2_000_000


class TestTwoProcesses:
    """A table of over two blocks of 1024 rows, on two CPUs: this process writes its head
    and a forked worker its tail, from the tail's own first row, with the bytes and the
    errors of one process."""

    @staticmethod
    def _outputs(runner, tmp_path, monkeypatch, n_cpus, *args):
        """(exit code, stdout, stderr, file bytes) of the command to a file and to stdout
        on n_cpus, and the workers it forked."""
        forks = on_cpus(monkeypatch, n_cpus)
        out, got = tmp_path / f"{n_cpus}.out", []
        for extra in (["--out", str(out)], []):
            res = invoke(runner, *args, *extra)
            written = out.read_bytes() if extra and out.exists() else None
            got.append((res.exit_code, res.stdout.replace(str(out), "OUT"), res.stderr, written))
        monkeypatch.undo()
        return got, forks

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", [
        ("orbit", "--samples", "64", "--periods", "40"),  # 2561 rows
        ("orbit", "--samples", "64", "--periods", "41"),
        ("orbit", "--samples", "64", "--time", "130"),  # 42 periods
        ("orbit", "--samples", "3", "--periods", "700"),
        ("orbit", "--samples", "3", "--periods", "701"),
        ("orbit", "--samples", "1", "--periods", "2100"),
        ("section", "--periods", "2101"),
        ("section", "--time", "6600.5"),  # 2102 periods
        ("energy", "--periods", "2100"),
        ("energy", "--time", "6600.5"),
        # r passes 1e28 first at k = 1820; distances forks no worker
        ("distances", "--epsilon", "0.187", "--periods", "2100", "--r-escape", "1e28"),
    ], ids=lambda args: "-".join(a.lstrip("-") for a in args))
    def test_the_bytes_of_one_process(self, runner, tmp_path, monkeypatch, args, fmt):
        one, forks = self._outputs(runner, tmp_path, monkeypatch, 1, *args, "--format", fmt)
        assert forks == []
        two, forks = self._outputs(runner, tmp_path, monkeypatch, 2, *args, "--format", fmt)
        assert len(forks) == 2 * (args[0] != "distances") and two == one
        assert one[0][:3] == (0, "wrote OUT\n", "") and one[0][3].decode() == one[1][1]
        assert args[0] != "distances" or "# escaped at k=1820" in one[1][1]

    @pytest.mark.parametrize("periods", [5000, 400], ids=["head", "tail"])
    def test_an_overflow_in_either_part_is_the_error_of_one_process(
            self, runner, tmp_path, monkeypatch, periods):
        # E overflows in period 239: in the head of 5000 periods (split at period 2500),
        # in the tail of 400 (split at period 200), where the worker meets it, ends
        # without its report, and this process meets it again in its own tail
        args = ("orbit", "--epsilon", "1", "--samples", "64", "--periods", str(periods))
        for fmt in ("csv", "json"):
            one, _ = self._outputs(runner, tmp_path, monkeypatch, 1, *args, "--format", fmt)
            two, forks = self._outputs(runner, tmp_path, monkeypatch, 2, *args, "--format", fmt)
            assert len(forks) == 2 and two == one
            assert one == [(2, "", "error: the state overflows in period 239; "
                                "the orbit is unbounded\n", None)] * 2
            assert os.listdir(tmp_path) == []

    @staticmethod
    def _walked(monkeypatch, log, end=None):
        """Note in ``log`` the pid of the process that walks each period of the grid;
        a worker ends itself (os._exit or SIGKILL) at the ``end`` = (period, how) it
        walks, counted from its first."""
        one_period, parent = dynamics._one_period, os.getpid()

        class Walked(list):
            periods = 0

            def __iter__(self):
                self.periods += 1
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                if end and os.getpid() != parent and self.periods == end[0]:
                    if end[1] == "exit":
                        os._exit(0)
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().__iter__()

        monkeypatch.setattr(dynamics, "_one_period", lambda *args: Walked(one_period(*args)))

    @pytest.mark.parametrize("periods, head", [(106, 53), (107, 53)])
    def test_the_worker_computes_no_row_before_its_first(self, runner, tmp_path, monkeypatch,
                                                        periods, head):
        # 6785 rows split at row 3393, the first of period 53 (6849 rows: at 3425, the
        # first of period 53 too): each process walks its own periods and no other, the
        # worker from the state at t = 53 T that M(T) alone gives
        log = tmp_path / "walked"
        self._walked(monkeypatch, log)
        forks = on_cpus(monkeypatch, 2)
        res = invoke(runner, "orbit", "--samples", "64", "--periods", str(periods),
                     "--out", str(tmp_path / "o.csv"))
        assert res.exit_code == 0 and len(forks) == 1
        walked = [int(pid) for pid in log.read_text().split()]
        assert {pid: walked.count(pid) for pid in walked} == {os.getpid(): head,
                                                               forks[0]: periods - head}
        monkeypatch.undo()
        assert (tmp_path / "o.csv").read_text() == invoke(
            runner, "orbit", "--samples", "64", "--periods", str(periods)).stdout

    @pytest.mark.parametrize("end", [(1, "exit"), (30, "exit"), (53, "exit"), (1, "kill"),
                                     (53, "kill")], ids=lambda end: f"{end[1]}-{end[0]}")
    def test_a_worker_that_ends_part_way_changes_no_byte(self, runner, tmp_path, monkeypatch,
                                                         end):
        # the worker of 106 periods walks periods 53 to 105; once it is gone without
        # its report, this process walks them itself from its own copy of the tail
        args = ("orbit", "--samples", "64", "--periods", "106")
        one, _ = self._outputs(runner, tmp_path, monkeypatch, 1, *args)
        self._walked(monkeypatch, tmp_path / "walked", end)
        two, forks = self._outputs(runner, tmp_path, monkeypatch, 2, *args)
        assert len(forks) == 2 and two == one and one[0][0] == 0
        walked = [int(pid) for pid in (tmp_path / "walked").read_text().split()]
        assert {pid: walked.count(pid) for pid in walked} == {
            os.getpid(): 2 * 106, forks[0]: end[0], forks[1]: end[0]}


class TestAnalysisCommands:
    def test_critical_eps_stdout(self, runner, tmp_path):
        out = tmp_path / "crit.json"
        res = invoke(runner, "critical-eps", "--out", str(out))
        assert res.exit_code == 0
        value = float(res.output.strip().splitlines()[0])
        assert abs(value - 0.1857848626) < 1e-6
        doc = json.loads(out.read_text())
        assert doc["oracle"] == "hill"
        assert doc["bracket"][1] - doc["bracket"][0] <= 1e-9

    def test_critical_eps_escape_oracle(self, runner, tmp_path):
        # the count certifies the Hill root; the report has no escape_check key
        out = tmp_path / "crit.json"
        res = invoke(runner, "critical-eps", "--omega1", "11/10", "--sign", "-1",
                     "--out", str(out))
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["oracle"] == "hill" and "escape_check" not in doc
        assert abs(doc["eps_crit"] + 0.21598) < 1e-4

    @pytest.mark.parametrize("omega, omega1", [("2", "1"), ("2", "2"), ("4", "2"), ("1", "1/2")])
    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_critical_eps_is_zero_at_a_1_and_4(self, runner, tmp_path, omega, omega1, sign):
        # a = 4 omega1^2/omega^2 is 1 or 4: the tongue holds a at every q != 0, and
        # the rounding of tr -+ 2 printed 1.6e-8 and 6.4e-7 here
        out = tmp_path / "crit.json"
        res = invoke(runner, "critical-eps", "--omega", omega, "--omega1", omega1,
                     "--sign", sign, "--out", str(out))
        assert res.exit_code == 0 and res.stdout == "0\n"
        doc = json.loads(out.read_text())
        assert (doc["eps_crit"], doc["bracket"], doc["iterations"]) == (0.0, [0.0, 0.0], 0)

    def test_critical_eps_at_a_9_is_not_zero(self, runner):
        # the tongue at a = 9 opens at 9 + q^2/16: it does not hold a = 9
        res = invoke(runner, "critical-eps", "--omega1", "3")
        assert res.exit_code == 0 and res.stdout == "6.818513197\n"

    @pytest.mark.parametrize("args, printed", [
        (("--omega", "1/100"), "0.3732349194"), (("--omega", "1/10"), "0.3382962085"),
        (("--omega1", "301/100"), "0.8859152304"), (("--omega1", "401/100"), "1.524048158"),
        (("--omega1", "17/6"), "6.620331503"), (("--omega1", "2/3"), "0.5234836333"),
        (("--omega1", "1/6"), "0.8846841185"), (("--omega1", "17/15"), "0.295789483")])
    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_first_boundary_where_the_search_missed_it(self, runner, tmp_path, args, printed,
                                                       sign):
        # the search printed a later root, refuted it, or found none, and the trace's ITP
        # root printed 0.5234836332, 0.8846841186 and 0.2957894831 at the last three; the
        # count brackets the first boundary (tests/test_analysis.py checks each against
        # references)
        out = tmp_path / "crit.json"
        res = invoke(runner, "critical-eps", *args, "--sign", sign, "--out", str(out))
        assert res.exit_code == 0
        assert res.stdout == ("-" if sign == "-1" else "") + printed + "\n"
        doc = json.loads(out.read_text())
        assert abs(doc["bracket"][1] - doc["bracket"][0]) <= 1e-10

    def test_monodromy_json(self, runner):
        res = invoke(runner, "monodromy", "--epsilon", "0.0")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["stable"] is True
        (m11, m12), (m21, m22) = doc["matrix"]
        assert abs(m11 * m22 - m12 * m21 - 1.0) < 1e-9
        assert doc["det"] == 1.0  # the flow's, not the entries'
        assert abs(doc["trace"] + 1.9021130325903071) < 1e-9

    @pytest.mark.parametrize("eps, small", [("1e4", 1.3278874073150866e-74),
                                            ("3e4", -7.061568606928933e-128),
                                            ("1e5", -5.342306361679288e-233)])
    def test_monodromy_json_at_large_eps_is_finite(self, runner, eps, small):
        # the entries' det read 0, -1.3e238 and NaN here, and so did a multiplier
        res = invoke(runner, "monodromy", "--epsilon", eps)
        assert res.exit_code == 0
        assert "NaN" not in res.stdout and "Infinity" not in res.stdout
        doc = json.loads(res.stdout)
        assert doc["det"] == 1.0 and doc["stable"] is False
        (b1, i1), (b2, i2) = doc["eigenvalues"]
        assert i1 == i2 == 0.0
        assert min(b1, b2, key=abs) == pytest.approx(small, rel=1e-12)
        assert abs(b1 * b2 - 1.0) <= 1e-15

    @pytest.mark.parametrize("args, message", [
        (["--epsilon", "3e5"], "the monodromy over 1 period overflows"),  # H ~ 1e204, M ~ H^2
        # finite entries of 0.95e308 whose trace is not: it printed Infinity
        (["--omega", "1/2", "--epsilon", "1.0004", "--n", "162"],
         "the monodromy over 162 periods overflows"),
        # H past float64 by its growth alone, refused before a row of Hill's recurrence:
        # it ran 1.1 million rows per parity class (1.1 s) before "overflows"
        (["--epsilon", "1e8"],
         "the solution leaves float64 within half a period at eps = 100000000.0"),
    ])
    def test_monodromy_overflow_is_one_line(self, runner, args, message):
        res = invoke(runner, "monodromy", *args)
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    def test_convergence_improves(self, runner, tmp_path):
        out = tmp_path / "conv.csv"
        res = invoke(runner, "convergence", "--orders", "2,4,6",
                     "--periods", "50", "--out", str(out))
        assert res.exit_code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        residuals = [float(r[1]) for r in rows]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_resonant_report(self, runner, tmp_path):
        out = tmp_path / "res.json"
        res = invoke(runner, "resonant", "--omega1", "1", "--epsilon", "0.05",
                     "--order", "3", "--out", str(out))
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["mix"][0] == [{"p": 0, "k": 0, "m": 0, "phase": "cos",
                                  "num": 1, "den": 4}]
        assert doc["max_section_residual"] <= 1e-2
        a, b = doc["section_form"]["A"], doc["section_form"]["B"]
        assert a < 0 < b

    def test_resonant_rejects_nonresonant(self, runner):
        res = invoke(runner, "resonant", "--omega1", "9/10")
        assert res.exit_code == 2

    def test_resonant_higher_commensurability(self, runner):
        res = invoke(runner, "resonant", "--omega1", "2")
        assert res.exit_code == 2
        assert "primary resonance" in res.output


class TestJsonDocuments:
    """Every JSON document the CLI writes is json.dumps(indent=2, sort_keys=True) of itself."""

    @pytest.mark.parametrize("args", [
        ["build-integral", "--order", "6"],
        ["resonant", "--omega1", "1", "--epsilon", "0.05", "--order", "4", "--dump-symbolic"],
        ["critical-eps"],
        ["monodromy", "--epsilon", "0.15", "--n", "3"],
        ["orbit", "--periods", "2", "--samples", "8", "--format", "json"],
        ["section", "--periods", "20", "--format", "json"],
    ], ids=lambda args: args[0])
    def test_reencodes_to_itself(self, runner, tmp_path, args):
        out = tmp_path / "doc.json"
        res = invoke(runner, *args, "--out", str(out))
        assert res.exit_code == 0
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


class TestResonantCommand:
    @pytest.mark.parametrize("order, depth", [(0, 0), (1, 1), (2, 1), (10, 1)])
    def test_phi_only_as_deep_as_the_elimination_reads(self, runner, monkeypatch, tmp_path,
                                                       order, depth):
        # Phi_1 = R(H0) when depth is 1, then X_1 ... X_order; no series is built
        built, steps = [], []
        step = resonant.recursion_step

        def recording(*args, **kwargs):
            steps.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(resonant, "_series", lambda *args: built.append(args))
        monkeypatch.setattr(resonant, "recursion_step", recording)
        res = invoke(runner, "resonant", "--omega1", "1", "--order", str(order),
                     "--out", str(tmp_path / "r.json"))
        assert res.exit_code == 0
        assert built == []
        assert len(steps) == depth + order

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("order", [0, 3, 10, 14])
    def test_dump_symbolic_writes_the_plain_json_of_its_integrals(self, runner, monkeypatch,
                                                                   tmp_path, order, cpus):
        # the C-series and the combined integral go out as their documents' bytes; the
        # C-series of order 14 holds 1.1e6 numerator bits, so a worker writes its tail
        out = tmp_path / "r.json"
        forks = on_cpus(monkeypatch, cpus)
        res = invoke(runner, "resonant", "--omega1", "1", "--order", str(order),
                     "--dump-symbolic", "--out", str(out))
        assert res.exit_code == 0
        assert len(forks) == (cpus == 2 and order == 14)
        params = SystemParams(F(2), F(1), 0.1)
        text = out.read_text()
        doc = {**json.loads(text),
               "c_series": ref.to_json_obj(resonant.build_resonant_c(params, order)),
               "combined": ref.to_json_obj(resonant.eliminate_secular(params, order).combined)}
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestOptions:
    def test_every_option_has_a_help_line(self):
        missing = [f"{name} {param.opts[0]}" for name, command in main.commands.items()
                   for param in command.params
                   if isinstance(param, click.Option) and not param.help]
        assert missing == []


def _work_before_a_refusal(monkeypatch) -> dict:
    """Count, in ``dynamics``, the Taylor steps (a math.cos and a math.sin each) and the
    rows of Hill's determinant recurrence (its ``range`` from row N down to 1), and
    fail at once at a loop longer than the ``_MAX_STEPS`` budget: a command that
    starts the work it should refuse fails here, at its first step or row."""
    work, budget = {"steps": 0, "rows": 0}, dynamics._MAX_STEPS

    def step(fn):
        def counted(x):
            work["steps"] += 0.5
            return fn(x)
        return counted

    def loop(*args):
        r = range(*args)
        assert abs(r.stop - r.start) <= budget * abs(r.step), f"a loop of {r} past the budget"
        if r.step == -1 and r.stop == 0:  # the recurrence, downward from row N
            work["rows"] += r.start
        return r

    proxy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                     if not k.startswith("_")})
    proxy.cos, proxy.sin = step(math.cos), step(math.sin)
    monkeypatch.setattr(dynamics, "math", proxy)
    monkeypatch.setattr(dynamics, "range", loop, raising=False)
    return work


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ["section", "--omega1", "0"],
        ["section", "--omega", "-2"],
        ["section", "--omega1", "9/0"],
        ["section", "--epsilon", "nan"],
        ["section", "--epsilon", "inf"],
        ["section", "--epsilon", "0.5", "--periods", "3000"],
        ["section", "--periods", "0"],
        ["orbit", "--samples", "0"],
        ["monodromy", "--n", "0"],
        ["convergence", "--x0", "0", "--y0", "0"],
        ["section", "--x0", "0", "--y0", "0"],
        ["orbit", "--x0", "0", "--y0", "0"],
        ["distances", "--x0", "0", "--y0", "0"],
        ["energy", "--x0", "0", "--y0", "0"],
        ["resonant", "--omega1", "1", "--x0", "0", "--y0", "0"],
        ["resonant", "--omega1", "1", "--x0", "1", "--y0", "1", "--epsilon", "0"],
        ["convergence", "--orders", "x"],
        ["convergence", "--orders", "4,x"],
        ["convergence", "--orders=-1,2"],
        ["resonant", "--omega1", "1", "--order", "-1"],
        ["distances", "--r-escape", "-1"],
        ["distances", "--r-escape", "nan"],
        ["critical-eps", "--sign", "0"],
        ["critical-eps", "--sign", "2"],
        ["critical-eps", "--sign", "-2"],
        ["distances", "--time", "-1"],
        ["distances", "--time", "0"],
        ["monodromy", "--epsilon", "1e308"],
        ["section", "--epsilon", "1e300"],
        ["section", "--x0", "1e200", "--periods", "3"],
        ["critical-eps", "--sign", "x"],
        ["section", "--periods", "x"],
        ["section", "--format", "xml"],
        ["critical-eps", "--epsilon", "5"],
        ["critical-eps", "--oracle", "escape"],
        ["resonant", "--omega1", "1", "--x0", "inf"],
    ])
    def test_one_line_error_and_exit_2(self, runner, args):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["monodromy", "--omega", "1e-150"],
        ["section", "--omega", "1e-150", "--periods", "1"],
        ["orbit", "--omega", "1e-150"],
    ], ids=lambda args: args[0])
    def test_span_beyond_the_step_budget_fails_fast(self, runner, monkeypatch, args):
        # T/2 = 3.1e150 holds 4.5e149 oscillations of omega1: no step budget covers
        # them, and the refusal comes before a Taylor step or a determinant's row
        work = _work_before_a_refusal(monkeypatch)
        res = invoke(runner, *args)
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]
        assert work == {"steps": 0, "rows": 0}

    def test_work_before_a_refusal_sees_steps_and_rows(self, runner, monkeypatch):
        # the counter of the two tests around this one, on a command within the budget
        work = _work_before_a_refusal(monkeypatch)
        assert invoke(runner, "orbit", "--periods", "1", "--samples", "2").exit_code == 0
        assert work["steps"] >= 1 and work["rows"] > 0

    @pytest.mark.parametrize("args", [
        ["energy", "--time", "1e308", "--periods", "1"],
        ["section", "--periods", "5000001"],
        ["distances", "--time", "1e300"],
        ["orbit", "--periods", "200000", "--samples", "32"],
    ], ids=lambda args: args[0])
    def test_horizon_beyond_the_row_budget_fails_fast(self, runner, monkeypatch, args):
        # more periods times samples than the step budget: refused before the one-period
        # grid is solved, so before any row is built
        solved = []
        monkeypatch.setattr(dynamics, "_one_period", lambda *a: solved.append(a) or 1 / 0)
        work = _work_before_a_refusal(monkeypatch)
        res = invoke(runner, *args)
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the horizon needs more than")
        assert solved == [] and work == {"steps": 0, "rows": 0}

    @pytest.mark.parametrize("args, name", [
        (["critical-eps", "--omega", "1e-400"], "omega is 0.0"),
        (["critical-eps", "--omega", "1e400"], "omega is inf"),
        (["critical-eps", "--omega", "1e-200"], "a = 4 omega1^2/omega^2 is inf"),
        (["critical-eps", "--omega1", "1e-200"], "a = 4 omega1^2/omega^2 is 0.0"),
        (["critical-eps", "--omega1", "1e200"], "a = 4 omega1^2/omega^2 is inf"),
        (["critical-eps", "--omega", "1e160"], "4/omega^2 is 0.0"),
        (["section", "--omega1", "1e400"], "omega1 is inf"),
        (["section", "--omega", "1e-200"], "a = 4 omega1^2/omega^2 is inf"),
        (["monodromy", "--omega", "1e400"], "omega is inf"),
        (["build-integral", "--omega", "1e-200", "--order", "2"], "a = 4 omega1^2/omega^2"),
    ])
    def test_frequency_outside_the_float_range(self, runner, args, name):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name}")

    @pytest.mark.parametrize("args, cause", [
        # E(0) = -H(x0, y0, 0) is inf - inf: the start, not the propagation, overflows
        (["section", "--x0", "1e200", "--periods", "3"], "initial energy"),
        # (1, 1) lies on the asymptote y = x of the hyperbola y^2 - x^2 = 0, not at the origin
        (["resonant", "--omega1", "1", "--x0", "1", "--y0", "1", "--epsilon", "0"],
         "zero level set"),
    ])
    def test_error_names_its_cause(self, runner, args, cause):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert cause in res.output and "unbounded" not in res.output

    @pytest.mark.parametrize("args", [
        ["section", "--periods", "3", "--out", "{missing}/x.csv"],
        ["build-integral", "--order", "3", "--conics-out", "{missing}/c.csv"],
        ["monodromy", "--out", "{directory}"],
        ["critical-eps", "--out", "{missing}/c.json"],
    ], ids=lambda args: args[0])
    def test_unwritable_out_is_one_error_line(self, runner, tmp_path, args):
        # a missing directory, or a path that is a directory: the error names the
        # user's path, not the temp file, and the temp file is gone
        (tmp_path / "taken").mkdir()
        path = args[-1].format(missing=tmp_path / "missing", directory=tmp_path / "taken")
        res = invoke(runner, *args[:-1], path)
        assert res.exit_code == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path}: ")
        assert res.stdout == ""  # nothing is printed before every file is written
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]

    def test_unwritable_second_path_prints_nothing(self, runner, tmp_path):
        res = invoke(runner, "build-integral", "--order", "3", "--out", str(tmp_path / "p.json"),
                     "--dump-symbolic", "--pretty",
                     "--conics-out", str(tmp_path / "missing" / "c.csv"))
        assert res.exit_code == 2
        assert res.stdout == "" and res.stderr.startswith("error: cannot write ")


class TestRuntimeDependencies:
    """click is the one runtime dependency; numpy and scipy are never needed."""

    def test_pyproject_declares_click_alone(self):
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["dependencies"] == ["click>=8.0"]

    @pytest.mark.parametrize("args", [
        ["critical-eps"],
        ["build-integral", "--order", "6"],
        ["resonant", "--omega1", "1"],
    ], ids=lambda args: args[0])
    def test_runs_with_numpy_and_scipy_unimportable(self, tmp_path, args):
        code = ("import sys; sys.modules['numpy'] = sys.modules['scipy'] = None; "
                "from mathieu_integrals.cli import main; main(sys.argv[1:])")
        src = str(Path(mathieu_integrals.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestPublicApi:
    def test_cli_uses_no_private_library_name(self):
        # the CLI is a client of the library: every name it takes from another
        # module of the package is public
        modules = {"analysis", "builder", "dynamics", "output", "resonant"}
        tree = ast.parse(Path(cli.__file__).read_text())
        private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules and node.attr.startswith("_")]
        private += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module in modules
                    for alias in node.names if alias.name.startswith("_")]
        assert private == []

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from mathieu_integrals import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(mathieu_integrals.__all__)
        assert len(set(mathieu_integrals.__all__)) == len(mathieu_integrals.__all__)

    def test_readme_library_quickstart_runs(self):
        # every ```python block under "Library quickstart", run in order in one namespace,
        # so a name the package no longer has cannot linger in the docs
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("## Library quickstart")
        end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("## "))
        namespace, code, blocks = {}, None, 0
        for number, line in enumerate(lines[start:end], start=start + 1):
            if code is None and line == "```python":
                code, fence = [], number
            elif code is not None and line == "```":
                # padded so that a traceback names the README's own line
                exec(compile("\n" * fence + "\n".join(code), "README.md", "exec"), namespace)
                code, blocks = None, blocks + 1
            elif code is not None:
                code.append(line)
        assert blocks >= 2


class TestBenchmarkTracer:
    """perfbench's per-layer mode (``--trace 1``) patches src functions by name."""

    @staticmethod
    def _tracing():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        return tracing

    def test_every_target_resolves(self):
        # Tracer.install() raises on a missing name, so a renamed or removed src
        # function would otherwise show only in a --trace 1 run
        missing = []
        for module_name, attr, _ in self._tracing().TARGETS:
            owner = getattr(mathieu_integrals, module_name, None)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{attr}")
        assert missing == []

    def test_install_finds_every_target_and_uninstall_restores_it(self):
        tracing = self._tracing()

        def binding(module_name, attr):
            owner = sys.modules["mathieu_integrals." + module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                return vars(getattr(owner, cls_name))[attr]
            return getattr(owner, attr)

        originals = [binding(module, attr) for module, attr, _ in tracing.TARGETS]
        tracer = tracing.Tracer()
        try:
            tracer.install()
            patches = list(tracer._patches)
            assert all(binding(module, attr) is not original for (module, attr, _), original
                       in zip(tracing.TARGETS, originals))
        finally:
            tracer.uninstall()
        assert all(getattr(holder, key) is original for holder, key, original in patches)
        assert all(binding(module, attr) is original for (module, attr, _), original
                   in zip(tracing.TARGETS, originals))

    #: every subcommand, small; each runs once with --out and once to stdout
    SMOKE = [
        ["build-integral", "--order", "4", "--pretty", "--conics-out", "conics.csv"],
        ["orbit", "--periods", "3", "--samples", "4"],
        ["orbit", "--periods", "3", "--samples", "4", "--format", "json"],
        ["section", "--periods", "5"],
        ["distances", "--epsilon", "0.19", "--periods", "40"],
        ["energy", "--periods", "5", "--format", "json"],
        ["critical-eps"],
        ["monodromy", "--epsilon", "0.18"],
        ["resonant", "--omega1", "1", "--epsilon", "0.05", "--order", "4", "--periods", "3"],
        ["convergence", "--orders", "2,4", "--periods", "10"],
    ]

    def test_traced_commands_match_untraced(self, runner, tmp_path, monkeypatch):
        # the benchmark's --trace 1 passes run the CLI under the tracer's wrappers
        tracing = self._tracing()

        def run_all(tag: str) -> list:
            (tmp_path / tag).mkdir()
            monkeypatch.chdir(tmp_path / tag)
            results = []
            for args in self.SMOKE:
                for extra in ([], ["--out", "out.data"]):
                    res = invoke(runner, *args, *extra)
                    files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
                    for p in Path().iterdir():
                        p.unlink()
                    results.append((args + extra, res.exit_code, res.stdout_bytes,
                                    res.stderr_bytes, files))
            return results

        plain = run_all("plain")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_all("traced")
            # the counted spans take a str to write and give a str table
            first = len(tracer.spans)
            text = output.tabular(("k", "t"), [(0, 0.5), (1, 1.5)], "csv")
            output.atomic_write_text("t.csv", text)
            output.columns_json(("k", "t"), [(0, 0.5), (1, 1.5)])
            counted = [(name, count) for name, _, _, _, count in tracer.spans[first:]]
            tracer.end_pass()
            metrics = tracer.layer_metrics()
        finally:
            tracer.uninstall()
        assert [result[1] for result in plain] == [0] * 2 * len(self.SMOKE)
        assert traced == plain
        assert counted == [("output.format.tabular", None), ("output.format.columns_csv", 2),
                           ("output.write", len(text)), ("output.format.columns_json", 2)]
        assert metrics["cli.commands"] == 0 and metrics["builder.terms_max"] > 0
