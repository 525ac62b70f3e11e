"""CLI tests: subcommands, exit codes, schemas, determinism."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import time
import tomllib
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import mathieu_integrals
from mathieu_integrals import (SystemParams, build_integral, cli, integrate_orbit, output,
                               resonant, stroboscopic_section)
from mathieu_integrals.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


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

    def test_order_28_under_a_minute(self, runner, tmp_path):
        start = time.time()
        res = invoke(runner, "build-integral", "--order", "28",
                     "--out", str(tmp_path / "o28.json"))
        assert res.exit_code == 0
        assert time.time() - start < 60.0

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
            else:
                want = output.tabular(("k", "t", "d", "r"),
                                      [(k, t, d, r) for k, t, _, _, _, d, r in rows], fmt)
                if fmt == "csv":
                    want += f"# escaped at k={next(p.k for p in pts if p.r > 1e3)}\n"
        assert res.stdout == want


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
        # the monodromy trace at eps_crit -+ 1e-3 confirms the Hill root
        out = tmp_path / "crit.json"
        res = invoke(runner, "critical-eps", "--omega1", "11/10", "--sign", "-1",
                     "--out", str(out))
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["oracle"] == "hill" and doc["escape_check"] is True
        assert abs(doc["eps_crit"] + 0.21598) < 1e-4

    def test_refuted_root_is_an_error(self, runner, tmp_path):
        # a root the monodromy cross-check refutes is never printed as eps_crit:
        # at omega = 1/100 the search lands on a later crossing of +-2
        out = tmp_path / "crit.json"
        res = invoke(runner, "critical-eps", "--omega", "1/100", "--out", str(out))
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "refuted" in lines[0]
        assert not out.exists()

    def test_monodromy_json(self, runner):
        res = invoke(runner, "monodromy", "--epsilon", "0.0")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["stable"] is True
        assert abs(doc["det"] - 1.0) < 1e-9
        assert abs(doc["trace"] + 1.9021130325903071) < 1e-9

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
    def test_span_beyond_the_step_budget_fails_fast(self, runner, args):
        # T/2 = 3.1e150 holds 4.5e149 oscillations of omega1: no step budget covers them
        start = time.perf_counter()
        res = invoke(runner, *args)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]

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
