"""Run one workload's passes in this process and record what happened.

Started by run.py as a fresh interpreter that runs nothing but the
workload, so its peak RSS belongs to the workload alone.  Every command
goes through the click entry point ``cli.main`` in-process (library
calls go straight to ``analysis``), as a closed loop with one client:
each command starts when the previous one has returned.  The reference
loop of speed.py is sampled after every command, outside the command's
timing, and the samples on either side of a command turn its wall time
into a reference time.  A pass's time is the sum of its command times.  Outputs land in a work
directory; they are checked after each pass, outside the timed region.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED PASSES TRACE RESULT_JSON
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _invoke(cli, analysis, params_cls, cmd, workdir):
    """Run one command; returns (seconds, exit code, stderr, value)."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if cmd.kind == "cli":
                try:
                    cli.main.main(args=cmd.args, prog_name="mathieu-integrals")
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            else:
                spec = cmd.spec
                params = params_cls(spec["omega"], spec["omega1"], 0.0)
                value = getattr(analysis, cmd.call)(params, **cmd.kwargs)
                code = 0
    except Exception as exc:  # a crash of the program under test is a failed command
        err.write(f"{type(exc).__name__}: {exc}\n")
        code = 1
    finally:
        elapsed = time.perf_counter() - start
        os.chdir(cwd)
    return elapsed, code, err.getvalue(), value


def run_passes(root, workload, seed, passes, trace, workdir):
    """Run the passes; with ``trace`` the second half runs under the tracer."""
    sys.path.insert(0, os.path.join(root, "src"))
    from mathieu_integrals import analysis, cli
    from mathieu_integrals.builder import SystemParams

    cmds = workloads.commands(workload, seed)
    checker = checks.Checker()
    tracer = None
    untraced = passes
    if trace:
        import tracing
        tracer = tracing.Tracer()
        untraced = max(1, passes // 2)
        passes = untraced + max(1, passes - untraced)
    records = []
    loop = speed.warm_up()
    for p in range(passes):
        traced = tracer is not None and p >= untraced
        if traced and p == untraced:
            tracer.install()
        results = []
        for cmd in cmds:
            if traced:
                with tracer.span("cli." + cmd.name):
                    res = _invoke(cli, analysis, SystemParams, cmd, workdir)
            else:
                res = _invoke(cli, analysis, SystemParams, cmd, workdir)
            before, loop = loop, speed.sample()
            results.append((res, before, loop))
        if traced:
            tracer.end_pass()
        commands = []
        for cmd, ((elapsed, code, err, value), before, after) in zip(cmds, results):
            problem = checker.check(cmd, code, err, value, workdir)
            commands.append({"name": cmd.name, "seconds": elapsed,
                             "ref_seconds": speed.scale(elapsed, before, after),
                             "code": code, "failure": problem})
        records.append({"wall_s": sum(c["seconds"] for c in commands),
                        "ref_s": sum(c["ref_seconds"] for c in commands),
                        "traced": traced, "commands": commands})
    if tracer is not None:
        tracer.uninstall()
    result = {"passes": records,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans_file"] = tracer.dump(os.path.join(workdir, "spans.json"))
    return result


def run_probes(workload, workdir):
    """Run the workload's known-defect probes once, untimed; one record each."""
    from mathieu_integrals import analysis, cli
    from mathieu_integrals.builder import SystemParams

    checker = checks.Checker()
    records = []
    for cmd in workloads.known_defects(workload):
        _, code, err, value = _invoke(cli, analysis, SystemParams, cmd, workdir)
        records.append({"name": cmd.name,
                        "failure": checker.check(cmd, code, err, value, workdir)})
    return records


def main(argv):
    root, workload, seed, passes, trace, result_path = argv
    workdir = os.path.join(os.path.dirname(result_path), "out")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = run_passes(root, workload, int(seed), int(passes), trace == "1", workdir)
    result["known_defects"] = run_probes(workload, workdir)
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
