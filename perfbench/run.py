"""Benchmark entry point: end-to-end timings and per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs building).  The run

1. times ``SETUP_RUNS`` fresh interpreters that import the CLI (setup_s);
2. starts one worker process that runs only this workload: a fixed
   number of passes over the workload's command list, in-process through
   the click entry point, one client in a closed loop, outputs written
   to a work directory under perfbench/.work and checked after each pass;
   then, untimed, the workload's known-defect probes (workloads.py);
3. prints a report line, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every end-to-end time is a reference time (speed.py): the wall time
scaled by the speed of a fixed loop sampled just before and just after
it, which takes the host's drifting CPU speed out of the figures.  The
report line keeps the wall times.

The pass count is ``ceil(seconds / NOMINAL_PASS_S[workload])``: the
nominal wall times were measured at the commit that defined the
benchmark (2-core x86-64 machine, Python 3.11), so a run there measures
about ``--seconds``.  Fixing the work rather than the time keeps the
per-command sample count, and with it the tail percentile, the same on
every commit being compared.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the first half of the passes runs untraced and the second
half under the tracer (tracing.py), and the metrics are per layer plus
the tracing overhead.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

#: seconds per pass at the defining commit (see the module docstring)
NOMINAL_PASS_S = {"symbolic": 3.0, "sections": 8.5, "orbits": 2.0, "boundary": 5.0}
#: timed fresh-interpreter imports per run; their median is setup_s
SETUP_RUNS = 9
#: the worker must finish within this many seconds of the run's start
DEADLINE_S = 170.0
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {"pass_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "B/s" if name.startswith("output.") else "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "output.bytes":
        return "B"
    if name == "builder.coeff_bits_max":
        return "bit"
    return "count"


def _alarm(signum, frame):
    raise TimeoutError("setup import did not finish")


def setup_seconds(src: str) -> tuple[list[float], list[float]]:
    """(wall times, reference times) of fresh interpreters that import the CLI.

    One untimed import warms the file cache.  The reference loop of
    speed.py is sampled after each import, outside its timing.
    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    quantize the timings, so the wait blocks and SIGALRM bounds it.
    """
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {src!r}); import mathieu_integrals.cli"]
    times, ref_times = [], []
    loop = speed.warm_up()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i in range(SETUP_RUNS + 1):
            start = time.perf_counter()
            proc = subprocess.Popen(cmd)
            signal.alarm(30)
            try:
                code = proc.wait()
            except TimeoutError:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            elapsed = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"importing the CLI exited {code}")
            before, loop = loop, speed.sample()
            if i:
                times.append(elapsed)
                ref_times.append(speed.scale(elapsed, before, loop))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times, ref_times


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Nearest rank: the value at rank r of n leaves n - r samples above it.
    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and
    the smallest sample is reported.
    """
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def context(src: str) -> dict:
    files = glob.glob(os.path.join(src, "mathieu_integrals", "*.py"))
    loc = 0
    for path in files:
        with open(path) as handle:
            loc += sum(1 for _ in handle)
    with open(os.path.join(src, "mathieu_integrals", "__init__.py")) as handle:
        tree = ast.parse(handle.read())
    public = next(len(node.value.elts) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "src_loc": loc, "public_symbols": public}


def summarize(result: dict, setup: tuple[list[float], list[float]],
              trace: int) -> tuple[dict, dict]:
    """(report, result line) from the worker's records.

    ``setup`` holds the wall and the reference times of the setup
    imports.  End-to-end times are reference times (speed.py) of the
    untraced passes; the report keeps the wall times.  Every pass, traced
    or not, counts towards ``attempted`` and ``failed``.
    """
    records = result["passes"]
    plain = [p for p in records if not p["traced"]]
    latencies = [c["ref_seconds"] for p in plain for c in p["commands"]]
    every = [c for p in records for c in p["commands"]]
    failures = sorted({f"{c['name']}: {c['failure']}" for c in every if c["failure"]})
    failed = sum(1 for c in every if c["failure"])
    tail_value, tail_pct = tail(latencies)
    wall = statistics.fmean(p["wall_s"] for p in plain)
    setup_wall, setup_ref = setup

    if trace:
        untraced = statistics.fmean(p["ref_s"] for p in plain)
        traced = statistics.fmean(p["ref_s"] for p in records if p["traced"])
        metrics = dict(result["layers"])
        metrics["trace.untraced_pass_s"] = untraced
        metrics["trace.traced_pass_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {"pass_s": statistics.fmean(p["ref_s"] for p in plain),
                   "cmd_p50_s": statistics.median(latencies),
                   "cmd_tail_s": tail_value,
                   "setup_s": statistics.median(setup_ref),
                   "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
        units = END_TO_END_UNITS

    report = {
        "trace": trace, "passes": len(records), "traced_passes": len(records) - len(plain),
        "commands_per_pass": len(records[0]["commands"]),
        "pass_wall_s": wall,
        "pass_walls_s": [p["wall_s"] for p in records],
        "pass_ref_s": [p["ref_s"] for p in records],
        "cmd_samples": len(latencies), "cmd_tail_percentile": tail_pct,
        "failed_frac": failed / len(every), "failures": failures,
        "known_defects": result.get("known_defects", []),
        "setup_walls_s": setup_wall, "setup_ref_s": setup_ref,
    }
    line = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return report, line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mathieu_integrals", "cli.py")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2

    setup = ([], []) if args.trace else setup_seconds(src)
    passes = max(1, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload,
             str(args.seed), str(passes), str(args.trace), result_path],
            capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
        if proc.returncode != 0:
            print(f"error: worker exited {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        with open(result_path) as handle:
            result = json.load(handle)
        if args.trace:
            spans_kept = os.path.join(HERE, ".work", f"spans-{args.workload}-{args.seed}.json")
            os.replace(result["spans_file"], spans_kept)
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report, line = summarize(result, setup, args.trace)
    report.update(workload=args.workload, seed=args.seed, context=context(src))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
