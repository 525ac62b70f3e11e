"""Quick self-test of the benchmark (under a minute).

    python3 perfbench/selftest.py

1. A tiny pass per workload, with a few commands that cover every output
   check, untraced and traced: the result line carries exactly the
   end-to-end or per-layer metrics that BENCHMARK.json names, with their
   units, and no command fails.
2. The same tiny pass with every output corrupted after its command
   returned: every command is counted as failed.
3. run.py in a directory that holds only BENCHMARK.json and perfbench/
   exits non-zero without printing a result.
4. One Hill-matrix boundary recomputed from hill.py matches reference.json.
5. The known-defect probes run and return one verdict each.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hill  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

TINY = {
    "symbolic": {"build-integral-28", "resonant-10"},
    "sections": {"R1-section-0", "R8-distances-0", "R9-energy-0", "convergence"},
    "orbits": {"R6-orbit", "R7-orbit"},
    "boundary": {"critical-eps-9_10+", "monodromy", "find_periodic_orbit"},
}


def _scale_last_cell(text: str, fmt: str) -> str:
    """Scale the last value of the middle data row by 1.01."""
    if fmt == "json":
        doc = json.loads(text)
        row = doc["rows"][len(doc["rows"]) // 2]
        row[-1] *= 1.01
        return json.dumps(doc)
    lines = text.splitlines()
    mid = len(lines) // 2
    cells = lines[mid].split(",")
    cells[-1] = repr(float(cells[-1]) * 1.01)
    lines[mid] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _tweak_json(text: str, check: str) -> str:
    doc = json.loads(text)
    if check == "resonant":
        doc["mix"][0][0]["num"] += 1
    elif check == "critical_eps":
        doc["eps_crit"] *= 1.000001
    elif check == "monodromy":
        doc["matrix"][0][1] += 1e-6
    return json.dumps(doc)


def corrupt(cmd, workdir: str, value):
    """Damage a command's output so that its check must fail; returns the call value."""
    if cmd.kind == "call":
        return dataclasses.replace(value, epsilon=value.epsilon + 1e-3)
    path = os.path.join(workdir, cmd.spec["out"])
    with open(path) as handle:
        text = handle.read()
    if cmd.check == "build_integral":
        text = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), text, count=1)
    elif cmd.check == "convergence":
        text = text.replace("\n6,", "\n6,1")
    elif cmd.check in ("resonant", "critical_eps", "monodromy"):
        text = _tweak_json(text, cmd.check)
    else:
        text = _scale_last_cell(text, cmd.spec.get("format", "csv"))
    with open(path, "w") as handle:
        handle.write(text)
    return value


def tiny_pass(workload: str, trace: int, damage: bool) -> dict:
    workdir = os.path.join(HERE, ".work", f"selftest-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    full_commands, invoke = worker.workloads.commands, worker._invoke

    def commands(name, seed):
        return [c for c in full_commands(name, seed) if c.name in TINY[name]]

    def damaged_invoke(cli, analysis, params_cls, cmd, wd):
        elapsed, code, err, value = invoke(cli, analysis, params_cls, cmd, wd)
        return elapsed, code, err, corrupt(cmd, wd, value)

    worker.workloads.commands = commands
    worker._invoke = damaged_invoke if damage else invoke
    try:
        result = worker.run_passes(ROOT, workload, 0, 1, trace, workdir)
    finally:
        worker.workloads.commands, worker._invoke = full_commands, invoke
        shutil.rmtree(workdir, ignore_errors=True)
    _, line = run.summarize(result, ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]), trace)
    return line


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        before = len(problems)
        for trace in (0, 1):
            line = tiny_pass(name, trace, damage=False)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                "differ from BENCHMARK.json")
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(line)}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace={trace}: {line['failed']} clean commands failed")
        line = tiny_pass(name, 0, damage=True)
        if line["failed"] != line["attempted"] or line["attempted"] != len(TINY[name]):
            problems.append(f"{name}: {line['failed']} of {line['attempted']} corrupted "
                            "outputs counted as failed")
        print(f"selftest: {name} {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    bare = os.path.join(HERE, ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbits",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout:
        problems.append("run.py without the program source exited 0 or printed a result")

    ref = checks.load_reference()["boundaries"]["9/10"]["1"]
    if hill.first_boundary(Fraction(2), Fraction(9, 10)) != ref:
        problems.append("hill.first_boundary no longer reproduces reference.json")

    for name in sorted(worker.workloads.KNOWN_DEFECTS):
        workdir = os.path.join(HERE, ".work", f"selftest-probe-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            records = worker.run_probes(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expected = [cmd.name for cmd in worker.workloads.known_defects(name)]
        if [r["name"] for r in records] != expected or not all("failure" in r for r in records):
            problems.append(f"{name}: known-defect probes returned {records}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
