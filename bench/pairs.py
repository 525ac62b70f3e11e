"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 bench/pairs.py PARENT CHANGE --workload orbits [--workload ...] [--seed 1]

PARENT and CHANGE are two source trees, each with ``perfbench/run.py``; lay
them out alike (``git archive`` of each commit) with no ``__pycache__``.
Each of the ``PAIRS`` pairs, i = 0, 1, ..., runs ``perfbench/run.py --workload W
--seed (seed + i) --seconds S --trace 0`` once in each tree, as a subprocess with
``PYTHONDONTWRITEBYTECODE=1``; the parent runs first in even pairs and the change
first in odd ones.  The end-to-end metrics (name, ``better``, ``bound``) and the
run length S (``run_seconds``) come from CHANGE's ``BENCHMARK.json``.

It prints one row per workload and end-to-end metric: the parent's median and
interquartile range (IQR), the change's median, the pairs in which the change
reads better (ties count for neither side), failed/attempted operations on each
side, its spread, "unresolved" where the parent's IQR is wider than the bound
(a share of its median) unless every change run beats every parent run, and its
verdict, "worse" where the change's median is worse than the parent's by more
than the bound (a share of the parent's median), else "within".  Each run's
metrics are printed first, on a line that starts with ``#``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def summary(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The row of one metric from the values of the pairs, parent[i] and change[i]
    run as pair i: ``metric`` is a BENCHMARK.json end-to-end entry."""
    def beats(c: float, p: float) -> bool:
        return c < p if metric["better"] == "lower" else c > p

    median, change_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    iqr, bound = q3 - q1, metric["bound"] * abs(median)
    worsened = change_median - median if metric["better"] == "lower" else median - change_median
    return {"name": metric["name"], "parent_median": median, "parent_iqr": iqr,
            "change_median": change_median,
            "wins": sum(map(beats, change, parent)), "pairs": len(parent),
            "unresolved": (iqr > bound
                           and not all(beats(c, p) for c in change for p in parent)),
            "worse": worsened > bound}


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``perfbench/run.py --trace 0`` run in ``tree``, also
    printed as a ``#`` line with its seed and tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        sys.exit(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    values = " ".join(f"{name}={m['value']:.6g}" for name, m in line["metrics"].items())
    print(f"# {workload} seed {seed} {tree}: {values} "
          f"failed/attempted {line['failed']}/{line['attempted']}", flush=True)
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    print("workload metric parent_median parent_iqr change_median wins/pairs"
          " parent_failed/attempted change_failed/attempted spread verdict")
    for workload in args.workload:
        parent, change = [], []
        for i in range(PAIRS):
            order = [(args.parent, parent), (args.change, change)]
            for tree, runs in (order if i % 2 == 0 else order[::-1]):
                runs.append(run(tree, workload, args.seed + i, seconds))
        counts = " ".join(f"{sum(r['failed'] for r in side)}/{sum(r['attempted'] for r in side)}"
                          for side in (parent, change))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = summary(metric, [r["metrics"][name]["value"] for r in parent],
                          [r["metrics"][name]["value"] for r in change])
            print(f"{workload} {name} {row['parent_median']:.6g} {row['parent_iqr']:.3g}"
                  f" {row['change_median']:.6g} {row['wins']}/{row['pairs']} {counts}"
                  f" {'unresolved' if row['unresolved'] else 'resolved'}"
                  f" {'worse' if row['worse'] else 'within'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
