"""The benchmark's workloads: CLI command lists behind the study recipes.

Each workload is one pass over a fixed list of commands.  The seed sets
the order of the commands within a pass and jitters the orbit initial
conditions (x0, y0) by a few percent; frequencies and eps stay at the
recipe values, so the reference values in reference.json keep holding.
The same seed always yields the same commands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: relative jitter applied to the recipe initial conditions
JITTER = 0.05
#: the section recipes run the CLI's default horizon
SECTION_PERIODS = 200


@dataclass
class Command:
    """One step of a pass: a CLI invocation or a library call.

    ``kind`` is "cli" (``args`` go to the click entry point) or "call"
    (``call`` names a library function run with ``kwargs``).  ``check``
    names the output check in checks.py; ``spec`` holds what it needs.
    Output files are named relative to the pass's work directory.
    """

    name: str
    kind: str
    check: str
    args: list[str] = field(default_factory=list)
    call: str = ""
    kwargs: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)


def _ic(rng: random.Random, x0: float, y0: float) -> tuple[float, float]:
    return (x0 + JITTER * rng.uniform(-1.0, 1.0),
            y0 * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def _orbit_cmd(rng, name, sub, omega1, eps, y0, extra, check, out, periods, fmt="csv"):
    """An orbit-type command; ``periods`` is the horizon the CLI derives from ``extra``."""
    x0j, y0j = _ic(rng, 0.0, y0)
    args = [sub, "--omega1", omega1, "--epsilon", repr(eps), "--x0", repr(x0j),
            "--y0", repr(y0j), *extra, "--format", fmt, "--out", out]
    spec = {"omega": "2", "omega1": omega1, "eps": eps, "x0": x0j, "y0": y0j,
            "out": out, "format": fmt, "periods": periods}
    return Command(name, "cli", check, args=args, spec=spec)


def _time_periods(horizon: float) -> int:
    """Periods the CLI integrates for ``--time horizon`` at omega = 2 (T = pi)."""
    return math.ceil(horizon / math.pi)


def _symbolic(rng: random.Random) -> list[Command]:
    x0, y0 = _ic(rng, 0.0, 1.0)
    return [
        Command("build-integral-28", "cli", "build_integral",
                args=["build-integral", "--order", "28", "--out", "phi28.json",
                      "--conics-out", "conics28.csv"],
                spec={"out": "phi28.json", "digest": "phi28", "conics": "conics28.csv"}),
        Command("build-integral-40", "cli", "build_integral",
                args=["build-integral", "--order", "40", "--out", "phi40.json"],
                spec={"out": "phi40.json", "digest": "phi40"}),
        Command("resonant-10", "cli", "resonant",
                args=["resonant", "--omega1", "1", "--epsilon", "0.05", "--order", "10",
                      "--x0", repr(x0), "--y0", repr(y0), "--out", "resonant.json"],
                spec={"out": "resonant.json", "omega": "2", "omega1": "1", "eps": 0.05,
                      "x0": x0, "y0": y0, "periods": 15}),
    ]


def _sections(rng: random.Random) -> list[Command]:
    cmds = []
    for i, y0 in enumerate((1.0, 0.8, 0.6)):  # R1
        cmds.append(_orbit_cmd(rng, f"R1-section-{i}", "section", "9/10", 0.1, y0, [],
                               "states", f"r1_{i}.csv", SECTION_PERIODS))
    for i, eps in enumerate((0.05, 0.1, 0.15, 0.18)):  # R2
        cmds.append(_orbit_cmd(rng, f"R2-section-{i}", "section", "9/10", eps, 1.0, [],
                               "states", f"r2_{i}.csv", SECTION_PERIODS))
    for i, eps in enumerate((0.01, 0.1, 0.15, 0.18, 0.185)):  # R4
        cmds.append(_orbit_cmd(rng, f"R4-distances-{i}", "distances", "9/10", eps, 1.0,
                               ["--time", "200"], "distances", f"r4_{i}.csv",
                               _time_periods(200.0)))
    for i, eps in enumerate((0.19, 0.20, 0.22)):  # R8
        cmds.append(_orbit_cmd(rng, f"R8-distances-{i}", "distances", "9/10", eps, 1.0,
                               ["--time", "94.2"], "distances", f"r8_{i}.csv",
                               _time_periods(94.2)))
    for i, (eps, periods) in enumerate(((0.18, 41), (0.19, 40))):  # R9
        cmds.append(_orbit_cmd(rng, f"R9-energy-{i}", "energy", "9/10", eps, 1.0,
                               ["--periods", str(periods)], "energy", f"r9_{i}.csv", periods))
    for i, eps in enumerate((-0.1, -0.15, -0.18)):  # R10
        cmds.append(_orbit_cmd(rng, f"R10-section-{i}", "section", "9/10", eps, 1.0, [],
                               "states", f"r10_{i}.csv", SECTION_PERIODS))
    cmds.append(_orbit_cmd(rng, "R12-section", "section", "1/10", 0.1, 1.0, [],
                           "states", "r12.csv", SECTION_PERIODS))
    for i, eps in enumerate((0.1, -0.1)):  # R13
        cmds.append(_orbit_cmd(rng, f"R13-section-{i}", "section", "11/10", eps, 1.0, [],
                               "states", f"r13_{i}.csv", SECTION_PERIODS))
    x0, y0 = _ic(rng, 0.0, 1.0)
    cmds.append(Command("convergence", "cli", "convergence",
                        args=["convergence", "--orders", "2,4,6", "--epsilon", "0.1",
                              "--x0", repr(x0), "--y0", repr(y0), "--out", "convergence.csv"],
                        spec={"out": "convergence.csv"}))
    return cmds


def _orbits(rng: random.Random) -> list[Command]:
    recipes = [  # (name, omega1, eps, periods, format)
        ("R5-orbit-0", "9/10", 0.1, 106, "csv"),
        ("R5-orbit-1", "9/10", 0.185, 100, "csv"),
        ("R6-orbit", "9/10", 0.1500034, 17, "csv"),
        ("R7-orbit", "9/10", 0.19, 40, "json"),
        ("R11-orbit-0", "9/10", -0.1, 106, "csv"),
        ("R11-orbit-1", "9/10", -0.185, 110, "csv"),
        ("R14-orbit", "1", 0.05, 15, "csv"),
    ]
    cmds = []
    for name, omega1, eps, periods, fmt in recipes:
        cmd = _orbit_cmd(rng, name, "orbit", omega1, eps, 1.0,
                         ["--periods", str(periods), "--samples", "64"], "states",
                         name.lower() + "." + fmt, periods, fmt)
        cmd.spec["samples"] = 64
        cmds.append(cmd)
    return cmds


def _critical_eps(omega1: str, sign: int) -> Command:
    tag = f"{omega1.replace('/', '_')}{'+' if sign > 0 else '-'}"
    out = f"crit_{tag}.json"
    return Command(f"critical-eps-{tag}", "cli", "critical_eps",
                   args=["critical-eps", "--omega1", omega1, "--sign", str(sign), "--out", out],
                   spec={"out": out, "omega1": omega1, "sign": sign})


def _boundary(rng: random.Random) -> list[Command]:
    cmds = [_critical_eps(omega1, sign)
            for omega1 in ("9/10", "1/10", "11/10") for sign in (1, -1)]
    cmds.append(Command("monodromy", "cli", "monodromy",
                        args=["monodromy", "--epsilon", "0.18", "--out", "monodromy.json"],
                        spec={"out": "monodromy.json", "omega": "2", "omega1": "9/10",
                              "eps": 0.18}))
    x0, y0 = _ic(rng, 0.0, 1.0)
    cmds.append(Command("find_periodic_orbit", "call", "periodic_orbit",
                        call="find_periodic_orbit",
                        kwargs={"eps_guess": 0.15, "n": 17, "x0": x0, "y0": y0},
                        spec={"omega": "2", "omega1": "9/10", "n": 17, "x0": x0, "y0": y0}))
    return cmds


BUILDERS = {
    "symbolic": _symbolic,
    "sections": _sections,
    "orbits": _orbits,
    "boundary": _boundary,
}


#: commands with a known wrong answer.  They run once per run, after the
#: timed passes, and their verdicts go to the report line; they count
#: towards neither ``attempted`` nor ``failed``, so that the workload
#: itself has no failing operation.  critical-eps at omega1 = 301/100
#: prints 6.4986 with exit 0 where the Hill-matrix boundary is 0.88592.
KNOWN_DEFECTS = {"boundary": [("301/100", 1)]}


def known_defects(workload: str) -> list[Command]:
    """The known-defect probes of a workload (see KNOWN_DEFECTS)."""
    return [_critical_eps(omega1, sign) for omega1, sign in KNOWN_DEFECTS.get(workload, [])]


def commands(workload: str, seed: int) -> list[Command]:
    """The seeded command list of one pass, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    cmds = BUILDERS[workload](rng)
    rng.shuffle(cmds)
    return cmds
