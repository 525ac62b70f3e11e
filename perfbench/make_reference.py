"""Regenerate reference.json, the data the output checks compare against.

    python3 perfbench/make_reference.py

* ``digests``: SHA-256 of the ``build-integral`` JSON for orders 28 and
  40 and of the resonant ``mix`` (order 10), taken from the program at
  the commit that defined the benchmark.  Symbolic output is exact, so
  any later change must reproduce these bytes.  Rerun this script only
  when a change to the symbolic output is intended and reviewed.
* ``conics28``: (epsilon, A) rows of ``build-integral --order 28
  --conics-out``, the float evaluation of that exact series.
* ``boundaries``: the first stability boundary per (omega1, sign) from
  the Hill-matrix Sturm count in hill.py, independent of the program;
  the same count with twice the matrix size must agree to 1e-12.
* ``periodic_orbit_17``: the eps near 0.15 where the one-period rotation
  is a multiple of 2*pi/17, solved on the RK4 reference flow of checks.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hill  # noqa: E402

BOUNDARY_CASES = {"9/10": (1, -1), "1/10": (1, -1), "11/10": (1, -1), "301/100": (1,)}


def _cli(args: list[str]) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from mathieu_integrals import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="mathieu-integrals")
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"{args} exited {exc.code}") from None


def symbolic_references() -> dict:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        phi28, conics, phi40, res = (os.path.join(tmp, name) for name in
                                     ("phi28.json", "conics.csv", "phi40.json", "res.json"))
        _cli(["build-integral", "--order", "28", "--out", phi28, "--conics-out", conics])
        _cli(["build-integral", "--order", "40", "--out", phi40])
        _cli(["resonant", "--omega1", "1", "--epsilon", "0.05", "--order", "10", "--out", res])
        with open(res) as handle:
            mix = json.load(handle)["mix"]
        _, rows, _ = checks._read_table(conics, "csv")
        return {
            "digests": {"phi28": checks.sha256_file(phi28), "phi40": checks.sha256_file(phi40),
                        "resonant_mix": checks.mix_digest(mix)},
            "conics28": [[row[0], row[1]] for row in rows],
        }


def boundaries() -> dict:
    out: dict = {}
    for omega1, signs in BOUNDARY_CASES.items():
        out[omega1] = {}
        for sign in signs:
            eps = hill.first_boundary(Fraction(2), Fraction(omega1), sign)
            check = hill.first_boundary(Fraction(2), Fraction(omega1), sign, size=2 * hill.SIZE)
            if abs(check - eps) > 1e-12:
                raise RuntimeError(f"Hill count not converged for omega1={omega1}")
            out[omega1][str(sign)] = eps
    return out


def periodic_orbit_eps(n: int = 17, guess: float = 0.15) -> float:
    def trace(eps: float) -> float:
        m = checks.OnePeriod(Fraction(2), Fraction(9, 10), eps).m
        return m[0][0] + m[1][1]

    theta = math.acos(trace(guess) / 2.0)
    target = 2.0 * math.cos(2.0 * math.pi * round(n * theta / (2.0 * math.pi)) / n)
    lo, hi = guess - 0.02, guess + 0.02
    glo = trace(lo) - target
    if glo * (trace(hi) - target) > 0.0:
        raise RuntimeError("no sign change around the guess")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        gm = trace(mid) - target
        if glo * gm <= 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def main() -> None:
    ref = {
        "provenance": {
            "digests": "program output at the commit that defined the benchmark",
            "conics28": "program output at the commit that defined the benchmark",
            "boundaries": f"hill.first_boundary: Sturm count of four {hill.SIZE}x{hill.SIZE} "
                          "Hill matrices, scan step 1e-4, bisection to 1e-13; agrees "
                          f"with {2 * hill.SIZE}x{2 * hill.SIZE} to 1e-12",
            "periodic_orbit_17": f"bisection of tr M(eps) = 2 cos(2 pi m / 17) on a "
                                 f"{checks.RK4_STEPS}-step RK4 one-period flow",
        },
        **symbolic_references(),
        "boundaries": boundaries(),
        "periodic_orbit_17": periodic_orbit_eps(),
    }
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(ref, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
