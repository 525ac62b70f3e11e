"""Output checks that share no code path with the layer they check.

* Symbolic output (``build-integral`` JSON, the resonant ``mix``) must be
  byte-identical to SHA-256 digests recorded at the defining commit.
* Float orbit output is checked against an independent reference: a
  classical fixed-step RK4 integration of one period gives the
  fundamental matrix M and the quadratic form Q of the one-period
  energy change, and section states follow as z_{k+1} = M z_k,
  E_{k+1} = E_k + z_k^T Q z_k.  Every sample of a file that carries
  (x, y, E) must also keep |H + E| within a relative tolerance, with H
  recomputed here from (x, y, t).
* ``critical-eps`` results must match boundaries from a pure-Python Hill
  matrix count (hill.py), recorded with their provenance in
  reference.json.

A check returns None on success and a one-line reason on failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

#: |H + E| <= HE_TOL * max(1, |H|, |E|) at every sample with (x, y, E)
HE_TOL = 1e-6
#: section states vs the RK4/Floquet reference, relative to max(1, |z|)
STATE_TOL = 1e-6
#: critical-eps vs the Hill-matrix boundary, relative to max(1, |eps|)
EPS_CRIT_TOL = 1e-7
#: monodromy matrix entries vs the reference, absolute
MONODROMY_TOL = 1e-9
#: conic coefficients vs the recorded A values and the exact B = 1/2, D = 0
CONIC_TOL = 1e-12
#: RK4 steps per driving period in the reference integration
RK4_STEPS = 2048
#: radius beyond which ``distances`` must annotate the escape
R_ESCAPE = 1e3


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def mix_digest(mix) -> str:
    text = json.dumps(mix, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class OnePeriod:
    """Fundamental matrix M and energy form Q over one driving period."""

    def __init__(self, omega: Fraction, omega1: Fraction, eps: float, steps: int = RK4_STEPS):
        self.omega = float(omega)
        self.omega1 = float(omega1)
        self.eps = eps
        self.period = 2.0 * math.pi / self.omega
        e1 = self._flow(1.0, 0.0, steps)
        e2 = self._flow(0.0, 1.0, steps)
        e12 = self._flow(1.0, 1.0, steps)
        self.m = ((e1[0], e2[0]), (e1[1], e2[1]))
        q11, q22 = e1[2], e2[2]
        self.q = (q11, q22, 0.5 * (e12[2] - q11 - q22))  # (Q11, Q22, Q12)

    def _flow(self, x: float, y: float, steps: int) -> tuple[float, float, float]:
        om, om1sq, eps = self.omega, self.omega1 ** 2, self.eps

        def f(t, x, y):
            return y, -(om1sq - 2.0 * eps * math.cos(om * t)) * x, \
                -eps * om * x * x * math.sin(om * t)

        h = self.period / steps
        e = 0.0
        for i in range(steps):
            t = i * h
            a1, b1, c1 = f(t, x, y)
            a2, b2, c2 = f(t + h / 2, x + h / 2 * a1, y + h / 2 * b1)
            a3, b3, c3 = f(t + h / 2, x + h / 2 * a2, y + h / 2 * b2)
            a4, b4, c4 = f(t + h, x + h * a3, y + h * b3)
            x += h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
            y += h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
            e += h / 6 * (c1 + 2 * c2 + 2 * c3 + c4)
        return x, y, e

    def hamiltonian(self, x: float, y: float, t: float) -> float:
        return (0.5 * (y * y + self.omega1 ** 2 * x * x)
                - self.eps * x * x * math.cos(self.omega * t))

    def sections(self, x0: float, y0: float, periods: int) -> list[tuple[float, float, float]]:
        """(x, y, E) at t = kT for k = 0..periods, with E(0) = -H(x0, y0, 0)."""
        (m11, m12), (m21, m22) = self.m
        q11, q22, q12 = self.q
        x, y, e = x0, y0, -self.hamiltonian(x0, y0, 0.0)
        out = [(x, y, e)]
        for _ in range(periods):
            e += q11 * x * x + q22 * y * y + 2.0 * q12 * x * y
            x, y = m11 * x + m12 * y, m21 * x + m22 * y
            out.append((x, y, e))
        return out


def _read_table(path: str, fmt: str) -> tuple[list[str], list[list[float]], list[str]]:
    """(header, numeric rows, comment lines) of a CSV or JSON table."""
    with open(path) as handle:
        if fmt == "json":
            doc = json.load(handle)
            return doc["columns"], [[float(v) for v in row] for row in doc["rows"]], []
        lines = handle.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    reader = csv.reader(ln for ln in lines if not ln.startswith("#"))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader], comments


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checker:
    """Checks each command's outputs; caches the reference per run."""

    def __init__(self):
        self.ref = load_reference()
        self._one_period: dict = {}
        self._verdicts: dict = {}

    def one_period(self, omega: str, omega1: str, eps: float) -> OnePeriod:
        key = (omega, omega1, eps)
        if key not in self._one_period:
            self._one_period[key] = OnePeriod(Fraction(omega), Fraction(omega1), eps)
        return self._one_period[key]

    def check(self, cmd, code, err, value, workdir) -> str | None:
        """None if the command's outputs are right, else a one-line reason.

        A verdict depends only on the command and the bytes it produced, so
        a later pass whose output files and returned value are identical
        reuses it instead of checking again.
        """
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        try:
            files = tuple(sha256_file(os.path.join(workdir, cmd.spec[key]))
                          for key in ("out", "conics") if key in cmd.spec)
            key = (cmd.name, files, repr(value))
            if key not in self._verdicts:
                self._verdicts[key] = getattr(self, "_" + cmd.check)(cmd.spec, value, workdir)
            return self._verdicts[key]
        except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    # -- float orbit output ---------------------------------------------

    def _states(self, spec, value, workdir):
        """``section`` and ``orbit`` files, whose rows carry x, y and E."""
        header, rows, _ = _read_table(os.path.join(workdir, spec["out"]), spec["format"])
        periods, samples = spec["periods"], spec.get("samples", 1)
        if len(rows) != periods * samples + 1:
            return f"expected {periods * samples + 1} rows, got {len(rows)}"
        col = {name: i for i, name in enumerate(header)}
        one = self.one_period(spec["omega"], spec["omega1"], spec["eps"])
        ref_sections = one.sections(spec["x0"], spec["y0"], periods)
        first = rows[0]
        if first[col["x"]] != spec["x0"] or first[col["y"]] != spec["y0"]:
            return "first sample is not the initial condition"
        for j, row in enumerate(rows):
            k, t, x, y, e = (row[col[c]] for c in ("k", "t", "x", "y", "E"))
            if k != j // samples or not _close(t, (j / samples) * one.period, 1e-12):
                return f"row {j}: bad time stamp k={k}, t={t}"
            h = one.hamiltonian(x, y, t)
            if not _close(h, -e, HE_TOL):
                return f"row {j}: |H + E| = {abs(h + e):.3e} exceeds tolerance"
            if not (_close(row[col["d"]], math.sqrt(one.omega1 ** 2 * x * x + y * y), 1e-12)
                    and _close(row[col["r"]], math.hypot(x, y), 1e-12)):
                return f"row {j}: d or r disagrees with (x, y)"
            if j % samples == 0:
                rx, ry, re_ = ref_sections[j // samples]
                scale = max(1.0, math.hypot(rx, ry))
                if abs(x - rx) > STATE_TOL * scale or abs(y - ry) > STATE_TOL * scale:
                    return f"section {j // samples}: state off the reference"
                if not _close(e, re_, STATE_TOL):
                    return f"section {j // samples}: E off the reference"
        return None


    def _reference_rows(self, spec, rows):
        one = self.one_period(spec["omega"], spec["omega1"], spec["eps"])
        if len(rows) != spec["periods"] + 1:
            raise ValueError(f"expected {spec['periods'] + 1} rows, got {len(rows)}")
        for j, row in enumerate(rows):
            if row[0] != j or not _close(row[1], j * one.period, 1e-12):
                raise ValueError(f"row {j}: bad time stamp")
        return one, one.sections(spec["x0"], spec["y0"], len(rows) - 1)

    def _distances(self, spec, value, workdir):
        header, rows, comments = _read_table(os.path.join(workdir, spec["out"]), "csv")
        if header != ["k", "t", "d", "r"]:
            return f"unexpected columns {header}"
        one, ref = self._reference_rows(spec, rows)
        for j, (row, (x, y, _)) in enumerate(zip(rows, ref)):
            d = math.sqrt(one.omega1 ** 2 * x * x + y * y)
            if not (_close(row[2], d, STATE_TOL) and _close(row[3], math.hypot(x, y), STATE_TOL)):
                return f"section {j}: d or r off the reference"
        crossing = next((int(row[0]) for row in rows if row[3] > R_ESCAPE), None)
        expected = [] if crossing is None else [f"# escaped at k={crossing}"]
        if comments != expected:
            return f"escape annotation {comments} != {expected}"
        return None

    def _energy(self, spec, value, workdir):
        header, rows, _ = _read_table(os.path.join(workdir, spec["out"]), "csv")
        if header != ["k", "t", "x", "E"]:
            return f"unexpected columns {header}"
        _, ref = self._reference_rows(spec, rows)
        for j, (row, (x, y, e)) in enumerate(zip(rows, ref)):
            scale = max(1.0, math.hypot(x, y))
            if abs(row[2] - x) > STATE_TOL * scale or not _close(row[3], e, STATE_TOL):
                return f"section {j}: (x, E) off the reference"
        return None

    def _convergence(self, spec, value, workdir):
        header, rows, _ = _read_table(os.path.join(workdir, spec["out"]), "csv")
        if header != ["order", "residual"] or [row[0] for row in rows] != [2, 4, 6]:
            return "unexpected convergence table"
        res = [row[1] for row in rows]
        # the series converges like (eps/eps_crit)^2 ~ 0.29 per order pair at eps = 0.1
        ratios = [b / a for a, b in zip(res, res[1:])]
        if not all(0.2 <= r <= 0.4 for r in ratios):
            return f"residual ratios {ratios} outside [0.2, 0.4]"
        return None

    # -- symbolic output --------------------------------------------------

    def _build_integral(self, spec, value, workdir):
        digest = sha256_file(os.path.join(workdir, spec["out"]))
        if digest != self.ref["digests"][spec["digest"]]:
            return f"{spec['out']} digest {digest[:12]} differs from the recorded one"
        if "conics" in spec:
            header, rows, _ = _read_table(os.path.join(workdir, spec["conics"]), "csv")
            expected = self.ref["conics28"]
            if header != ["epsilon", "A", "B", "D"] or len(rows) != len(expected):
                return "unexpected conic table"
            for (eps, a, b, d), (ref_eps, ref_a) in zip(rows, expected):
                # the exact section form has B = 1/2 and D = 0; the float evaluation rounds
                if (eps != ref_eps or not _close(a, ref_a, CONIC_TOL)
                        or not _close(b, 0.5, CONIC_TOL) or abs(d) > CONIC_TOL):
                    return f"conic row eps={eps} off the reference"
        return None

    def _resonant(self, spec, value, workdir):
        with open(os.path.join(workdir, spec["out"])) as handle:
            doc = json.load(handle)
        if mix_digest(doc["mix"]) != self.ref["digests"]["resonant_mix"]:
            return "resonant mix differs from the recorded digest"
        form = doc["section_form"]
        a, b, d = form["A"], form["B"], form["D"]
        one = self.one_period(spec["omega"], spec["omega1"], spec["eps"])
        pts = one.sections(spec["x0"], spec["y0"], spec["periods"])
        level = a * spec["x0"] ** 2 + b * spec["y0"] ** 2 + 2 * d * spec["x0"] * spec["y0"]
        worst = max(abs(a * x * x + b * y * y + 2 * d * x * y - level) for x, y, _ in pts)
        if worst > 1e-8 * abs(level) * max(1.0, max(x * x + y * y for x, y, _ in pts)):
            return f"section form not conserved on the reference orbit ({worst:.3e})"
        return None

    # -- boundary ---------------------------------------------------------

    def _critical_eps(self, spec, value, workdir):
        with open(os.path.join(workdir, spec["out"])) as handle:
            eps = json.load(handle)["eps_crit"]
        ref = self.ref["boundaries"][spec["omega1"]][str(spec["sign"])]
        if not _close(eps, ref, EPS_CRIT_TOL):
            return f"eps_crit {eps:.10g} != Hill-matrix boundary {ref:.10g}"
        return None

    def _monodromy(self, spec, value, workdir):
        with open(os.path.join(workdir, spec["out"])) as handle:
            doc = json.load(handle)
        one = self.one_period(spec["omega"], spec["omega1"], spec["eps"])
        got = doc["matrix"]
        for i in range(2):
            for j in range(2):
                if abs(got[i][j] - one.m[i][j]) > MONODROMY_TOL:
                    return f"monodromy entry ({i}, {j}) off the reference"
        trace = one.m[0][0] + one.m[1][1]
        if doc["stable"] != (abs(trace) < 2.0) or abs(doc["det"] - 1.0) > MONODROMY_TOL:
            return "stability verdict or determinant wrong"
        return None

    def _periodic_orbit(self, spec, value, workdir):
        ref_eps = self.ref["periodic_orbit_17"]
        if abs(value.epsilon - ref_eps) > 1e-6:
            return f"periodic-orbit eps {value.epsilon} far from {ref_eps}"
        one = self.one_period(spec["omega"], spec["omega1"], value.epsilon)
        x0, y0 = spec["x0"], spec["y0"]
        x, y, _ = one.sections(x0, y0, spec["n"])[-1]
        if math.hypot(x - x0, y - y0) > 1e-6 * math.hypot(x0, y0):
            return "orbit does not close after n periods on the reference flow"
        return None
