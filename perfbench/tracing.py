"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each module (layer = module)
and records one span per call: name, start, end and the index of the
enclosing span.  The command span that the worker opens around each
CLI invocation is the root, so the spans of one command share it.
Spans stay in memory and are written out once, at the end of the run.

Every binding of a wrapped function is patched: ``analysis`` holds its
own references to ``monodromy``, ``integrate_orbit``, ``build_integral``
and ``conic_at_section``, and ``resonant`` to ``recursion_step`` and
``conic_at_section``, so patching only the defining module would miss
those calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

#: (module, attribute, span name); a dotted attribute names a method
TARGETS = [
    ("trigseries", "TrigSeries.__mul__", "trigseries.mul"),
    ("trigseries", "TrigSeries.integrate", "trigseries.integrate"),
    ("builder", "recursion_step", "builder.recursion_step"),
    ("builder", "poisson_bracket_with_h1", "builder.bracket"),
    ("builder", "substitute_zero_order", "builder.substitute"),
    ("builder", "back_substitute", "builder.back_substitute"),
    ("builder", "build_integral", "builder.build_integral"),
    ("builder", "conic_at_section", "builder.conic"),
    ("resonant", "build_resonant_c", "resonant.build_c"),
    ("resonant", "build_resonant_phi", "resonant.build_phi"),
    ("resonant", "eliminate_secular", "resonant.eliminate"),
    ("dynamics", "integrate_orbit", "dynamics.integrate_orbit"),
    ("dynamics", "stroboscopic_section", "dynamics.section"),
    ("dynamics", "escape_diagnostics", "dynamics.escape_diagnostics"),
    ("dynamics", "monodromy", "dynamics.monodromy"),
    ("analysis", "critical_epsilon", "analysis.critical_epsilon"),
    ("analysis", "find_periodic_orbit", "analysis.periodic_orbit"),
    ("analysis", "convergence_study", "analysis.convergence"),
    ("output", "trajectory_rows", "output.format.trajectory_rows"),
    ("output", "section_rows", "output.format.section_rows"),
    ("output", "tabular", "output.format.tabular"),
    ("output", "columns_csv", "output.format.columns_csv"),
    ("output", "columns_json", "output.format.columns_json"),
    ("output", "json_text", "output.format.json_text"),
    ("output", "atomic_write_text", "output.write"),
]

LAYERS = ("trigseries", "builder", "resonant", "dynamics", "analysis", "output", "cli")

#: spans whose call records a work count: name -> f(args, kwargs, result)
_COUNTS = {
    "dynamics.integrate_orbit": lambda a, kw, r: (a[3] if len(a) > 3 else kw["n_periods"],
                                                  len(r)),
    "analysis.critical_epsilon": lambda a, kw, r: r.iterations,
    "output.format.columns_csv": lambda a, kw, r: r.count("\n") - 1,
    "output.format.columns_json": lambda a, kw, r: len(a[1]) if hasattr(a[1], "__len__") else 0,
    "output.write": lambda a, kw, r: len(a[1].encode()),
}
#: spans whose returned series are kept for the term and bit-size counts
_SERIES = {"builder.build_integral", "resonant.build_c", "resonant.build_phi"}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, count]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._series: dict[int, object] = {}
        self.passes = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        keep = name in _SERIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, kwargs, result)
            if keep:
                self._series.setdefault(id(result), result)
            return result

        return wrapper

    def install(self):
        """Patch every binding of every target across the package."""
        package = [mod for key, mod in sys.modules.items()
                   if key == "mathieu_integrals" or key.startswith("mathieu_integrals.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules["mathieu_integrals." + module_name]
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] + ([] if isinstance(owner, type) else package)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def end_pass(self):
        self.passes += 1

    def dump(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, handle)
        return path

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, averaged per traced pass."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def outer(i: int, prefix: str) -> bool:
            """Span i is not nested in another span whose name starts with prefix."""
            p = spans[i][3]
            while p >= 0:
                if spans[p][0].startswith(prefix):
                    return False
                p = spans[p][3]
            return True

        def total(name: str) -> float:
            """Time inside spans named ``name`` (or under the prefix ``name.``), nesting once."""
            return sum(dur[i] for i, s in enumerate(spans)
                       if (s[0] == name or s[0].startswith(name + ".")) and outer(i, name))

        def calls(name: str) -> int:
            return sum(1 for s in spans if s[0] == name)

        def counts(name: str, pick=lambda c: c) -> float:
            return sum(pick(s[4]) for s in spans if s[0] == name and s[4] is not None)

        def children_of(child_name: str, parent_name: str) -> int:
            return sum(1 for s in spans if s[0] == child_name and s[3] >= 0
                       and spans[s[3]][0] == parent_name)

        def self_of(name: str) -> float:
            return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == name)

        m: dict[str, float] = {}
        for lay in LAYERS:
            m[f"{lay}.self_s"] = sum(dur[i] - child[i] for i, s in enumerate(spans)
                                     if s[0].split(".")[0] == lay)
        m["trigseries.mul_calls"] = calls("trigseries.mul")
        m["trigseries.mul_s"] = total("trigseries.mul")
        m["trigseries.integrate_calls"] = calls("trigseries.integrate")
        m["trigseries.integrate_s"] = total("trigseries.integrate")
        m["builder.recursion_step_calls"] = calls("builder.recursion_step")
        for key, name in (("recursion_step_s", "recursion_step"), ("bracket_s", "bracket"),
                          ("substitute_s", "substitute"),
                          ("back_substitute_s", "back_substitute"), ("conic_s", "conic")):
            m["builder." + key] = total("builder." + name)
        m["resonant.build_c_s"] = total("resonant.build_c")
        m["resonant.build_phi_s"] = total("resonant.build_phi")
        m["resonant.eliminate_s"] = total("resonant.eliminate")
        m["dynamics.integrate_orbit_calls"] = calls("dynamics.integrate_orbit")
        m["dynamics.integrate_orbit_s"] = total("dynamics.integrate_orbit")
        m["dynamics.periods"] = counts("dynamics.integrate_orbit", lambda c: c[0])
        m["dynamics.samples"] = counts("dynamics.integrate_orbit", lambda c: c[1])
        m["dynamics.section_s"] = total("dynamics.section")
        m["dynamics.escape_diagnostics_s"] = total("dynamics.escape_diagnostics")
        m["dynamics.monodromy_calls"] = calls("dynamics.monodromy")
        m["dynamics.monodromy_s"] = total("dynamics.monodromy")
        m["analysis.critical_epsilon_s"] = total("analysis.critical_epsilon")
        m["analysis.critical_epsilon_self_s"] = self_of("analysis.critical_epsilon")
        m["analysis.oracle_calls"] = children_of("dynamics.monodromy", "analysis.critical_epsilon")
        m["analysis.bisection_iterations"] = counts("analysis.critical_epsilon")
        m["analysis.periodic_orbit_s"] = total("analysis.periodic_orbit")
        m["analysis.periodic_orbit_oracle_calls"] = children_of("dynamics.monodromy",
                                                                "analysis.periodic_orbit")
        m["analysis.convergence_self_s"] = self_of("analysis.convergence")
        m["output.format_s"] = total("output.format")
        m["output.write_s"] = total("output.write")
        m["output.rows"] = (counts("output.format.columns_csv")
                            + counts("output.format.columns_json"))
        m["output.bytes"] = counts("output.write")
        m["cli.commands"] = sum(1 for s in spans if s[3] == -1 and s[0].startswith("cli."))
        m["trace.spans"] = len(spans)
        passes = max(1, self.passes)
        m = {key: value / passes for key, value in m.items()}

        # maxima and rates are not per-pass sums
        def rate(num: float, den: float) -> float:
            return num / den if den > 0.0 else 0.0

        m["builder.terms_max"], m["builder.coeff_bits_max"] = self._series_sizes()
        m["dynamics.periods_per_s"] = rate(m["dynamics.periods"], m["dynamics.integrate_orbit_s"])
        m["dynamics.samples_per_s"] = rate(m["dynamics.samples"], m["dynamics.integrate_orbit_s"])
        m["output.bytes_per_s"] = rate(m["output.bytes"], m["output.format_s"] + m["output.write_s"])
        return m

    def _series_sizes(self) -> tuple[int, int]:
        """Largest term count of one coefficient series and largest coefficient bit size."""
        terms = bits = 0
        for phi in self._series.values():
            for q in phi.orders:
                for series in (q.cxx, q.cyy, q.cxy):
                    items = series.terms()
                    terms = max(terms, len(items))
                    for _, c in items:
                        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return terms, bits
