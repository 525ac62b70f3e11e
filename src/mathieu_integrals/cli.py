"""Command-line front end.

Every figure-type of the underlying study maps to a subcommand that
emits plain data (CSV or JSON); plotting is left to external tools.
Frequencies are parsed exactly ("0.9" and "9/10" both mean the rational
9/10); outputs are deterministic, and a file is written atomically as it
is formatted, one block at a time.

Exit codes: 0 success, 1 internal error, 2 domain error (bad input,
resonance detected, bracket failure, unbounded orbit, ...).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import click

from . import analysis, builder, dynamics, output, resonant
from .errors import DomainError, InvalidInput

DEFAULT_EPS_GRID = [j / 100 for j in range(-18, 19, 2)]


def _params(omega: str, omega1: str, epsilon: float) -> builder.SystemParams:
    try:
        freqs = Fraction(omega), Fraction(omega1)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"--omega {omega} --omega1 {omega1}: not exact rationals") from None
    return builder.SystemParams(*freqs, epsilon)


class _OneLineErrors(click.Group):
    """End a DomainError or a value click cannot parse with one ``error:``
    line and exit 2 (click's usage error takes four); real bugs exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            message = exc.format_message()
        except DomainError as exc:
            message = str(exc)
        click.echo(f"error: {message}", err=True)
        sys.exit(2)


def frequency_options(fn):
    fn = click.option("--omega", default="2", show_default=True,
                      help="Driving frequency (exact rational, e.g. '2' or '9/10').")(fn)
    return click.option("--omega1", default="9/10", show_default=True,
                        help="Unperturbed frequency (exact rational).")(fn)


def common_options(fn):
    return click.option("--epsilon", default=0.1, show_default=True, type=float,
                        help="Perturbation strength.")(frequency_options(fn))


def orbit_options(fn):
    fn = click.option("--x0", default=0.0, show_default=True, type=float, help="Initial x.")(fn)
    fn = click.option("--y0", default=1.0, show_default=True, type=float, help="Initial y.")(fn)
    fn = click.option("--periods", default=200, show_default=True, type=int,
                      help="Number of driving periods to integrate.")(fn)
    fn = click.option("--time", "time_", default=None, type=float,
                      help="Alternative horizon in time units (overrides --periods).")(fn)
    return fn


def format_option(fn):
    return click.option("--format", "format_", default="csv", show_default=True,
                        type=click.Choice(["csv", "json"]),
                        help="Tabular output format.")(fn)


def _orbit(params: builder.SystemParams, x0: float, y0: float, periods: int,
           time_: float | None, samples: int = 1) -> dynamics.OrbitBlocks:
    """The orbit's ``orbit_blocks`` over --periods or --time."""
    if time_ is not None:
        if not (math.isfinite(time_) and time_ > 0):
            raise InvalidInput("--time must be positive and finite")
        periods = max(1, math.ceil(time_ / params.period))
    return dynamics.orbit_blocks(params, x0, y0, periods, samples)


def _write(path: str | None, chunks):
    """Stream the pieces to ``path``, or print them joined once all are made."""
    if path:
        output.atomic_write_chunks(path, chunks)
        click.echo(f"wrote {path}")
    else:
        click.echo("".join(chunks), nl=False)


@click.group(cls=_OneLineErrors)
def main():
    """Formal integrals and Floquet analysis of the driven oscillator."""
    if hasattr(sys, "set_int_max_str_digits"):  # numerators may pass 4,300 digits at order 40
        sys.set_int_max_str_digits(0)  # for str(), %d and json alike; a forked writer inherits it


@main.command("build-integral")
@common_options
@click.option("--order", default=10, show_default=True, type=int, help="Highest power of eps.")
@click.option("--out", default=None, type=click.Path(), help="JSON output path.")
@click.option("--conics-out", default=None, type=click.Path(),
              help="CSV of section-conic coefficients over an epsilon grid.")
@click.option("--dump-symbolic", is_flag=True, help="Print the symbolic JSON to stdout.")
@click.option("--pretty", is_flag=True, help="Print a human-readable series dump.")
def cmd_build_integral(omega, omega1, epsilon, order, out, conics_out, dump_symbolic, pretty):
    """Build the non-resonant formal integral and dump it."""
    params = _params(omega, omega1, epsilon)
    phi = builder.build_integral(params, order)
    doc = phi.json_document()
    doc["epsilon"] = epsilon
    # formatted once when it is printed too, streamed when it is only written
    text = output.json_text(doc) if dump_symbolic or not out else None
    files, stdout = [], []  # every file is written, then stdout is printed
    if out:
        files.append((out, output.json_chunks(doc) if text is None else (text,)))
        stdout.append(f"wrote {out}\n")
    if text is not None:
        stdout.append(text)
    if pretty:
        stdout.append(phi.pretty() + "\n")
    if conics_out:
        rows = [(eps, *builder.conic_at_section(phi, eps))
                for eps in sorted(set(DEFAULT_EPS_GRID + [epsilon]))]
        files.append((conics_out, output.csv_chunks(("epsilon", "A", "B", "D"), rows)))
        stdout.append(f"wrote {conics_out}\n")
    for path, chunks in files:
        output.atomic_write_chunks(path, chunks)
    click.echo("".join(stdout), nl=False)


@main.command("orbit")
@common_options
@orbit_options
@format_option
@click.option("--samples", default=32, show_default=True, type=int,
              help="Samples per period.")
@click.option("--out", default=None, type=click.Path(), help="Output path, else stdout.")
def cmd_orbit(omega, omega1, epsilon, x0, y0, periods, time_, format_, samples, out):
    """Integrate an orbit; columns k,t,x,y,E,d,r."""
    blocks = _orbit(_params(omega, omega1, epsilon), x0, y0, periods, time_, samples)
    _write(out, output.tabular_chunks(output.ORBIT_COLUMNS, blocks, format_))


@main.command("section")
@common_options
@orbit_options
@format_option
@click.option("--out", default=None, type=click.Path(), help="Output path, else stdout.")
def cmd_section(omega, omega1, epsilon, x0, y0, periods, time_, format_, out):
    """Stroboscopic section points at t = kT: the one-sample orbit."""
    cmd_orbit.callback(omega, omega1, epsilon, x0, y0, periods, time_, format_, 1, out)


@main.command("distances")
@common_options
@orbit_options
@format_option
@click.option("--r-escape", default=dynamics.R_ESCAPE, show_default=True, type=float,
              help="Radius r past which an orbit has escaped.")
@click.option("--out", default=None, type=click.Path(), help="Output path, else stdout.")
def cmd_distances(omega, omega1, epsilon, x0, y0, periods, time_, format_, r_escape, out):
    """Section distances d = sqrt(omega1^2 x^2 + y^2) and r vs time.

    Escape runs annotate the first period index beyond the threshold.
    """
    params = _params(omega, omega1, epsilon)
    blocks = _orbit(params, x0, y0, periods, time_)

    def rows():
        report = None  # checked per block up to the first in which the orbit escaped
        for block in blocks:
            if not (report and report.escaped):
                report = dynamics.escape_diagnostics(params, block, r_escape=r_escape)
            for k, t, _, _, _, d, r in block:
                yield k, t, d, r
        if report.escaped:  # the last row: a generator does not split, this process writes it
            yield (f"# escaped at k={report.k_escape}",)

    _write(out, output.tabular_chunks(("k", "t", "d", "r"), rows(), format_))


@main.command("energy")
@common_options
@orbit_options
@format_option
@click.option("--out", default=None, type=click.Path(), help="Output path, else stdout.")
def cmd_energy(omega, omega1, epsilon, x0, y0, periods, time_, format_, out):
    """Section samples of (x, E) for the extended phase space."""
    blocks = _orbit(_params(omega, omega1, epsilon), x0, y0, periods, time_)
    _write(out, output.tabular_chunks(("k", "t", "x", "E"), blocks, format_))


@main.command("critical-eps")
@frequency_options
@click.option("--sign", default=1, show_default=True, type=int,
              help="+1 for the positive boundary, -1 for the negative one.")
@click.option("--out", default=None, type=click.Path(), help="JSON report path.")
def cmd_critical_eps(omega, omega1, sign, out):
    """Locate the escape boundary eps_crit."""
    params = _params(omega, omega1, 0.0)
    result = analysis.critical_epsilon(params, sign=sign)
    if out:
        doc = {
            "omega": omega, "omega1": omega1, "sign": sign,
            "eps_crit": result.eps_crit,
            "bracket": list(result.bracket),
            "oracle": "hill",
            "iterations": result.iterations,
        }
        output.atomic_write_chunks(out, output.json_chunks(doc))
    click.echo(f"{result.eps_crit:.10g}")
    if out:
        click.echo(f"wrote {out}", err=True)


@main.command("monodromy")
@common_options
@click.option("--n", default=1, show_default=True, type=int, help="Number of periods.")
@click.option("--out", default=None, type=click.Path(), help="Output path, else stdout.")
def cmd_monodromy(omega, omega1, epsilon, n, out):
    """Fundamental-solution matrix over n periods."""
    params = _params(omega, omega1, epsilon)
    m = dynamics.monodromy(params, epsilon, n=n)
    ev1, ev2 = m.eigenvalues()
    doc = {
        "omega": omega, "omega1": omega1, "epsilon": epsilon, "n": n,
        "matrix": [[m.m11, m.m12], [m.m21, m.m22]],
        # the flow preserves area, so det M = 1; the entries' own det drifts at large eps
        "trace": m.trace, "det": 1.0,
        "eigenvalues": [[ev1.real, ev1.imag], [ev2.real, ev2.imag]],
        "stable": abs(m.trace) < 2.0,
    }
    _write(out, output.json_chunks(doc))


@main.command("resonant")
@common_options
@click.option("--order", default=10, show_default=True, type=int, help="Highest power of eps.")
@click.option("--x0", default=0.0, show_default=True, type=float, help="Initial x.")
@click.option("--y0", default=1.0, show_default=True, type=float, help="Initial y.")
@click.option("--periods", default=15, show_default=True, type=int, help="Periods of the section.")
@click.option("--out", default=None, type=click.Path(), help="JSON report path.")
@click.option("--dump-symbolic", is_flag=True,
              help="Add c_series and combined, the C-series and the combined integral.")
def cmd_resonant(omega, omega1, epsilon, order, x0, y0, periods, out, dump_symbolic):
    """Resonant (omega = 2*omega1) integral: C-series, mixing, section form."""
    params = _params(omega, omega1, epsilon)
    constants = resonant.PhaseConstants.from_initial_conditions(params, x0, y0)
    combo = resonant.eliminate_secular(params, order)
    a, b, d = resonant.resonant_section_form(combo, epsilon, constants)
    residual = analysis.section_residual(
        (a, b, d), dynamics.stroboscopic_section(params, x0, y0, periods))

    doc = {
        "omega": omega, "omega1": omega1, "epsilon": epsilon, "order": order,
        "mix": [q.to_json_terms() for q in combo.mix],
        "section_form": {"A": a, "B": b, "D": d},
        "phase_constants": {"c0": constants.c0, "s0": constants.s0},
        "max_section_residual": residual,
        "c_series": (resonant.build_resonant_c(params, order).json_document()
                     if dump_symbolic else None),
        "combined": combo.combined.json_document() if dump_symbolic else None,
    }
    _write(out, output.json_chunks(doc))


@main.command("convergence")
@common_options
@format_option
@click.option("--orders", default="2,4,6", show_default=True,
              help="Comma-separated ascending truncation orders.")
@click.option("--periods", default=200, show_default=True, type=int, help="Periods of the section.")
@click.option("--x0", default=0.0, show_default=True, type=float, help="Initial x.")
@click.option("--y0", default=1.0, show_default=True, type=float, help="Initial y.")
@click.option("--out", default=None, type=click.Path(), help="Output path, else stdout.")
def cmd_convergence(omega, omega1, epsilon, format_, orders, periods, x0, y0, out):
    """Section residual of the truncated integral per truncation order."""
    params = _params(omega, omega1, epsilon)
    try:
        order_list = [int(tok) for tok in orders.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInput(f"--orders {orders}: not a comma-separated list of integers") from None
    report = analysis.convergence_study(params, order_list, n_periods=periods, x0=x0, y0=y0)
    rows = list(zip(report.orders, report.residuals))
    _write(out, output.tabular_chunks(("order", "residual"), rows, format_))


if __name__ == "__main__":
    main()
