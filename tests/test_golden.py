"""Golden digests of the symbolic output.

``golden_symbolic.json`` holds SHA-256 digests of the exact-rational
JSON, recorded from the Fraction pipeline (bracket, lattice TrigSeries,
integrate, back-substitute) before the recursion ran on integers.  The
output must stay byte-identical: orders 0-40 of the non-resonant
integral at three omega1 values, and the resonant C-series, mixing
coefficients and combined integral for orders 0-10 at (omega, omega1) =
(2, 1) and (3, 3/2) and for orders 12 and 16 at (2, 1).  The (3, 3/2)
and order-12/16 digests were recorded from the elimination that summed
q_i * Phi_(n-i) over full-depth Phi, before it ran as one recursion.
"""

import hashlib
import json
import pathlib
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from mathieu_integrals import SystemParams, build_integral
from mathieu_integrals.cli import main
from mathieu_integrals.output import json_text

GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_symbolic.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(*args):
    res = CliRunner().invoke(main, list(args), catch_exceptions=False)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("omega1", ["9/10", "1/10", "11/10"])
def test_build_integral_orders_0_to_40(omega1, tmp_path):
    want = GOLDEN["build_integral"][omega1]
    phi = build_integral(SystemParams(F(2), F(omega1), 0.1), 40)
    got = []
    for n in range(41):
        doc = phi.truncated(n).to_json_obj()
        doc["epsilon"] = 0.1  # the CLI default
        got.append(sha256(json_text(doc)))
    assert got == want
    out = tmp_path / "phi.json"
    for n in (7, 40):  # the CLI writes exactly these bytes
        run("build-integral", "--omega1", omega1, "--order", str(n), "--out", str(out))
        assert sha256(out.read_text()) == want[n]


def resonant_digest(tmp_path, order, *freqs):
    out = tmp_path / "resonant.json"
    run("resonant", *freqs, "--order", str(order), "--dump-symbolic", "--out", str(out))
    doc = json.loads(out.read_text())
    return sha256(json_text({key: doc[key] for key in ("mix", "c_series", "combined")}))


@pytest.mark.parametrize("order", range(11))
def test_resonant_symbolic_orders_0_to_10(order, tmp_path):
    assert resonant_digest(tmp_path, order, "--omega1", "1") == GOLDEN["resonant"]["1"][order]
    got = resonant_digest(tmp_path, order, "--omega", "3", "--omega1", "3/2")
    assert got == GOLDEN["resonant"]["3/2"][order]


@pytest.mark.parametrize("order", [12, 16])
def test_resonant_symbolic_deep_orders(order, tmp_path):
    want = GOLDEN["resonant_deep"]["1"][str(order)]
    assert resonant_digest(tmp_path, order, "--omega1", "1") == want
