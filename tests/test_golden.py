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

``FLOAT_GOLDEN`` holds SHA-256 digests of float output of the symbolic
layer, recorded while a series still kept its coefficients as Fractions:
the float tables are summed in storage order, so these pin that order,
which the exact JSON does not see.
"""

import hashlib
import json
import pathlib
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import series_reference as ref
from mathieu_integrals import SystemParams, build_integral
from mathieu_integrals.cli import main
from mathieu_integrals.output import json_text

GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_symbolic.json").read_text())


FLOAT_GOLDEN = {
    # build-integral --omega1 <omega1> --order 28 --conics-out: the CSV
    "conics": {"9/10": "3efc4e5741e9c45673a11a854497af73329cbcebc7207066af4193ec8939b1fd",
               "1/10": "371f652fd0e17564d21034b3c9e3c259f346ad45e04b2e9a2bec05557601ace4",
               "11/10": "781053a7604c04e3ccc5f56df5c4f7831ea013f3ca83691c6581e04124538144"},
    # resonant --omega1 1 --epsilon 0.05: json_text of section_form and max_section_residual
    "resonant": "ddb99532559a7b834c027d3c3de8e0d415e620e9bb9aa019c14bb71376ab78c7",
    # convergence --orders 2,4,6: the CSV
    "convergence": "f1e605bb696d9849324edf31398915b27b7b59e9ee01a4d34a9483b0740e2b23",
}


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
        doc = ref.to_json_obj(phi.truncated(n))
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


@pytest.mark.parametrize("omega1", ["9/10", "1/10", "11/10"])
def test_order_28_conics_csv(omega1, tmp_path):
    out = tmp_path / "conics.csv"
    run("build-integral", "--omega1", omega1, "--order", "28", "--conics-out", str(out))
    assert sha256(out.read_text()) == FLOAT_GOLDEN["conics"][omega1]


def test_resonant_section_form_and_residual(tmp_path):
    out = tmp_path / "resonant.json"
    run("resonant", "--omega1", "1", "--epsilon", "0.05", "--out", str(out))
    doc = json.loads(out.read_text())
    got = json_text({key: doc[key] for key in ("section_form", "max_section_residual")})
    assert sha256(got) == FLOAT_GOLDEN["resonant"]


def test_convergence_csv(tmp_path):
    out = tmp_path / "convergence.csv"
    run("convergence", "--orders", "2,4,6", "--out", str(out))
    assert sha256(out.read_text()) == FLOAT_GOLDEN["convergence"]
