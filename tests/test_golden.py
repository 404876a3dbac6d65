"""Golden CLI outputs, pinned byte for byte by sha256.

One seeded `simulate` pair drives `predict`, `evaluate` and both `energy`
modes against a fixed model document (tests/golden/model.json, the `fit`
of that pair with `created_at` set to 0). The `cost` tables and JSON and
the `simulate` summary text are pinned too. Any change in number formatting,
random stream, alignment or arithmetic order changes a hash. `fit` itself
is compared field by field, since its last bits depend on the QR routine.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wattmodel import load_model, save_model
from wattmodel.cli import main as cli_main

GOLDEN_MODEL = Path(__file__).parent / "golden" / "model.json"

# the README's cost example
COST_ARGS = (
    "cost", "--kwh-per-day", "15.73", "--rate", "0.14", "--escalation", "0.15",
    "--category", "Data transfer=58084", "--category", "VM hours=40568",
    "--category", "Storage=2325", "--category", "Storage I/O=2293", "--months", "36",
)

GOLDEN_SHA256 = {
    "metrics.csv": "d949f488657bf2d4db2c02a36ea517368dbf23ae54a73762e16e0560567dd4b4",
    "power.csv": "f3db6aa244679f2c4f912ad88edc7a5ed10e025c6648357d84de9975c68d01e1",
    "predicted.csv": "70857a5cc65b21eb40a608f311f60f01eb157c11579c0282b6e2573637c33816",
    "evaluate.json": "7d06c682ead60f84351b978a8985b525840b7fc8bd52115818a1eaf924e9327b",
    "energy_power.json": "2e92675491f2e4199f92051c99559d21fff8f7975799d965df819fe769596e1f",
    "energy_model.json": "49ee30df4668a739ce05722a04fe38cbee7c947e49d40500a98be06a17a774e7",
    "diurnal_metrics.csv": "5d9efceba83914dda75cc42ad16cff1fe1a433f74643bb4dd899ba41f12b034c",
    "diurnal_power.csv": "93f9e24a541b8a88d85e9d44cc5a77fcde77294a2ed5f391d6a969cc5906e343",
    "cost.txt": "fa480169cb8aaa962eb5b9ba719767a784f7417e6f9be3954239452a5079d71c",
    "cost_eur.txt": "f6d80e4feb21ace77aa88c2339f8b3de7f9e157cef0bd4ab6be1d89dd9e15dee",
    "cost_eur.json": "1dcced17dda91a5bb414f701949d089ccf789bb42b120ccf8e9a11348ab10f4a",
    "simulate_idle.txt": "2e1ac8c667dd70d4745910a52465287a92121628a80f57b0f6b1c3556c84d86f",
}


def golden_outputs(directory: Path, capsys) -> dict[str, bytes]:
    """Run the pinned commands in directory; return each output's bytes."""
    m, p, model = directory / "metrics.csv", directory / "power.csv", directory / "model.json"
    model.write_bytes(GOLDEN_MODEL.read_bytes())
    outputs = {}

    def run(*argv):
        capsys.readouterr()
        assert cli_main(list(argv)) == 0
        return capsys.readouterr().out.encode()

    run("simulate", "--seed", "42", "--noise-w", "2", "--interval-s", "60",
        "--out-metrics", str(m), "--out-power", str(p))
    outputs["metrics.csv"] = m.read_bytes()
    outputs["power.csv"] = p.read_bytes()
    run("predict", "--model", str(model), "--metrics", str(m),
        "--out", str(directory / "predicted.csv"))
    outputs["predicted.csv"] = (directory / "predicted.csv").read_bytes()
    outputs["evaluate.json"] = run("evaluate", "--model", str(model),
                                   "--metrics", str(m), "--power", str(p))
    outputs["energy_power.json"] = run("energy", "--power", str(p))
    outputs["energy_model.json"] = run("energy", "--model", str(model), "--metrics", str(m))
    # diurnal draws its jitter between the noise draws of each sample
    dm, dp = directory / "diurnal_metrics.csv", directory / "diurnal_power.csv"
    run("simulate", "--profile", "diurnal", "--seed", "42", "--noise-w", "2",
        "--interval-s", "60", "--out-metrics", str(dm), "--out-power", str(dp))
    outputs["diurnal_metrics.csv"] = dm.read_bytes()
    outputs["diurnal_power.csv"] = dp.read_bytes()
    outputs["cost.txt"] = run(*COST_ARGS)
    outputs["cost_eur.txt"] = run(*COST_ARGS[:-2], "--months", "40", "--currency", "EUR")
    outputs["cost_eur.json"] = run(*COST_ARGS[:-2], "--months", "40", "--currency", "EUR", "--json")
    outputs["simulate_idle.txt"] = run(
        "simulate", "--profile", "idle", "--duration-s", "600", "--out-metrics",
        str(directory / "idle_metrics.csv"), "--out-power", str(directory / "idle_power.csv"))
    return outputs


def test_golden_outputs_are_byte_identical(tmp_path, capsys):
    outputs = golden_outputs(tmp_path, capsys)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert got == GOLDEN_SHA256


def test_fit_matches_golden_model(tmp_path, capsys):
    golden_outputs(tmp_path, capsys)
    out = tmp_path / "fitted.json"
    assert cli_main(["fit", "--metrics", str(tmp_path / "metrics.csv"),
                     "--power", str(tmp_path / "power.csv"), "--out", str(out)]) == 0
    fitted, golden = json.loads(out.read_text()), json.loads(GOLDEN_MODEL.read_text())
    assert set(fitted) == set(golden)
    assert set(fitted["diagnostics"]) == set(golden["diagnostics"])
    assert list(fitted) == list(golden)
    assert list(fitted["diagnostics"]) == list(golden["diagnostics"])
    for field in ("alpha", "beta_cpu", "beta_mem", "beta_disk", "beta_net"):
        assert fitted[field] == pytest.approx(golden[field], rel=1e-12, abs=0.0)
    for field, value in golden["diagnostics"].items():
        assert fitted["diagnostics"][field] == pytest.approx(value, rel=1e-12, abs=0.0)


def test_golden_model_round_trips_byte_for_byte():
    text = GOLDEN_MODEL.read_text(encoding="utf-8")
    assert save_model(load_model(text)) == text
