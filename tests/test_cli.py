"""End-to-end command-line tests: output streams, files, exit codes."""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wattmodel
from conftest import REF_TRUTH, exact_model, strict_json
from wattmodel import (
    MetricTrace,
    PowerTrace,
    SimConfig,
    format_metrics,
    format_power,
    generate,
    load_model,
    parse_metrics,
    save_model,
)
from wattmodel import cli, powermodel, regression
from wattmodel.cli import main
from wattmodel.powermodel import BLOCK_ROWS

METRICS_HEADER = "timestamp,cpu,mem,disk,net"
POWER_HEADER = "timestamp,power_w"
GOLDEN_MODEL = Path(__file__).parent / "golden" / "model.json"


def write_traces(tmp_path, noise=0.0, seed=1, profile="bursty", n=240):
    cfg = SimConfig(
        truth=REF_TRUTH,
        duration_s=n * 60.0,
        interval_s=60.0,
        noise_sigma_w=noise,
        seed=seed,
        workload_profile=profile,
    )
    metrics, power = generate(cfg)
    metrics_path = tmp_path / "metrics.csv"
    power_path = tmp_path / "power.csv"
    metrics_path.write_text(format_metrics(metrics), encoding="utf-8")
    power_path.write_text(format_power(power), encoding="utf-8")
    return metrics_path, power_path


def fit_model_file(tmp_path, **kwargs):
    metrics_path, power_path = write_traces(tmp_path, **kwargs)
    model_path = tmp_path / "model.json"
    rc = main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
               "--out", str(model_path)])
    assert rc == 0
    return model_path, metrics_path, power_path


# ---------------------------------------------------------------- pipeline


def test_simulate_fit_evaluate_pipeline(tmp_path, capsys):
    m = tmp_path / "m.csv"
    p = tmp_path / "p.csv"
    model = tmp_path / "model.json"
    assert main(["simulate", "--profile", "bursty", "--duration-s", "14400",
                 "--interval-s", "60", "--seed", "11",
                 "--out-metrics", str(m), "--out-power", str(p)]) == 0
    assert main(["fit", "--metrics", str(m), "--power", str(p),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--metrics", str(m),
                 "--power", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mape"] == pytest.approx(0.0, abs=1e-9)
    assert report["accuracy"] == pytest.approx(100.0, abs=1e-9)
    assert report["n"] == 240


def test_fit_prints_coefficient_table(tmp_path, capsys):
    fit_model_file(tmp_path)
    out, err = capsys.readouterr()
    assert "Baseline Power" in out
    assert "alpha" in out and "beta_4" in out
    assert "< 2e-16" in out  # noiseless fit saturates every p-value
    assert "R-squared" in out
    assert "tolerance_s = 30" in err  # derived default is echoed
    assert "model written" in err
    assert "\x1b" not in out  # captured stream is not a tty: no styling


def test_fit_model_file_recovers_truth(tmp_path):
    model_path, _, _ = fit_model_file(tmp_path)
    model = load_model(model_path.read_text(encoding="utf-8"))
    assert model.alpha == pytest.approx(REF_TRUTH.alpha, rel=1e-6)
    assert model.beta_net == pytest.approx(REF_TRUTH.beta_net, rel=1e-6)


def test_fit_json_flag_emits_saved_document(tmp_path, capsys):
    metrics_path, power_path = write_traces(tmp_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
                 "--out", str(model_path), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == model_path.read_text(encoding="utf-8")
    assert json.loads(out)["hardware_id"] == ""


def test_fit_hardware_id_flows_through(tmp_path):
    metrics_path, power_path = write_traces(tmp_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
                 "--out", str(model_path), "--hardware-id", "rack-42"]) == 0
    assert json.loads(model_path.read_text())["hardware_id"] == "rack-42"


def test_explicit_tolerance_suppresses_echo(tmp_path, capsys):
    metrics_path, power_path = write_traces(tmp_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
                 "--out", str(model_path), "--tolerance-s", "30"]) == 0
    assert "half the median" not in capsys.readouterr().err


def test_fit_and_evaluate_report_dropped_rows(tmp_path, capsys):
    model_path, metrics_path, power_path = fit_model_file(tmp_path)
    lines = power_path.read_text(encoding="utf-8").splitlines(keepends=True)
    power_path.write_text("".join(lines[:51] + lines[61:]), encoding="utf-8")
    capsys.readouterr()
    drop_line = "dropped 10 of 240 metric samples (no power sample within 30 s)\n"
    assert main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
                 "--out", str(model_path)]) == 0
    assert drop_line in capsys.readouterr().err
    assert main(["evaluate", "--model", str(model_path),
                 "--metrics", str(metrics_path), "--power", str(power_path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["n"] == 230
    assert err.endswith(drop_line)


def load_stages():
    """perfbench/stages.py, imported by its path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "stages.py"
    spec = importlib.util.spec_from_file_location("perfbench_stages", path)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    return stages


def test_traced_fit_reports_the_align_span(tmp_path, capsys, monkeypatch):
    # the benchmark's tracer wraps the functions that cli holds: align is one of them
    model_path, metrics_path, power_path = fit_model_file(tmp_path)
    lines = power_path.read_text(encoding="utf-8").splitlines(keepends=True)
    power_path.write_text("".join(lines[:51] + lines[61:]), encoding="utf-8")
    for module in (cli, powermodel, regression):  # undo what install rebinds
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(module, name, value)
    design = regression.DesignMatrix
    monkeypatch.setattr(design, "from_regressors", vars(design)["from_regressors"])
    tracer = load_stages().Tracer()
    tracer.install(cli, powermodel, regression)
    capsys.readouterr()
    assert main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
                 "--out", str(model_path)]) == 0
    found = re.search(r"dropped (\d+) of (\d+) metric samples", capsys.readouterr().err)
    dropped, total = map(int, found.groups())
    assert (dropped, total) == (10, 240)
    spans = [span for span in tracer.spans if span["name"] == "trace.align"]
    assert [(span["rows_in"], span["rows_out"]) for span in spans] == [(total, total - dropped)]


# ----------------------------------------------------------------- predict


def test_predict_reference_rows(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(save_model(exact_model(
        107.5, beta_cpu=124.9, beta_mem=5.471e-06,
        beta_disk=3.661e-02, beta_net=3.382e-08)), encoding="utf-8")
    metrics_path = tmp_path / "m.csv"
    metrics_path.write_text(
        METRICS_HEADER + "\n0,0,0,0,0\n60,0,0,0,0\n120,1,0,0,0\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path),
                 "--metrics", str(metrics_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "timestamp,predicted_power_w"
    assert lines[1] == "0.0,107.5"
    assert lines[2] == "60.0,107.5"
    assert lines[3] == "120.0,232.4"
    assert "3 predictions" in capsys.readouterr().err


def parsed_pair(monkeypatch, n):
    """n metric rows at 1 Hz and their power 0.25 s later, handed to cli in place of parsing."""
    rng = np.random.default_rng(5)
    t = np.arange(n, dtype=float)
    cpu, mem, disk, net = rng.random((4, n)) * np.array([[1.0], [1e6], [400.0], [1e8]])
    watts = 107.5 + 124.9 * cpu + 5.471e-06 * mem + 3.661e-02 * disk + 3.382e-08 * net
    parsed = {cli.parse_metrics: MetricTrace(np.column_stack([t, cpu, mem, disk, net])),
              cli.parse_power: PowerTrace(np.column_stack([t + 0.25, watts]))}
    monkeypatch.setattr(cli, "_parse_file", lambda parse, path: parsed[parse])


def test_fit_after_parsing_holds_less_than_the_aligned_rows(tmp_path, monkeypatch):
    # fit pairs the traces block by block and reads the pairs in blocks, so it
    # holds no aligned copy of the rows, no row indices, no whole design and no
    # whole [x | y]; its largest array is the metric intervals, sorted in place
    n = 200_000
    parsed_pair(monkeypatch, n)
    model_path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        assert main(["fit", "--metrics", "m.csv", "--power", "p.csv",
                     "--out", str(model_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_model(model_path.read_text(encoding="utf-8")).beta_cpu == pytest.approx(124.9)
    assert peak < 10 * n, peak / n


def test_evaluate_after_parsing_holds_less_than_two_aligned_copies(tmp_path, monkeypatch, capsys):
    # evaluate pairs the traces as fit does and reads the pairs in blocks; it
    # holds whole only the relative errors, whose mean is the MAPE
    n = 200_000
    parsed_pair(monkeypatch, n)
    model_path = tmp_path / "model.json"
    model_path.write_text(save_model(exact_model(107.5, beta_cpu=124.9)), encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["evaluate", "--model", str(model_path), "--metrics", "m.csv",
                     "--power", "p.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["n"] == n
    assert peak < 12 * n, peak / n


def test_predict_writes_its_columns_without_stacking_them(tmp_path, monkeypatch):
    n = 200_000
    parsed_pair(monkeypatch, n)
    model_path, out_path = tmp_path / "model.json", tmp_path / "pred.csv"
    model_path.write_text(save_model(exact_model(100.0, beta_cpu=50.0)), encoding="utf-8")
    predict, held = cli.predict, []

    def predict_then_measure(model, sample):
        watts = predict(model, sample)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return watts

    monkeypatch.setattr(cli, "predict", predict_then_measure)
    tracemalloc.start()
    try:
        assert main(["predict", "--model", str(model_path), "--metrics", "m.csv",
                     "--out", str(out_path)]) == 0
        write_peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == n + 1 and lines[2].startswith("1.0,")
    assert write_peak < n * 2 * 8  # the n x 2 array of timestamps and predictions


def test_predict_empty_metrics_is_data_error(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(save_model(exact_model(100.0)), encoding="utf-8")
    metrics_path = tmp_path / "m.csv"
    metrics_path.write_text(METRICS_HEADER + "\n", encoding="utf-8")
    rc = main(["predict", "--model", str(model_path),
               "--metrics", str(metrics_path), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "no samples" in capsys.readouterr().err


def overflowing_model(tmp_path):
    """A model file whose predictions on write_traces' metrics overflow."""
    model_path = tmp_path / "huge.json"
    model_path.write_text(save_model(exact_model(107.5, beta_net=1e300)), encoding="utf-8")
    return model_path


def test_predict_overflow_is_data_error(tmp_path, capsys):
    metrics_path, _ = write_traces(tmp_path)
    out_path = tmp_path / "pred.csv"
    rc = main(["predict", "--model", str(overflowing_model(tmp_path)),
               "--metrics", str(metrics_path), "--out", str(out_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "wattmodel: data error: model prediction for row 0 is not finite\n"
    assert not out_path.exists()


# ------------------------------------------------------------------ energy


def test_energy_metered_and_predicted(tmp_path, capsys):
    model_path, metrics_path, power_path = fit_model_file(tmp_path)
    capsys.readouterr()
    assert main(["energy", "--power", str(power_path)]) == 0
    metered = json.loads(capsys.readouterr().out)
    assert main(["energy", "--model", str(model_path),
                 "--metrics", str(metrics_path)]) == 0
    predicted = json.loads(capsys.readouterr().out)
    assert set(metered) == {"kwh", "duration_s", "mean_power_w", "kwh_per_day"}
    # noiseless fit: the model's energy matches the metered energy closely
    assert predicted["kwh"] == pytest.approx(metered["kwh"], rel=1e-6)


def test_warnings_print_as_tool_diagnostics(tmp_path, capsys):
    power = tmp_path / "gappy.csv"
    stamps = [i * 10.0 for i in range(30)] + [5000.0 + i * 10.0 for i in range(30)]
    power.write_text(format_power([(t, 200.0) for t in stamps]), encoding="utf-8")
    shown_before = warnings.showwarning
    for _ in range(2):  # shown on every run, not once per process
        assert main(["energy", "--power", str(power)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("wattmodel: warning: GapWarning: 1 sampling gap(s) exceed")
        assert len(err.splitlines()) == 1
    assert main(["simulate", "--alpha", "0.5", "--beta-cpu", "0", "--noise-w", "5",
                 "--duration-s", "3600", "--out-metrics", str(tmp_path / "m.csv"),
                 "--out-power", str(tmp_path / "p.csv")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("wattmodel: warning: FloorWarning: ")
    assert "samples written" in err.splitlines()[1]
    # the caller's own warning display is back in place
    assert warnings.showwarning is shown_before


def test_energy_overflow_is_data_error(tmp_path, capsys):
    metrics_path, _ = write_traces(tmp_path)
    model_path = overflowing_model(tmp_path)
    assert main(["energy", "--model", str(model_path), "--metrics", str(metrics_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "wattmodel: data error: model prediction for row 0 is not finite\n"
    huge = tmp_path / "huge_power.csv"
    huge.write_text(format_power([(0.0, 1.7e308), (60.0, 1.7e308)]), encoding="utf-8")
    assert main(["energy", "--power", str(huge)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("wattmodel: data error: the energy integral overflows")


def write_rows(path, header, rows):
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    return str(path)


def test_timestamps_spanning_past_the_float_range_are_data_errors(tmp_path, capsys):
    wide = write_rows(tmp_path / "wide.csv", POWER_HEADER,
                      ["-1e308,1e-10", "0,1e-10", "1e308,1e-10"])
    widest = write_rows(tmp_path / "widest.csv", POWER_HEADER, ["-1.7e308,100", "1.7e308,100"])
    widest_metrics = write_rows(tmp_path / "widest_m.csv", METRICS_HEADER,
                                ["-1.7e308,0.1,1,1,1", "1.7e308,0.2,2,1,1"])
    high_metrics = write_rows(tmp_path / "high_m.csv", METRICS_HEADER,
                              ["1.6e308,0.1,1,1,1", "1.7e308,0.2,2,1,1"])
    low_power = write_rows(tmp_path / "low.csv", POWER_HEADER, ["-1.7e308,100", "-1.6e308,110"])
    model_out = str(tmp_path / "model.json")
    cases = [
        (["energy", "--power", wide],
         "timestamp span -1e+308 to 1e+308 overflows"),
        (["energy", "--power", widest],
         "timestamp span -1.7e+308 to 1.7e+308 overflows"),
        (["fit", "--metrics", widest_metrics, "--power", widest, "--out", model_out],
         "timestamp span -1.7e+308 to 1.7e+308 overflows"),
        # the gap between the two streams overflows: it is past any tolerance
        (["fit", "--metrics", high_metrics, "--power", low_power, "--out", model_out],
         "no metric sample found a power sample within"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Warning" not in err
        assert err.splitlines()[-1].startswith(f"wattmodel: data error: {message}")


def test_energy_flag_combinations_are_usage_errors(tmp_path):
    model_path, metrics_path, power_path = fit_model_file(tmp_path)
    assert main(["energy"]) == 1
    assert main(["energy", "--power", str(power_path),
                 "--model", str(model_path)]) == 1
    assert main(["energy", "--model", str(model_path)]) == 1  # metrics missing


# -------------------------------------------------------------------- cost


COST_ARGS = [
    "cost", "--kwh-per-day", "15.73", "--rate", "0.14",
    "--escalation", "0.15", "--months", "36",
    "--category", "Data transfer=58084",
    "--category", "VM hours=40568",
    "--category", "Storage=2325",
    "--category", "Storage I/O=2293",
]


def test_cost_text_report(capsys):
    assert main(COST_ARGS) == 0
    out = capsys.readouterr().out
    assert "Year" in out and "Category" in out
    assert "2,791.21" in out
    assert "2.6%" in out
    assert "Energy usage" in out


def test_cost_json_report(capsys):
    assert main(COST_ARGS + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["projection"]["total_cost"] == pytest.approx(2791.21, abs=0.01)
    energy = next(c for c in doc["breakdown"] if c["label"] == "Energy usage")
    assert energy["percent"] == pytest.approx(2.6, abs=0.05)
    assert doc["breakdown_total"] == pytest.approx(106061.21, abs=0.01)


def test_cost_flag_validation(capsys):
    assert main(["cost", "--kwh-per-day", "15.73", "--rate", "-0.14",
                 "--months", "36"]) == 1
    assert main(["cost", "--kwh-per-day", "0", "--rate", "0.14",
                 "--months", "36"]) == 1
    assert main(["cost", "--kwh-per-day", "15.73", "--rate", "0.14",
                 "--months", "0"]) == 1
    assert main(["cost", "--kwh-per-day", "15.73", "--rate", "0.14",
                 "--months", "12", "--escalation", "-0.2"]) == 1
    assert main(["cost", "--kwh-per-day", "15.73", "--rate", "0.14",
                 "--months", "12", "--category", "nocost"]) == 1
    assert main(["cost", "--kwh-per-day", "15.73", "--rate", "0.14",
                 "--months", "12", "--category", "X=-5"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["cost", "--kwh-per-day", "15.73", "--rate", "0.14",
                 "--months", "12", "--category", "a=x"]) == 1
    assert capsys.readouterr().err == (
        "wattmodel: error: --category 'a=x': cost 'x' is not a number\n")


def test_cost_horizon_past_a_thousand_years_is_usage_error(capsys):
    for months in ("12001", "100000000000"):
        started = time.perf_counter()
        assert main(["cost", "--kwh-per-day", "1", "--rate", "0.1", "--months", months]) == 1
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"wattmodel: error: --months must be 1..12000, got {months}\n"


def test_cost_overflow_is_data_error(capsys):
    assert main(["cost", "--kwh-per-day", "10", "--rate", "0.1",
                 "--escalation", "1e200", "--months", "48"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wattmodel: data error: cost overflows in year 2")


def test_cost_underflow_is_data_error(capsys):
    # both flags are positive, but every year's cost underflows to 0.0
    for flags in (["--kwh-per-day", "1e-320", "--rate", "1e-320"],
                  ["--kwh-per-day", "1e-200", "--rate", "1e-200", "--category", "a=5"]):
        assert main(["cost", *flags, "--months", "12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("wattmodel: data error: cost underflows to zero in year 0")
        assert len(err.splitlines()) == 1


# ---------------------------------------------------------------- simulate


def test_simulate_outputs_parse_and_echo(tmp_path, capsys):
    m = tmp_path / "m.csv"
    p = tmp_path / "p.csv"
    assert main(["simulate", "--profile", "idle", "--duration-s", "600",
                 "--interval-s", "60", "--out-metrics", str(m),
                 "--out-power", str(p)]) == 0
    out, err = capsys.readouterr()
    assert "idle" in out and "107.5" in out
    assert "10 samples" in err
    assert m.read_text().startswith(METRICS_HEADER)
    assert p.read_text().startswith(POWER_HEADER)


def test_simulate_json_summary(tmp_path, capsys):
    m = tmp_path / "m.csv"
    p = tmp_path / "p.csv"
    assert main(["simulate", "--duration-s", "600", "--interval-s", "60",
                 "--seed", "9", "--out-metrics", str(m), "--out-power", str(p),
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"out_metrics": str(m), "out_power": str(p),
                   "n_samples": 10, "profile": "bursty", "seed": 9}


def test_simulate_same_seed_same_bytes(tmp_path):
    paths = [tmp_path / name for name in ("m1", "p1", "m2", "p2")]
    for m, p in (paths[:2], paths[2:]):
        assert main(["simulate", "--noise-w", "2", "--seed", "77",
                     "--duration-s", "3600", "--interval-s", "60",
                     "--out-metrics", str(m), "--out-power", str(p)]) == 0
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert paths[1].read_bytes() == paths[3].read_bytes()


def test_simulate_bad_config_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--duration-s", "50", "--interval-s", "60",
               "--out-metrics", str(tmp_path / "m"),
               "--out-power", str(tmp_path / "p")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    # a sample count beyond the float range, not a traceback
    rc = main(["simulate", "--duration-s", "1e300", "--interval-s", "1e-10",
               "--out-metrics", str(tmp_path / "m"),
               "--out-power", str(tmp_path / "p")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "wattmodel: error: duration_s / interval_s overflows")


# flag values whose power overflows, and sample counts past the cap
SIMULATE_OUT_OF_RANGE = [
    ["--noise-w", "1e308"],
    ["--beta-net", "1e301"],
    ["--duration-s", "1e15", "--interval-s", "1"],
    ["--duration-s", "1e20", "--interval-s", "1"],
    ["--profile", "bursty", "--duration-s", "1.79e308", "--interval-s", "1.79e305"],
]


@pytest.mark.parametrize("flags", SIMULATE_OUT_OF_RANGE)
def test_simulate_out_of_range_flags_are_usage_errors(tmp_path, capsys, flags):
    started = time.perf_counter()
    rc = main(["simulate", *flags, "--out-metrics", str(tmp_path / "m"),
               "--out-power", str(tmp_path / "p")])
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("wattmodel: error: ")
    assert "RuntimeWarning" not in err


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["fit", "--metrics", "x.csv"]) == 1  # required flags missing
    assert main(["fit", "--metrics", "a", "--power", "b", "--out", "c",
                 "--bogus-flag"]) == 1
    capsys.readouterr()


def test_missing_files_exit_2(tmp_path, capsys):
    rc = main(["fit", "--metrics", str(tmp_path / "nope.csv"),
               "--power", str(tmp_path / "nope2.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
    _, power_path = write_traces(tmp_path)
    rc = main(["fit", "--metrics", str(bad), "--power", str(power_path),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_too_few_rows_exit_2(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    power = tmp_path / "p.csv"
    rows = [(i * 60.0, 0.1 * i) for i in range(5)]
    metrics.write_text(
        METRICS_HEADER + "\n" + "".join(f"{t},{c},1,1,1\n" for t, c in rows),
        encoding="utf-8")
    power.write_text(
        POWER_HEADER + "\n" + "".join(f"{t},{100 + i}\n" for i, (t, _) in enumerate(rows)),
        encoding="utf-8")
    rc = main(["fit", "--metrics", str(metrics), "--power", str(power),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    capsys.readouterr()


def test_empty_alignment_exits_2(tmp_path, capsys):
    model_path, metrics_path, _ = fit_model_file(tmp_path)
    far_power = tmp_path / "far.csv"
    far_power.write_text(
        POWER_HEADER + "\n1000000,100\n1000060,100\n", encoding="utf-8")
    rc = main(["evaluate", "--model", str(model_path),
               "--metrics", str(metrics_path), "--power", str(far_power)])
    assert rc == 2
    capsys.readouterr()


def test_evaluate_overflow_is_data_error(tmp_path, capsys):
    metrics_path, power_path = write_traces(tmp_path)
    rc = main(["evaluate", "--model", str(overflowing_model(tmp_path)),
               "--metrics", str(metrics_path), "--power", str(power_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # no "mape": Infinity, which is not JSON
    assert err.endswith("wattmodel: data error: model prediction for row 0 is not finite\n")


def test_evaluate_subnormal_power_is_data_error(tmp_path, capsys):
    metrics_path, power_path = tmp_path / "metrics.csv", tmp_path / "power.csv"
    metrics_path.write_text(f"{METRICS_HEADER}\n0,0.5,0,0,0\n60,0.5,0,0,0\n", encoding="utf-8")
    power_path.write_text(f"{POWER_HEADER}\n0,1e-310\n60,1e-310\n", encoding="utf-8")
    model_path = Path(__file__).parent / "golden" / "model.json"
    rc = main(["evaluate", "--model", str(model_path),
               "--metrics", str(metrics_path), "--power", str(power_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # no "mape": Infinity, which is not JSON
    assert "warning" not in err
    assert err.endswith(
        "\nwattmodel: data error: MAPE is not finite; the smallest power_w is 1e-310 W\n"
    )


# (alpha, power_w of each row, message): the model predicts alpha on every row; with
# 2,500 rows evaluate reads two blocks, and the first error that overflows is in the second
MAPE_OVERFLOWS = {
    "error": (-1.7e308, [1.7e308] * 2, "the prediction error for row 0 overflows"),
    "error_past_the_first_block": (-1.7e308, [1.0] * 2100 + [1.7e308] * 400,
                                   "the prediction error for row 2100 overflows"),
    "sum": (1.7e308, [1.0] * 2, "MAPE is not finite; the sum of the percent errors overflows"),
}


@pytest.mark.parametrize("case", sorted(MAPE_OVERFLOWS))
def test_evaluate_names_why_the_mape_overflows(tmp_path, capsys, case):
    alpha, power_w, message = MAPE_OVERFLOWS[case]
    doc = json.loads(GOLDEN_MODEL.read_text())
    doc.update(alpha=alpha, beta_cpu=0.0, beta_mem=0.0, beta_disk=0.0, beta_net=0.0)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    metrics_path, power_path = tmp_path / "metrics.csv", tmp_path / "power.csv"
    metrics_path.write_text(format_metrics([(60.0 * i, 0.5, 1, 1, 1) for i in range(len(power_w))]),
                            encoding="utf-8")
    power_path.write_text(format_power([(60.0 * i, w) for i, w in enumerate(power_w)]),
                          encoding="utf-8")
    rc = main(["evaluate", "--model", str(model_path),
               "--metrics", str(metrics_path), "--power", str(power_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"\nwattmodel: data error: {message}\n")
    assert "warning" not in err


def test_evaluate_averages_percent_errors_whose_sum_overflows(tmp_path, capsys):
    # 1,000 relative errors of 1e306 sum past the float range; their MAPE, 1e308, does not
    doc = json.loads(GOLDEN_MODEL.read_text())
    doc.update(alpha=1e306, beta_cpu=0.0, beta_mem=0.0, beta_disk=0.0, beta_net=0.0)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    metrics_path, power_path = tmp_path / "metrics.csv", tmp_path / "power.csv"
    metrics_path.write_text(format_metrics([(60.0 * i, 0.5, 1, 1, 1) for i in range(1000)]),
                            encoding="utf-8")
    power_path.write_text(format_power([(60.0 * i, 1.0) for i in range(1000)]), encoding="utf-8")
    rc = main(["evaluate", "--model", str(model_path),
               "--metrics", str(metrics_path), "--power", str(power_path)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    report = strict_json(out)
    assert report["n"] == 1000
    assert report["mape"] == pytest.approx(1e308, rel=1e-12)
    assert report["accuracy"] == 100.0 - report["mape"]
    assert "warning" not in err


def test_corrupt_model_exits_2(tmp_path, capsys):
    bad_model = tmp_path / "model.json"
    bad_model.write_text('{"alpha": 1.0}', encoding="utf-8")
    metrics_path, _ = write_traces(tmp_path)
    rc = main(["predict", "--model", str(bad_model),
               "--metrics", str(metrics_path), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


def test_rank_deficiency_exits_3(tmp_path, capsys):
    metrics_path, power_path = write_traces(tmp_path, profile="constant")
    rc = main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "cpu" in capsys.readouterr().err


def test_rank_deficiency_over_several_blocks_exits_3(tmp_path, capsys):
    metrics_path, power_path = write_traces(tmp_path, n=3 * BLOCK_ROWS + 7)
    rows = np.array(parse_metrics(metrics_path.read_text(encoding="utf-8")))
    rows[:, 3] = 20.0  # disk
    metrics_path.write_text(format_metrics(rows), encoding="utf-8")
    rc = main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "wattmodel: numerical error: design matrix is rank deficient: column 'disk' carries "
        "no independent variation")


def write_extreme_traces(tmp_path, mem, power):
    """50 rows a minute apart: random cpu, disk and net; mem and power from (u, cpu)."""
    rng = np.random.default_rng(0)
    n = 50
    t = np.arange(n) * 60.0
    cpu, disk, net, u = (rng.uniform(0.0, high, n) for high in (1.0, 400.0, 4e8, 1.0))
    metrics_path, power_path = tmp_path / "metrics.csv", tmp_path / "power.csv"
    metrics_path.write_text(format_metrics(np.column_stack([t, cpu, mem(u, cpu), disk, net])),
                            encoding="utf-8")
    power_path.write_text(format_power(np.column_stack([t, power(u, cpu)])), encoding="utf-8")
    return str(metrics_path), str(power_path)


def metered(u, cpu):
    return 100.0 + 50.0 * cpu + u


# (mem, power) near the ends of the float range; fit scales each column first
EXTREME_FITS = {
    "mem near 1e200": (lambda u, cpu: (0.1 + 0.9 * u) * 1e200, metered),
    "mem near the float max": (lambda u, cpu: 1e307 + u * 1.4e308, metered),
    "power near 1e202": (lambda u, cpu: 4e6 * u, lambda u, cpu: 1e202 * (1 + 0.5 * cpu + 0.01 * u)),
}


@pytest.mark.parametrize("case", sorted(EXTREME_FITS))
def test_fit_near_the_ends_of_the_float_range(tmp_path, capsys, case):
    metrics_path, power_path = write_extreme_traces(tmp_path, *EXTREME_FITS[case])
    model_path = tmp_path / "model.json"
    assert main(["fit", "--metrics", metrics_path, "--power", power_path,
                 "--out", str(model_path)]) == 0
    assert "Warning" not in capsys.readouterr().err
    diagnostics = strict_json(model_path.read_text(encoding="utf-8"))["diagnostics"]
    assert 0.9 < diagnostics["r_squared"] <= 1.0
    assert main(["evaluate", "--model", str(model_path),
                 "--metrics", metrics_path, "--power", power_path]) == 0
    assert strict_json(capsys.readouterr().out)["accuracy"] > 90.0


def test_fit_past_the_float_range_is_data_error(tmp_path, capsys):
    # beta_mem would be about 1e600
    metrics_path, power_path = write_extreme_traces(
        tmp_path, lambda u, cpu: u * 1e-300, lambda u, cpu: 1e300 * (1 + u))
    assert main(["fit", "--metrics", metrics_path, "--power", power_path,
                 "--out", str(tmp_path / "model.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "wattmodel: data error: the fit for column 'mem' is outside the float range")


def test_bad_tolerance_is_usage_error(tmp_path, capsys):
    metrics_path, power_path = write_traces(tmp_path)
    rc = main(["fit", "--metrics", str(metrics_path), "--power", str(power_path),
               "--out", str(tmp_path / "m.json"), "--tolerance-s", "-1"])
    assert rc == 1
    capsys.readouterr()


def aligned_argv(command, tmp_path, metrics_path, power_path):
    """fit (writing m.json) or evaluate (of the golden model) on the given traces."""
    argv = [command, "--metrics", str(metrics_path), "--power", str(power_path)]
    if command == "fit":
        return argv + ["--out", str(tmp_path / "m.json")]
    return argv + ["--model", str(GOLDEN_MODEL)]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_bad_tolerance_is_checked_before_reading_files(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    assert main(aligned_argv(command, tmp_path, missing, missing) + ["--tolerance-s", "nan"]) == 1
    assert capsys.readouterr().err == "wattmodel: error: --tolerance-s must be > 0, got nan\n"


def test_bad_tolerance_is_checked_before_reading_the_model(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    argv = ["evaluate", "--model", str(tmp_path / "missing.json"), "--metrics", str(missing),
            "--power", str(missing), "--tolerance-s", "nan"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "wattmodel: error: --tolerance-s must be > 0, got nan\n"


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_subnormal_median_interval_is_data_error(tmp_path, capsys, command):
    # half of a 5e-324 s interval rounds to 0 s, which is no tolerance at all
    metrics_path, power_path = tmp_path / "metrics.csv", tmp_path / "power.csv"
    stamps = ("0", "5e-324", "1e-323")
    metrics_path.write_text(
        METRICS_HEADER + "\n" + "".join(f"{t},0.5,1,1,1\n" for t in stamps), encoding="utf-8")
    power_path.write_text(
        POWER_HEADER + "\n" + "".join(f"{t},100\n" for t in stamps), encoding="utf-8")
    assert main(aligned_argv(command, tmp_path, metrics_path, power_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "wattmodel: data error: half the median metric interval 4.94066e-324 s rounds to 0\n")


# ------------------------------------------------------------ process level


def test_module_entrypoint_subprocess():
    ok = subprocess.run([sys.executable, "-m", "wattmodel", "--help"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert "fit" in ok.stdout and "simulate" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "wattmodel", "--nope"],
                         capture_output=True, text=True)
    assert bad.returncode == 1
    assert "usage" in bad.stderr


@pytest.fixture(scope="module")
def loaded_by_every_command(tmp_path_factory):
    """Run each command in one fresh interpreter, require exit 0 from all, and return
    the scipy and numpy.ma modules it imported."""
    tmp_path = tmp_path_factory.mktemp("every_command")
    m, p, model, watts = (str(tmp_path / name)
                          for name in ("m.csv", "p.csv", "model.json", "watts.csv"))
    commands = [
        ["simulate", "--noise-w", "2", "--out-metrics", m, "--out-power", p],
        ["fit", "--metrics", m, "--power", p, "--out", model],
        ["evaluate", "--model", model, "--metrics", m, "--power", p],
        ["predict", "--model", model, "--metrics", m, "--out", watts],
        ["energy", "--power", p],
        ["energy", "--model", model, "--metrics", m],
        ["cost", "--kwh-per-day", "1", "--rate", "0.1", "--months", "12"],
    ]
    code = ("import sys, json; from wattmodel.cli import main; "
            f"codes = [main(argv) for argv in {commands!r}]; "
            "print(json.dumps([codes, [name for name in sys.modules "
            "if name.split('.')[0] == 'scipy' or name == 'numpy.ma']]))")
    env = dict(os.environ, PYTHONPATH=str(Path(wattmodel.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout, done.stderr
    codes, modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), done.stderr
    return modules


def test_metered_energy_does_not_import_numpy_ma(loaded_by_every_command):
    # numpy.ma takes 10-20 ms to import, a large share of a short command; energy --power
    # is among the commands run, and fit and evaluate reach the median through
    # default_tolerance, where np.median would import it
    assert "numpy.ma" not in loaded_by_every_command


def test_commands_do_not_import_scipy(loaded_by_every_command):
    # numpy is the only declared runtime dependency; scipy may be installed all the same
    assert [name for name in loaded_by_every_command if name.split(".")[0] == "scipy"] == []


def test_tool_warnings_survive_warnings_as_errors(tmp_path):
    gappy = tmp_path / "gappy.csv"
    stamps = [i * 10.0 for i in range(30)] + [5000.0 + i * 10.0 for i in range(30)]
    gappy.write_text(format_power([(t, 200.0) for t in stamps]), encoding="utf-8")
    runs = [
        ("GapWarning", ["energy", "--power", str(gappy)]),
        ("FloorWarning", ["simulate", "--alpha", "0.5", "--beta-cpu", "0", "--noise-w", "5",
                          "--duration-s", "3600", "--out-metrics", str(tmp_path / "m.csv"),
                          "--out-power", str(tmp_path / "p.csv")]),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(wattmodel.__file__).parents[1]),
               PYTHONWARNINGS="error")
    for category, argv in runs:
        done = subprocess.run([sys.executable, "-m", "wattmodel", *argv],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stderr.startswith(f"wattmodel: warning: {category}: ")
        assert "Traceback" not in done.stderr


def test_blank_bodies_survive_warnings_as_errors(tmp_path):
    # np.loadtxt warns on a block with no data; a body of blank lines is an empty trace
    metrics, power = tmp_path / "m.csv", tmp_path / "p.csv"
    metrics.write_text(METRICS_HEADER + "\n" * 50_000, encoding="utf-8")  # many read blocks
    power.write_text(POWER_HEADER + "\n\n\n", encoding="utf-8")
    runs = [
        (["fit", "--metrics", str(metrics), "--power", str(power), "--out", str(tmp_path / "x")],
         "need at least 2 metric samples to derive a tolerance"),
        (["energy", "--power", str(power)], "need at least 2 samples to integrate, got 0"),
        (["predict", "--model", str(GOLDEN_MODEL), "--metrics", str(metrics),
          "--out", str(tmp_path / "o.csv")], "metrics file contains no samples"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(wattmodel.__file__).parents[1]),
               PYTHONWARNINGS="error")
    for argv, message in runs:
        done = subprocess.run([sys.executable, "-m", "wattmodel", *argv],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (2, f"wattmodel: data error: {message}\n")


def test_undecodable_file_names_its_offset_in_the_whole_file(tmp_path, capsys):
    # the byte sits past the first read block, whose decoder would count from the block
    path = tmp_path / "power.csv"
    body = b"".join(b"%d,100\n" % i for i in range(10_000))
    path.write_bytes(POWER_HEADER.encode() + b"\n" + body + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    assert main(["energy", "--power", str(path)]) == 2
    assert capsys.readouterr().err == f"wattmodel: data error: {whole.value}\n"


def test_results_go_to_stdout_only(tmp_path, capsys):
    model_path, metrics_path, power_path = fit_model_file(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path),
                 "--metrics", str(metrics_path), "--power", str(power_path)]) == 0
    out, err = capsys.readouterr()
    json.loads(out)  # stdout is pure JSON
    assert "tolerance_s" in err  # diagnostics stay on stderr


def test_styling_gate(monkeypatch):
    from wattmodel import cli

    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("WATT_NO_COLOR", raising=False)
    assert cli._styling_enabled()
    monkeypatch.setenv("WATT_NO_COLOR", "1")
    assert not cli._styling_enabled()


def test_styled_tables_bold_only_their_header_line(monkeypatch, capsys):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("WATT_NO_COLOR", raising=False)
    assert main(["cost", "--kwh-per-day", "1", "--rate", "0.1", "--months", "12"]) == 0
    styled = [line for line in capsys.readouterr().out.splitlines() if "\033" in line]
    assert styled == [
        "\033[1mYear   kWh     Rate ($/kWh)  Cost ($)\033[0m",
        "\033[1mCategory      Cost ($)  Percent\033[0m",
    ]
