"""Self-tests of the benchmark's generator, reference answers and checker.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from wattmodel import cli  # noqa: E402
from wattmodel.trace import MetricSample, PowerSample, align  # noqa: E402


def small(name: str, rows: int = 3000) -> gen.Workload:
    workload = gen.WORKLOADS[name]
    return dataclasses.replace(workload, trace=dataclasses.replace(workload.trace, rows=rows))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A small fit-shaped workload written out and run through the real CLI."""
    directory = tmp_path_factory.mktemp("fit")
    inputs = gen.generate(small("fit-10d"), seed=3)
    inputs.write(directory)
    model = directory / "model.json"
    code = cli.main(["fit", "--metrics", str(directory / "metrics.csv"),
                     "--power", str(directory / "power.csv"), "--out", str(model)])
    assert code == 0
    return inputs, model.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    a, b = gen.generate(small(name), 7), gen.generate(small(name), 7)
    other = gen.generate(small(name), 8)
    for field in ("metrics", "power", "bad_cpu_metrics", "dup_power", "constant_disk_metrics"):
        assert getattr(a, field) == getattr(b, field)
    assert a.metrics != other.metrics
    assert np.array_equal(a.reference.coefficients, b.reference.coefficients)


def _wattmodel_alignment(metric_ts, power_ts, tolerance):
    metrics = [MetricSample(t, 0.5, 1.0, 1.0, 1.0) for t in metric_ts]
    power = [PowerSample(t, 100.0 + i) for i, t in enumerate(power_ts)]
    trace = align(metrics, power, tolerance)
    kept = np.isin(metric_ts, [row.timestamp for row in trace.rows])
    matched = np.array([round(row.power_w - 100.0) for row in trace.rows])
    return kept, matched


@pytest.mark.parametrize(
    "metric_ts, power_ts",
    [
        # exact half-interval offsets: every metric sample sits on a tie
        ([0.0, 10.0, 20.0, 30.0], [-5.0, 5.0, 15.0, 25.0, 35.0]),
        # exact hits next to ties
        ([0.0, 10.0, 20.0], [0.0, 5.0, 15.0, 20.0]),
        # a meter gap drops the metric samples it covers
        ([0.0, 10.0, 20.0, 30.0, 40.0, 50.0], [0.3, 10.2, 49.7]),
        # meter starts late and stops early
        ([0.0, 10.0, 20.0, 30.0], [13.0, 17.0]),
        # tie exactly at the tolerance stays in
        ([10.0], [5.0, 15.0]),
    ],
)
def test_reference_alignment_agrees_with_wattmodel(metric_ts, power_ts):
    metric_ts, power_ts = np.array(metric_ts), np.array(power_ts)
    tolerance = 5.0
    kept, index = gen.reference_alignment(metric_ts, power_ts, tolerance)
    want_kept, want_index = _wattmodel_alignment(metric_ts, power_ts, tolerance)
    assert np.array_equal(kept, want_kept)
    assert np.array_equal(index[kept], want_index)


def test_reference_alignment_agrees_on_generated_ties_and_gaps():
    inputs = gen.generate(small("fit-10d", rows=4000), 5)
    ref = inputs.reference
    assert ref.n_dropped > 0
    metrics = [MetricSample(t, *x) for t, x in zip(ref.metric_ts.tolist(), ref.regressors.tolist())]
    power = [PowerSample(t, w) for t, w in zip(ref.power_ts.tolist(), ref.power_w.tolist())]
    trace = align(metrics, power, ref.tolerance_s)
    assert trace.source_meta.n_dropped == ref.n_dropped
    got = np.array([row.power_w for row in trace.rows])
    assert np.array_equal(got, ref.power_w[ref.power_index[ref.kept]])


def test_checker_accepts_real_fit_and_flags_perturbed_alpha(fitted):
    inputs, model = fitted
    ref = inputs.reference
    stderr = f"dropped {ref.n_dropped} of {len(ref.kept)} metric samples (no power sample within 5 s)"
    assert check.check_fit(model, stderr, ref) is None
    doc = json.loads(model)
    doc["alpha"] *= 1 + 1e-6
    assert "coefficients" in check.check_fit(json.dumps(doc), stderr, ref)


def test_checker_flags_predictions_missing_a_row(fitted):
    inputs, model = fitted
    ref = inputs.reference
    beta = check.coefficients(model)
    rows = [f"{t!r},{p!r}" for t, p in zip(ref.metric_ts.tolist(), check.predictions(beta, ref).tolist())]
    full = gen.PREDICT_HEADER + "\n" + "\n".join(rows) + "\n"
    assert check.check_predict(full, model, ref) is None
    missing = gen.PREDICT_HEADER + "\n" + "\n".join(rows[:-1]) + "\n"
    assert "rows" in check.check_predict(missing, model, ref)


def test_checker_flags_wrong_exit_code():
    stderr = "wattmodel: data error: line 90: cpu 1.5 outside [0, 1]\n"
    assert check.check_reject(2, stderr, 2, "line 90:") is None
    assert "exit code 1" in check.check_reject(1, stderr, 2, "line 90:")
    assert "lacks" in check.check_reject(2, stderr, 2, "line 91:")
    assert check.check_exit(0, 0) is None
    assert check.check_exit(3, 0) == "exit code 3, expected 0"
