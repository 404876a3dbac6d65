"""Trapezoidal energy integration tests."""

import dataclasses
import random
import warnings

import pytest

from conftest import exact_model
from wattmodel import (
    EnergyError,
    GapWarning,
    MetricSample,
    PowerSample,
    TraceError,
    integrate,
    integrate_predicted,
)


def constant_power(watts, duration_s=86400.0, step_s=60.0):
    n = int(duration_s / step_s) + 1
    return [PowerSample(i * step_s, watts) for i in range(n)]


# ---------------------------------------------------------------- metered


def test_daily_energy_of_constant_draw():
    report = integrate(constant_power(655.4167))
    assert report.kwh_per_day == pytest.approx(15.73, abs=0.01)
    assert report.mean_power_w == pytest.approx(655.4167, rel=1e-12)
    assert report.duration_s == 86400.0


def test_one_hour_kilowatt_is_exactly_one_kwh():
    report = integrate([PowerSample(0.0, 1000.0), PowerSample(3600.0, 1000.0)])
    assert report.kwh == 1.0
    assert report.kwh_per_day == 24.0


def test_constant_power_exactness():
    # trapezoid is exact on constants: P*T/3.6e6 with no quadrature error
    for watts, duration in ((250.0, 7200.0), (1.0, 100.0), (1536.0, 86400.0)):
        samples = [PowerSample(t, watts) for t in (0.0, duration / 4, duration)]
        assert integrate(samples).kwh == watts * duration / 3.6e6


def test_report_internal_consistency():
    rng = random.Random(3)
    ts, samples = 0.0, []
    for _ in range(200):
        ts += rng.uniform(1.0, 5.0)
        samples.append(PowerSample(ts, rng.uniform(50.0, 400.0)))
    report = integrate(samples)
    assert report.kwh == pytest.approx(
        report.mean_power_w * report.duration_s / 3.6e6, rel=1e-9
    )
    assert report.kwh_per_day == pytest.approx(
        report.kwh * 86400.0 / report.duration_s, rel=1e-12
    )


def test_additivity_at_any_split_point():
    rng = random.Random(7)
    samples = [PowerSample(float(i) + rng.random() * 0.4, 100.0 + 50.0 * rng.random())
               for i in range(60)]
    whole = integrate(samples).kwh
    for split in (1, 17, 30, 58):
        left = integrate(samples[: split + 1]).kwh
        right = integrate(samples[split:]).kwh
        assert left + right == pytest.approx(whole, rel=1e-9)


def test_refinement_with_interpolated_midpoints_is_stable():
    rng = random.Random(9)
    samples = [PowerSample(60.0 * i, 200.0 + 100.0 * rng.random()) for i in range(30)]
    refined = []
    for a, b in zip(samples, samples[1:]):
        refined.append(a)
        refined.append(PowerSample((a.timestamp + b.timestamp) / 2.0,
                                   (a.power_w + b.power_w) / 2.0))
    refined.append(samples[-1])
    assert integrate(refined).kwh == pytest.approx(integrate(samples).kwh, rel=1e-9)


def test_integrate_errors():
    with pytest.raises(EnergyError, match="at least 2"):
        integrate([PowerSample(0.0, 100.0)])
    with pytest.raises(EnergyError, match="at least 2"):
        integrate([])
    backwards = [PowerSample(10.0, 100.0), PowerSample(5.0, 100.0)]
    with pytest.raises(TraceError, match="decreases"):
        integrate(backwards)
    # records are checked as PowerTrace checks them
    with pytest.raises(TraceError, match="non-finite value nan for power_w"):
        integrate([PowerSample(0.0, float("nan")), PowerSample(60.0, 100.0)])
    with pytest.raises(TraceError, match="power_w must be > 0, got 0.0"):
        integrate([PowerSample(0.0, 100.0), PowerSample(60.0, 0.0)])
    with pytest.raises(EnergyError, match="overflows"):
        integrate([PowerSample(0.0, 1.7e308), PowerSample(60.0, 1.7e308)])
    # a span past the float range is a fault of the timestamps, metered or predicted
    span = r"timestamp span -1\.7e\+308 to 1\.7e\+308 overflows"
    with pytest.raises(TraceError, match=span):
        integrate([PowerSample(-1.7e308, 100.0), PowerSample(1.7e308, 100.0)])
    with pytest.raises(TraceError, match=span):
        integrate_predicted(exact_model(100.0), [MetricSample(-1.7e308, 0.5, 0.0, 0.0, 0.0),
                                                 MetricSample(1.7e308, 0.5, 0.0, 0.0, 0.0)])


def test_gap_warning_on_sparse_stretch():
    samples = [PowerSample(float(i), 100.0) for i in range(10)]
    samples.append(PowerSample(500.0, 100.0))  # 491 s gap vs 1 s median
    with pytest.warns(GapWarning, match="gap"):
        report = integrate(samples)
    assert report.kwh == pytest.approx(100.0 * 500.0 / 3.6e6, rel=1e-12)


def test_no_gap_warning_on_regular_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate(constant_power(100.0, duration_s=600.0, step_s=10.0))


# -------------------------------------------------------------- predicted


def idle_metrics(duration_s=86400.0, step_s=60.0):
    n = int(duration_s / step_s) + 1
    return [MetricSample(i * step_s, 0.0, 0.0, 0.0, 0.0) for i in range(n)]


def test_predicted_energy_of_idle_day():
    model = exact_model(107.5, beta_cpu=124.9, beta_mem=5.471e-06,
                        beta_disk=3.661e-02, beta_net=3.382e-08)
    report = integrate_predicted(model, idle_metrics())
    assert report.mean_power_w == pytest.approx(107.5, rel=1e-12)
    assert report.kwh_per_day == pytest.approx(2.58, abs=0.01)


def test_predicted_linear_ramp():
    # predictions may hit 0 W: a metered stream never can, a predicted one may
    model = exact_model(0.0, beta_cpu=1000.0)
    metrics = [MetricSample(0.0, 0.0, 0, 0, 0), MetricSample(3600.0, 1.0, 0, 0, 0)]
    assert integrate_predicted(model, metrics).kwh == pytest.approx(0.5, rel=1e-12)


def test_predicted_negative_values_integrate():
    model = exact_model(-50.0)
    metrics = idle_metrics(duration_s=3600.0)
    assert integrate_predicted(model, metrics).kwh == pytest.approx(
        -50.0 * 3600.0 / 3.6e6, rel=1e-12
    )


def test_predicted_errors_mirror_integrate():
    model = exact_model(100.0)
    with pytest.raises(EnergyError):
        integrate_predicted(model, [])
    with pytest.raises(EnergyError):
        integrate_predicted(model, idle_metrics(duration_s=0.0, step_s=60.0))


def test_as_dict_shape():
    report = integrate(constant_power(100.0, duration_s=120.0, step_s=60.0))
    d = dataclasses.asdict(report)
    assert set(d) == {"kwh", "duration_s", "mean_power_w", "kwh_per_day"}
    assert d["kwh"] == report.kwh
