"""Integrate power series into energy (kWh) by the trapezoidal rule.

Trapezoid over left-Riemann because it is exact on linear ramps and
strictly better on smooth loads at the same cost. Gaps are integrated
as-is; a GapWarning is emitted when any step exceeds 10x the median step.
Both series arrive as traces, so each is checked and in time order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .powermodel import PowerModel, predict
from .trace import MetricTrace, PowerTrace, _median

WATT_SECONDS_PER_KWH = 3_600_000.0
SECONDS_PER_DAY = 86_400.0


class EnergyError(ValueError):
    """Series too short to integrate, or its integral is not finite."""


class GapWarning(UserWarning):
    """A sampling gap much larger than the series' typical interval."""


@dataclass(frozen=True)
class EnergyReport:
    kwh: float
    duration_s: float
    mean_power_w: float
    kwh_per_day: float


def _integrate_series(timestamps: np.ndarray, watts: np.ndarray) -> EnergyReport:
    if len(timestamps) < 2:
        raise EnergyError(f"need at least 2 samples to integrate, got {len(timestamps)}")
    dt = np.diff(timestamps)
    median_dt = _median(dt)
    if (dt > 10.0 * median_dt).any():
        n_gaps = int((dt > 10.0 * median_dt).sum())
        warnings.warn(
            f"{n_gaps} sampling gap(s) exceed 10x the median interval "
            f"({median_dt:.6g} s); integrating across them as-is",
            GapWarning,
            stacklevel=3,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        watt_seconds = float(((watts[:-1] + watts[1:]) * 0.5 * dt).sum())
    if not np.isfinite(watt_seconds):
        raise EnergyError(f"the energy integral overflows ({watt_seconds} W*s)")
    duration = float(timestamps[-1] - timestamps[0])
    kwh = watt_seconds / WATT_SECONDS_PER_KWH
    return EnergyReport(
        kwh=kwh,
        duration_s=duration,
        mean_power_w=watt_seconds / duration,
        kwh_per_day=kwh * SECONDS_PER_DAY / duration,
    )


def integrate(power) -> EnergyReport:
    """Energy of a metered power series: a PowerTrace, or records checked as one."""
    power = PowerTrace.of(power)
    return _integrate_series(power.timestamp, power.power_w)


def integrate_predicted(model: PowerModel, metrics) -> EnergyReport:
    """Energy of the model's predictions over a MetricTrace (or its records).

    Predictions are unclamped, so unlike metered samples the integrand may
    dip to zero or below; any finite values integrate.
    """
    metrics = MetricTrace.of(metrics)
    return _integrate_series(metrics.timestamp, predict(model, metrics))
