"""Seeded input generator for the benchmark, with reference answers.

The generator is numpy-based and independent of ``wattmodel.simgen``, so a
change to simgen cannot change what the other commands read. Every reference
answer is computed from the values as they will be read back from the
written text, so short fixed-point fields are compared against what the
program actually sees.

Traffic dimensions of a trace (see ``TraceSpec``): row count, sampling
interval, bytes per field (full ``repr`` or short fixed-point), meter clock
offset and jitter, a stretch of exact half-interval offsets (alignment ties)
and meter gaps. Defects (a bad ``cpu`` value, a duplicate power timestamp, a
constant ``disk`` column) are injected into copies of the clean files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METRICS_HEADER = "timestamp,cpu,mem,disk,net"
POWER_HEADER = "timestamp,power_w"
PREDICT_HEADER = "timestamp,predicted_power_w"

WATT_SECONDS_PER_KWH = 3_600_000.0
SECONDS_PER_DAY = 86_400.0
DAYS_PER_YEAR = 365.0

# Defects sit this many lines before the end of a file, so a parser must
# read almost all of it before it can reject.
DEFECT_LINES_FROM_END = 10
BAD_CPU = "1.5"
CONSTANT_DISK = "250.0"


@dataclass(frozen=True)
class TraceSpec:
    """Shape of one generated metrics/power trace pair."""

    rows: int
    interval_s: float
    t0: float
    fields: str  # "repr" (full round-trip floats) or "fixed" (short fixed-point)
    meter_offset: float = 0.0  # meter clock offset, as a share of the interval
    meter_jitter: float = 0.0  # Gaussian sigma of the offset, as a share of the interval
    tie_rows: int = 0  # rows whose meter offset is exactly half the interval
    gaps: int = 0  # meter outages
    gap_rows: tuple[int, int] = (0, 0)  # meter samples missing per outage, min and max


@dataclass(frozen=True)
class Workload:
    name: str
    trace: TraceSpec
    simulate_duration_s: float
    simulate_interval_s: float


# Both workloads hold 28,800 metric rows. A run has 60 s, and its upper
# quartiles need about ten samples of each command, so the ROADMAP's
# 86,400- and 864,000-row reference sizes do not fit. The two differ in
# what the data path sees: bytes per row, a meter on its own clock (ties,
# gaps, dropped rows) against a shared grid, and the share of start-up in
# each command.
WORKLOADS = {
    "fit-10d": Workload(
        name="fit-10d",
        trace=TraceSpec(
            rows=28_800,
            interval_s=30.0,
            t0=1_700_000_000.0,
            fields="repr",
            meter_offset=0.3,
            meter_jitter=0.05,
            tie_rows=200,
            gaps=3,
            gap_rows=(12, 32),
        ),
        simulate_duration_s=864_000.0,
        simulate_interval_s=30.0,
    ),
    "day-cli": Workload(
        name="day-cli",
        trace=TraceSpec(rows=28_800, interval_s=3.0, t0=0.0, fields="fixed"),
        simulate_duration_s=86_400.0,
        simulate_interval_s=3.0,
    ),
}


@dataclass(frozen=True)
class Reference:
    """The answers every command's output is checked against."""

    metric_ts: np.ndarray
    regressors: np.ndarray  # (n, 4): cpu, mem, disk, net as read back from text
    power_ts: np.ndarray
    power_w: np.ndarray
    tolerance_s: float
    kept: np.ndarray  # bool per metric row
    power_index: np.ndarray  # matched power row per metric row (-1 when dropped)
    coefficients: np.ndarray  # lstsq on the aligned rows: alpha, cpu, mem, disk, net
    kwh: float
    kwh_per_day: float
    power_gap_warning: bool
    bad_cpu_line: int
    dup_power_line: int

    @property
    def n_kept(self) -> int:
        return int(self.kept.sum())

    @property
    def n_dropped(self) -> int:
        return len(self.kept) - self.n_kept


@dataclass(frozen=True)
class Inputs:
    """Generated file texts plus their reference answers."""

    metrics: str
    power: str
    bad_cpu_metrics: str
    dup_power: str
    constant_disk_metrics: str
    reference: Reference
    cost: "CostCase"

    def write(self, directory: Path) -> dict[str, Path]:
        paths = {}
        for name in ("metrics", "power", "bad_cpu_metrics", "dup_power", "constant_disk_metrics"):
            path = directory / f"{name}.csv"
            path.write_text(getattr(self, name), encoding="utf-8")
            paths[name] = path
        return paths


@dataclass(frozen=True)
class CostCase:
    kwh_per_day: float
    rate: float
    escalation: float
    months: int
    categories: tuple[tuple[str, float], ...]

    def argv(self) -> list[str]:
        args = [
            "--kwh-per-day", repr(self.kwh_per_day),
            "--rate", repr(self.rate),
            "--escalation", repr(self.escalation),
            "--months", str(self.months),
            "--json",
        ]
        for label, cost in self.categories:
            args += ["--category", f"{label}={cost!r}"]
        return args

    def total_cost(self) -> float:
        """Closed form of the annual-step escalation schedule."""
        days = self.months * DAYS_PER_YEAR / 12
        years = math.floor(days / DAYS_PER_YEAR)
        rest = days - years * DAYS_PER_YEAR
        growth = 1.0 + self.escalation
        full = years if self.escalation == 0 else (growth**years - 1.0) / self.escalation
        return self.kwh_per_day * self.rate * (DAYS_PER_YEAR * full + rest * growth**years)


def _texts(values: np.ndarray, fmt: str) -> tuple[list[str], np.ndarray]:
    """Format a column and return (field strings, the values they read back as)."""
    items = values.tolist()
    if fmt == "repr":
        return list(map(repr, items)), values
    strings = [format(v, fmt) for v in items]
    return strings, np.fromiter(map(float, strings), dtype=float, count=len(strings))


def _field_formats(spec: TraceSpec) -> dict[str, str]:
    if spec.fields == "repr":
        return dict.fromkeys(("ts", "cpu", "mem", "disk", "net", "power"), "repr")
    # a collector's short fields: cpu and watts to 2 places, byte counters whole
    return {"ts": ".1f", "cpu": ".2f", "mem": ".0f", "disk": ".1f", "net": ".0f", "power": ".2f"}


def _regressors(rng: np.random.Generator, n: int) -> np.ndarray:
    """cpu in [0, 1] plus three non-negative counters, smooth load plus noise."""
    t = np.arange(n) / n
    phase = rng.uniform(0.0, 2.0 * math.pi, 4)
    waves = 0.5 + 0.35 * np.sin(2.0 * math.pi * t[:, None] * (3.0, 7.0, 11.0, 17.0) + phase)
    noisy = np.clip(waves + rng.normal(0.0, 0.12, (n, 4)), 0.0, 1.0)
    return noisy * np.array([1.0, 8.0e9, 500.0, 1.25e8])


def _meter_offsets(rng: np.random.Generator, spec: TraceSpec) -> np.ndarray:
    n = spec.rows
    offsets = np.full(n, spec.meter_offset * spec.interval_s)
    if spec.meter_jitter:
        sigma = spec.meter_jitter * spec.interval_s
        offsets += np.clip(rng.normal(0.0, sigma, n), -3.0 * sigma, 3.0 * sigma)
    if spec.tie_rows:
        start = int(rng.integers(n // 4, n // 2))
        offsets[start : start + spec.tie_rows] = 0.5 * spec.interval_s
    return offsets


def _meter_keep(rng: np.random.Generator, spec: TraceSpec) -> np.ndarray:
    keep = np.ones(spec.rows, dtype=bool)
    # outages stay clear of both ends, where the defects are injected
    for k in range(spec.gaps):
        width = int(rng.integers(spec.gap_rows[0], spec.gap_rows[1] + 1))
        lo = spec.rows * (k + 1) // (spec.gaps + 2)
        start = int(rng.integers(lo, lo + spec.rows // (4 * (spec.gaps + 2))))
        keep[start : start + width] = False
    return keep


def reference_alignment(
    metric_ts: np.ndarray, power_ts: np.ndarray, tolerance_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest power sample per metric sample; ties go to the earlier sample.

    Returns (kept mask, matched power index with -1 where dropped).
    """
    j = np.searchsorted(power_ts, metric_ts, side="left")
    prev = j - 1
    nxt = np.minimum(j, len(power_ts) - 1)
    d_prev = np.where(prev >= 0, np.abs(power_ts[np.maximum(prev, 0)] - metric_ts), np.inf)
    d_next = np.where(j < len(power_ts), np.abs(power_ts[nxt] - metric_ts), np.inf)
    take_prev = d_prev <= d_next
    best = np.where(take_prev, prev, nxt)
    kept = np.minimum(d_prev, d_next) <= tolerance_s
    return kept, np.where(kept, best, -1)


def reference_fit(x4: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS coefficients (intercept first) by np.linalg.lstsq on equilibrated columns."""
    x = np.column_stack([np.ones(len(y)), x4])
    norms = np.sqrt((x * x).sum(axis=0))
    scaled, *_ = np.linalg.lstsq(x / norms, y, rcond=None)
    return scaled / norms


def trapezoid_kwh(ts: np.ndarray, watts: np.ndarray) -> tuple[float, float]:
    """(kWh, kWh per day) by the trapezoid rule."""
    dt = np.diff(ts)
    watt_seconds = float(((watts[:-1] + watts[1:]) * 0.5 * dt).sum())
    kwh = watt_seconds / WATT_SECONDS_PER_KWH
    return kwh, kwh * SECONDS_PER_DAY / float(ts[-1] - ts[0])


def gap_warning_expected(ts: np.ndarray) -> bool:
    dt = np.diff(ts)
    return bool((dt > 10.0 * np.median(dt)).any())


def _join(header: str, columns: list[list[str]]) -> str:
    return header + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))


def _replace_field(text_lines: list[str], line_no: int, field: int, value: str) -> str:
    lines = list(text_lines)
    cells = lines[line_no - 1].split(",")
    cells[field] = value
    lines[line_no - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int) -> Inputs:
    """Build a workload's input files and reference answers from a seed."""
    spec = workload.trace
    rng = np.random.default_rng([seed, spec.rows, int(spec.interval_s * 1000)])
    fmt = _field_formats(spec)
    n = spec.rows

    metric_ts_raw = spec.t0 + spec.interval_s * np.arange(n)
    x_raw = _regressors(rng, n)
    truth = np.array([100.0, 120.0, 6.0e-9, 0.04, 3.0e-7]) * rng.uniform(0.8, 1.2, 5)
    noise = rng.normal(0.0, 2.0, n)
    offsets = _meter_offsets(rng, spec)
    meter_keep = _meter_keep(rng, spec)

    ts_s, metric_ts = _texts(metric_ts_raw, fmt["ts"])
    columns = [ts_s]
    x = np.empty_like(x_raw)
    for k, name in enumerate(("cpu", "mem", "disk", "net")):
        strings, x[:, k] = _texts(x_raw[:, k], fmt[name])
        columns.append(strings)
    metrics_text = _join(METRICS_HEADER, columns)

    # the meter reads the load of the metric row it follows
    watts_raw = truth[0] + x @ truth[1:] + noise
    pts_s, power_ts = _texts((metric_ts_raw + offsets)[meter_keep], fmt["ts"])
    pw_s, power_w = _texts(watts_raw[meter_keep], fmt["power"])
    power_text = _join(POWER_HEADER, [pts_s, pw_s])

    tolerance = float(np.median(np.diff(metric_ts))) / 2.0
    kept, power_index = reference_alignment(metric_ts, power_ts, tolerance)
    coefficients = reference_fit(x[kept], power_w[power_index[kept]])
    kwh, kwh_per_day = trapezoid_kwh(power_ts, power_w)

    metric_lines = metrics_text.splitlines()
    power_lines = power_text.splitlines()
    bad_cpu_line = len(metric_lines) - DEFECT_LINES_FROM_END
    dup_power_line = len(power_lines) - DEFECT_LINES_FROM_END
    previous_ts = power_lines[dup_power_line - 2].split(",")[0]
    constant_disk = columns[:3] + [[CONSTANT_DISK] * n] + columns[4:]

    cost = CostCase(
        kwh_per_day=kwh_per_day,
        rate=float(rng.uniform(0.08, 0.3)),
        escalation=float(rng.uniform(0.0, 0.2)),
        months=int(rng.integers(13, 61)),
        categories=tuple(
            (label, float(rng.uniform(500.0, 60_000.0)))
            for label in ("Data transfer", "VM hours", "Storage")
        ),
    )
    reference = Reference(
        metric_ts=metric_ts,
        regressors=x,
        power_ts=power_ts,
        power_w=power_w,
        tolerance_s=tolerance,
        kept=kept,
        power_index=power_index,
        coefficients=coefficients,
        kwh=kwh,
        kwh_per_day=kwh_per_day,
        power_gap_warning=gap_warning_expected(power_ts),
        bad_cpu_line=bad_cpu_line,
        dup_power_line=dup_power_line,
    )
    return Inputs(
        metrics=metrics_text,
        power=power_text,
        bad_cpu_metrics=_replace_field(metric_lines, bad_cpu_line, 1, BAD_CPU),
        dup_power=_replace_field(power_lines, dup_power_line, 0, previous_ts),
        constant_disk_metrics=_join(METRICS_HEADER, constant_disk),
        reference=reference,
        cost=cost,
    )
