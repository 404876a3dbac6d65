"""Seeded synthetic metric/power trace pairs from a known ground truth.

Both streams share one timestamp grid; power is the ground-truth model
applied to the generated regressors plus optional Gaussian noise, floored
at 1 W so every sample stays a valid meter reading (floorings are counted
and reported via FloorWarning).

Randomness comes from a self-contained xorshift64* generator rather than
any runtime's default RNG, so one seed yields byte-identical traces across
runs and platforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .powermodel import predict
from .trace import MetricTrace, PowerTrace

__all__ = [
    "PROFILES",
    "FloorWarning",
    "GroundTruth",
    "PortableRandom",
    "SimConfig",
    "SimConfigError",
    "generate",
]

PROFILES = ("idle", "constant", "diurnal", "bursty")

# Full-scale regressor magnitudes the profiles swing over. cpu is a
# fraction; the others are sized like raw byte/throughput counters so the
# trace exercises coefficient scales spanning many orders of magnitude.
CPU_SCALE = 1.0
MEM_SCALE = 4.0e6
DISK_SCALE = 400.0
NET_SCALE = 4.0e8
_SCALES = (CPU_SCALE, MEM_SCALE, DISK_SCALE, NET_SCALE)

# The most samples one simulation makes: 365 days at 1 Hz. A larger count
# would fail late, in a numpy allocation, instead of as a usage error.
MAX_SAMPLES = 31_536_000

# The largest |z| PortableRandom.gaussian returns: its Box-Muller radius at
# the smallest uniform it draws, 2**-53.
_MAX_GAUSSIAN = math.sqrt(-2.0 * math.log(2.0**-53))

# Bursty square-wave cycle counts per regressor over the trace duration.
# Pairwise coprime so no two regressors ever lock into the same on/off
# pattern — this is what guarantees full-rank variation by construction.
_BURSTY_CYCLES = (19.0, 29.0, 43.0, 61.0)
_BURSTY_HIGH = 0.8
_BURSTY_LOW = 0.05

_DIURNAL_PERIOD_S = 86_400.0
_DIURNAL_JITTER = 0.05

_MASK64 = (1 << 64) - 1
# Multiplier 2685821657736338717 is the standard xorshift64* output
# scrambler; shift triple (12, 25, 27) is the classic full-period choice.
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
# Golden-ratio increment, used only to displace an all-zero seed (xorshift
# state must never be zero).
_ZERO_SEED_FILL = 0x9E3779B97F4A7C15


class SimConfigError(ValueError):
    """Invalid simulation configuration."""


class FloorWarning(UserWarning):
    """Noise pushed samples below 1 W; they were floored."""


class PortableRandom:
    """xorshift64* uniforms plus Box-Muller Gaussians, platform-independent."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        if self._state == 0:
            self._state = _ZERO_SEED_FILL
        self._spare_gaussian: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; pairs are cached."""
        if self._spare_gaussian is not None:
            z = self._spare_gaussian
            self._spare_gaussian = None
            return z
        u1 = 1.0 - self.uniform()  # (0, 1]: keeps log() finite
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_gaussian = radius * math.sin(theta)
        return radius * math.cos(theta)


@dataclass(frozen=True)
class GroundTruth:
    """The generating model's coefficients."""

    alpha: float
    beta_cpu: float
    beta_mem: float
    beta_disk: float
    beta_net: float

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise SimConfigError(f"truth coefficient {field.name} must be finite")


@dataclass(frozen=True)
class SimConfig:
    truth: GroundTruth
    duration_s: float
    interval_s: float
    noise_sigma_w: float = 0.0
    seed: int = 1
    workload_profile: str = "bursty"

    def __post_init__(self):
        if not math.isfinite(self.interval_s) or self.interval_s <= 0.0:
            raise SimConfigError(f"interval_s must be > 0, got {self.interval_s}")
        if not math.isfinite(self.duration_s) or self.duration_s < 2.0 * self.interval_s:
            raise SimConfigError(
                f"duration_s must be at least 2x interval_s, got "
                f"{self.duration_s} vs interval {self.interval_s}"
            )
        if not self.duration_s / self.interval_s <= MAX_SAMPLES:
            raise SimConfigError(
                f"duration_s / interval_s overflows the {MAX_SAMPLES:,} sample cap: "
                f"{self.duration_s} / {self.interval_s}"
            )
        if not math.isfinite(self.noise_sigma_w) or self.noise_sigma_w < 0.0:
            raise SimConfigError(f"noise_sigma_w must be >= 0, got {self.noise_sigma_w}")
        t = self.truth
        betas = (t.beta_cpu, t.beta_mem, t.beta_disk, t.beta_net)
        bound = abs(t.alpha) + sum(abs(b) * s for b, s in zip(betas, _SCALES))
        if not math.isfinite(bound + _MAX_GAUSSIAN * self.noise_sigma_w):
            raise SimConfigError(
                "power overflows: |alpha| + sum |beta_i| * scale_i "
                f"+ {_MAX_GAUSSIAN:.4g} * noise_sigma_w is not finite"
            )
        if self.workload_profile not in PROFILES:
            raise SimConfigError(
                f"unknown workload_profile {self.workload_profile!r}; "
                f"expected one of {PROFILES}"
            )
        if self.workload_profile == "diurnal" and not math.isfinite(2 * math.pi * self.duration_s):
            raise SimConfigError(f"diurnal angle 2 pi * duration_s overflows: {self.duration_s}")
        latest = self.duration_s + self.duration_s / min(_BURSTY_CYCLES)  # bounds bursty t + phase
        if self.workload_profile == "bursty" and math.isinf(latest):
            raise SimConfigError(f"bursty time plus phase overflows: duration_s {self.duration_s}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SimConfigError(f"seed must be an integer, got {self.seed!r}")


def _regressors(config: SimConfig, t: np.ndarray, phases: np.ndarray, jitter: np.ndarray):
    """The profile's (n, 4) cpu/mem/disk/net block at the (n, 1) times t; draws nothing."""
    profile = config.workload_profile
    scales = np.array(_SCALES)
    if profile == "idle":
        return np.zeros((len(t), len(_SCALES)))

    if profile == "constant":
        return np.broadcast_to(0.5 * scales, (len(t), len(_SCALES)))

    if profile == "diurnal":
        angle = 2.0 * math.pi * t / _DIURNAL_PERIOD_S + phases * 2.0 * math.pi
        # math.sin, not np.sin: numpy's SIMD sin is not guaranteed bit-identical
        sin = np.fromiter(map(math.sin, angle.ravel().tolist()), float, angle.size)
        base = 0.5 + 0.4 * sin.reshape(angle.shape)
        return np.clip(scales * (base + _DIURNAL_JITTER * (2.0 * jitter - 1.0)), 0.0, scales)

    periods = config.duration_s / np.array(_BURSTY_CYCLES)
    # every operand is positive, so numpy's % is Python's; a period that
    # underflows to 0 gives a NaN phase, which reads as low
    with np.errstate(invalid="ignore"):
        on = (t + phases * periods) % periods < 0.5 * periods
    return np.where(on, scales * _BURSTY_HIGH, scales * _BURSTY_LOW)


def generate(config: SimConfig) -> tuple[MetricTrace, PowerTrace]:
    """Produce paired metric and power streams on one timestamp grid.

    Draw order: the profile's four phase uniforms (diurnal, bursty), then for
    each sample its four jitter uniforms (diurnal) and its noise (sigma > 0).
    """
    profile = config.workload_profile
    n = round(config.duration_s / config.interval_s)
    sigma = config.noise_sigma_w
    rng = PortableRandom(config.seed)
    phases = np.array([rng.uniform() for _ in _SCALES if profile in ("diurnal", "bursty")])
    per_sample = [rng.uniform] * len(_SCALES) if profile == "diurnal" else []
    if sigma > 0.0:
        per_sample.append(rng.gaussian)
    draws = np.fromiter(
        (draw() for _ in range(n) for draw in per_sample), float, n * len(per_sample)
    ).reshape(n, -1)

    t = np.arange(n)[:, None] * config.interval_s
    metrics = MetricTrace._adopt(np.column_stack([t, _regressors(config, t, phases, draws[:, :4])]))
    watts = predict(config.truth, metrics)
    if sigma > 0.0:
        watts += sigma * draws[:, -1]
    floored = watts < 1.0
    watts[floored] = 1.0
    if floored.any():
        warnings.warn(
            f"{int(floored.sum())} of {n} generated power samples fell below 1 W and were floored",
            FloorWarning,
            stacklevel=2,
        )
    return metrics, PowerTrace._adopt(np.column_stack([metrics.timestamp, watts]))
