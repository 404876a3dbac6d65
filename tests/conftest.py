"""Shared test fixtures and small builders."""

import json

import pytest

from wattmodel import (
    FitDiagnostics,
    GroundTruth,
    MetricTrace,
    PowerModel,
    PowerTrace,
    align,
)

# Coefficients used throughout as a realistic ground truth: baseline watts
# plus per-unit weights whose magnitudes span ten orders, exercising the
# solver's scaling behavior.
REF_TRUTH = GroundTruth(
    alpha=107.5,
    beta_cpu=124.9,
    beta_mem=5.471e-06,
    beta_disk=3.661e-02,
    beta_net=3.382e-08,
)


def make_trace(cpu, mem, disk, net, power, start=0.0, step=60.0):
    """Align a metric and a power trace built on one grid from parallel value sequences."""
    stamps = [start + i * step for i in range(len(power))]
    metrics = MetricTrace(list(zip(stamps, cpu, mem, disk, net)))
    return align(metrics, PowerTrace(list(zip(stamps, power))), step / 2)


def exact_model(alpha, beta_cpu=0.0, beta_mem=0.0, beta_disk=0.0, beta_net=0.0):
    """A PowerModel with hand-set coefficients and placeholder diagnostics."""
    diag = FitDiagnostics(
        r_squared=1.0,
        residual_sigma=0.0,
        std_errors=(0.0,) * 5,
        t_stats=(0.0,) * 5,
        p_values=(0.0,) * 5,
        df=10,
        n_samples=15,
    )
    return PowerModel(
        alpha=alpha,
        beta_cpu=beta_cpu,
        beta_mem=beta_mem,
        beta_disk=beta_disk,
        beta_net=beta_net,
        diagnostics=diag,
        hardware_id="bench",
        created_at=0.0,
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def ref_truth():
    return REF_TRUTH
