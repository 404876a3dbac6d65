"""The trained power model: an affine map from resource usage to watts.

predicted_watts = alpha + beta_cpu*cpu + beta_mem*mem + beta_disk*disk
                + beta_net*net

alpha is the baseline (idle) draw of the hardware; the betas carry whatever
units the trace was collected in. One model per hardware configuration,
keyed by a free-text hardware_id. Models serialize to a flat JSON document
and round-trip losslessly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .regression import COLUMN_NAMES, DesignMatrix, FitDiagnostics, fit_ols
from .trace import AlignedTrace

_COEFF_FIELDS = ("alpha", "beta_cpu", "beta_mem", "beta_disk", "beta_net")
_DIAG_VECTOR_FIELDS = ("std_errors", "t_stats", "p_values")


class ModelFormatError(ValueError):
    """Model document is missing fields, mistyped, or violates invariants."""


@dataclass(frozen=True)
class PowerModel:
    alpha: float
    beta_cpu: float
    beta_mem: float
    beta_disk: float
    beta_net: float
    diagnostics: FitDiagnostics
    hardware_id: str
    created_at: float


@dataclass(frozen=True)
class EvaluationReport:
    """Prediction quality on a trace: MAPE and its complement, accuracy."""

    mape: float
    accuracy: float
    max_abs_error_w: float
    n: int


def train(trace: AlignedTrace, hardware_id: str = "", created_at: float | None = None) -> PowerModel:
    """Fit the model to an aligned trace; the intercept is the baseline power."""
    design = DesignMatrix.from_regressors(
        cpu=trace.cpu, mem=trace.mem, disk=trace.disk, net=trace.net, power=trace.power_w
    )
    coef, diagnostics = fit_ols(design)
    return PowerModel(
        alpha=float(coef[0]),
        beta_cpu=float(coef[1]),
        beta_mem=float(coef[2]),
        beta_disk=float(coef[3]),
        beta_net=float(coef[4]),
        diagnostics=diagnostics,
        hardware_id=hardware_id,
        created_at=time.time() if created_at is None else created_at,
    )


def predict(model: PowerModel, sample):
    """Predicted watts for anything with cpu/mem/disk/net.

    A record gives one float; a trace gives a float64 array, one value per
    row. Any model-like object with alpha and beta_* coefficients serves.
    Unclamped: an adversarial model can predict below alpha or below zero,
    and the value is returned as computed.
    """
    return (
        model.alpha
        + model.beta_cpu * sample.cpu
        + model.beta_mem * sample.mem
        + model.beta_disk * sample.disk
        + model.beta_net * sample.net
    )


def evaluate(model: PowerModel, trace: AlignedTrace) -> EvaluationReport:
    """MAPE of predictions against metered power; accuracy = 100 - MAPE."""
    if not len(trace):
        raise ValueError("cannot evaluate on an empty trace")
    errors = np.abs(predict(model, trace) - trace.power_w)
    mape = 100.0 * float(np.mean(errors / trace.power_w))
    return EvaluationReport(
        mape=mape,
        accuracy=100.0 - mape,
        max_abs_error_w=float(errors.max()),
        n=len(trace),
    )


def save_model(model: PowerModel) -> str:
    """Serialize to the flat JSON document; numbers keep full precision."""
    doc = {field: getattr(model, field) for field in _COEFF_FIELDS}
    d = model.diagnostics
    doc["diagnostics"] = {
        "r_squared": d.r_squared,
        "residual_sigma": d.residual_sigma,
        "std_errors": list(d.std_errors),
        "t_stats": list(d.t_stats),
        "p_values": list(d.p_values),
        "df": d.df,
        "n_samples": d.n_samples,
    }
    doc["hardware_id"] = model.hardware_id
    doc["created_at"] = model.created_at
    return json.dumps(doc, indent=2) + "\n"


def _require(doc: dict, field: str, context: str = "model"):
    if field not in doc:
        raise ModelFormatError(f"{context} document missing field {field!r}")
    return doc[field]


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"field {field!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ModelFormatError(f"field {field!r} must be finite, got {value!r}")
    return float(value)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"field {field!r} must be an integer, got {value!r}")
    return value


def load_model(text: str) -> PowerModel:
    """Parse and validate a model JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")

    coeffs = {f: _as_number(_require(doc, f), f) for f in _COEFF_FIELDS}

    raw_diag = _require(doc, "diagnostics")
    if not isinstance(raw_diag, dict):
        raise ModelFormatError("field 'diagnostics' must be a JSON object")
    vectors = {}
    for field in _DIAG_VECTOR_FIELDS:
        vec = _require(raw_diag, field, "diagnostics")
        if not isinstance(vec, list) or len(vec) != len(COLUMN_NAMES):
            raise ModelFormatError(
                f"field {field!r} must be a list of {len(COLUMN_NAMES)} numbers"
            )
        values = []
        for i, item in enumerate(vec):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ModelFormatError(f"{field}[{i}] must be a number, got {item!r}")
            if math.isnan(item):
                raise ModelFormatError(f"{field}[{i}] must not be NaN")
            values.append(float(item))
        vectors[field] = tuple(values)
    for i, p in enumerate(vectors["p_values"]):
        if not 0.0 <= p <= 1.0:
            raise ModelFormatError(f"p_values[{i}] = {p} outside [0, 1]")

    r_squared = _as_number(_require(raw_diag, "r_squared", "diagnostics"), "r_squared")
    if not 0.0 <= r_squared <= 1.0:
        raise ModelFormatError(f"r_squared = {r_squared} outside [0, 1]")
    residual_sigma = _as_number(
        _require(raw_diag, "residual_sigma", "diagnostics"), "residual_sigma"
    )
    df = _as_int(_require(raw_diag, "df", "diagnostics"), "df")
    if df < 1:
        raise ModelFormatError(f"df must be >= 1, got {df}")
    n_samples = _as_int(_require(raw_diag, "n_samples", "diagnostics"), "n_samples")

    hardware_id = _require(doc, "hardware_id")
    if not isinstance(hardware_id, str):
        raise ModelFormatError("field 'hardware_id' must be a string")
    created_at = _as_number(_require(doc, "created_at"), "created_at")

    diagnostics = FitDiagnostics(
        r_squared=r_squared,
        residual_sigma=residual_sigma,
        std_errors=vectors["std_errors"],
        t_stats=vectors["t_stats"],
        p_values=vectors["p_values"],
        df=df,
        n_samples=n_samples,
    )
    return PowerModel(
        diagnostics=diagnostics,
        hardware_id=hardware_id,
        created_at=created_at,
        **coeffs,
    )
