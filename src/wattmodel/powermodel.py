"""The trained power model: an affine map from resource usage to watts.

predicted_watts = alpha + beta_cpu*cpu + beta_mem*mem + beta_disk*disk
                + beta_net*net

alpha is the baseline (idle) draw of the hardware; the betas carry whatever
units the trace was collected in. One model per hardware configuration,
keyed by a free-text hardware_id. A model serializes to a JSON document
whose keys are the fields of PowerModel and FitDiagnostics, and it
round-trips losslessly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np

from .regression import COLUMN_NAMES, DesignMatrix, FitDiagnostics, fit_ols
from .trace import AlignedTrace, TraceError


class ModelFormatError(ValueError):
    """Model document is missing fields, mistyped, or violates invariants."""


@dataclasses.dataclass(frozen=True)
class PowerModel:
    alpha: float
    beta_cpu: float
    beta_mem: float
    beta_disk: float
    beta_net: float
    diagnostics: FitDiagnostics
    hardware_id: str
    created_at: float


@dataclasses.dataclass(frozen=True)
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
    created_at = time.time() if created_at is None else created_at
    return PowerModel(*coef.tolist(), diagnostics, hardware_id, created_at)


def predict(model: PowerModel, sample):
    """Predicted watts for anything with cpu/mem/disk/net.

    A record gives one float; a trace gives a float64 array, one value per
    row. Any model-like object with alpha and beta_* coefficients serves.
    Unclamped: an adversarial model can predict below alpha or below zero,
    and the value is returned as computed. A prediction that is not finite
    raises ModelFormatError naming the first such row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        watts = (
            model.alpha
            + model.beta_cpu * sample.cpu
            + model.beta_mem * sample.mem
            + model.beta_disk * sample.disk
            + model.beta_net * sample.net
        )
    bad = ~np.isfinite(watts)
    if bad.any():
        raise ModelFormatError(f"model prediction for row {int(bad.argmax())} is not finite")
    return watts


def evaluate(model: PowerModel, trace: AlignedTrace) -> EvaluationReport:
    """MAPE of predictions against metered power; accuracy = 100 - MAPE."""
    if not len(trace):
        raise ValueError("cannot evaluate on an empty trace")
    with np.errstate(over="ignore"):
        errors = np.abs(predict(model, trace) - trace.power_w)
        mape = 100.0 * float(np.mean(errors / trace.power_w))
    if not math.isfinite(mape):
        raise TraceError(f"MAPE is not finite; the smallest power_w is {trace.power_w.min():.6g} W")
    return EvaluationReport(
        mape=mape,
        accuracy=100.0 - mape,
        max_abs_error_w=float(errors.max()),
        n=len(trace),
    )


def save_model(model: PowerModel) -> str:
    """Serialize to the JSON document, one key per dataclass field; full precision."""
    return json.dumps(dataclasses.asdict(model), indent=2) + "\n"


def _number(value, label: str, allow_inf: bool = False) -> float:
    """A JSON number (not a bool) as a float: never NaN, finite unless allow_inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ModelFormatError(f"{label} is an integer beyond the float range") from None
    if math.isnan(number):
        raise ModelFormatError(f"{label} must not be NaN")
    if math.isinf(number) and not allow_inf:
        raise ModelFormatError(f"{label} must be finite, got {number!r}")
    return number


def _instance(kind: type, noun: str):
    """A reader that accepts values of kind (never a bool) unchanged."""
    def read(value, name: str):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ModelFormatError(f"field {name!r} must be {noun}, got {value!r}")
        return value
    return read


def _vector(value, name: str) -> tuple[float, ...]:
    """One number per design column; ±inf allowed (a perfect fit's t statistics)."""
    if not isinstance(value, list) or len(value) != len(COLUMN_NAMES):
        raise ModelFormatError(f"field {name!r} must be a list of {len(COLUMN_NAMES)} numbers")
    return tuple(_number(item, f"{name}[{i}]", allow_inf=True) for i, item in enumerate(value))


def _read(cls, doc, name: str):
    """The dataclass cls from a JSON object: each field by its type, other keys ignored."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{name} document must be a JSON object")
    values = {}
    for field in dataclasses.fields(cls):
        if field.name not in doc:
            raise ModelFormatError(f"{name} document missing field {field.name!r}")
        values[field.name] = _READERS[field.type](doc[field.name], field.name)
    return cls(**values)


# Keyed by annotation text: with postponed annotations (the __future__
# import here and in regression.py) a dataclass field's type is that string.
_READERS = {
    "float": lambda value, name: _number(value, f"field {name!r}"),
    "int": _instance(int, "an integer"),
    "str": _instance(str, "a string"),
    "tuple[float, ...]": _vector,
    "FitDiagnostics": lambda value, name: _read(FitDiagnostics, value, name),
}


def load_model(text: str) -> PowerModel:
    """Parse a model JSON document: each field by its type, then the rules across fields."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from None
    model = _read(PowerModel, doc, "model")
    d, n_params = model.diagnostics, len(COLUMN_NAMES)
    rules = [
        *((0.0 <= p <= 1.0, f"p_values[{i}] = {p} outside [0, 1]")
          for i, p in enumerate(d.p_values)),
        *((se >= 0.0, f"std_errors[{i}] = {se} is negative")
          for i, se in enumerate(d.std_errors)),
        (0.0 <= d.r_squared <= 1.0, f"r_squared = {d.r_squared} outside [0, 1]"),
        (d.residual_sigma >= 0.0, f"residual_sigma = {d.residual_sigma} is negative"),
        (d.df >= 1, f"df must be >= 1, got {d.df}"),
        (d.df == d.n_samples - n_params, f"df = {d.df} must equal n_samples - {n_params}"),
    ]
    for holds, message in rules:
        if not holds:
            raise ModelFormatError(message)
    return model
