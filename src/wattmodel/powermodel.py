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

from .regression import COLUMN_NAMES, FitDiagnostics, _fit_blocks
from .trace import AlignedTrace, TraceError, _paired_blocks

__all__ = [
    "EvaluationReport",
    "ModelFormatError",
    "PowerModel",
    "evaluate",
    "load_model",
    "predict",
    "save_model",
    "train",
]

# train and evaluate read rows in blocks of about this many. In a library
# caller's process, which keeps numpy's default BLAS threads, OpenBLAS runs a
# block's QR of this size on the calling thread (0.03-0.05 ms for 1,024 rows
# by 6 columns on 2 vCPUs); from about 2,048 rows it hands the work to its
# worker thread, and on a busy host such a QR sometimes waited 8 ms for it.
# The CLI runs with one BLAS thread, where every block QR stays on the caller;
# there 4,096-row blocks train on 864k rows 18 ms faster (0.122 against 0.140 s),
# too little to move the last bits of every fit over 2,048 rows.
BLOCK_ROWS = 1024


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
    """Fit the model to the paired rows of trace; the intercept is the baseline power.

    trace is what align returns. Its rows are paired again and gathered as
    they are read, in even blocks of at least BLOCK_ROWS (one block when
    there are fewer), and each block's [1 | x | y] goes straight to the
    block fit, so one block of the design is held at a time.
    """
    coef, diagnostics = _fit_blocks(map(_design, _paired_blocks(trace, BLOCK_ROWS)), len(trace))
    created_at = time.time() if created_at is None else created_at
    return PowerModel(*coef.tolist(), diagnostics, hardware_id, created_at)


def _design(read):
    _, b = read
    xy = np.empty((6, len(b.power_w)))
    xy[0] = 1.0
    xy[1], xy[2], xy[3], xy[4], xy[5] = b.cpu, b.mem, b.disk, b.net, b.power_w
    return xy.T


def predict(model: PowerModel, sample):
    """Predicted watts for anything with cpu/mem/disk/net.

    A record gives one float; a trace gives a float64 array, one value per
    row. Any model-like object with alpha and beta_* coefficients serves.
    Unclamped: an adversarial model can predict below alpha or below zero,
    and the value is returned as computed. A prediction that is not finite
    raises ModelFormatError naming the first such row.
    """
    return _predict(model, sample)


def _predict(model: PowerModel, sample, first_row: int = 0):
    """predict, numbering the rows of sample from first_row in its error."""
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
        raise ModelFormatError(
            f"model prediction for row {first_row + int(bad.argmax())} is not finite")
    return watts


def evaluate(model: PowerModel, trace: AlignedTrace) -> EvaluationReport:
    """MAPE of predictions against metered power; accuracy = 100 - MAPE.

    trace is read in train's blocks; an error names a row by its place
    among all the paired rows.
    """
    n = len(trace)
    if not n:
        raise TraceError("cannot evaluate on an empty trace")
    relative, largest, smallest, overflowed = np.empty(n), 0.0, math.inf, None
    with np.errstate(over="ignore"):
        for rows, block in _paired_blocks(trace, BLOCK_ROWS):
            errors = np.abs(_predict(model, block, rows.start) - block.power_w)
            largest = max(largest, float(errors.max()))
            smallest = min(smallest, float(block.power_w.min()))
            if overflowed is None and math.isinf(largest):
                overflowed = rows.start + int(np.isinf(errors).argmax())
            np.divide(errors, block.power_w, out=relative[rows])
        mape = 100.0 * float(np.mean(relative))
    if not math.isfinite(mape):
        if overflowed is not None:
            raise TraceError(f"the prediction error for row {overflowed} overflows")
        if not np.isfinite(relative).all():
            raise TraceError(f"MAPE is not finite; the smallest power_w is {smallest:.6g} W")
        # the sum overflowed: average the errors divided by a power of two, then scale back
        exponent = int(np.frexp(relative.max())[1])
        mape = 100.0 * float(np.ldexp(np.mean(np.ldexp(relative, -exponent)), exponent))
        if not math.isfinite(mape):
            raise TraceError("MAPE is not finite; the sum of the percent errors overflows")
    return EvaluationReport(mape, 100.0 - mape, max_abs_error_w=largest, n=n)


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
