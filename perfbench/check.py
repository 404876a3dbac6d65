"""Output checks for every benchmarked command.

Each check returns ``None`` when the output is right and a one-line reason
when it is not; a reason counts the invocation as failed. Expected values
come from ``gen.Reference``; where a command reads a model file, the
expected numbers are computed from that file's coefficients, whose
agreement with the reference fit is checked on the ``fit`` output.
"""

from __future__ import annotations

import hashlib
import io
import json
import re

import numpy as np

from gen import METRICS_HEADER, POWER_HEADER, PREDICT_HEADER, Reference, trapezoid_kwh

COEFF_FIELDS = ("alpha", "beta_cpu", "beta_mem", "beta_disk", "beta_net")
FIT_RTOL = 1e-8
VALUE_RTOL = 1e-9


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def coefficients(model_text: str) -> np.ndarray:
    doc = json.loads(model_text)
    return np.array([doc[f] for f in COEFF_FIELDS], dtype=float)


def predictions(beta: np.ndarray, ref: Reference) -> np.ndarray:
    """Per-metric-row predictions, summed in the program's left-to-right order."""
    x = ref.regressors
    return beta[0] + beta[1] * x[:, 0] + beta[2] * x[:, 1] + beta[3] * x[:, 2] + beta[4] * x[:, 3]


def check_exit(code: int, expected: int) -> str | None:
    if code != expected:
        return f"exit code {code}, expected {expected}"
    return None


def check_fit(model_text: str, stderr: str, ref: Reference) -> str | None:
    try:
        doc = json.loads(model_text)
        beta = coefficients(model_text)
        diag = doc["diagnostics"]
    except (ValueError, KeyError) as exc:
        return f"unreadable model file: {exc}"
    err = _rel_err(beta, ref.coefficients)
    if not err <= FIT_RTOL:
        return f"coefficients off by {err:.3g} relative"
    if diag["n_samples"] != ref.n_kept or diag["df"] != ref.n_kept - 5:
        return f"n_samples/df {diag['n_samples']}/{diag['df']}, expected {ref.n_kept}/{ref.n_kept - 5}"
    dropped = re.search(r"dropped (\d+) of (\d+) metric samples", stderr)
    got = (int(dropped.group(1)), int(dropped.group(2))) if dropped else (0, len(ref.kept))
    if got != (ref.n_dropped, len(ref.kept)):
        return f"dropped {got[0]} of {got[1]}, expected {ref.n_dropped} of {len(ref.kept)}"
    return None


def check_evaluate(stdout: str, model_text: str, ref: Reference) -> str | None:
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"evaluate output is not JSON: {exc}"
    actual = ref.power_w[ref.power_index[ref.kept]]
    predicted = predictions(coefficients(model_text), ref)[ref.kept]
    mape = 100.0 * float(np.mean(np.abs(predicted - actual) / actual))
    if report.get("n") != ref.n_kept:
        return f"evaluate n {report.get('n')}, expected {ref.n_kept}"
    if not _rel_err(report.get("mape", np.nan), mape) <= VALUE_RTOL:
        return f"evaluate mape {report.get('mape')}, expected {mape}"
    return None


def check_predict(csv_text: str, model_text: str, ref: Reference) -> str | None:
    header, _, body = csv_text.partition("\n")
    if header != PREDICT_HEADER:
        return f"predict header {header!r}"
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body else np.empty((0, 2))
    if rows.shape != (len(ref.metric_ts), 2):
        return f"predict wrote {rows.shape[0]} rows, expected {len(ref.metric_ts)}"
    if not np.array_equal(rows[:, 0], ref.metric_ts):
        return "predict timestamps differ from the metrics file"
    err = _rel_err(rows[:, 1], predictions(coefficients(model_text), ref))
    if not err <= VALUE_RTOL:
        return f"predictions off by {err:.3g} relative"
    return None


def _energy_kwh(stdout: str) -> float:
    return float(json.loads(stdout)["kwh"])


def check_energy_power(stdout: str, stderr: str, ref: Reference) -> str | None:
    try:
        kwh = _energy_kwh(stdout)
    except (ValueError, KeyError) as exc:
        return f"energy output unreadable: {exc}"
    if not _rel_err(kwh, ref.kwh) <= VALUE_RTOL:
        return f"metered kwh {kwh}, expected {ref.kwh}"
    if ("GapWarning" in stderr) != ref.power_gap_warning:
        return f"GapWarning shown: {'GapWarning' in stderr}, expected {ref.power_gap_warning}"
    return None


def check_energy_model(stdout: str, model_text: str, ref: Reference) -> str | None:
    try:
        kwh = _energy_kwh(stdout)
    except (ValueError, KeyError) as exc:
        return f"energy output unreadable: {exc}"
    want, _ = trapezoid_kwh(ref.metric_ts, predictions(coefficients(model_text), ref))
    if not _rel_err(kwh, want) <= VALUE_RTOL:
        return f"predicted kwh {kwh}, expected {want}"
    return None


def simulate_digest(metrics_bytes: bytes, power_bytes: bytes, rows: int) -> tuple[str | None, str]:
    """(problem, sha256 of both files); the digest pins byte-identical reruns."""
    digest = hashlib.sha256(metrics_bytes + b"\0" + power_bytes).hexdigest()
    for data, header in ((metrics_bytes, METRICS_HEADER), (power_bytes, POWER_HEADER)):
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != header:
            return f"simulate header {lines[0] if lines else ''!r}", digest
        if len(lines) - 1 != rows:
            return f"simulate wrote {len(lines) - 1} rows, expected {rows}", digest
    return None, digest


def check_cost(stdout: str, expected_total: float) -> str | None:
    try:
        total = float(json.loads(stdout)["projection"]["total_cost"])
    except (ValueError, KeyError) as exc:
        return f"cost output unreadable: {exc}"
    if not _rel_err(total, expected_total) <= VALUE_RTOL:
        return f"total_cost {total}, expected {expected_total}"
    return None


def check_reject(code: int, stderr: str, expected_code: int, expected_text: str) -> str | None:
    problem = check_exit(code, expected_code)
    if problem:
        return problem
    if expected_text not in stderr:
        return f"stderr lacks {expected_text!r}: {stderr.strip()[-200:]!r}"
    if "Traceback" in stderr:
        return "rejection printed a traceback"
    return None
