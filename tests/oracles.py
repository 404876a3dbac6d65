"""Independent cross-check routes used only by tests.

Nothing here touches the production solver. Coefficients are re-derived by
Gaussian elimination on the normal equations, standard errors from an
explicit (X'X)^-1, and t-distribution tail probabilities by direct numerical
integration of the density. Agreement between these routes and the library
is what the regression tests assert. A line-at-a-time CSV parser is the
reference for the columnar trace parser, and a sample-at-a-time trace
generator the reference for the columnar one.
"""

import math

import numpy as np


def gauss_solve(a_in, b_in):
    """Solve a square system by Gauss-Jordan elimination with partial pivoting."""
    a = np.array(a_in, dtype=float, copy=True)
    b = np.array(b_in, dtype=float, copy=True)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        scale = 1.0 / a[col, col]
        a[col] *= scale
        b[col] *= scale
        for row in range(n):
            if row != col:
                factor = a[row, col]
                a[row] -= factor * a[col]
                b[row] -= factor * b[col]
    return b


def normal_equations_ols(x, y):
    """Brute-force OLS: solve (X'X) beta = X'y directly.

    Squares the condition number, so tests feed it only well-conditioned
    designs; within that domain it is an authoritative reference.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return gauss_solve(x.T @ x, x.T @ y)


def normal_equations_std_errors(x, y):
    """Reference standard errors: sqrt(sigma^2 * diag((X'X)^-1))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    beta = normal_equations_ols(x, y)
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (n - p)
    xtx = x.T @ x
    eye = np.eye(p)
    diag = np.array([gauss_solve(xtx, eye[:, j])[j] for j in range(p)])
    return np.sqrt(sigma2 * diag)


def t_sf_two_sided_quadrature(t, df, panels=20000):
    """Two-sided P(|T_df| >= |t|) by Simpson integration of the t density.

    Integrates the density over [0, |t|] and subtracts from 1, so no
    infinite tail is ever truncated. Absolute error is far below 1e-12 at
    this panel count, plenty for every oracle point the tests use.
    """
    at = abs(float(t))
    if at == 0.0:
        return 1.0
    ln_c = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    s = np.linspace(0.0, at, panels + 1)
    density = np.exp(ln_c - ((df + 1) / 2.0) * np.log1p(s * s / df))
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = float(weights @ density) * (at / panels) / 3.0
    return max(0.0, 1.0 - 2.0 * integral)


# ---------------------------------------------------------------- CSV parser
#
# The line-at-a-time trace parser as it stood before parsing moved to
# float64 columns: each field converted and checked in turn, each line
# checked against the previous one, and the first failing line reported.
# The columnar parser must agree with it on values and on the first error.

METRICS_FIELDS = ("timestamp", "cpu", "mem", "disk", "net")
POWER_FIELDS = ("timestamp", "power_w")


class OracleParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _oracle_float(raw, field, line_no):
    try:
        value = float(raw)
    except ValueError:
        raise OracleParseError(line_no, f"non-numeric value {raw!r} for {field}") from None
    if not math.isfinite(value):
        raise OracleParseError(line_no, f"non-finite value {raw!r} for {field}")
    return value


def _oracle_order(timestamp, prev, line_no):
    if prev is None:
        return
    if timestamp < prev:
        raise OracleParseError(line_no, f"timestamp {timestamp} decreases from previous {prev}")
    if timestamp == prev:
        raise OracleParseError(line_no, f"duplicate timestamp {timestamp}")


def _oracle_lines(text, fields):
    header = ",".join(fields)
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty stream>"
        raise OracleParseError(1, f"expected header {header!r}, found {found!r}")
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        raw = line.split(",")
        if len(raw) != len(fields):
            raise OracleParseError(line_no, f"expected {len(fields)} fields, got {len(raw)}")
        yield line_no, [_oracle_float(r, f, line_no) for r, f in zip(raw, fields)]


def oracle_parse_metrics(text):
    """Rows of (timestamp, cpu, mem, disk, net), or OracleParseError."""
    rows, prev = [], None
    for line_no, (ts, cpu, mem, disk, net) in _oracle_lines(text, METRICS_FIELDS):
        if not 0.0 <= cpu <= 1.0:
            raise OracleParseError(line_no, f"cpu {cpu} outside [0, 1]")
        for value, name in ((mem, "mem"), (disk, "disk"), (net, "net")):
            if value < 0.0:
                raise OracleParseError(line_no, f"{name} must be >= 0, got {value}")
        _oracle_order(ts, prev, line_no)
        prev = ts
        rows.append((ts, cpu, mem, disk, net))
    return rows


def oracle_parse_power(text):
    """Rows of (timestamp, power_w), or OracleParseError."""
    rows, prev = [], None
    for line_no, (ts, power) in _oracle_lines(text, POWER_FIELDS):
        if power <= 0.0:
            raise OracleParseError(line_no, f"power_w must be > 0, got {power}")
        _oracle_order(ts, prev, line_no)
        prev = ts
        rows.append((ts, power))
    return rows


# ------------------------------------------------------------- trace generator
#
# The sample-at-a-time generator as it stood before `generate` moved to
# numpy columns: one closure per profile, called once per sample, with the
# diurnal jitter drawn from the shared stream just before that sample's
# noise draw. The columnar generator must agree with it bit for bit.

_SCALES = (1.0, 4.0e6, 400.0, 4.0e8)
_BURSTY_CYCLES = (19.0, 29.0, 43.0, 61.0)
_DIURNAL_PERIOD_S = 86_400.0


def _oracle_regressors(config, rng):
    profile = config.workload_profile
    if profile == "idle":
        return lambda t: (0.0, 0.0, 0.0, 0.0)

    if profile == "constant":
        mid = tuple(0.5 * s for s in _SCALES)
        return lambda t: mid

    if profile == "diurnal":
        phases = tuple(rng.uniform() * 2.0 * math.pi for _ in _SCALES)

        def diurnal(t):
            values = []
            for scale, phase in zip(_SCALES, phases):
                base = 0.5 + 0.4 * math.sin(2.0 * math.pi * t / _DIURNAL_PERIOD_S + phase)
                jitter = 0.05 * (2.0 * rng.uniform() - 1.0)
                values.append(min(scale, max(0.0, scale * (base + jitter))))
            return tuple(values)

        return diurnal

    periods = tuple(config.duration_s / c for c in _BURSTY_CYCLES)
    phases = tuple(rng.uniform() * p for p in periods)

    def bursty(t):
        values = []
        for scale, period, phase in zip(_SCALES, periods, phases):
            on = (t + phase) % period < 0.5 * period
            values.append(scale * (0.8 if on else 0.05))
        return tuple(values)

    return bursty


def oracle_generate(config, rng):
    """Metric rows, power column and floored-sample count for config.

    rng is a fresh PortableRandom seeded with config.seed. Power is the
    truth applied in the library's term order, plus sigma times the noise
    draw, floored at 1 W.
    """
    sample_fn = _oracle_regressors(config, rng)
    n = max(2, int(round(config.duration_s / config.interval_s)))
    sigma = config.noise_sigma_w
    truth = config.truth
    rows, watts, floored = [], [], 0
    for i in range(n):
        t = i * config.interval_s
        cpu, mem, disk, net = sample_fn(t)
        noise = rng.gaussian() if sigma > 0.0 else 0.0
        w = (truth.alpha + truth.beta_cpu * cpu + truth.beta_mem * mem
             + truth.beta_disk * disk + truth.beta_net * net) + sigma * noise
        if w < 1.0:
            w, floored = 1.0, floored + 1
        rows.append((t, cpu, mem, disk, net))
        watts.append(w)
    return np.array(rows), np.array(watts), floored
