"""Ordinary least squares with full inferential diagnostics.

The solver is a QR factorization (LAPACK, through numpy) rather than the
normal equations: the regressor columns here routinely span ten orders of
magnitude (a CPU fraction next to raw byte counters), and squaring the
condition number via X'X is not acceptable on such designs. Factoring
[X | y] together yields R and Q'y at once, so Q is never materialized.

Two-sided Student-t tail probabilities come from the regularized incomplete
beta function, evaluated by continued fraction (modified Lentz). Extreme
tails underflow cleanly to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COLUMN_NAMES",
    "DesignMatrix",
    "FitDiagnostics",
    "InsufficientDataError",
    "RankDeficiencyError",
    "RegressionError",
    "fit_ols",
    "student_t_sf",
]

COLUMN_NAMES = ("intercept", "cpu", "mem", "disk", "net")

# R diagonal below RANK_RTOL times the column norm flags the column as
# linearly dependent (constant or duplicated); merely ill-scaled columns pass.
RANK_RTOL = 1e-10

# p-values this small are indistinguishable from zero in double precision
# reporting; they are returned as exactly 0.0.
P_UNDERFLOW = 1e-300

MIN_ROWS = len(COLUMN_NAMES) + 1  # 5 parameters + 1 residual degree of freedom


class RegressionError(ValueError):
    """Base class for fit failures."""


class InsufficientDataError(RegressionError):
    """Fewer rows than parameters plus one residual degree of freedom."""


class RankDeficiencyError(RegressionError):
    """A design column is (numerically) linearly dependent on the others."""

    def __init__(self, column: str):
        super().__init__(
            f"design matrix is rank deficient: column {column!r} carries no "
            f"independent variation"
        )
        self.column = column


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-coefficient inference plus whole-fit summary statistics."""

    r_squared: float
    residual_sigma: float
    std_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    df: int
    n_samples: int


@dataclass(frozen=True)
class DesignMatrix:
    """Intercept column of ones plus the four regressors, with the response."""

    x: np.ndarray  # (n, 5); column 0 all ones
    y: np.ndarray  # (n,)

    def __post_init__(self):
        x, y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[1] != len(COLUMN_NAMES):
            raise RegressionError(f"design must have {len(COLUMN_NAMES)} columns")
        if y.shape != (x.shape[0],):
            raise RegressionError("response length must match design rows")
        if x.shape[0] < MIN_ROWS:
            raise _too_few_rows(x.shape[0])
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise RegressionError("design matrix entries must be finite")
        if not (x[:, 0] == 1.0).all():
            raise RegressionError("first design column must be all ones")

    @property
    def n(self) -> int:
        return self.x.shape[0]


def fit_ols(design: DesignMatrix) -> tuple[np.ndarray, FitDiagnostics]:
    """Least-squares coefficients plus standard errors, t-stats, p-values, R².

    Standard errors use the unbiased residual variance and the diagonal of
    (R'R)^-1; R² is measured against the mean-only model.
    """
    return _fit_blocks([np.column_stack([design.x, design.y])], design.n)


def _fit_blocks(blocks, n: int) -> tuple[np.ndarray, FitDiagnostics]:
    """The fit of n rows from float64 blocks of their [x | y], column 0 all ones.

    Each block is overwritten by its reduction to the R factor of its [x | y];
    the blocks' factors are merged by one more QR (TSQR), so no two blocks are
    held at once; the merge returns a single block's R unchanged.
    """
    if n < MIN_ROWS:
        raise _too_few_rows(n)
    return _fit_from_r(*_merge_r([_block_r(xy) for xy in blocks]), n)


def _too_few_rows(n: int) -> InsufficientDataError:
    return InsufficientDataError(
        f"need at least {MIN_ROWS} rows to fit {len(COLUMN_NAMES)} parameters, got {n}"
    )


def _block_r(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of one block of [x | y] with each column scaled by a power of two, and those exponents.

    Dividing each column (in place) by the power of two at its largest
    magnitude is exact, and then no square or sum in the QR overflows near
    the float range's ends. R of [x | y] is R of x (whose columns keep x's
    norms), then Q'y over the residual norm.
    """
    exponent = np.frexp(np.maximum(xy.max(axis=0), -xy.min(axis=0)))[1] - 1
    np.ldexp(xy, -exponent, out=xy)
    return np.linalg.qr(xy, mode="r"), exponent


def _merge_r(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """R and column exponents of all the blocks' rows, from each block's (R, exponents).

    R of the stacked rows is R of the stacked R's. Each part is first brought
    to the largest exponent of its column, which multiplies the column by a
    power of two. That is exact unless an entry falls below the normal range,
    and then its error is below 2**-1074, against a column norm of at least 1
    in the block that holds the column's largest magnitude.
    """
    exponent = np.max([e for _, e in parts], axis=0)
    stacked = np.concatenate([np.ldexp(r, e - exponent) for r, e in parts])
    return np.linalg.qr(stacked, mode="r"), exponent


def _fit_from_r(
    r_xy: np.ndarray, exponent: np.ndarray, n: int
) -> tuple[np.ndarray, FitDiagnostics]:
    """The fit of n rows from R of their [x | y], each column divided by 2**exponent."""
    p = r_xy.shape[1] - 1
    r, qty = r_xy[:p, :p], r_xy[:p, p]
    col_norms = np.sqrt((r * r).sum(axis=0))
    for j in range(p):
        if abs(r[j, j]) <= RANK_RTOL * col_norms[j]:
            raise RankDeficiencyError(COLUMN_NAMES[j])

    beta = np.linalg.solve(r, qty)
    ssr = float(r_xy[p, p] ** 2)
    df = n - p
    sigma2 = ssr / df

    r_inv = np.linalg.inv(r)
    xtx_inv_diag = (r_inv * r_inv).sum(axis=1)
    std_errors = np.sqrt(sigma2 * xtx_inv_diag)

    with np.errstate(all="ignore"):  # se = 0 gives t = ±inf, refused below, or 0 where beta = 0
        t_stats = beta / std_errors
    t_stats[np.isnan(t_stats)] = 0.0
    p_values = tuple(student_t_sf(float(t), df) for t in t_stats)

    # column 0 is all ones, so (Q'y)[0]**2 = n * mean(y)**2 and the rest of
    # the last column sums to the squares about the mean; ssr is one term
    sst = float((r_xy[1:, p] ** 2).sum())
    r_squared = 1.0 - ssr / sst if sst else 1.0

    # back to the data's units: beta_j and its standard error scale by 2**(e_y - e_j)
    with np.errstate(over="ignore"):
        beta, std_errors = np.ldexp([beta, std_errors], exponent[p] - exponent[:p])
        residual_sigma = float(np.ldexp(math.sqrt(sigma2), exponent[p]))
    for name, *values in zip(COLUMN_NAMES, beta.tolist(), std_errors.tolist(), t_stats.tolist()):
        if not all(map(math.isfinite, values)):
            raise RegressionError(f"the fit for column {name!r} is outside the float range")
    if not math.isfinite(residual_sigma):
        raise RegressionError("the residual sigma is outside the float range")

    diagnostics = FitDiagnostics(
        r_squared=r_squared,
        residual_sigma=residual_sigma,
        std_errors=tuple(float(v) for v in std_errors),
        t_stats=tuple(float(v) for v in t_stats),
        p_values=p_values,
        df=df,
        n_samples=n,
    )
    return beta, diagnostics


def student_t_sf(t: float, df: int) -> float:
    """Two-sided tail probability P(|T_df| >= |t|).

    Uses the identity p = I_x(df/2, 1/2) with x = df/(df + t²), where I is
    the regularized incomplete beta function. Exactly symmetric in t <-> -t
    (only t² enters); p = 1 at t = 0; returns 0.0 once the tail underflows.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    x = df / (df + t * t)
    p = _betainc(0.5 * df, 0.5, x)
    if p < P_UNDERFLOW:
        return 0.0
    return min(1.0, max(0.0, p))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction.

    The symmetry I_x(a,b) = 1 - I_{1-x}(b,a) routes evaluation to whichever
    side the continued fraction converges fast on. The prefactor
    x^a (1-x)^b / B(a,b) is assembled in log space so deep tails underflow
    to 0 instead of overflowing intermediate terms.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


_CF_MAX_ITER = 300
_CF_EPS = 1e-16
_CF_TINY = 1e-300  # guards against division by zero in Lentz's method


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return h
