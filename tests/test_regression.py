"""OLS engine tests: oracle agreement, inference, and edge behavior.

The first tests validate the oracles themselves on hand-checkable inputs;
everything downstream leans on them.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    gauss_solve,
    normal_equations_ols,
    normal_equations_std_errors,
    t_sf_two_sided_quadrature,
)
from wattmodel import (
    COLUMN_NAMES,
    DesignMatrix,
    InsufficientDataError,
    RankDeficiencyError,
    RegressionError,
    fit_ols,
    student_t_sf,
)
from wattmodel.regression import _block_r, _fit_blocks, _fit_from_r, _merge_r


def random_design(rng, n=50, native_scales=False):
    """Well-conditioned design: intercept plus 4 independent regressors."""
    scales = (1.0, 4e6, 400.0, 4e8) if native_scales else (1.0, 1.0, 1.0, 1.0)
    cols = [np.ones(n)] + [rng.uniform(0.05, 1.0, n) * s for s in scales]
    return np.column_stack(cols)


def random_response(rng, x, sigma=1.0):
    coef = np.array([50.0, 20.0, 3.0, -4.0, 1.5])
    return x @ coef + sigma * rng.standard_normal(x.shape[0])


# ---------------------------------------------------------------- oracles


def test_oracle_gauss_solve_hand_checkable():
    # 2x + y = 5, x - y = 1  =>  x = 2, y = 1
    a = [[2.0, 1.0], [1.0, -1.0]]
    b = [5.0, 1.0]
    assert gauss_solve(a, b) == pytest.approx([2.0, 1.0], abs=1e-12)


def test_oracle_normal_equations_simple_line():
    # y = 1 + 2t fit with two free parameters and three points on the line
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([1.0, 3.0, 5.0])
    assert normal_equations_ols(x, y) == pytest.approx([1.0, 2.0], abs=1e-12)


def test_oracle_quadrature_textbook_point():
    # classic two-sided 5% critical value of the t distribution
    assert t_sf_two_sided_quadrature(2.228, 10) == pytest.approx(0.05, abs=1e-3)


def test_oracle_quadrature_symmetric_in_construction():
    assert t_sf_two_sided_quadrature(0.0, 7) == 1.0
    assert t_sf_two_sided_quadrature(-1.3, 7) == t_sf_two_sided_quadrature(1.3, 7)


# ------------------------------------------------- solver vs oracle routes


def test_fit_matches_normal_equations_on_100_random_designs():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = random_design(rng)
        y = random_response(rng, x)
        beta, _ = fit_ols(DesignMatrix(x=x, y=y))
        expected = normal_equations_ols(x, y)
        assert np.allclose(beta, expected, rtol=1e-8, atol=1e-10), f"seed {seed}"


def test_fit_matches_oracle_on_native_scale_designs():
    # columns spanning ~10 orders of magnitude, like real trace units
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = random_design(rng, native_scales=True)
        y = (
            x @ np.array([107.5, 124.9, 5.471e-06, 3.661e-02, 3.382e-08])
            + 2.0 * rng.standard_normal(x.shape[0])
        )
        beta, _ = fit_ols(DesignMatrix(x=x, y=y))
        expected = normal_equations_ols(x, y)
        assert np.allclose(beta, expected, rtol=1e-7, atol=1e-12), f"seed {seed}"


def test_std_errors_match_normal_equations_route():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = random_design(rng)
        y = random_response(rng, x)
        _, diag = fit_ols(DesignMatrix(x=x, y=y))
        expected = normal_equations_std_errors(x, y)
        assert np.allclose(diag.std_errors, expected, rtol=1e-7)


def test_oracle_equivalence_is_fast():
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = random_design(rng)
        y = random_response(rng, x)
        beta, _ = fit_ols(DesignMatrix(x=x, y=y))
        assert np.allclose(beta, normal_equations_ols(x, y), rtol=1e-8, atol=1e-10)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ recovery


def test_known_coefficients_recovered():
    # y depends only on the intercept and cpu; other regressors vary freely
    # with zero true weight
    rng = np.random.default_rng(7)
    n = 25
    cpu = np.tile([0.0, 0.25, 0.5, 0.75, 1.0], 5)
    x = np.column_stack(
        [np.ones(n), cpu, rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0, 1, n)]
    )
    y = 107.5 + 124.9 * cpu
    beta, diag = fit_ols(DesignMatrix(x=x, y=y))
    assert beta[0] == pytest.approx(107.5, rel=1e-8)
    assert beta[1] == pytest.approx(124.9, rel=1e-8)
    assert abs(beta[2]) <= 1e-8 and abs(beta[3]) <= 1e-8 and abs(beta[4]) <= 1e-8
    assert diag.r_squared == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ properties


def test_residual_orthogonality():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = random_design(rng, native_scales=bool(seed % 2))
        y = random_response(rng, x, sigma=3.0)
        beta, _ = fit_ols(DesignMatrix(x=x, y=y))
        resid = y - x @ beta
        y_norm = math.sqrt(float(y @ y))
        for j in range(5):
            col = x[:, j]
            bound = 1e-6 * y_norm * math.sqrt(float(col @ col))
            assert abs(float(resid @ col)) <= bound


def test_mean_point_property():
    rng = np.random.default_rng(3)
    x = random_design(rng)
    y = random_response(rng, x, sigma=2.0)
    beta, _ = fit_ols(DesignMatrix(x=x, y=y))
    at_means = float(x.mean(axis=0) @ beta)
    assert at_means == pytest.approx(float(y.mean()), rel=1e-8)


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    x = random_design(rng)
    y = random_response(rng, x, sigma=1.5)
    beta1, diag1 = fit_ols(DesignMatrix(x=x, y=y))
    c = 7.25
    for j in range(1, 5):
        x2 = x.copy()
        x2[:, j] *= c
        beta2, diag2 = fit_ols(DesignMatrix(x=x2, y=y))
        assert beta2[j] == pytest.approx(beta1[j] / c, rel=1e-8)
        others = [k for k in range(5) if k != j]
        assert np.allclose(beta2[others], beta1[others], rtol=1e-8)
        assert np.allclose(x2 @ beta2, x @ beta1, rtol=1e-8)
        assert diag2.r_squared == pytest.approx(diag1.r_squared, rel=1e-10)
        assert np.allclose(diag2.t_stats, diag1.t_stats, rtol=1e-8)
        assert np.allclose(diag2.p_values, diag1.p_values, rtol=1e-6, atol=1e-300)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 400),
    exponents=st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4),
)
def test_scale_equivariance_over_random_column_scalings(seed, n, exponents):
    rng = np.random.default_rng(seed)
    x = random_design(rng, n=n)
    y = random_response(rng, x, sigma=1.5)
    s = np.array([1.0] + [10.0**e for e in exponents])
    beta1, diag1 = fit_ols(DesignMatrix(x=x, y=y))
    beta2, diag2 = fit_ols(DesignMatrix(x=x * s, y=y))
    assert beta2 * s == pytest.approx(beta1, rel=1e-8, abs=0.0)
    assert (x * s) @ beta2 == pytest.approx(x @ beta1, rel=1e-8, abs=0.0)
    assert np.array(diag2.std_errors) * s == pytest.approx(diag1.std_errors, rel=1e-8, abs=0.0)
    assert diag2.t_stats == pytest.approx(diag1.t_stats, rel=1e-8, abs=0.0)
    assert diag2.p_values == pytest.approx(diag1.p_values, rel=1e-6, abs=0.0)
    assert diag2.r_squared == pytest.approx(diag1.r_squared, rel=0.0, abs=1e-12)
    assert diag2.residual_sigma == pytest.approx(diag1.residual_sigma, rel=1e-10, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 200),
    exponents=st.lists(st.integers(-1000, 1000), min_size=5, max_size=5),
)
def test_power_of_two_scalings_are_exact(seed, n, exponents):
    # columns scaled by 2**k across the whole float range: every statistic
    # is the unscaled one, exactly, wherever the data and the fit stay normal
    rng = np.random.default_rng(seed)
    x = random_design(rng, n=n)
    y = random_response(rng, x, sigma=1.5)
    k_x, k_y = np.array([0] + exponents[:4]), exponents[4]
    beta1, diag1 = fit_ols(DesignMatrix(x=x, y=y))
    with np.errstate(over="ignore"):
        want_beta = np.ldexp(beta1, k_y - k_x)
        want_se = np.ldexp(diag1.std_errors, k_y - k_x)
        want_sigma = np.ldexp(diag1.residual_sigma, k_y)
        x2, y2 = np.ldexp(x, k_x), np.ldexp(y, k_y)
    smallest = np.finfo(float).tiny
    assume(all(
        np.isfinite(v).all() and (np.abs(v) >= smallest).all()
        for v in (x2, y2, want_beta, want_se, want_sigma)
    ))
    beta2, diag2 = fit_ols(DesignMatrix(x=x2, y=y2))
    assert beta2.tolist() == want_beta.tolist()
    assert diag2.std_errors == tuple(want_se.tolist())
    assert diag2.residual_sigma == want_sigma
    assert diag2.t_stats == diag1.t_stats
    assert diag2.p_values == diag1.p_values
    assert diag2.r_squared == diag1.r_squared


def test_shift_property():
    rng = np.random.default_rng(13)
    x = random_design(rng)
    y = random_response(rng, x, sigma=1.0)
    beta1, _ = fit_ols(DesignMatrix(x=x, y=y))
    k = 42.5
    beta2, _ = fit_ols(DesignMatrix(x=x, y=y + k))
    assert beta2[0] == pytest.approx(beta1[0] + k, rel=1e-10)
    assert np.allclose(beta2[1:], beta1[1:], atol=1e-8)


def test_r_squared_stays_in_unit_interval():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = random_design(rng)
        # pure noise response: R^2 near zero but never negative
        y = rng.standard_normal(x.shape[0])
        _, diag = fit_ols(DesignMatrix(x=x, y=y))
        assert 0.0 <= diag.r_squared <= 1.0
        assert all(0.0 <= p <= 1.0 for p in diag.p_values)


def test_constant_response_is_handled():
    rng = np.random.default_rng(17)
    x = random_design(rng, n=20)
    y = np.full(20, 2.5)
    _, diag = fit_ols(DesignMatrix(x=x, y=y))
    assert 0.0 <= diag.r_squared <= 1.0
    assert diag.residual_sigma == pytest.approx(0.0, abs=1e-10)


# -------------------------------------------------------- merged blocks


def fit_or_error(fit, *args):
    """fit(*args) as (beta, diagnostics), or the RegressionError it raised."""
    try:
        return fit(*args)
    except RegressionError as exc:
        return exc


def assert_same_fit(merged, whole, rel=1e-10):
    """Two fit_or_error results: the same error (type and message), or fits within rel."""
    if isinstance(whole, RegressionError):
        assert type(merged) is type(whole) and str(merged) == str(whole)
        return
    assert not isinstance(merged, RegressionError), merged
    (beta1, diag1), (beta2, diag2) = merged, whole
    assert beta1 == pytest.approx(beta2, rel=rel, abs=0.0)
    assert diag1.std_errors == pytest.approx(diag2.std_errors, rel=rel, abs=0.0)
    assert diag1.t_stats == pytest.approx(diag2.t_stats, rel=rel, abs=0.0)
    assert diag1.p_values == pytest.approx(diag2.p_values, rel=rel, abs=0.0)
    assert diag1.residual_sigma == pytest.approx(diag2.residual_sigma, rel=rel, abs=0.0)
    assert diag1.r_squared == pytest.approx(diag2.r_squared, rel=rel, abs=0.0)
    assert (diag1.df, diag1.n_samples) == (diag2.df, diag2.n_samples)


@st.composite
def blocked_designs(draw):
    """(x, y, cuts): a design with columns scaled up to 1e±300, maybe degenerate, and row cuts.

    Every block between cuts has at least 6 rows. The response's scale stays
    within 1e300 of each column's, so every coefficient is a normal float.
    """
    n_blocks = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(6, 40), min_size=n_blocks, max_size=n_blocks))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.integers(-300, 300), min_size=4, max_size=4))
    low, high = max(max(exponents) - 300, -300), min(min(exponents) + 300, 300)
    y_exponent = draw(st.integers(low, high))
    scales = np.array([1.0] + [10.0**e for e in exponents])
    unit = np.column_stack([np.ones(n), rng.uniform(0.05, 1.0, (n, 4))])
    y = (unit @ rng.uniform(0.5, 2.0, 5) + 0.1 * rng.standard_normal(n)) * 10.0**y_exponent
    degenerate = draw(st.sampled_from([None, "constant", "zero", "double"]))
    j = draw(st.integers(1, 4))
    if degenerate == "constant":
        unit[:, j] = 0.5
    elif degenerate == "zero":
        unit[:, j] = 0.0
    elif degenerate == "double":  # column j is twice another, in units of its own scale
        k = draw(st.integers(1, 4).filter(lambda k: k != j))
        unit[:, j] = 2.0 * unit[:, k]
        scales[j] = scales[k]
    return unit * scales, y, np.cumsum(sizes)[:-1]


@settings(max_examples=300, deadline=None)
@given(blocked_designs())
def test_merged_block_fit_matches_the_one_block_fit(case):
    x, y, cuts = case
    blocks = (np.column_stack([bx, by]) for bx, by in zip(np.split(x, cuts), np.split(y, cuts)))
    whole = fit_or_error(fit_ols, DesignMatrix(x=x, y=y))
    assert_same_fit(fit_or_error(_fit_blocks, blocks, len(y)), whole)


def test_merge_rescale_below_the_normal_range_keeps_the_fit():
    # mem is near 2**100 in the first block and 2**-930 in the second, so bringing
    # the second block's R to the first block's exponent puts entries below 2**-1022
    rng = np.random.default_rng(7)
    x = random_design(rng, n=40)
    y = random_response(rng, x)
    x[:20, 2] *= 2.0**100
    x[20:, 2] *= 2.0**-930
    blocks = [np.column_stack([x[:20], y[:20]]), np.column_stack([x[20:], y[20:]])]
    (_, e1), (r2, e2) = (_block_r(xy.copy()) for xy in blocks)
    shifted = np.ldexp(r2, e2 - np.maximum(e1, e2))
    assert ((shifted != 0.0) & (np.abs(shifted) < np.finfo(float).tiny)).any()
    whole = fit_or_error(fit_ols, DesignMatrix(x=x, y=y))
    assert_same_fit(fit_or_error(_fit_blocks, blocks, len(y)), whole)


def test_one_block_is_fitted_from_its_own_r():
    # one block, through fit_ols or the block fit, goes through the merge, which returns its R
    # bit for bit: LAPACK's QR of an R factor is that factor, and the shift is 0
    rng = np.random.default_rng(8)
    for scales in ([1.0] * 5, [1.0, 1e200, 1e-200, 1e150, 1e-150], [1.0, 1e-200] * 2 + [1e200]):
        unit = random_design(rng, n=30)
        x = unit * scales
        design = DesignMatrix(x=x, y=random_response(rng, unit))
        r, exponent = _block_r(np.column_stack([x, design.y]))
        merged_r, merged_exponent = _merge_r([(r, exponent)])
        assert merged_r.tobytes() == r.tobytes()
        assert merged_exponent.tolist() == exponent.tolist()
        want_beta, want_diag = _fit_from_r(r, exponent, design.n)
        one_block = [np.column_stack([x, design.y])]
        for beta, diag in (fit_ols(design), _fit_blocks(one_block, design.n)):
            assert beta.tolist() == want_beta.tolist()
            assert diag == want_diag


def test_no_blocks_is_insufficient_data():
    message = "^need at least 6 rows to fit 5 parameters, got 0$"
    with pytest.raises(InsufficientDataError, match=message):
        _fit_blocks(iter([]), 0)


# ------------------------------------------------------------ error paths


def test_residual_sigma_past_the_float_range_is_regression_error():
    # every coefficient and standard error fits in a float, but the residual
    # sigma of this n = 6, df = 1 fit is past it (found by a seeded random search)
    cpu = [8.068978068235111e+198, 1.4629701738007878e+196, 1.488104255885788e+193,
           3.482248576228314e+194, 9.984600222957642e+198, 7.790603230372936e+196]
    mem = [3.546941859318902e+200, 1.1573068455392612e+194, 1.1987444672970125e+196,
           3.4132352154870242e+196, 2.1438939120540014e+199, 3.982987285463467e+191]
    disk = [2.9621954071111184e+194, 1.0222298963800764e+200, 2.9767048444068275e+190,
            1.1214220262950498e+199, 3.7087231150208644e+194, 1.3422822216692146e+199]
    net = [1.2867677534034184e+190, 1.036353063042089e+194, 7.327071150300228e+190,
           1.5092470640955398e+197, 1.0288216259467382e+193, 5.360098582282827e+197]
    power = [1.0297320758001694e+308, 1.1903852541554448e+308, 1.2148870305892884e+308,
             -1.2444247734167321e+308, -1.4882311609680223e+308, 1.3878455940509142e+308]
    design = DesignMatrix(x=np.column_stack([np.ones(6), cpu, mem, disk, net]), y=power)
    with pytest.raises(RegressionError, match="^the residual sigma is outside the float range$"):
        fit_ols(design)


def test_rank_deficiency_names_constant_column():
    rng = np.random.default_rng(1)
    x = random_design(rng, n=30)
    x[:, 1] = 0.42  # cpu frozen: collinear with the intercept
    with pytest.raises(RankDeficiencyError) as exc_info:
        fit_ols(DesignMatrix(x=x, y=rng.standard_normal(30)))
    assert exc_info.value.column == "cpu"
    assert "cpu" in str(exc_info.value)


def test_rank_deficiency_names_duplicated_column():
    rng = np.random.default_rng(2)
    x = random_design(rng, n=30)
    x[:, 4] = 2.0 * x[:, 3]  # net is a multiple of disk
    with pytest.raises(RankDeficiencyError) as exc_info:
        fit_ols(DesignMatrix(x=x, y=rng.standard_normal(30)))
    assert exc_info.value.column == "net"


def test_rank_deficiency_on_identical_rows():
    x = np.tile([1.0, 0.3, 5.0, 2.0, 7.0], (10, 1))
    y = np.full(10, 150.0)
    with pytest.raises(RankDeficiencyError):
        fit_ols(DesignMatrix(x=x, y=y))


def test_rank_deficiency_on_all_zero_column():
    rng = np.random.default_rng(5)
    x = random_design(rng, n=30)
    x[:, 2] = 0.0
    with pytest.raises(RankDeficiencyError) as exc_info:
        fit_ols(DesignMatrix(x=x, y=rng.standard_normal(30)))
    assert exc_info.value.column == "mem"


def test_insufficient_rows_rejected():
    x = np.column_stack([np.ones(5)] + [np.arange(5.0) + j for j in range(4)])
    with pytest.raises(InsufficientDataError):
        DesignMatrix(x=x, y=np.arange(5.0))


def test_design_validation():
    rng = np.random.default_rng(0)
    good = random_design(rng, n=10)
    y = np.arange(10.0)
    with pytest.raises(RegressionError):
        DesignMatrix(x=good[:, :4], y=y)  # wrong column count
    with pytest.raises(RegressionError):
        DesignMatrix(x=good, y=y[:-1])  # length mismatch
    bad = good.copy()
    bad[3, 2] = np.nan
    with pytest.raises(RegressionError):
        DesignMatrix(x=bad, y=y)
    bad = good.copy()
    bad[0, 0] = 2.0  # intercept column must be all ones
    with pytest.raises(RegressionError):
        DesignMatrix(x=bad, y=y)


# ------------------------------------------------------- t survival function


def test_t_sf_against_quadrature_grid():
    for df in (1, 2, 5, 10, 30, 120, 1000):
        for t in (0.25, 0.5, 1.0, 2.0, 2.228, 3.0, 4.5, 6.0):
            expected = t_sf_two_sided_quadrature(t, df)
            got = student_t_sf(t, df)
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-9), (t, df)


def test_t_sf_textbook_value():
    assert student_t_sf(2.228, 10) == pytest.approx(0.05, abs=1e-3)


def test_t_sf_symmetry_is_exact():
    for df in (1, 4, 37):
        for t in (0.0, 0.3, 1.7, 9.9):
            assert student_t_sf(t, df) == student_t_sf(-t, df)


def test_t_sf_basic_shape():
    assert student_t_sf(0.0, 5) == 1.0
    assert student_t_sf(math.inf, 5) == 0.0
    assert student_t_sf(-math.inf, 5) == 0.0
    assert student_t_sf(1e-9, 10**9) == 1.0  # df / (df + t**2) rounds to 1
    for df in (1, 10, 500):
        previous = 1.0
        for t in np.linspace(0.0, 40.0, 200):
            p = student_t_sf(float(t), df)
            assert 0.0 <= p <= previous
            previous = p


def test_t_sf_deep_tail_thresholds():
    assert student_t_sf(20.0, 1000) < 2e-16
    assert student_t_sf(1e7, 50) == 0.0  # underflows, reported as exact zero


def test_t_sf_input_validation():
    with pytest.raises(ValueError):
        student_t_sf(1.0, 0)
    with pytest.raises(ValueError):
        student_t_sf(math.nan, 5)


def test_fit_p_values_reach_reporting_threshold():
    # strong clean signal drives every p below the 2e-16 reporting threshold
    rng = np.random.default_rng(21)
    x = random_design(rng, n=5000)
    y = x @ np.array([100.0, 50.0, 25.0, -12.0, 8.0]) + 0.5 * rng.standard_normal(5000)
    _, diag = fit_ols(DesignMatrix(x=x, y=y))
    assert all(p < 2e-16 for p in diag.p_values)
    assert diag.df == 4995
    assert diag.n_samples == 5000
