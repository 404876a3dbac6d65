"""Model training, prediction, evaluation, and persistence tests."""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REF_TRUTH, exact_model, make_trace
from wattmodel import (
    AlignedRow,
    AlignedTrace,
    AlignmentMeta,
    FitDiagnostics,
    InsufficientDataError,
    MetricSample,
    MetricTrace,
    ModelFormatError,
    PowerModel,
    PowerTrace,
    RankDeficiencyError,
    SimConfig,
    TraceError,
    align,
    default_tolerance,
    evaluate,
    generate,
    load_model,
    predict,
    save_model,
    train,
)
from wattmodel import powermodel
from wattmodel import trace as trace_module
from wattmodel.powermodel import BLOCK_ROWS
from wattmodel.trace import _paired_blocks


def simulated_trace(noise=0.0, seed=1, n=720, profile="bursty", truth=REF_TRUTH):
    config = SimConfig(
        truth=truth,
        duration_s=n * 60.0,
        interval_s=60.0,
        noise_sigma_w=noise,
        seed=seed,
        workload_profile=profile,
    )
    metrics, power = generate(config)
    return align(metrics, power, default_tolerance(metrics))


# ------------------------------------------------------------------ train


def test_train_recovers_noiseless_truth():
    model = train(simulated_trace(), hardware_id="rack-7")
    assert model.alpha == pytest.approx(REF_TRUTH.alpha, rel=1e-6)
    assert model.beta_cpu == pytest.approx(REF_TRUTH.beta_cpu, rel=1e-6)
    assert model.beta_mem == pytest.approx(REF_TRUTH.beta_mem, rel=1e-6)
    assert model.beta_disk == pytest.approx(REF_TRUTH.beta_disk, rel=1e-6)
    assert model.beta_net == pytest.approx(REF_TRUTH.beta_net, rel=1e-6)
    assert model.hardware_id == "rack-7"
    assert model.diagnostics.n_samples == 720


def test_train_rejects_five_rows():
    trace = make_trace(
        cpu=[0.1, 0.2, 0.3, 0.4, 0.5],
        mem=[1, 2, 3, 4, 5],
        disk=[5, 4, 3, 2, 1],
        net=[1, 3, 5, 2, 4],
        power=[100, 110, 120, 130, 140],
    )
    message = "^need at least 6 rows to fit 5 parameters, got 5$"
    with pytest.raises(InsufficientDataError, match=message):
        train(trace)



def test_train_rejects_an_empty_trace():
    message = "^need at least 6 rows to fit 5 parameters, got 0$"
    with pytest.raises(InsufficientDataError, match=message):
        train(empty_trace())

def blocked_pair(n=3 * BLOCK_ROWS + 600):
    """A noisy 1 Hz metric and power trace over n seconds, the meter silent for 500 of them."""
    config = SimConfig(truth=REF_TRUTH, duration_s=float(n), interval_s=1.0,
                       noise_sigma_w=2.0, seed=5, workload_profile="bursty")
    metrics, power = generate(config)
    return metrics, PowerTrace(np.delete(np.asarray(power), np.s_[1000:1500], axis=0))


def realigned(pairing):
    """The paired rows of pairing as a metric and a power trace on their own stamps, aligned again.

    Every metric sample of these finds its power sample, so no pairing block drops a row.
    """
    rows = np.array(pairing.rows)
    return align(MetricTrace(rows[:, :5]), PowerTrace(rows[:, [0, 5]]), 0.5)


@pytest.mark.parametrize("pair_rows", [1, 7, 4096])
def test_train_on_a_pairing_is_train_on_its_aligned_trace(monkeypatch, pair_rows):
    # with fewer pairing rows than BLOCK_ROWS, one block of train's reads many of align's
    monkeypatch.setattr(trace_module, "_PAIR_ROWS", pair_rows)
    pairing = align(*blocked_pair(), 0.5)
    assert pairing.source_meta.n_dropped == 500
    assert train(pairing, created_at=0.0) == train(realigned(pairing), created_at=0.0)


def test_train_reads_even_blocks_of_at_least_block_rows():
    metrics, _ = blocked_pair()
    power = PowerTrace(np.column_stack([metrics.timestamp, metrics.cpu + 100.0]))
    for n in (6, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 3 * BLOCK_ROWS + 100):
        pairing = align(MetricTrace(np.asarray(metrics)[:n]), power, 0.5)
        assert pairing.source_meta.n_dropped == 0
        read = list(_paired_blocks(pairing, BLOCK_ROWS))
        blocks = [block for _, block in read]
        for rows, block in read:  # six float64 columns, each as long as the block's slice
            assert type(block) is AlignedRow
            assert [(column.dtype, len(column)) for column in block] == [
                (np.float64, rows.stop - rows.start)] * len(AlignedRow._fields)
        assert [rows.start for rows, _ in read] == [0] + [rows.stop for rows, _ in read][:-1]
        sizes = [len(block.power_w) for block in blocks]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= BLOCK_ROWS or sizes == [n]
        # paired row i is metric row i with power row i
        cpu = np.concatenate([block.cpu for block in blocks])
        power_w = np.concatenate([block.power_w for block in blocks])
        assert np.array_equal(cpu, metrics.cpu[:n]) and np.array_equal(power_w, power.power_w[:n])
        records = (row for _, b in read for row in zip(*(column.tolist() for column in b)))
        assert tuple(map(AlignedRow._make, records)) == pairing.rows


def test_blocked_train_matches_one_block_train(monkeypatch):
    pairing = align(*blocked_pair(), 0.5)
    assert len(list(_paired_blocks(pairing, BLOCK_ROWS))) == 3
    blocked = train(pairing, created_at=0.0)
    monkeypatch.setattr(powermodel, "BLOCK_ROWS", 10**9)
    whole = train(pairing, created_at=0.0)

    def numbers(model):
        d = model.diagnostics
        return [*dataclasses.astuple(model)[:5], d.r_squared, d.residual_sigma,
                *d.std_errors, *d.t_stats, *d.p_values, d.df, d.n_samples]

    assert numbers(blocked) == pytest.approx(numbers(whole), rel=1e-10, abs=0.0)


def test_blocked_train_names_a_constant_column():
    metrics, power = blocked_pair()
    rows = np.array(metrics)
    rows[:, 3] = 20.0  # disk
    pairing = align(MetricTrace(rows), power, 0.5)
    with pytest.raises(RankDeficiencyError) as exc_info:
        train(pairing)
    assert exc_info.value.column == "disk"



@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1100, 1100), j=st.integers(-1100, 1100))
@example(k=3, j=0)
@example(k=-7, j=0)
@example(k=0, j=5)
@example(k=40, j=-3)
def test_train_power_of_two_scalings_are_exact(k, j):
    # mem, disk and net scaled by 2**k and power by 2**j, read in three or more
    # blocks: every statistic is the unscaled one, exactly, wherever the data
    # and the fit stay normal
    metrics, power = blocked_pair()
    pairing = align(metrics, power, 0.5)
    assert len(list(_paired_blocks(pairing, BLOCK_ROWS))) >= 3
    base = train(pairing, created_at=0.0)
    shift = np.array([j, j, j - k, j - k, j - k])
    with np.errstate(over="ignore"):
        metric_rows = np.asarray(metrics).copy()
        metric_rows[:, 2:] = np.ldexp(metric_rows[:, 2:], k)
        power_rows = np.asarray(power).copy()
        power_rows[:, 1] = np.ldexp(power_rows[:, 1], j)
        want_beta = np.ldexp(dataclasses.astuple(base)[:5], shift)
        want_se = np.ldexp(base.diagnostics.std_errors, shift)
        want_sigma = np.ldexp(base.diagnostics.residual_sigma, j)
    # every scaled value finite, and normal unless it was zero before scaling
    smallest = np.finfo(float).tiny
    assume(all(
        np.isfinite(v).all() and ((np.abs(v) >= smallest) | (before == 0.0)).all()
        for v, before in ((metric_rows, np.asarray(metrics)), (power_rows, np.asarray(power)),
                          (want_beta, np.array(dataclasses.astuple(base)[:5])),
                          (want_se, np.array(base.diagnostics.std_errors)),
                          (want_sigma, base.diagnostics.residual_sigma))
    ))
    scaled = train(align(MetricTrace(metric_rows), PowerTrace(power_rows), 0.5), created_at=0.0)
    assert list(dataclasses.astuple(scaled)[:5]) == want_beta.tolist()
    d, base_d = scaled.diagnostics, base.diagnostics
    assert d.std_errors == tuple(want_se.tolist())
    assert d.residual_sigma == want_sigma
    assert (d.t_stats, d.p_values, d.r_squared) == (base_d.t_stats, base_d.p_values, base_d.r_squared)

def test_train_strong_noisy_signal_saturates_significance():
    trace = simulated_trace(noise=2.0, seed=42, n=5000)
    model = train(trace)
    assert all(p < 2e-16 for p in model.diagnostics.p_values)


def test_train_created_at_override():
    model = train(simulated_trace(), created_at=1234.5)
    assert model.created_at == 1234.5


# ---------------------------------------------------------------- predict


def test_predict_baseline_and_full_cpu():
    model = exact_model(107.5, beta_cpu=124.9, beta_mem=5.471e-06,
                        beta_disk=3.661e-02, beta_net=3.382e-08)
    idle = MetricSample(0.0, 0.0, 0.0, 0.0, 0.0)
    busy = MetricSample(0.0, 1.0, 0.0, 0.0, 0.0)
    assert predict(model, idle) == 107.5
    assert predict(model, busy) == 232.4


def test_predict_zero_model():
    model = exact_model(0.0)
    assert predict(model, MetricSample(0.0, 0.7, 9.0, 9.0, 9.0)) == 0.0


def test_predict_is_unclamped():
    model = exact_model(10.0, beta_cpu=-100.0)
    assert predict(model, MetricSample(0.0, 1.0, 0.0, 0.0, 0.0)) == -90.0


def test_predict_is_affine():
    model = exact_model(50.0, beta_cpu=20.0, beta_mem=1e-6, beta_disk=0.5,
                        beta_net=1e-8)
    a = MetricSample(0.0, 0.25, 1e6, 100.0, 1e8)
    b = MetricSample(0.0, 0.5, 2e6, 50.0, 2e8)
    both = MetricSample(0.0, a.cpu + b.cpu, a.mem + b.mem, a.disk + b.disk,
                        a.net + b.net)
    zero = MetricSample(0.0, 0.0, 0.0, 0.0, 0.0)
    lhs = predict(model, a) + predict(model, b) - predict(model, zero)
    assert lhs == pytest.approx(predict(model, both), rel=1e-9)


# --------------------------------------------------------------- evaluate


def test_evaluate_perfect_on_own_noiseless_trace():
    trace = simulated_trace()
    model = train(trace)
    report = evaluate(model, trace)
    assert report.mape == pytest.approx(0.0, abs=1e-9)
    assert report.accuracy == pytest.approx(100.0, abs=1e-9)
    assert report.n == len(trace)


def test_evaluate_single_row_definitional():
    model = exact_model(96.09)
    trace = make_trace(cpu=[0.0], mem=[0.0], disk=[0.0], net=[0.0], power=[100.0])
    report = evaluate(model, trace)
    assert report.mape == pytest.approx(3.91, abs=1e-9)
    assert report.accuracy == pytest.approx(96.09, abs=1e-9)
    assert report.accuracy == 100.0 - report.mape  # exact complement
    assert report.max_abs_error_w == pytest.approx(3.91, abs=1e-9)
    assert report.n == 1


def test_evaluate_symmetric_errors_average():
    model = exact_model(100.0)
    # +10% error against 90.909..., -10% against 111.111...
    trace = make_trace(
        cpu=[0, 0], mem=[0, 0], disk=[0, 0], net=[0, 0],
        power=[100.0 / 1.1, 100.0 / 0.9],
    )
    assert evaluate(model, trace).mape == pytest.approx(10.0, rel=1e-12)


def empty_trace():
    return AlignedTrace(MetricTrace(), PowerTrace(), 30.0,
                        AlignmentMeta(n_metrics=0, n_power=0, n_dropped=0))


def test_evaluate_rejects_empty_trace():
    trace = empty_trace()
    with pytest.raises(ValueError):
        evaluate(exact_model(1.0), trace)


def test_evaluate_empty_trace_is_trace_error():
    trace = empty_trace()
    with pytest.raises(TraceError, match="empty trace"):
        evaluate(exact_model(1.0), trace)


def test_evaluate_zero_power_is_trace_error():
    # a zero meter reading would divide by zero in the percent error
    with pytest.raises(TraceError, match="power_w must be > 0"):
        evaluate(exact_model(100.0), make_trace([0.5], [0], [0], [0], [0.0]))


def test_evaluate_subnormal_power_is_trace_error():
    # the percent error against a subnormal reading overflows to inf
    trace = make_trace([0, 0], [0, 0], [0, 0], [0, 0], [1e-310, 1e-310])
    with pytest.raises(TraceError, match="MAPE is not finite; the smallest power_w is 1e-310 W"):
        evaluate(exact_model(100.0), trace)


@pytest.mark.parametrize("pair_rows", [1, 7, 4096])
def test_evaluate_on_a_pairing_is_evaluate_on_its_aligned_trace(monkeypatch, pair_rows):
    monkeypatch.setattr(trace_module, "_PAIR_ROWS", pair_rows)
    pairing = align(*blocked_pair(), 0.5)
    trace = realigned(pairing)
    assert len(list(_paired_blocks(pairing, BLOCK_ROWS))) == 3
    # with the second model, adding up the blocks' sums of percent errors changes the last bit
    for model in (train(pairing), exact_model(150.0)):
        pred, p = predict(model, trace.metrics), trace.power.power_w
        reference = 100 * np.mean(abs(pred - p) / p)  # over the whole columns at once
        for report in (evaluate(model, pairing), evaluate(model, trace)):
            assert report.mape.hex() == float(reference).hex()
            assert report.max_abs_error_w == np.max(abs(pred - p))
            assert report.n == len(trace)


@pytest.mark.parametrize("aligned", [False, True])
def test_evaluate_names_a_row_past_the_first_block_by_its_paired_row(aligned):
    metrics, power = blocked_pair()
    rows = np.array(metrics)
    rows[:, 4] = 0.0  # net
    rows[2500, 4] = 1e10  # metric rows 1000-1499 find no power sample: this is paired row 2000
    pairing = align(MetricTrace(rows), power, 0.5)
    aligned_trace = realigned(pairing)
    assert aligned_trace.metrics.timestamp[2000] == rows[2500, 0]
    trace = aligned_trace if aligned else pairing
    with pytest.raises(ModelFormatError, match="^model prediction for row 2000 is not finite$"):
        evaluate(exact_model(100.0, beta_net=1e300), trace)


def test_predict_on_a_trace_matches_each_record():
    trace = simulated_trace(noise=1.0, seed=4, n=50)
    model = train(trace)
    watts = predict(model, trace.metrics)
    assert watts.shape == (50,)
    assert watts.tolist() == [predict(model, row) for row in trace.rows]


def test_training_minimizes_squared_residuals():
    trace = simulated_trace(noise=3.0, seed=9, n=400)
    model = train(trace)
    rows = trace.rows
    x = np.column_stack([
        np.ones(len(rows)),
        [r.cpu for r in rows], [r.mem for r in rows],
        [r.disk for r in rows], [r.net for r in rows],
    ])
    y = np.array([r.power_w for r in rows])
    fitted = np.array([model.alpha, model.beta_cpu, model.beta_mem,
                       model.beta_disk, model.beta_net])
    best_ssr = float(((y - x @ fitted) ** 2).sum())
    rng = np.random.default_rng(99)
    for _ in range(100):
        perturbed = fitted * (1.0 + rng.normal(0.0, 0.01, 5))
        ssr = float(((y - x @ perturbed) ** 2).sum())
        assert best_ssr <= ssr + 1e-9


def test_statistical_recovery_within_three_sigma():
    # each true coefficient should fall inside +-3 standard errors nearly
    # always; require >= 95 of 100 seeded regenerations per coefficient
    hits = np.zeros(5, dtype=int)
    for seed in range(100):
        model = train(simulated_trace(noise=2.0, seed=seed, n=2000))
        estimates = (model.alpha, model.beta_cpu, model.beta_mem,
                     model.beta_disk, model.beta_net)
        truths = (REF_TRUTH.alpha, REF_TRUTH.beta_cpu, REF_TRUTH.beta_mem,
                  REF_TRUTH.beta_disk, REF_TRUTH.beta_net)
        for j, (est, true, se) in enumerate(
            zip(estimates, truths, model.diagnostics.std_errors)
        ):
            if abs(est - true) <= 3.0 * se:
                hits[j] += 1
    assert (hits >= 95).all(), hits.tolist()


# ------------------------------------------------------------ persistence


def test_save_load_round_trip_is_lossless():
    model = train(simulated_trace(noise=1.0, seed=4), hardware_id="dell-r610")
    assert load_model(save_model(model)) == model


def test_saved_document_matches_schema():
    model = train(simulated_trace(noise=1.0, seed=4))
    doc = json.loads(save_model(model))
    assert set(doc) == {
        "alpha", "beta_cpu", "beta_mem", "beta_disk", "beta_net",
        "diagnostics", "hardware_id", "created_at",
    }
    diag = doc["diagnostics"]
    assert set(diag) == {
        "r_squared", "residual_sigma", "std_errors", "t_stats",
        "p_values", "df", "n_samples",
    }
    assert len(diag["std_errors"]) == 5
    assert isinstance(diag["df"], int)


def test_load_reports_missing_field():
    model = train(simulated_trace())
    doc = json.loads(save_model(model))
    del doc["alpha"]
    with pytest.raises(ModelFormatError, match="alpha"):
        load_model(json.dumps(doc))
    doc2 = json.loads(save_model(model))
    del doc2["diagnostics"]["p_values"]
    with pytest.raises(ModelFormatError, match="p_values"):
        load_model(json.dumps(doc2))


def test_load_rejects_invariant_violations():
    model = train(simulated_trace())
    doc = json.loads(save_model(model))
    doc["diagnostics"]["p_values"][2] = 1.5
    with pytest.raises(ModelFormatError, match="p_values"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["diagnostics"]["r_squared"] = -0.1
    with pytest.raises(ModelFormatError, match="r_squared"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["diagnostics"]["df"] = 0
    with pytest.raises(ModelFormatError, match="df"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["diagnostics"]["std_errors"][3] = -1e-9
    with pytest.raises(ModelFormatError, match=r"std_errors\[3\]"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["diagnostics"]["residual_sigma"] = -0.5
    with pytest.raises(ModelFormatError, match="residual_sigma"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["diagnostics"]["n_samples"] += 1  # df must be n_samples - 5
    with pytest.raises(ModelFormatError, match="df"):
        load_model(json.dumps(doc))


def test_load_rejects_bad_types():
    model = train(simulated_trace())
    doc = json.loads(save_model(model))
    doc["alpha"] = "107.5"
    with pytest.raises(ModelFormatError, match="alpha"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["beta_cpu"] = True  # booleans are not numbers here
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["diagnostics"]["std_errors"] = [1.0, 2.0]
    with pytest.raises(ModelFormatError, match="std_errors"):
        load_model(json.dumps(doc))

    doc = json.loads(save_model(model))
    doc["hardware_id"] = 7
    with pytest.raises(ModelFormatError, match="hardware_id"):
        load_model(json.dumps(doc))

    # integers past the float range, and past int() parsing, are data errors
    doc = json.loads(save_model(model))
    doc["alpha"] = 10**400
    with pytest.raises(ModelFormatError, match="alpha"):
        load_model(json.dumps(doc))
    doc["alpha"] = 1.0
    doc["diagnostics"]["t_stats"][0] = -(10**400)
    with pytest.raises(ModelFormatError, match=r"t_stats\[0\]"):
        load_model(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model('{"alpha": ' + "9" * 5000 + "}")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model("[" * 100_000 + "]" * 100_000)


def test_load_rejects_nan_and_malformed_json():
    model = train(simulated_trace())
    doc = save_model(model).replace(json.dumps(model.alpha), "NaN", 1)
    with pytest.raises(ModelFormatError):
        load_model(doc)
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model("{not json")
    with pytest.raises(ModelFormatError, match="object"):
        load_model("[1, 2]")
    doc = save_model(model).replace(json.dumps(model.alpha), "Infinity", 1)
    with pytest.raises(ModelFormatError, match="field 'alpha' must be finite, got inf"):
        load_model(doc)


def test_model_is_immutable():
    model = exact_model(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.alpha = 2.0


def test_load_accepts_infinite_t_stats():
    # perfect fits carry infinite t statistics; only NaN is rejected
    model = exact_model(5.0)
    doc = json.loads(save_model(model))
    doc["diagnostics"]["t_stats"][0] = math.inf
    loaded = load_model(json.dumps(doc))
    assert loaded.diagnostics.t_stats[0] == math.inf


def test_load_ignores_unknown_fields():
    model = exact_model(5.0)
    doc = json.loads(save_model(model))
    doc["provenance"] = {"tool": "elsewhere"}
    doc["diagnostics"]["durbin_watson"] = 2.0
    assert load_model(json.dumps(doc)) == model


# per annotated type, a JSON value of another type; True and None are wrong for all
_WRONG_VALUE = {float: "7", int: 1.5, str: 7, tuple[float, ...]: [1.0] * 4, FitDiagnostics: []}


def _field_cases():
    for cls, parents in ((PowerModel, ()), (FitDiagnostics, ("diagnostics",))):
        types = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            path = (*parents, field.name)
            yield pytest.param(path, types[field.name], id=".".join(path))


@pytest.mark.parametrize("path, kind", _field_cases())
def test_every_field_is_required_and_typed(path, kind):
    """Removing any field, or giving it a value of the wrong type, names it."""
    *parents, name = path
    doc = json.loads(save_model(exact_model(5.0)))
    holder = doc
    for key in parents:
        holder = holder[key]
    del holder[name]
    with pytest.raises(ModelFormatError, match=f"missing field '{name}'"):
        load_model(json.dumps(doc))
    for wrong in (True, None, _WRONG_VALUE[kind]):
        holder[name] = wrong
        # the type check rejects it, not a rule across fields
        with pytest.raises(ModelFormatError, match=rf"\b{name}\b.* must be an? "):
            load_model(json.dumps(doc))
