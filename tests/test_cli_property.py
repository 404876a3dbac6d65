"""Property tests: no flag value or trace value makes a command raise instead of exiting."""

import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import strict_json
from wattmodel import PROFILES
from wattmodel.cli import main
from wattmodel.simgen import MAX_SAMPLES

# typical values, zero, negatives, infinities, nan, a subnormal and near-overflow values
FLOATS = st.sampled_from(
    [1.0, 60.0, 107.5, 3600.0, 0.0, -1.0, math.inf, -math.inf, math.nan, 1e-320, 1e301, 1e308,
     1.79e308]
)
MONTHS = st.sampled_from([-1, 0, 1, 12_000, 12_001, 10**11])
SEEDS = st.sampled_from([-1, 0, 1, 2**70 + 3])
DEFAULT_TRUTH = (107.5, 124.9, 5.471e-06, 3.661e-02, 3.382e-08)
TRUTH_FLAGS = ("alpha", "beta-cpu", "beta-mem", "beta-disk", "beta-net")

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _few_or_too_many(pair) -> bool:
    """At most 1,000 samples or past the cap, so that no example builds a large trace."""
    with np.errstate(all="ignore"):
        count = np.float64(pair[0]) / np.float64(pair[1])
    return not 1_000 < count <= MAX_SAMPLES


DURATION_INTERVAL = st.tuples(FLOATS, FLOATS).filter(_few_or_too_many)


def _flag(name, value) -> str:
    # --name=value, so that argparse reads a value such as -inf as a value, not a flag
    return f"--{name}={value!r}"


def _check_exit(argv, capsys) -> None:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert "error:" in lines[-1], err
        assert sum("error:" in line for line in lines) == 1, err


@PROPERTY
@given(
    profile=st.sampled_from(PROFILES),
    truth=st.tuples(*[FLOATS] * len(TRUTH_FLAGS)),
    noise=FLOATS,
    seed=SEEDS,
    duration_interval=DURATION_INTERVAL,
)
@example(profile="bursty", truth=DEFAULT_TRUTH, noise=1e308, seed=1,
         duration_interval=(3600.0, 60.0))
@example(profile="bursty", truth=DEFAULT_TRUTH[:4] + (1e301,), noise=0.0, seed=1,
         duration_interval=(3600.0, 60.0))
@example(profile="bursty", truth=DEFAULT_TRUTH, noise=0.0, seed=1,
         duration_interval=(1e15, 1.0))
@example(profile="bursty", truth=DEFAULT_TRUTH, noise=0.0, seed=1,
         duration_interval=(1e20, 1.0))
@example(profile="diurnal", truth=DEFAULT_TRUTH, noise=0.0, seed=1,
         duration_interval=(1.6e308, 8e307))
@example(profile="bursty", truth=DEFAULT_TRUTH, noise=0.0, seed=1,
         duration_interval=(1e-323, 5e-324))
@example(profile="bursty", truth=DEFAULT_TRUTH, noise=0.0, seed=1,
         duration_interval=(1.79e308, 1.79e305))
def test_simulate_flags_never_raise(tmp_path, capsys, profile, truth, noise, seed,
                                    duration_interval):
    duration, interval = duration_interval
    argv = [
        "simulate", f"--profile={profile}",
        *(_flag(name, value) for name, value in zip(TRUTH_FLAGS, truth)),
        _flag("noise-w", noise), _flag("seed", seed),
        _flag("duration-s", duration), _flag("interval-s", interval),
        f"--out-metrics={tmp_path / 'm.csv'}", f"--out-power={tmp_path / 'p.csv'}",
    ]
    _check_exit(argv, capsys)


@PROPERTY
@given(
    kwh_per_day=FLOATS,
    rate=FLOATS,
    escalation=FLOATS,
    months=MONTHS,
    categories=st.lists(FLOATS, max_size=2),
    as_json=st.booleans(),
)
@example(kwh_per_day=1.0, rate=1.0, escalation=0.0, months=12, categories=[1e308, 1e308],
         as_json=False)
@example(kwh_per_day=1e-320, rate=1e-320, escalation=0.0, months=12, categories=[],
         as_json=False)
@example(kwh_per_day=1e-200, rate=1e-200, escalation=0.0, months=12, categories=[5.0],
         as_json=True)
def test_cost_flags_never_raise(capsys, kwh_per_day, rate, escalation, months, categories,
                                as_json):
    argv = [
        "cost", _flag("kwh-per-day", kwh_per_day), _flag("rate", rate),
        _flag("escalation", escalation), _flag("months", months),
        *(f"--category=item {i}={cost!r}" for i, cost in enumerate(categories)),
        *(["--json"] if as_json else []),
    ]
    _check_exit(argv, capsys)


# zero, the smallest subnormal, tiny, one, huge and near-overflow values
MAGNITUDES = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308)
SIGNED = MAGNITUDES + tuple(-v for v in MAGNITUDES[1:])
GOLDEN_MODEL = Path(__file__).parent / "golden" / "model.json"


# half the draws have enough rows to fit
STAMPS = st.one_of(st.sets(st.sampled_from(SIGNED), min_size=6), st.sets(st.sampled_from(SIGNED)))


def _csv(draw, header, stamps, columns) -> str:
    """CSV text: one row per timestamp, each column's value drawn from its choices."""
    rows = [[t, *(draw(st.sampled_from(choices)) for choices in columns)] for t in stamps]
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@st.composite
def trace_pair(draw):
    """Metrics and power CSV text on one shared grid or on two grids."""
    metric_stamps = sorted(draw(STAMPS))
    power_stamps = draw(st.one_of(st.just(metric_stamps), STAMPS.map(sorted)))
    metrics = _csv(draw, "timestamp,cpu,mem,disk,net", metric_stamps,
                   [MAGNITUDES[:4], MAGNITUDES, MAGNITUDES, MAGNITUDES])
    return metrics, _csv(draw, "timestamp,power_w", power_stamps, [MAGNITUDES[1:]])


def _check_data_command(argv, capsys) -> int:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    if code == 0 and argv[0] != "fit":
        strict_json(out)
    return code


@PROPERTY
@given(traces=trace_pair())
def test_data_commands_never_raise(tmp_path, capsys, traces):
    metrics, power = traces
    metrics_path, power_path = tmp_path / "m.csv", tmp_path / "p.csv"
    metrics_path.write_text(metrics, encoding="utf-8")
    power_path.write_text(power, encoding="utf-8")
    model_path = tmp_path / "model.json"
    if _check_data_command(["fit", f"--metrics={metrics_path}", f"--power={power_path}",
                            f"--out={model_path}"], capsys) == 0:
        strict_json(model_path.read_text(encoding="utf-8"))
    else:
        model_path = GOLDEN_MODEL
    for argv in (
        ["evaluate", f"--model={model_path}", f"--metrics={metrics_path}",
         f"--power={power_path}"],
        ["energy", f"--power={power_path}"],
        ["energy", f"--model={model_path}", f"--metrics={metrics_path}"],
    ):
        _check_data_command(argv, capsys)
