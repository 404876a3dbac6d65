"""CSV parsing, validation, and time-alignment tests."""

import io
import os
import random
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattmodel import (
    AlignmentError,
    MetricSample,
    MetricTrace,
    ParseError,
    PowerSample,
    PowerTrace,
    TraceError,
    align,
    default_tolerance,
    format_metrics,
    format_power,
    parse_metrics,
    parse_power,
)
from wattmodel import trace
from wattmodel.trace import _median

METRICS_CSV = "timestamp,cpu,mem,disk,net\n"
POWER_CSV = "timestamp,power_w\n"


# ------------------------------------------------------------- parsing


def test_parse_metrics_single_row():
    samples = parse_metrics(METRICS_CSV + "0.0,0.5,100,20,3\n")
    assert list(samples) == [MetricSample(0.0, 0.5, 100.0, 20.0, 3.0)]


def test_parse_metrics_empty_body_is_valid():
    assert list(parse_metrics(METRICS_CSV)) == []


def test_parse_power_rows_in_order():
    samples = parse_power(POWER_CSV + "0,107.5\n1,108\n2,109\n")
    assert [s.timestamp for s in samples] == [0.0, 1.0, 2.0]
    assert samples[0].power_w == 107.5


def test_parse_metrics_cpu_bound_error_names_line():
    with pytest.raises(ParseError) as exc_info:
        parse_metrics(METRICS_CSV + "0.0,1.5,0,0,0\n")
    assert exc_info.value.line_no == 2
    assert "[0, 1]" in str(exc_info.value)
    assert "line 2" in str(exc_info.value)


def test_parse_metrics_error_line_number_counts_header():
    with pytest.raises(ParseError) as exc_info:
        parse_metrics(METRICS_CSV + "0.0,0.5,1,1,1\n1.0,0.5,1,1,bogus\n")
    assert exc_info.value.line_no == 3


def test_parse_power_rejects_non_positive():
    with pytest.raises(ParseError, match="power_w must be > 0"):
        parse_power(POWER_CSV + "1.0,0\n")
    with pytest.raises(ParseError):
        parse_power(POWER_CSV + "1.0,-5\n")


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_metrics("time,cpu,mem,disk,net\n0,0,0,0,0\n")
    with pytest.raises(ParseError):
        parse_power("")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(ParseError, match="fields"):
        parse_metrics(METRICS_CSV + "0.0,0.5,1,1\n")


def test_parse_rejects_non_finite():
    with pytest.raises(ParseError, match="non-finite"):
        parse_power(POWER_CSV + "0.0,inf\n")


def test_parse_rejects_negative_magnitudes():
    with pytest.raises(ParseError, match="mem"):
        parse_metrics(METRICS_CSV + "0.0,0.5,-1,0,0\n")


def test_parse_rejects_decreasing_and_duplicate_timestamps():
    with pytest.raises(ParseError, match="decreases"):
        parse_power(POWER_CSV + "1.0,10\n0.5,10\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_power(POWER_CSV + "1.0,10\n1.0,11\n")


def test_parse_accepts_crlf_and_blank_lines():
    samples = parse_power("timestamp,power_w\r\n0,5\r\n\r\n1,6\r\n")
    assert len(samples) == 2


def test_sample_validation_mirrors_parser():
    with pytest.raises(TraceError):
        MetricTrace([MetricSample(0.0, 1.2, 0.0, 0.0, 0.0)])
    with pytest.raises(TraceError):
        MetricTrace([MetricSample(0.0, 0.5, 0.0, -3.0, 0.0)])
    with pytest.raises(TraceError):
        PowerTrace([PowerSample(0.0, 0.0)])
    with pytest.raises(TraceError):
        PowerTrace([PowerSample(float("nan"), 10.0)])


# ------------------------------------------------------------ containers


def test_trace_columns_records_and_length():
    trace = MetricTrace([MetricSample(0.0, 0.5, 1.0, 2.0, 3.0), (1.0, 0.25, 4, 5, 6)])
    assert len(trace) == 2
    assert trace.cpu.dtype == np.float64
    assert trace.cpu.tolist() == [0.5, 0.25]
    assert trace.net.tolist() == [3.0, 6.0]
    assert trace[1] == MetricSample(1.0, 0.25, 4.0, 5.0, 6.0)
    assert trace[-1] == trace[1]
    assert list(trace) == [trace[0], trace[1]]
    assert MetricTrace(np.asarray(trace)) == trace
    assert MetricTrace() == MetricTrace([])


def test_trace_columns_are_read_only():
    trace = parse_power(POWER_CSV + "0,100\n1,200\n")
    with pytest.raises(ValueError):
        trace.power_w[0] = 1.0
    with pytest.raises(ValueError):
        np.asarray(trace)[0, 0] = 1.0


@pytest.mark.parametrize("kind, args", [
    (MetricTrace, ()),
    (PowerTrace, ()),
])
def test_trace_constructors_copy_the_callers_array(kind, args):
    rows = np.column_stack([np.arange(3.0), np.full((3, len(kind.record._fields) - 1), 0.5)])
    assert rows.flags.owndata and rows.flags.writeable
    trace = kind(rows, *args)
    rows[:] = 0.25
    assert rows.flags.writeable
    assert np.asarray(trace)[:, 0].tolist() == [0.0, 1.0, 2.0]
    assert (np.asarray(trace)[:, 1:] == 0.5).all()


def test_trace_constructor_peaks_under_one_fifth_over_its_copy():
    # no stack of one mask per rule and field
    n = 200_000
    rows = np.column_stack([np.arange(n) * 0.5, np.full((n, 4), 0.5)])
    tracemalloc.start()
    try:
        built = MetricTrace(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == n
    assert peak < 1.2 * rows.nbytes, peak / rows.nbytes


def test_trace_constructor_names_the_bad_row():
    with pytest.raises(TraceError, match="row 2: duplicate timestamp 1.0"):
        PowerTrace([(0.0, 1.0), (1.0, 1.0), (1.0, 2.0)])
    # the earliest row wins over the first check in order: cpu is checked first,
    # but only at row 3
    good = (0.5, 1.0, 1.0, 1.0)
    with pytest.raises(TraceError, match="row 2: duplicate timestamp 1.0"):
        MetricTrace([(0.0, *good), (1.0, *good), (1.0, *good), (2.0, 1.5, 1.0, 1.0, 1.0)])
    # within one row, the first check in order wins
    with pytest.raises(TraceError, match=r"row 2: cpu 1.5 outside \[0, 1\]"):
        MetricTrace([(0.0, *good), (1.0, *good), (1.0, 1.5, 1.0, 1.0, 1.0)])
    assert trace._first_invalid_row(np.empty((0, 5)), MetricSample._fields) is None
    assert len(MetricTrace(np.empty((0, 5)))) == len(PowerTrace([])) == 0
    with pytest.raises(TraceError, match="fields"):
        PowerTrace([(0.0, 1.0, 2.0)])


def test_trace_rows_index_by_integer_only():
    power = PowerTrace([(0, 1), (1, 2), (2, 3)])
    metrics = MetricTrace([(t, 0.5, 1, 1, 1) for t in range(3)])
    assert power[1] == PowerSample(1.0, 2.0)
    assert power[-1] == power[np.int64(2)] == power[np.intp(-1)] == PowerSample(2.0, 3.0)
    assert metrics[-3] == MetricSample(0.0, 0.5, 1.0, 1.0, 1.0)
    for rows in (power, metrics):
        for index in (slice(1, 3), 1.0, np.float64(1.0), [0, 1]):
            with pytest.raises(TypeError):
                rows[index]
        with pytest.raises(IndexError):
            rows[3]


def test_rows_of_the_wrong_width_or_ragged_raise_trace_error():
    # the writers once re-flowed any rows into the header's width
    metric = MetricSample(0.0, 0.5, 1.0, 1.0, 1.0)
    wrong = [
        (format_power, [metric, metric._replace(timestamp=1.0)]),
        (format_metrics, [(float(i), 100.0) for i in range(5)]),
        (format_power, (0.0, 1.0)),
        (format_power, np.empty((0, 5))),
        (MetricTrace, [(0, 0.5, 1, 1, 1), (1, 0.5, 1, 1)]),
        (PowerTrace, [(0, 1), (1,)]),
        (format_power, [(0, 1), (1,)]),
    ]
    for make, rows in wrong:
        with pytest.raises(TraceError, match=r"rows must have the fields \('timestamp', "):
            make(rows)
    assert format_power([]) == POWER_CSV
    assert format_power(np.empty((0, 2))) == POWER_CSV


def test_parse_reports_the_first_fault_before_a_later_unreadable_line():
    text = METRICS_CSV + "0,0.5,1,1,1\n1,1.5,1,1,1\n2,0.5,x,1,1\n"
    with pytest.raises(ParseError, match=r"^line 3: cpu 1.5 outside \[0, 1\]$"):
        parse_metrics(text)
    with pytest.raises(ParseError, match="^line 4: non-numeric value 'x' for mem$"):
        parse_metrics(text.replace("1,1.5", "1,0.5"))
    # within a line, a field that cannot be read comes before a range rule
    with pytest.raises(ParseError, match="^line 3: non-numeric value 'x' for mem$"):
        parse_metrics(METRICS_CSV + "0,0.5,1,1,1\n1,1.5,x,1,1\n")
    # a range rule or the time order of an earlier line comes first
    with pytest.raises(ParseError, match="^line 3: timestamp 3.0 decreases from previous 5.0$"):
        parse_metrics(METRICS_CSV + "5,0.5,1,1,1\n3,0.5,1,1,1\n4,0.5\n")
    with pytest.raises(ParseError, match="^line 2: non-finite value ' Infinity ' for cpu$"):
        parse_metrics(METRICS_CSV + "0, Infinity ,1,1,1\n")
    with pytest.raises(ParseError, match="^line 3: non-numeric value '' for timestamp$"):
        parse_metrics(METRICS_CSV + "0,0.5,1,1,1\n,,,,\n")
    with pytest.raises(ParseError, match="^line 2: expected 2 fields, got 3$"):
        parse_power(POWER_CSV + ",,\n0,100\n")


# ------------------------------------------------------------ round-trip


def test_csv_round_trip_preserves_values():
    rng = random.Random(5)
    metrics = [
        MetricSample(i * 0.1 + rng.random() * 0.01, rng.random(),
                     rng.random() * 4e6, rng.random() * 400, rng.random() * 4e8)
        for i in range(50)
    ]
    power = [PowerSample(i * 0.1, 100.0 + rng.random() * 50) for i in range(50)]
    assert list(parse_metrics(format_metrics(metrics))) == metrics
    assert list(parse_power(format_power(power))) == power


def test_round_trip_awkward_floats():
    # values with no short decimal form still round-trip exactly via repr
    metrics = [MetricSample(0.1 + 0.2, 1.0 / 3.0, 2.0**-40, 0.0, 1e300 * 0.0)]
    assert list(parse_metrics(format_metrics(metrics))) == metrics


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MAGNITUDES = st.sampled_from((0.0, 5e-324, 2.2250738585072e-308, 1e308)) | st.floats(0.0, 1e308)
CPU = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
POWER = st.sampled_from((5e-324, 1e308)) | st.floats(0.0, 1e308, exclude_min=True)


@st.composite
def trace_rows(draw):
    """Rows of (timestamp, cpu, mem, disk, net, power_w) that both traces accept."""
    stamps = sorted(draw(st.lists(FINITE, max_size=20, unique=True)))
    return np.array(
        [(t, draw(CPU), draw(MAGNITUDES), draw(MAGNITUDES), draw(MAGNITUDES), draw(POWER))
         for t in stamps]
    ).reshape(-1, 6)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(trace_rows())
def test_csv_round_trip_is_bit_exact(rows):
    # the contract simulate -> fit relies on: what is written is what is read
    assert same_bits(parse_metrics(format_metrics(rows[:, :5])), rows[:, :5])
    assert same_bits(parse_power(format_power(rows[:, [0, 5]])), rows[:, [0, 5]])


@settings(max_examples=100, deadline=None)
@given(trace_rows(), st.integers(1, 5), st.integers(1, 100))
def test_csv_round_trip_in_blocks_is_bit_exact(rows, write_rows, read_chars):
    # rows written a few at a time and read back a few characters at a time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_WRITE_ROWS", write_rows)
        patch.setattr(trace, "_READ_CHARS", read_chars)
        for columns, write, parse in (([0, 1, 2, 3, 4], format_metrics, parse_metrics),
                                      ([0, 5], format_power, parse_power)):
            out = io.StringIO()
            assert write(rows[:, columns], out) is None
            assert out.getvalue() == write(rows[:, columns])
            out.seek(0)
            assert same_bits(parse(out), rows[:, columns])


@pytest.mark.parametrize("body", ["0,100\n1,200\n", "0,100\n1,-2\n", "0,100\n1,1_0\n"])
def test_parse_from_a_pipe_matches_the_text(body):
    # a pipe cannot seek back, so the slow path and the line lookup read what was read first
    text = POWER_CSV + body
    try:
        want = list(parse_power(text))
    except ParseError as exc:
        want = str(exc)
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode("utf-8"))
    os.close(write_end)
    with open(read_end, encoding="utf-8") as pipe:
        assert not pipe.seekable()
        try:
            got = list(parse_power(pipe))
        except ParseError as exc:
            got = str(exc)
    assert got == want


def test_csv_written_in_blocks_is_one_repr_line_per_row(monkeypatch):
    rows = [(i * 0.1, 0.5, 1.0 / 3.0, 2.0**-40, 1e300) for i in range(10)]
    want = METRICS_CSV + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    monkeypatch.setattr(trace, "_WRITE_ROWS", 3)
    assert format_metrics(rows) == want
    assert format_metrics([]) == METRICS_CSV


def test_file_parse_and_write_hold_under_three_times_the_trace(tmp_path):
    # tracemalloc counts numpy buffers too; holding the file's text, its lines
    # or the whole output string would each cost several times the trace
    n = 200_000
    rng = np.random.default_rng(3)
    rows = np.column_stack([np.arange(n) * 0.5, rng.random(n), rng.random((n, 3)) * 1e6])
    path, copy, padded = (tmp_path / name for name in ("metrics.csv", "copy.csv", "padded.csv"))
    with path.open("w", encoding="utf-8") as out:
        format_metrics(rows, out)
    # one field padded with spaces 10 lines from the end: only its block is read line by line
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[-10] = lines[-10].replace(",", ", ", 1)
    padded.write_text("".join(lines), encoding="utf-8")
    del lines
    tracemalloc.start()
    try:
        with padded.open(encoding="utf-8") as fh:
            parsed_padded = parse_metrics(fh)
        padded_peak = tracemalloc.get_traced_memory()[1]
        del parsed_padded
        tracemalloc.reset_peak()
        with path.open(encoding="utf-8") as fh:
            parsed = parse_metrics(fh)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with copy.open("w", encoding="utf-8") as out:
            format_metrics(parsed, out)
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(parsed, rows)
    with padded.open(encoding="utf-8") as fh:
        assert same_bits(parse_metrics(fh), rows)
    assert copy.read_bytes() == path.read_bytes()
    assert padded_peak < 3 * rows.nbytes, (padded_peak, rows.nbytes)
    assert read_peak < 3 * rows.nbytes, (read_peak, rows.nbytes)
    assert write_peak < 3 * rows.nbytes, (write_peak, rows.nbytes)
    # the trace holds the parser's buffer itself: the peak is that buffer's growth
    assert read_peak < 2 * rows.nbytes, (read_peak, rows.nbytes)


# ------------------------------------------------------------- alignment


def grid_metrics(timestamps):
    return [MetricSample(t, 0.5, 1.0, 1.0, 1.0) for t in timestamps]


def grid_power(timestamps, watts=100.0):
    return [PowerSample(t, watts) for t in timestamps]


def test_align_nearest_neighbor_example():
    trace = align(grid_metrics([0.4, 1.4]), grid_power([0.0, 1.0, 2.0]), 0.5)
    assert len(trace) == 2
    assert trace.source_meta.n_dropped == 0
    # 0.4 is nearest to power at 0.0, 1.4 to power at 1.0


def test_align_pairs_carry_power_values():
    power = [PowerSample(0.0, 100.0), PowerSample(1.0, 200.0), PowerSample(2.0, 300.0)]
    trace = align(grid_metrics([0.4, 1.4]), power, 0.5)
    assert [r.power_w for r in trace.rows] == [100.0, 200.0]


def test_align_out_of_tolerance_raises_with_counts():
    with pytest.raises(AlignmentError) as exc_info:
        align(grid_metrics([5.0]), grid_power([0.0]), 0.5)
    err = exc_info.value
    assert err.n_metrics == 1
    assert err.n_power == 1
    assert err.n_dropped == 1
    with pytest.raises(AlignmentError) as exc_info:
        align(grid_metrics([5.0, 6.0]), [], 0.5)
    assert (exc_info.value.n_power, exc_info.value.n_dropped) == (0, 2)


def test_pair_holds_under_two_bytes_per_metric_row():
    # align walks the metric timestamps in blocks and keeps one count of kept
    # rows per block; the paired rows are found again as they are read
    n = 200_000
    stamps = np.arange(n) * 2.0
    metrics = MetricTrace(np.column_stack([stamps, np.full((n, 4), 0.5)]))
    power = PowerTrace(np.column_stack([stamps[::2] + 0.5, np.arange(n // 2) + 100.0]))
    tracemalloc.start()
    try:
        aligned = trace.align(metrics, power, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, blocks = trace._paired_blocks(aligned, 1024, ("timestamp",))
    blocks = [block for _, block in blocks]
    assert np.concatenate([b.timestamp for b in blocks]).tolist() == stamps[::2].tolist()
    assert np.concatenate([b.power_w for b in blocks]).tolist() == power.power_w.tolist()
    assert aligned.source_meta.n_dropped == n // 2
    assert peak < 2 * n, peak / n


def test_align_identical_grids_is_lossless():
    ts = [float(i) for i in range(20)]
    trace = align(grid_metrics(ts), grid_power(ts), 0.5)
    assert len(trace) == 20
    assert trace.source_meta.n_dropped == 0
    assert [r.timestamp for r in trace.rows] == ts


def test_align_tie_resolves_to_earlier_power_sample():
    power = [PowerSample(0.0, 111.0), PowerSample(1.0, 222.0)]
    trace = align(grid_metrics([0.5]), power, 1.0)
    assert trace.rows[0].power_w == 111.0


def test_align_one_power_sample_serves_many_metrics():
    trace = align(grid_metrics([0.9, 1.0, 1.1]), grid_power([1.0], watts=150.0), 0.2)
    assert len(trace) == 3
    assert all(r.power_w == 150.0 for r in trace.rows)


def test_align_drop_accounting_always_balances():
    rng = random.Random(11)
    for _ in range(20):
        m_ts = sorted(rng.sample(range(1000), 40))
        p_ts = sorted(rng.sample(range(1000), 25))
        try:
            trace = align(
                grid_metrics([float(t) for t in m_ts]),
                grid_power([float(t) for t in p_ts]),
                tolerance_s=3.0,
            )
        except AlignmentError as err:
            assert err.n_dropped == 40
            continue
        assert trace.source_meta.n_dropped + len(trace) == 40


def test_align_permutation_independent():
    rng = random.Random(23)
    m_ts = sorted(rng.sample(range(500), 30))
    p_ts = sorted(rng.sample(range(500), 30))
    metrics = grid_metrics([float(t) for t in m_ts])
    power = [PowerSample(float(t), 100.0 + t) for t in p_ts]
    baseline = align(metrics, power, 5.0)

    shuffled_m, shuffled_p = list(metrics), list(power)
    rng.shuffle(shuffled_m)
    rng.shuffle(shuffled_p)
    shuffled_m.sort(key=lambda s: s.timestamp)
    shuffled_p.sort(key=lambda s: s.timestamp)
    shuffled = align(shuffled_m, shuffled_p, 5.0)
    assert shuffled.rows == baseline.rows
    assert shuffled.source_meta == baseline.source_meta


def test_align_validates_inputs():
    with pytest.raises(TraceError):
        align(grid_metrics([0.0]), grid_power([0.0]), 0.0)
    with pytest.raises(TraceError):
        align(grid_metrics([0.0]), grid_power([0.0]), float("nan"))
    unsorted = [MetricSample(1.0, 0, 0, 0, 0), MetricSample(0.0, 0, 0, 0, 0)]
    with pytest.raises(TraceError, match="decreases"):
        align(unsorted, grid_power([0.0]), 1.0)


def test_default_tolerance_is_half_median_interval():
    metrics = grid_metrics([0.0, 10.0, 20.0, 30.0, 45.0])
    # intervals 10, 10, 10, 15; median 10 -> tolerance 5
    assert default_tolerance(metrics) == 5.0
    with pytest.raises(TraceError):
        default_tolerance(grid_metrics([0.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 101, 1000])
def test_median_matches_statistics_median(n):
    rng = random.Random(n)
    # values spanning many magnitudes, odd and even counts
    scales = [0.1, 1 / 3, 2.5e-7, 1e16, 7.0]
    values = [rng.choice(scales) * rng.uniform(0.5, 2.0) for _ in range(n)]
    assert _median(np.array(values)) == statistics.median(values)
    assert _median(np.array(values)) == float(np.median(values))


def test_median_of_even_length_is_the_halved_sum():
    values = [0.7, 0.1, 9.0, -3.0]
    # (0.1 + 0.7) / 2 and 0.1 + (0.7 - 0.1) / 2 differ in the last bit
    assert _median(np.array(values)) == (0.1 + 0.7) / 2 == statistics.median(values)
