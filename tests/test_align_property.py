"""Property test: `align` against a brute-force nearest-sample search.

Timestamps are multiples of 0.5 s (plus an optional epoch-sized offset), so
every difference is exact in float64 and a metric stamp halfway between two
power stamps is a true tie. A few stamps lie near either end of the float
range, so their distances to the others overflow to infinity, past any
tolerance. The reference scans every power sample: the smallest distance
wins, a tie goes to the earlier power sample, and a row is kept when its
distance is at most the tolerance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattmodel import AlignmentError, MetricSample, PowerSample, align
from wattmodel import trace as trace_module
from wattmodel.trace import _paired_blocks


@st.composite
def streams(draw):
    offset = draw(st.sampled_from((0.0, 1.7e9)))
    ticks = sorted(draw(st.lists(st.integers(-500, 500), min_size=1, max_size=30, unique=True)))
    stamps = {offset + h / 2 for h in draw(st.lists(st.integers(-1100, 1100), max_size=30))}
    if len(ticks) > 1:
        # metric stamps exactly halfway between two neighbouring power stamps
        picks = draw(st.lists(st.integers(0, len(ticks) - 2), max_size=10))
        stamps.update(offset + (ticks[i] + ticks[i + 1]) / 2 for i in picks)
    if not stamps:
        stamps.add(offset)
    # stamps near either end of the float range; a meter with only those
    # leaves neighbours whose distance overflows
    far = st.sets(st.sampled_from((-1.7e308, -1e308, 1e308, 1.7e308)), max_size=2)
    stamps.update(draw(far))
    power_ts = draw(far)
    if not power_ts or draw(st.integers(0, 3)):
        power_ts.update(offset + t for t in ticks)
    tolerance = draw(st.integers(1, 40)) / 4
    return sorted(stamps), sorted(power_ts), tolerance


def brute_force_align(metric_ts, power_ts, watts, tolerance):
    """(timestamp, power_w) of each kept metric stamp."""
    kept = []
    for m in metric_ts:
        best = min(range(len(power_ts)), key=lambda i: (abs(m - power_ts[i]), i))
        if abs(m - power_ts[best]) <= tolerance:
            kept.append((m, watts[best]))
    return kept


def check_align_against_brute_force(case, block_rows=None):
    """align against the reference, its rows read as records or, given block_rows, in such blocks."""
    metric_ts, power_ts, tolerance = case
    watts = [100.0 + i for i in range(len(power_ts))]
    metrics = [MetricSample(t, 0.5, 1.0, 1.0, 1.0) for t in metric_ts]
    power = [PowerSample(t, w) for t, w in zip(power_ts, watts)]
    expected = brute_force_align(metric_ts, power_ts, watts, tolerance)

    if not expected:
        with pytest.raises(AlignmentError) as exc_info:
            align(metrics, power, tolerance)
        assert exc_info.value.n_dropped == len(metric_ts)
        return
    trace = align(metrics, power, tolerance)
    if block_rows is None:
        got = [(row.timestamp, row.power_w) for row in trace.rows]
    else:
        blocks = _paired_blocks(trace, block_rows)
        got = [pair for _, b in blocks for pair in zip(b.timestamp.tolist(), b.power_w.tolist())]
    assert got == expected
    assert trace.source_meta.n_metrics == len(metric_ts)
    assert trace.source_meta.n_power == len(power_ts)
    assert trace.source_meta.n_dropped == len(metric_ts) - len(expected)


@settings(max_examples=300, deadline=None)
@given(streams())
def test_align_matches_brute_force_nearest_search(case):
    check_align_against_brute_force(case)


@pytest.mark.parametrize("block_rows", [1, 2])
@settings(max_examples=300, deadline=None)
@given(case=streams())
def test_align_matches_brute_force_across_block_seams(block_rows, case):
    # train and evaluate read the pairs in blocks of at least BLOCK_ROWS (1,024),
    # so at that size every example here is one block; smaller blocks check the seams
    check_align_against_brute_force(case, block_rows)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@settings(max_examples=300, deadline=None)
@given(case=streams())
def test_align_matches_brute_force_across_pairing_blocks(block_rows, case):
    # _pair_rows walks the metric stamps trace._PAIR_ROWS (4,096) at a time, and
    # the blocks read back join the kept rows of many smaller blocks: their seams
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "_PAIR_ROWS", block_rows)
        check_align_against_brute_force(case)
