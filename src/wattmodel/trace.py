"""Parse, validate, and time-align utilization and power-meter CSV streams.

Metrics CSV:  header ``timestamp,cpu,mem,disk,net`` — cpu is a fraction of
total machine CPU in [0, 1]; mem/disk/net are non-negative magnitudes in
whatever units the collector emitted (the model coefficients absorb units).
Power CSV:    header ``timestamp,power_w`` with wall power in watts (> 0).

Timestamps are decimal seconds (epoch or run-relative); only deltas matter.
Both streams must be strictly increasing in time: duplicate timestamps make
"nearest sample" pairing ambiguous and are rejected.

A trace is held as read-only float64 columns (MetricTrace, PowerTrace,
AlignedTrace). Each is built from rows by one constructor, which checks the
rules above once; each field is a column under the field's name, and the
trace still has a length, indexes and iterates as row records
(MetricSample, PowerSample, AlignedRow).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

METRICS_HEADER = "timestamp,cpu,mem,disk,net"
POWER_HEADER = "timestamp,power_w"


class TraceError(ValueError):
    """Invalid trace data: malformed CSV, out-of-range field, bad ordering."""


class ParseError(TraceError):
    """CSV parse failure, annotated with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class AlignmentError(TraceError):
    """Alignment produced zero rows; carries the stream and drop counts."""

    def __init__(self, message: str, *, n_metrics: int, n_power: int, n_dropped: int):
        super().__init__(message)
        self.n_metrics = n_metrics
        self.n_power = n_power
        self.n_dropped = n_dropped


class _RowError(TraceError):
    """A row breaks a trace rule; keeps the 0-based row and the reason."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class MetricSample(NamedTuple):
    """One timestamped observation of resource usage."""

    timestamp: float
    cpu: float
    mem: float
    disk: float
    net: float


class PowerSample(NamedTuple):
    """One timestamped wall-power reading in watts."""

    timestamp: float
    power_w: float


class AlignedRow(NamedTuple):
    timestamp: float
    cpu: float
    mem: float
    disk: float
    net: float
    power_w: float


@dataclass(frozen=True, slots=True)
class AlignmentMeta:
    """Input and drop counts from one alignment pass."""

    n_metrics: int
    n_power: int
    n_dropped: int


# Value rules by field, in the order a row's faults are reported:
# (field, mask of the column's bad values, reason taking the value).
_RULES = (
    ("cpu", lambda v: ~((v >= 0.0) & (v <= 1.0)), "cpu {} outside [0, 1]"),
    ("mem", lambda v: v < 0.0, "mem must be >= 0, got {}"),
    ("disk", lambda v: v < 0.0, "disk must be >= 0, got {}"),
    ("net", lambda v: v < 0.0, "net must be >= 0, got {}"),
    ("power_w", lambda v: v <= 0.0, "power_w must be > 0, got {}"),
)


def _first_invalid_row(data: np.ndarray, fields: tuple[str, ...]):
    """(row, reason) for the first row that breaks a rule, else None.

    Within a row, a non-finite field comes first, then the value rules,
    then the ordering against the previous row.
    """
    if not len(data):
        return None
    stamps = data[:, 0]
    checks = [(j, ~np.isfinite(data[:, j]), f"non-finite value {{!r}} for {name}")
              for j, name in enumerate(fields)]
    checks += [(fields.index(name), bad(data[:, fields.index(name)]), reason)
               for name, bad, reason in _RULES if name in fields]
    checks += [
        (0, np.r_[False, stamps[1:] < stamps[:-1]], "timestamp {} decreases from previous {}"),
        (0, np.r_[False, stamps[1:] == stamps[:-1]], "duplicate timestamp {}"),
    ]
    invalid = np.logical_or.reduce([mask for _, mask, _ in checks])
    if not invalid.any():
        return None
    row = int(invalid.argmax())
    column, reason = next((j, reason) for j, mask, reason in checks if mask[row])
    previous = data[row - 1, 0].item() if row else None
    return row, reason.format(data[row, column].item(), previous)


class _Columns:
    """Rows of one record type, held as read-only float64 columns.

    Built from any array-like of rows (records, tuples, a 2-D array, another
    trace); the rows are copied and checked once. Each field is a column
    attribute of the same name.
    """

    record: type  # the NamedTuple a row converts to

    def __init__(self, rows=()):
        fields = self.record._fields
        data = np.array(rows, dtype=float)
        if data.size == 0:
            data = data.reshape(0, len(fields))
        if data.ndim != 2 or data.shape[1] != len(fields):
            raise TraceError(f"{type(self).__name__} rows must have the fields {fields}")
        problem = _first_invalid_row(data, fields)
        if problem:
            raise _RowError(*problem)
        data.flags.writeable = False
        self._data = data
        for name, column in zip(fields, data.T):
            setattr(self, name, column)

    @classmethod
    def of(cls, rows):
        """rows itself if it already is a cls, else cls(rows)."""
        return rows if isinstance(rows, cls) else cls(rows)

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index: int):
        return self.record._make(self._data[index].tolist())

    def __iter__(self):
        return map(self.record._make, self._data.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.array(self._data, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._data, other._data)


class MetricTrace(_Columns):
    """Metric samples as columns timestamp, cpu, mem, disk, net."""

    record = MetricSample


class PowerTrace(_Columns):
    """Power readings as columns timestamp, power_w."""

    record = PowerSample


class AlignedTrace(_Columns):
    """Paired (regressors, power) rows, strictly increasing in time.

    Columns timestamp, cpu, mem, disk, net, power_w.
    """

    record = AlignedRow

    def __init__(self, rows, source_meta: AlignmentMeta):
        super().__init__(rows)
        self.source_meta = source_meta

    @property
    def rows(self) -> tuple[AlignedRow, ...]:
        return tuple(self)

    def __eq__(self, other):
        same = super().__eq__(other)
        return same if same is NotImplemented else same and self.source_meta == other.source_meta


def _floats(lines: list[str], width: int):
    """Every field of every non-blank line, converted by float().

    A field float() rejects reads as NaN, and a line of the wrong width as a
    row of NaNs, which the trace constructor rejects as non-finite.
    """
    for line in lines:
        fields = line.split(",")
        if len(fields) == width:
            for raw in fields:
                try:
                    yield float(raw)
                except ValueError:
                    yield math.nan
        elif line.strip():
            yield from itertools.repeat(math.nan, width)


def _line_fault(line: str, fields: tuple[str, ...]) -> str | None:
    """Why a data line cannot be read (field count, first bad field), or None."""
    raws = line.strip().split(",")
    if len(raws) != len(fields):
        return f"expected {len(fields)} fields, got {len(raws)}"
    for raw, name in zip(raws, fields):
        try:
            value = float(raw)
        except ValueError:
            return f"non-numeric value {raw!r} for {name}"
        if not math.isfinite(value):
            return f"non-finite value {raw!r} for {name}"
    return None


def _data_line(lines: list[str], row: int) -> tuple[int, str]:
    """1-based line number and text of the row-th non-blank data line."""
    numbered = ((no, line) for no, line in enumerate(lines, start=2) if line.strip())
    return next(itertools.islice(numbered, row, None))


def _parse(text: str, kind: type[_Columns]):
    """Parse CSV text into a trace; the first faulty line raises ParseError."""
    fields = kind.record._fields
    header = ",".join(fields)
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty stream>"
        raise ParseError(1, f"expected header {header!r}, found {found!r}")
    body = lines[1:]
    data = np.fromiter(_floats(body, len(fields)), float).reshape(-1, len(fields))
    try:
        return kind(data)
    except _RowError as exc:
        line_no, line = _data_line(body, exc.row)
        raise ParseError(line_no, _line_fault(line, fields) or exc.reason) from None


def parse_metrics(text: str) -> MetricTrace:
    """Parse metrics CSV text, verifying order and ranges."""
    return _parse(text, MetricTrace)


def parse_power(text: str) -> PowerTrace:
    """Parse power CSV text, verifying order and positivity."""
    return _parse(text, PowerTrace)


def format_csv(header: str, rows) -> str:
    """Render rows (a trace or any array-like of rows) as CSV under header.

    Floats are written with repr, so they keep round-trip precision.
    """
    columns = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1).T.tolist()
    lines = map(",".join, zip(*(map(repr, column) for column in columns)))
    return "\n".join([header, *lines]) + "\n"


def format_metrics(samples) -> str:
    """Render metric samples back to metrics CSV."""
    return format_csv(METRICS_HEADER, samples)


def format_power(samples) -> str:
    """Render power samples back to power CSV."""
    return format_csv(POWER_HEADER, samples)


def default_tolerance(metrics) -> float:
    """Half the median metric sampling interval, the default pairing window."""
    metrics = MetricTrace.of(metrics)
    if len(metrics) < 2:
        raise TraceError("need at least 2 metric samples to derive a tolerance")
    return _median(np.diff(metrics.timestamp)) / 2.0


def _median(values: np.ndarray) -> float:
    """Median of a non-empty 1-D array; np.median imports numpy.ma on first use."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def align(metrics, power, tolerance_s: float) -> AlignedTrace:
    """Pair each metric sample with the nearest power sample within tolerance.

    Either stream may be a trace or a sequence of its records. Metric
    samples with no power sample in range are dropped (and counted); one
    power sample may serve several metric samples. Equidistant candidates
    resolve to the earlier power sample.
    """
    if not (tolerance_s > 0.0) or not math.isfinite(tolerance_s):
        raise TraceError(f"tolerance_s must be a positive number, got {tolerance_s}")
    metrics, power = MetricTrace.of(metrics), PowerTrace.of(power)

    stamps = metrics.timestamp
    # power timestamps padded so every metric sample has a neighbour each side
    padded = np.concatenate(([-np.inf], power.timestamp, [np.inf]))
    after = np.searchsorted(power.timestamp, stamps)  # first power sample at or after
    earlier_gap = stamps - padded[after]
    later_gap = padded[after + 1] - stamps
    take_earlier = earlier_gap <= later_gap
    nearest = np.where(take_earlier, after - 1, after)
    keep = np.where(take_earlier, earlier_gap, later_gap) <= tolerance_s

    dropped = len(metrics) - int(keep.sum())
    meta = AlignmentMeta(n_metrics=len(metrics), n_power=len(power), n_dropped=dropped)
    if dropped == len(metrics):
        raise AlignmentError(
            f"no metric sample found a power sample within {tolerance_s} s "
            f"({meta.n_metrics} metric and {meta.n_power} power samples, "
            f"{dropped} dropped)",
            n_metrics=meta.n_metrics,
            n_power=meta.n_power,
            n_dropped=dropped,
        )
    rows = np.column_stack([np.asarray(metrics)[keep], power.power_w[nearest[keep]]])
    return AlignedTrace(rows, source_meta=meta)
