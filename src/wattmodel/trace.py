"""Parse, validate, and time-align utilization and power-meter CSV streams.

Metrics CSV:  header ``timestamp,cpu,mem,disk,net`` — cpu is a fraction of
total machine CPU in [0, 1]; mem/disk/net are non-negative magnitudes in
whatever units the collector emitted (the model coefficients absorb units).
Power CSV:    header ``timestamp,power_w`` with wall power in watts (> 0).

Timestamps are decimal seconds (epoch or run-relative); only deltas matter.
Both streams must be strictly increasing in time: duplicate timestamps make
"nearest sample" pairing ambiguous and are rejected.

A trace is held as read-only float64 columns (MetricTrace, PowerTrace).
Each is built from rows by one constructor, which copies them and checks the
rules above once; the parser and simgen hand the array they have just filled
to the trace instead, which checks it as the constructor does and holds it
without a copy. Each field is a column under the field's name, and the trace
still has a length, indexes and iterates as row records (MetricSample,
PowerSample). CSV is read from text or an open text file in one pass, a
block of lines at a time, and written to an open text file a block of rows
at a time.

align pairs each metric sample with its nearest power sample, walking the
metric timestamps in blocks, and keeps only how many rows each block kept;
_paired_blocks reads the paired rows in blocks, pairing those metric blocks
again as it goes. train, evaluate and AlignedTrace.rows read through it.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

__all__ = [
    "AlignedRow",
    "AlignedTrace",
    "AlignmentError",
    "AlignmentMeta",
    "MetricSample",
    "MetricTrace",
    "ParseError",
    "PowerSample",
    "PowerTrace",
    "TraceError",
    "align",
    "default_tolerance",
    "format_metrics",
    "format_power",
    "parse_metrics",
    "parse_power",
]


class TraceError(ValueError):
    """Invalid trace data: malformed CSV, out-of-range field, bad ordering."""


class ParseError(TraceError):
    """CSV parse failure, annotated with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class AlignmentError(TraceError):
    """Alignment produced zero rows; carries the stream and drop counts."""

    def __init__(self, tolerance_s: float, meta: AlignmentMeta):
        super().__init__(
            f"no metric sample found a power sample within {tolerance_s} s "
            f"({meta.n_metrics} metric and {meta.n_power} power samples, "
            f"{meta.n_dropped} dropped)"
        )
        self.n_metrics = meta.n_metrics
        self.n_power = meta.n_power
        self.n_dropped = meta.n_dropped


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


METRICS_HEADER = ",".join(MetricSample._fields)
POWER_HEADER = ",".join(PowerSample._fields)

# The reader asks readlines for about this many characters of lines at a
# time, and the writer renders this many rows at a time. Small read blocks
# keep each block's lines and array from growing the heap that pairing and
# the fit reuse: with 64 KiB blocks fit's peak RSS on 28,800 rows rose.
_READ_CHARS = 1 << 13
_WRITE_ROWS = 4096
# align walks the metric timestamps this many at a time.
_PAIR_ROWS = 4096
# On lines of only these characters, np.loadtxt reads each field as float() does.
_PLAIN_BLOCK = re.compile(r"[0-9.eE+\-,\n]*")


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
    then the ordering against the previous row. Of the rows the checks
    mark, the earliest is reported, with the first check that marks it.
    """
    checks = [(j, lambda v: ~np.isfinite(v), f"non-finite value {{!r}} for {name}")
              for j, name in enumerate(fields)]
    checks += [(fields.index(name), bad, reason) for name, bad, reason in _RULES if name in fields]
    checks += [
        (0, lambda v: np.r_[False, v[1:] < v[:-1]], "timestamp {} decreases from previous {}"),
        (0, lambda v: np.r_[False, v[1:] == v[:-1]], "duplicate timestamp {}"),
    ]
    faults = [(int(marked.argmax()), j, reason) for j, bad, reason in checks
              if (marked := bad(data[:, j])).any()]
    if not faults:
        return None
    row, column, reason = min(faults, key=lambda fault: fault[0])
    previous = data[row - 1, 0].item() if row else None
    return row, reason.format(data[row, column].item(), previous)


def _float_rows(rows, kind: type[_Columns], copy=None) -> np.ndarray:
    """rows as an (n, k) float64 array, k the fields of kind, copied as np.array copies."""
    fields = kind.record._fields
    try:
        data = np.array(rows, dtype=float, copy=copy)
    except ValueError:  # ragged rows, or a field that is not a number
        data = None
    if data is None or (data.shape[1:] != (len(fields),) and data.shape != (0,)):
        raise TraceError(f"{kind.__name__} rows must have the fields {fields}")
    return data.reshape(-1, len(fields))


class _Columns:
    """Rows of one record type, held as read-only float64 columns.

    Built from any array-like of rows (records, tuples, a 2-D array, another
    trace); the rows are copied and checked once. _adopt checks a fresh array
    the same way and holds it without the copy. Each field is a column
    attribute of the same name.
    """

    record: type  # the NamedTuple a row converts to

    def __init__(self, rows=()):
        self._hold(_float_rows(rows, type(self), copy=True))

    @classmethod
    def _adopt(cls, data: np.ndarray):
        """A cls holding the fresh float64 array data itself, checked and frozen as __init__ does.

        For an array that only its maker holds, which must not write to it again.
        """
        trace = cls.__new__(cls)
        trace._hold(_float_rows(data, cls))
        return trace

    def _hold(self, data: np.ndarray) -> None:
        fields = self.record._fields
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
        return self.record._make(self._data[operator.index(index)].tolist())

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


@dataclass(frozen=True, eq=False)
class AlignedTrace:
    """What align returns: the paired rows of metrics and power, found again as they are read.

    kept counts, for each _PAIR_ROWS block of metrics, the samples that find a power sample
    within tolerance_s; the length is their sum, the number of paired rows.
    """

    metrics: MetricTrace
    power: PowerTrace
    tolerance_s: float
    kept: np.ndarray
    source_meta: AlignmentMeta

    def __len__(self) -> int:
        return int(self.kept.sum())

    @property
    def rows(self) -> tuple[AlignedRow, ...]:
        """The paired rows as records, read in one block."""
        _, block = next(_paired_blocks(self, max(1, len(self)), MetricSample._fields)[1])
        columns = (getattr(block, name).tolist() for name in AlignedRow._fields)
        return tuple(map(AlignedRow._make, zip(*columns)))


def _floats(lines: list[str], width: int):
    """Every field of every non-blank line, stripped as _line_fault strips it, by float().

    A field float() rejects reads as NaN, and a line of the wrong width as a
    row of NaNs, which the trace constructor rejects as non-finite.
    """
    for line in lines:
        line = line.strip()
        fields = line.split(",")
        if len(fields) == width:
            for raw in fields:
                try:
                    yield float(raw)
                except ValueError:
                    yield math.nan
        elif line:
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


def _read_rows(source, fields: tuple[str, ...]) -> np.ndarray:
    """The rows under the header of source, read once in blocks of lines; ParseError on the header.

    Lines split as str.splitlines() splits them. A plain block (_PLAIN_BLOCK) with a data line
    goes through np.loadtxt; any other, or one loadtxt rejects or reads at another width,
    through _floats. Each block is copied into one buffer that grows in place.
    """
    header, width = ",".join(fields), len(fields)
    lines = source.readline().splitlines(keepends=True)
    found = lines.pop(0).strip() if lines else "<empty stream>"
    if found != header:
        raise ParseError(1, f"expected header {header!r}, found {found!r}")
    data, n = np.empty((0, width)), 0
    for lines in itertools.chain([lines], iter(lambda: source.readlines(_READ_CHARS), [])):
        text, rows = "".join(lines), None
        if _PLAIN_BLOCK.fullmatch(text) and lines.count("\n") < len(lines):
            try:
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        if rows is None or rows.shape[1] != width:
            rows = np.fromiter(_floats(text.splitlines(), width), float).reshape(-1, width)
        if n + len(rows) > len(data):
            data.resize((max(2 * len(data), n + len(rows)), width), refcheck=False)
        data[n:n + len(rows)] = rows
        n += len(rows)
    data.resize((n, width), refcheck=False)
    return data


def _parse(source, kind: type[_Columns]):
    """Parse CSV text or an open text file into a trace; the first faulty line raises ParseError.

    A second read from the start only names the line of a rejected row or a decode error's offset.
    """
    if not isinstance(source, str) and not source.seekable():
        source = source.read()  # a pipe: the line lookup reads it again
    if isinstance(source, str):  # UTF-8 holds an ASCII character in one byte, io.StringIO in four
        encoded = io.BytesIO(source.encode("utf-8", "surrogatepass"))
        source = io.TextIOWrapper(encoded, "utf-8", "surrogatepass")
    fields = kind.record._fields
    start = source.tell()
    try:
        data = _read_rows(source, fields)
    except UnicodeDecodeError:  # its offset counts from the decoder's last chunk
        source.seek(start)
        source.read()  # raises it again, its offset counted from the file's start
        raise
    try:
        return kind._adopt(data)
    except _RowError as exc:  # blocks end at a line end; lines split as _read_rows splits them
        source.seek(start)
        blocks = iter(lambda: (source.read(_READ_CHARS) + source.readline()).splitlines(), [])
        lines = enumerate(itertools.chain.from_iterable(blocks), start=1)
        numbered = ((no, line) for no, line in lines if no > 1 and line.strip())
        line_no, line = next(itertools.islice(numbered, exc.row, None))
        raise ParseError(line_no, _line_fault(line, fields) or exc.reason) from None


def parse_metrics(source) -> MetricTrace:
    """Parse metrics CSV, given as text or an open text file, verifying order and ranges."""
    return _parse(source, MetricTrace)


def parse_power(source) -> PowerTrace:
    """Parse power CSV, given as text or an open text file, verifying order and positivity."""
    return _parse(source, PowerTrace)


def format_csv(header: str, columns, out=None) -> str | None:
    """Write columns (one 1-D array per header field, all of one length) as CSV under header.

    Rows go to the open text file out, _WRITE_ROWS at a time; without out,
    the CSV is returned as a string. Floats are written with repr, so they
    keep round-trip precision.
    """
    target = io.StringIO() if out is None else out
    target.write(header + "\n")
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        block = (map(repr, column[start:start + _WRITE_ROWS].tolist()) for column in columns)
        target.write("\n".join(map(",".join, zip(*block))))
        target.write("\n")
    return target.getvalue() if out is None else None


def format_metrics(samples, out=None) -> str | None:
    """Write metric samples as metrics CSV to out, or return it without out."""
    return format_csv(METRICS_HEADER, _float_rows(samples, MetricTrace).T, out)


def format_power(samples, out=None) -> str | None:
    """Write power samples as power CSV to out, or return it without out."""
    return format_csv(POWER_HEADER, _float_rows(samples, PowerTrace).T, out)


def default_tolerance(metrics) -> float:
    """Half the median metric sampling interval, the default pairing window."""
    metrics = MetricTrace.of(metrics)
    if len(metrics) < 2:
        raise TraceError("need at least 2 metric samples to derive a tolerance")
    median = median_interval(metrics.timestamp)
    if median / 2.0 == 0.0:
        raise TraceError(f"half the median metric interval {median:.6g} s rounds to 0")
    return median / 2.0


def median_interval(timestamps: np.ndarray) -> float:
    """Exact median interval of 2+ increasing timestamps; TraceError if their span overflows.

    A finite span bounds every interval and the sum of any two, so the median cannot overflow.
    """
    if not math.isfinite(float(timestamps[-1]) - float(timestamps[0])):
        raise TraceError(f"timestamp span {timestamps[0]:.6g} to {timestamps[-1]:.6g} overflows")
    return _median(np.diff(timestamps))


def _median(values: np.ndarray) -> float:
    """Median of a non-empty 1-D array, which it sorts in place; np.median imports numpy.ma."""
    values.sort()
    mid = len(values) // 2
    return float(values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0)


def align(metrics, power, tolerance_s: float) -> AlignedTrace:
    """Pair each metric sample with the nearest power sample within tolerance.

    Either stream may be a trace or a sequence of its records. Metric
    samples with no power sample in range are dropped (and counted); one
    power sample may serve several metric samples. Equidistant candidates
    resolve to the earlier power sample. AlignmentError when no metric
    sample is kept.
    """
    if not (tolerance_s > 0.0) or not math.isfinite(tolerance_s):
        raise TraceError(f"tolerance_s must be a positive number, got {tolerance_s}")
    metrics, power = MetricTrace.of(metrics), PowerTrace.of(power)
    starts = range(0, len(metrics) if len(power) else 0, _PAIR_ROWS)  # no power sample, no pair
    kept = np.array([rows.shape[1] for rows in _pair_rows(metrics, power, tolerance_s, starts)])
    meta = AlignmentMeta(len(metrics), len(power), n_dropped=len(metrics) - int(kept.sum()))
    if not kept.any():
        raise AlignmentError(tolerance_s, meta)
    return AlignedTrace(metrics, power, tolerance_s, kept, meta)


def _pair_rows(metrics, power, tolerance_s: float, starts):
    """Per start: the kept rows of the _PAIR_ROWS metric samples from it, over their power rows."""
    stamps, power_stamps = metrics.timestamp, power.timestamp
    for start in starts:
        block = stamps[start:start + _PAIR_ROWS]
        # first power sample at or after, searched among those within reach of the block
        low, high = np.searchsorted(power_stamps, block[[0, -1]])
        later = np.searchsorted(power_stamps[low:high], block)
        later += low
        earlier = np.maximum(later - 1, 0)
        # before the first or after the last power sample, both neighbours are that sample
        np.minimum(later, len(power) - 1, out=later)
        with np.errstate(over="ignore"):  # a gap past the float range is past any tolerance
            gap = np.abs(block - power_stamps[earlier])
            later_gap = np.abs(power_stamps[later] - block)
        np.copyto(earlier, later, where=later_gap < gap)  # a tie goes to the earlier sample
        np.minimum(gap, later_gap, out=gap)
        rows = np.flatnonzero(gap <= tolerance_s)
        pairs = np.empty((2, len(rows)), dtype=np.intp)  # filled in place: no np.stack temporaries
        np.add(rows, start, out=pairs[0])
        np.take(earlier, rows, out=pairs[1])
        yield pairs


def _taken(pieces, sizes):
    """For each size in sizes, the next size columns of the 2-row arrays pieces, joined."""
    held = np.empty((2, 0), dtype=np.intp)
    for size in sizes:
        while held.shape[1] < size:
            held = np.concatenate((held, next(pieces)), axis=1)
        yield held[:, :size]
        held = held[:, size:]


def _paired_blocks(aligned: AlignedTrace, block_rows: int, fields=MetricSample._fields[1:]):
    """(n, blocks): the n paired rows of aligned in even blocks, none under block_rows unless n is.

    The metric blocks of aligned that kept rows are paired once more as the blocks are read.
    blocks yields (rows, block): the slice of the paired rows, and their columns.
    """
    metrics, power, n = aligned.metrics, aligned.power, len(aligned)
    count = max(1, n // block_rows)
    slices = [slice(n * i // count, n * (i + 1) // count) for i in range(count)]
    starts = np.flatnonzero(aligned.kept) * _PAIR_ROWS
    pieces = _pair_rows(metrics, power, aligned.tolerance_s, starts)
    indices = _taken(pieces, (rows.stop - rows.start for rows in slices))

    def block(rows, m, p):  # fields from metrics at rows m and power_w from power at rows p
        columns = {name: getattr(metrics, name)[m] for name in fields}
        return rows, SimpleNamespace(**columns, power_w=power.power_w[p])

    return n, (block(rows, m, p) for rows, (m, p) in zip(slices, indices))
