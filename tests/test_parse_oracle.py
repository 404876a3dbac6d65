"""Differential test: the columnar CSV parser against the line-at-a-time oracle.

Bodies are valid traces with zero or more injected faults. On every body
the two parsers must return the same values, or fail on the same line with
the same message, whether the parser gets the text, an io.StringIO of it or
the file opened as the CLI opens it, and however small its read blocks are.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    METRICS_FIELDS,
    POWER_FIELDS,
    OracleParseError,
    oracle_parse_metrics,
    oracle_parse_power,
)
from wattmodel import ParseError, parse_metrics, parse_power, trace

BAD_TEXT = ("abc", "", "1.2.3", "0x10", "--1", "1e", "nan", "inf", "-inf",
            "Infinity", "1e999", " nan ", "1,5")
# the line boundaries of str.splitlines() beyond \n, \r and \r\n
BOUNDARIES = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
FAULTS = ("text", "out_of_range", "negative", "decrease", "duplicate",
          "too_few", "too_many", "blank", "underscore", "pad", "boundary")


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def formatted(draw, value):
    style = draw(st.sampled_from(("repr", "g", "fixed", "exp")))
    if style == "repr":
        return repr(value)
    if style == "g":
        return f"{value:.6g}"
    if style == "fixed":
        return f"{value:.2f}"
    return f"{value:.3e}"


@st.composite
def bodies(draw, fields):
    """A CSV body (no header) for fields, possibly with injected faults."""
    n = draw(st.integers(0, 8))
    stamps = sorted(set(draw(st.lists(floats(-1e6, 1e9), min_size=n, max_size=n))))
    rows = []
    for t in stamps:
        values = [t]
        for name in fields[1:]:
            if name == "cpu":
                values.append(draw(floats(0.0, 1.0)))
            elif name == "power_w":
                values.append(draw(floats(1e-3, 1e4)))
            else:
                values.append(draw(floats(0.0, 1e12)))
        rows.append([draw(formatted(v)) for v in values])

    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 99),
                                     st.integers(0, 99)), max_size=3))
    blanks = []
    for kind, i, j in faults:
        if not rows:
            break
        i %= len(rows)
        row = rows[i]
        j %= len(row) if row else 1
        if kind == "text" and row:
            row[j] = draw(st.sampled_from(BAD_TEXT))
        elif kind == "out_of_range" and len(row) > 1:
            row[1] = draw(st.sampled_from(("1.5", "1.0000001", "2", "0", "-0.0", "-1e-300")))
        elif kind == "negative" and len(row) > 1:
            row[max(j, 1) % len(row) or 1] = draw(st.sampled_from(("-1", "-0.5", "-1e-9")))
        elif kind in ("decrease", "duplicate") and i > 0 and row and rows[i - 1]:
            prev = rows[i - 1][0]
            row[0] = prev if kind == "duplicate" else "-5e9"
        elif kind == "too_few" and row:
            row.pop()
        elif kind == "too_many":
            row.append("1")
        elif kind == "blank":
            blanks.append(i)
        elif kind == "underscore" and row:
            row[j] = draw(st.sampled_from(("1_000", "0_1", "1__0")))
        elif kind == "pad" and row:
            row[j] = draw(st.sampled_from((" ", "\t", "  ", "\x1f"))) + row[j] + " "
        elif kind == "boundary" and row:
            row[j] += draw(st.sampled_from(BOUNDARIES))
    lines = [",".join(row) for row in rows]
    for i in sorted(blanks, reverse=True):
        lines.insert(i, draw(st.sampled_from(("", "   ", "\t"))))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


def assert_same_outcome(parse, oracle, fields, text, source=lambda text: text):
    """parse(source(text)) returns what the oracle returns for text, or fails as it fails."""
    try:
        want = oracle(text)
    except OracleParseError as expected:
        with pytest.raises(ParseError) as got:
            parse(source(text))
        assert got.value.line_no == expected.line_no
        assert str(got.value) == str(expected)
    else:
        rows = [tuple(getattr(r, f) for f in fields) for r in parse(source(text))]
        assert rows == want


@pytest.fixture(scope="module")
def opened(tmp_path_factory):
    """A source for assert_same_outcome: text as a UTF-8 file, opened as the CLI opens it.

    Each call closes the file the call before opened.
    """
    path = tmp_path_factory.mktemp("oracle") / "trace.csv"
    files = []

    def source(text):
        while files:
            files.pop().close()
        path.write_bytes(text.encode("utf-8"))
        files.append(path.open(encoding="utf-8"))
        return files[-1]

    yield source
    while files:
        files.pop().close()


def assert_same_outcome_streamed(parse, oracle, fields, text, opened, kind, chars):
    """assert_same_outcome with read blocks of chars characters, from a StringIO or a file."""
    source = io.StringIO if kind == "stringio" else opened
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_READ_CHARS", chars)
        assert_same_outcome(parse, oracle, fields, text, source)


@settings(max_examples=300, deadline=None)
@given(body=bodies(METRICS_FIELDS))
def test_parse_metrics_agrees_with_oracle(body):
    text = ",".join(METRICS_FIELDS) + "\n" + body
    assert_same_outcome(parse_metrics, oracle_parse_metrics, METRICS_FIELDS, text)


@settings(max_examples=300, deadline=None)
@given(body=bodies(POWER_FIELDS))
def test_parse_power_agrees_with_oracle(body):
    text = ",".join(POWER_FIELDS) + "\n" + body
    assert_same_outcome(parse_power, oracle_parse_power, POWER_FIELDS, text)


SOURCES = st.sampled_from(("stringio", "file"))
# down to one character, so that every line, and so every fault, starts a read block
BLOCK_CHARS = st.sampled_from((1, 7, 30)) | st.integers(1, 200)


@settings(max_examples=300, deadline=None)
@given(body=bodies(METRICS_FIELDS), kind=SOURCES, chars=BLOCK_CHARS)
def test_parse_metrics_in_blocks_agrees_with_oracle(opened, body, kind, chars):
    text = ",".join(METRICS_FIELDS) + "\n" + body
    assert_same_outcome_streamed(parse_metrics, oracle_parse_metrics, METRICS_FIELDS, text,
                                 opened, kind, chars)


@settings(max_examples=300, deadline=None)
@given(body=bodies(POWER_FIELDS), kind=SOURCES, chars=BLOCK_CHARS)
def test_parse_power_in_blocks_agrees_with_oracle(opened, body, kind, chars):
    text = ",".join(POWER_FIELDS) + "\n" + body
    assert_same_outcome_streamed(parse_power, oracle_parse_power, POWER_FIELDS, text,
                                 opened, kind, chars)


@pytest.mark.parametrize("kind", ["stringio", "file"])
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda char: f"U+{ord(char):04X}")
def test_unicode_line_boundaries_agree_with_oracle(opened, kind, boundary):
    # a file opened with universal newlines splits only at \n, \r and \r\n; these
    # split a line for str.splitlines(), and so for the oracle, in the header too;
    # the last text has a range fault in a plain block after the boundary's block
    header = ",".join(POWER_FIELDS)
    for text in (f"{header}\n1,2{boundary}3,4\n5,6\n",
                 f"{header}\n1,2\n3,4{boundary}\n5,6{boundary}",
                 f"{header}{boundary}\n1,2\n3,1.5\n3,4\n",
                 f"{header}{boundary}1,2\n3,4\n",
                 f"{header}\n1,2{boundary}\n3,4\n5,6\n7,0\n8,9\n"):
        for chars in (1, 4, 1 << 16):
            assert_same_outcome_streamed(parse_power, oracle_parse_power, POWER_FIELDS, text,
                                         opened, kind, chars)


def test_parse_empty_body_agrees_with_oracle():
    for parse, oracle, fields in ((parse_metrics, oracle_parse_metrics, METRICS_FIELDS),
                                  (parse_power, oracle_parse_power, POWER_FIELDS)):
        for text in (",".join(fields) + "\n", ",".join(fields), ""):
            assert_same_outcome(parse, oracle, fields, text)


def test_unit_separator_padding_agrees_with_oracle():
    # str.strip() removes "\x1f" and float() does not; the pad fault above reaches
    # a line-leading "\x1f" in about one draw of 200, so it is pinned here too
    for body in ("1,2\x1f", "\x1f1,2", "\x1f1,2\x1f\n3,4"):
        text = ",".join(POWER_FIELDS) + "\n" + body
        assert_same_outcome(parse_power, oracle_parse_power, POWER_FIELDS, text)
