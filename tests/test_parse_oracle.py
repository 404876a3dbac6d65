"""Differential test: the columnar CSV parser against the line-at-a-time oracle.

Bodies are valid traces with zero or more injected faults. On every body
the two parsers must return the same values, or fail on the same line with
the same message.
"""

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
from wattmodel import ParseError, parse_metrics, parse_power

BAD_TEXT = ("abc", "", "1.2.3", "0x10", "--1", "1e", "nan", "inf", "-inf",
            "Infinity", "1e999", " nan ", "1,5")
FAULTS = ("text", "out_of_range", "negative", "decrease", "duplicate",
          "too_few", "too_many", "blank", "underscore", "pad")


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
    lines = [",".join(row) for row in rows]
    for i in sorted(blanks, reverse=True):
        lines.insert(i, draw(st.sampled_from(("", "   ", "\t"))))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


def assert_same_outcome(parse, oracle, fields, text):
    try:
        want = oracle(text)
    except OracleParseError as expected:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert got.value.line_no == expected.line_no
        assert str(got.value) == str(expected)
    else:
        rows = [tuple(getattr(r, f) for f in fields) for r in parse(text)]
        assert rows == want


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
