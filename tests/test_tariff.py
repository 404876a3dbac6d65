"""Cost projection and breakdown report tests."""

import dataclasses
import json
import math

import pytest

from wattmodel import (
    BreakdownReport,
    Tariff,
    TariffError,
    breakdown,
    project_cost,
)
from wattmodel.tariff import MAX_HORIZON_MONTHS
from wattmodel.cli import render_breakdown_text, render_projection_text

OTHER_CATEGORIES = [
    ("Data transfer", 58084.0),
    ("VM hours", 40568.0),
    ("Storage", 2325.0),
    ("Storage I/O", 2293.0),
]


# -------------------------------------------------------------- projection


def test_three_year_escalating_projection():
    projection = project_cost(15.73, Tariff(0.14, 0.15), 36)
    # independent hand roll of the same convention: three full 365-day
    # years, rate growing 15% per year
    expected = math.fsum(
        15.73 * 365.0 * 0.14 * 1.15**k for k in range(3)
    )
    assert projection.total_cost == pytest.approx(expected, rel=1e-12)
    assert projection.total_cost == pytest.approx(2791.2, abs=0.1)
    assert len(projection.yearly) == 3
    assert [y.year_index for y in projection.yearly] == [0, 1, 2]


def test_zero_escalation_equals_flat_multiplication():
    assert project_cost(10.0, Tariff(0.2), 12).total_cost == 10.0 * 365.0 * 0.2
    assert project_cost(10.0, Tariff(0.2), 24).total_cost == 10.0 * 365.0 * 0.2 * 2
    assert project_cost(10.0, Tariff(0.2), 36).total_cost == 10.0 * 365.0 * 0.2 * 3


def test_doubling_tariff_hand_arithmetic():
    projection = project_cost(1.0, Tariff(1.0, 1.0), 24)
    assert projection.total_cost == pytest.approx(365.0 + 730.0, rel=1e-12)


def test_partial_final_year_is_prorated():
    # 18 months = 365 + 182.5 days under the 365/12 day convention
    projection = project_cost(2.0, Tariff(0.1, 0.5), 18)
    assert len(projection.yearly) == 2
    assert projection.yearly[0].kwh == pytest.approx(2.0 * 365.0, rel=1e-12)
    assert projection.yearly[1].kwh == pytest.approx(2.0 * 182.5, rel=1e-12)
    expected = 2.0 * 365.0 * 0.1 + 2.0 * 182.5 * 0.1 * 1.5
    assert projection.total_cost == pytest.approx(expected, rel=1e-12)


def test_one_month_horizon():
    projection = project_cost(1.0, Tariff(1.0, 0.99), 1)
    assert len(projection.yearly) == 1
    assert projection.total_cost == pytest.approx(365.0 / 12.0, rel=1e-12)


def test_rates_form_geometric_sequence():
    projection = project_cost(5.0, Tariff(0.1, 0.07), 60)
    for y in projection.yearly:
        assert y.rate_used == pytest.approx(0.1 * 1.07**y.year_index, rel=1e-12)
    assert projection.total_cost == pytest.approx(
        math.fsum(y.cost for y in projection.yearly), rel=1e-9
    )


def test_projection_monotonicity():
    base = project_cost(10.0, Tariff(0.2, 0.1), 24).total_cost
    assert project_cost(11.0, Tariff(0.2, 0.1), 24).total_cost > base
    assert project_cost(10.0, Tariff(0.25, 0.1), 24).total_cost > base
    assert project_cost(10.0, Tariff(0.2, 0.2), 24).total_cost > base
    assert project_cost(10.0, Tariff(0.2, 0.1), 30).total_cost > base
    # escalation only matters once the horizon crosses into year 1
    within_first_year = project_cost(10.0, Tariff(0.2, 0.0), 12).total_cost
    assert project_cost(10.0, Tariff(0.2, 0.9), 12).total_cost == within_first_year


def test_currency_scale_linearity():
    a = project_cost(3.7, Tariff(0.11, 0.13), 40)
    b = project_cost(3.7, Tariff(0.11 * 4.0, 0.13), 40)
    # powers of two scale float products losslessly
    assert b.total_cost == 4.0 * a.total_cost
    for ya, yb in zip(a.yearly, b.yearly):
        assert yb.cost == 4.0 * ya.cost


def test_projection_validation():
    with pytest.raises(TariffError):
        project_cost(0.0, Tariff(0.14), 12)
    with pytest.raises(TariffError):
        project_cost(-1.0, Tariff(0.14), 12)
    with pytest.raises(TariffError):
        project_cost(10.0, Tariff(0.14), 0)
    with pytest.raises(TariffError):
        Tariff(0.0)
    with pytest.raises(TariffError):
        Tariff(0.14, -0.1)
    with pytest.raises(TariffError):
        Tariff(math.inf)


def test_projection_overflow_is_a_tariff_error():
    # the year-2 rate (1 + 1e200)**2 overflows a float
    with pytest.raises(TariffError, match="year 2"):
        project_cost(10.0, Tariff(0.1, 1e200), 48)
    # each year's cost is finite, their sum is not
    with pytest.raises(TariffError, match="total cost"):
        project_cost(1e305, Tariff(2.0), 48)


def test_projection_underflow_is_a_tariff_error():
    # positive flags whose product underflows: a zero cost would be billed as free
    with pytest.raises(TariffError, match="underflows to zero in year 0"):
        project_cost(1e-320, Tariff(1e-320), 12)
    with pytest.raises(TariffError, match="underflows to zero in year 0"):
        project_cost(1e-200, Tariff(1e-200), 12)
    # a subnormal cost that is not zero is still a cost
    assert project_cost(1e-200, Tariff(1e-110), 12).total_cost > 0.0


def test_horizon_is_capped_at_a_thousand_years():
    # one YearCost per year: an unbounded horizon would grow until memory ran out
    assert MAX_HORIZON_MONTHS == 12_000
    projection = project_cost(1.0, Tariff(0.1), MAX_HORIZON_MONTHS)
    assert len(projection.yearly) == 1000
    with pytest.raises(TariffError, match="horizon_months must be 1..12000, got 12001"):
        project_cost(1.0, Tariff(0.1), 12_001)


# --------------------------------------------------------------- breakdown


def test_breakdown_reproduces_reference_shares():
    report = breakdown(2767.0, OTHER_CATEGORIES)
    assert report.total == 106037.0
    energy = next(c for c in report.categories if c.label == "Energy usage")
    assert energy.percent == pytest.approx(2.6, abs=0.05)
    labels = [c.label for c in report.categories]
    assert labels == ["Data transfer", "VM hours", "Energy usage",
                      "Storage", "Storage I/O"]


def test_breakdown_percents_sum_to_100():
    report = breakdown(2767.0, OTHER_CATEGORIES)
    assert math.fsum(c.percent for c in report.categories) == pytest.approx(
        100.0, abs=0.1
    )


def test_breakdown_single_category_with_zero_energy():
    report = breakdown(0.0, [("VM hours", 500.0)])
    vm = next(c for c in report.categories if c.label == "VM hours")
    assert vm.percent == 100.0
    assert report.total == 500.0


def test_breakdown_energy_only_is_total():
    report = breakdown(1234.5, [])
    assert report.categories[0].label == "Energy usage"
    assert report.categories[0].percent == 100.0


def test_breakdown_equal_categories_split_evenly():
    report = breakdown(0.0, [("A", 50.0), ("B", 50.0)])
    shares = {c.label: c.percent for c in report.categories}
    assert shares["A"] == 50.0
    assert shares["B"] == 50.0


def test_breakdown_sorts_descending_and_keeps_tie_order():
    report = breakdown(10.0, [("Z", 10.0), ("A", 10.0), ("Big", 99.0)])
    assert [c.label for c in report.categories] == ["Big", "Z", "A", "Energy usage"]


def test_breakdown_percent_invariant_under_uniform_scaling():
    a = breakdown(100.0, [("X", 300.0), ("Y", 600.0)])
    b = breakdown(200.0, [("X", 600.0), ("Y", 1200.0)])
    for ca, cb in zip(a.categories, b.categories):
        assert ca.percent == pytest.approx(cb.percent, rel=1e-12)


def test_breakdown_validation():
    with pytest.raises(TariffError):
        breakdown(-1.0, [])
    with pytest.raises(TariffError):
        breakdown(10.0, [("bad", -5.0)])
    with pytest.raises(TariffError, match="zero"):
        breakdown(0.0, [("empty", 0.0)])
    with pytest.raises(TariffError):
        breakdown(math.nan, [])


def test_breakdown_total_overflow_is_a_tariff_error():
    # each cost is finite, their sum is not
    with pytest.raises(TariffError, match="overflows"):
        breakdown(1.0, [("a", 1e308), ("b", 1e308)])


# --------------------------------------------------------------- rendering


def test_projection_render_layout():
    text = render_projection_text(project_cost(15.73, Tariff(0.14, 0.15), 36), "$")
    lines = text.splitlines()
    assert lines[0].startswith("Year")
    assert "Rate ($/kWh)" in lines[0]
    assert lines[-1].startswith("Total")
    assert "2,791.21" in lines[-1]


def test_breakdown_render_layout():
    text = render_breakdown_text(breakdown(2767.0, OTHER_CATEGORIES), "$")
    lines = text.splitlines()
    assert lines[0].startswith("Category")
    assert any("58,084.00" in line for line in lines)
    assert any("2.6%" in line for line in lines)
    assert lines[-1].startswith("Total")
    assert "106,037.00" in lines[-1]


def test_custom_currency_label():
    text = render_projection_text(project_cost(1.0, Tariff(0.2), 12), "EUR")
    assert "Rate (EUR/kWh)" in text


def test_projection_as_dict_round_trips_through_json():
    projection = project_cost(15.73, Tariff(0.14, 0.15), 36)
    doc = json.loads(json.dumps(dataclasses.asdict(projection)))
    assert doc["horizon_months"] == 36
    assert len(doc["yearly"]) == 3
    assert doc["total_cost"] == projection.total_cost


def test_breakdown_as_json_shape():
    doc = dataclasses.asdict(breakdown(2767.0, OTHER_CATEGORIES))["categories"]
    assert [sorted(entry) for entry in doc] == [["cost", "label", "percent"]] * 5
    assert doc[0]["label"] == "Data transfer"


def test_breakdown_report_is_value_like():
    a = breakdown(10.0, [("X", 20.0)])
    b = breakdown(10.0, [("X", 20.0)])
    assert a == b
    assert isinstance(a, BreakdownReport)
