"""Escalating-tariff cost projection and cost-category breakdown reports.

Escalation steps annually: the horizon is split into 365-day years (the
final partial year pro-rated by days) and year k is billed at
rate * (1 + escalation)^k. Costs are kept at full float precision; the CLI
rounds to cents when it renders them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

DAYS_PER_YEAR = 365.0
MONTHS_PER_YEAR = 12

ENERGY_CATEGORY_LABEL = "Energy usage"


class TariffError(ValueError):
    """Invalid tariff parameters or category costs."""


@dataclass(frozen=True)
class Tariff:
    rate_per_kwh: float
    escalation_per_year: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rate_per_kwh) or self.rate_per_kwh <= 0.0:
            raise TariffError(f"rate_per_kwh must be > 0, got {self.rate_per_kwh}")
        if not math.isfinite(self.escalation_per_year) or self.escalation_per_year < 0.0:
            raise TariffError(
                f"escalation_per_year must be >= 0, got {self.escalation_per_year}"
            )


@dataclass(frozen=True)
class YearCost:
    year_index: int
    kwh: float
    rate_used: float
    cost: float


@dataclass(frozen=True)
class CostProjection:
    horizon_months: int
    yearly: tuple[YearCost, ...]
    total_cost: float


@dataclass(frozen=True)
class CategoryShare:
    label: str
    cost: float
    percent: float


@dataclass(frozen=True)
class BreakdownReport:
    categories: tuple[CategoryShare, ...]
    total: float


def project_cost(kwh_per_day: float, tariff: Tariff, horizon_months: int) -> CostProjection:
    """Cost schedule for a constant daily energy demand under the tariff."""
    if not math.isfinite(kwh_per_day) or kwh_per_day <= 0.0:
        raise TariffError(f"kwh_per_day must be > 0, got {kwh_per_day}")
    if horizon_months < 1:
        raise TariffError(f"horizon_months must be >= 1, got {horizon_months}")

    days_left = horizon_months * DAYS_PER_YEAR / MONTHS_PER_YEAR
    yearly: list[YearCost] = []
    year = 0
    while days_left > 0.0:
        days = min(DAYS_PER_YEAR, days_left)
        try:
            rate = tariff.rate_per_kwh * (1.0 + tariff.escalation_per_year) ** year
        except OverflowError:
            rate = math.inf
        kwh = kwh_per_day * days
        cost = kwh * rate
        if not math.isfinite(cost):
            raise TariffError(f"cost overflows in year {year}: rate {rate:.6g} on {kwh:.6g} kWh")
        yearly.append(YearCost(year_index=year, kwh=kwh, rate_used=rate, cost=cost))
        days_left -= days
        year += 1
    try:
        total_cost = math.fsum(y.cost for y in yearly)
    except OverflowError:
        raise TariffError("total cost overflows the float range") from None
    return CostProjection(
        horizon_months=horizon_months,
        yearly=tuple(yearly),
        total_cost=total_cost,
    )


def breakdown(
    energy_cost: float,
    other_categories: Sequence[tuple[str, float]],
) -> BreakdownReport:
    """Append the energy line to the other categories and compute shares.

    Categories come back sorted by descending cost (ties keep input order,
    energy last).
    """
    if not math.isfinite(energy_cost) or energy_cost < 0.0:
        raise TariffError(f"energy cost must be >= 0, got {energy_cost}")
    entries = list(other_categories) + [(ENERGY_CATEGORY_LABEL, energy_cost)]
    for label, cost in entries:
        if not math.isfinite(cost) or cost < 0.0:
            raise TariffError(f"category {label!r} cost must be >= 0, got {cost}")
    total = math.fsum(cost for _, cost in entries)
    if total <= 0.0:
        raise TariffError("all category costs are zero; percentages are undefined")
    entries.sort(key=lambda item: -item[1])
    categories = tuple(
        CategoryShare(label=label, cost=cost, percent=cost / total * 100.0)
        for label, cost in entries
    )
    return BreakdownReport(categories=categories, total=total)
