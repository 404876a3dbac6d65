"""Command-line pipeline: fit, predict, evaluate, energy, cost, simulate.

Exit codes:
  0  success
  1  usage error (unknown/missing flags, out-of-range flag values)
  2  data or validation error (unreadable files, malformed CSV or model
     JSON, empty alignment, too few rows)
  3  numerical error (rank-deficient design)

Results go to stdout (JSON or CSV when machine output is requested, plain
tables otherwise, never mixed); diagnostics and errors go to stderr. Set
WATT_NO_COLOR to disable table styling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .energy import EnergyError, integrate, integrate_predicted
from .powermodel import (
    ModelFormatError,
    PowerModel,
    evaluate,
    load_model,
    predict,
    save_model,
    train,
)
from .regression import InsufficientDataError, RankDeficiencyError
from .simgen import PROFILES, GroundTruth, SimConfig, SimConfigError, generate
from .tariff import BreakdownReport, CostProjection, Tariff, TariffError, breakdown, project_cost
from .trace import (
    AlignedTrace,
    TraceError,
    align,
    default_tolerance,
    format_csv,
    format_metrics,
    format_power,
    parse_metrics,
    parse_power,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

P_DISPLAY_FLOOR = 2e-16

COEFF_TABLE_ROWS = (
    ("Baseline Power", "alpha"),
    ("CPU", "beta_1"),
    ("Memory", "beta_2"),
    ("Hard Disk", "beta_3"),
    ("Network", "beta_4"),
)


class UsageError(ValueError):
    """A flag value is out of range or flags are combined illegally."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _styling_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("WATT_NO_COLOR")


def _print_table(text: str) -> None:
    if _styling_enabled():
        first, _, rest = text.partition("\n")
        text = f"\033[1m{first}\033[0m\n{rest}"
    print(text)


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _format_p(p: float) -> str:
    return "< 2e-16" if p < P_DISPLAY_FLOOR else f"{p:.6g}"


def _coefficient_table(model: PowerModel) -> str:
    diag = model.diagnostics
    values = (model.alpha, model.beta_cpu, model.beta_mem, model.beta_disk, model.beta_net)
    rows = [
        (name, symbol, f"{value:.6g}", f"{se:.6g}", f"{t:.6g}", _format_p(p))
        for (name, symbol), value, se, t, p in zip(
            COEFF_TABLE_ROWS, values, diag.std_errors, diag.t_stats, diag.p_values
        )
    ]
    return _render_table(("Coefficient", "Symbol", "Value", "Std. error", "t", "p"), rows)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One stderr line per warning, in place of Python's file:line and source echo."""
    print(f"wattmodel: warning: {category.__name__}: {message}", file=sys.stderr)


def _aligned(args) -> AlignedTrace:
    """--metrics paired with --power within --tolerance-s, with diagnostics on stderr.

    Without --tolerance-s the default is derived from the metrics and
    echoed; metric samples left without a power sample are counted.
    """
    metrics = parse_metrics(_read_text(args.metrics))
    power = parse_power(_read_text(args.power))
    tolerance = args.tolerance_s
    if tolerance is None:
        tolerance = default_tolerance(metrics)
        print(f"tolerance_s = {tolerance:.6g} (half the median metric interval)", file=sys.stderr)
    elif not math.isfinite(tolerance) or tolerance <= 0:
        raise UsageError(f"--tolerance-s must be > 0, got {tolerance}")
    aligned = align(metrics, power, tolerance)
    meta = aligned.source_meta
    if meta.n_dropped:
        print(
            f"dropped {meta.n_dropped} of {meta.n_metrics} metric samples "
            f"(no power sample within {tolerance:.6g} s)",
            file=sys.stderr,
        )
    return aligned


def cmd_fit(args) -> int:
    model = train(_aligned(args), hardware_id=args.hardware_id)
    document = save_model(model)
    Path(args.out).write_text(document, encoding="utf-8")
    print(f"model written to {args.out}", file=sys.stderr)
    if args.json:
        print(document, end="")
    else:
        _print_table(_coefficient_table(model))
        d = model.diagnostics
        print(
            f"\nR-squared {d.r_squared:.6g}   residual sigma {d.residual_sigma:.6g} W"
            f"   n {d.n_samples}   df {d.df}"
        )
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(_read_text(args.model))
    metrics = parse_metrics(_read_text(args.metrics))
    if not metrics:
        raise TraceError("metrics file contains no samples")
    rows = np.column_stack([metrics.timestamp, predict(model, metrics)])
    Path(args.out).write_text(format_csv("timestamp,predicted_power_w", rows), encoding="utf-8")
    print(f"{len(metrics)} predictions written to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(_read_text(args.model))
    print(json.dumps(dataclasses.asdict(evaluate(model, _aligned(args))), indent=2))
    return EXIT_OK


def cmd_energy(args) -> int:
    have_power = args.power is not None
    have_model = args.model is not None or args.metrics is not None
    if have_power == have_model:
        raise UsageError("pass either --power, or --model together with --metrics")
    if have_power:
        report = integrate(parse_power(_read_text(args.power)))
    else:
        if args.model is None or args.metrics is None:
            raise UsageError("predicted energy needs both --model and --metrics")
        model = load_model(_read_text(args.model))
        metrics = parse_metrics(_read_text(args.metrics))
        report = integrate_predicted(model, metrics)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK


def _parse_category(raw: str) -> tuple[str, float]:
    label, sep, cost_text = raw.rpartition("=")
    if not sep or not label:
        raise UsageError(f"--category expects label=cost, got {raw!r}")
    try:
        cost = float(cost_text)
    except ValueError:
        raise UsageError(f"--category {raw!r}: cost {cost_text!r} is not a number") from None
    if not math.isfinite(cost) or cost < 0:
        raise UsageError(f"--category {raw!r}: cost must be >= 0")
    return label, cost


def render_projection_text(projection: CostProjection, currency: str) -> str:
    """Year-by-year schedule as an aligned plain-text table."""
    header = ("Year", "kWh", f"Rate ({currency}/kWh)", f"Cost ({currency})")
    rows = [
        (str(y.year_index), f"{y.kwh:,.2f}", f"{y.rate_used:.6g}", f"{y.cost:,.2f}")
        for y in projection.yearly
    ]
    rows.append(("Total", "", "", f"{projection.total_cost:,.2f}"))
    return _render_table(header, rows)


def render_breakdown_text(report: BreakdownReport, currency: str) -> str:
    """Category/cost/percent breakdown as an aligned plain-text table."""
    header = ("Category", f"Cost ({currency})", "Percent")
    rows = [
        (c.label, f"{c.cost:,.2f}", f"{c.percent:.1f}%") for c in report.categories
    ]
    rows.append(("Total", f"{report.total:,.2f}", "100.0%"))
    return _render_table(header, rows)


def cmd_cost(args) -> int:
    if not math.isfinite(args.kwh_per_day) or args.kwh_per_day <= 0:
        raise UsageError(f"--kwh-per-day must be > 0, got {args.kwh_per_day}")
    if not math.isfinite(args.rate) or args.rate <= 0:
        raise UsageError(f"--rate must be > 0, got {args.rate}")
    if not math.isfinite(args.escalation) or args.escalation < 0:
        raise UsageError(f"--escalation must be >= 0, got {args.escalation}")
    if args.months < 1:
        raise UsageError(f"--months must be >= 1, got {args.months}")
    categories = [_parse_category(raw) for raw in args.category]

    tariff = Tariff(rate_per_kwh=args.rate, escalation_per_year=args.escalation)
    projection = project_cost(args.kwh_per_day, tariff, args.months)
    report = breakdown(projection.total_cost, categories)

    if args.json:
        print(
            json.dumps(
                {
                    "projection": dataclasses.asdict(projection),
                    "breakdown": dataclasses.asdict(report)["categories"],
                    "breakdown_total": report.total,
                },
                indent=2,
            )
        )
    else:
        _print_table(render_projection_text(projection, args.currency))
        print()
        _print_table(render_breakdown_text(report, args.currency))
    return EXIT_OK


def describe(config: SimConfig) -> str:
    """Stable human-readable summary of the configuration."""
    t = config.truth
    lines = [
        f"workload profile: {config.workload_profile}",
        f"duration_s:       {config.duration_s!r}",
        f"interval_s:       {config.interval_s!r}",
        f"noise_sigma_w:    {config.noise_sigma_w!r}",
        f"seed:             {config.seed}",
        f"truth alpha:      {t.alpha!r} W baseline",
        f"truth beta_cpu:   {t.beta_cpu!r}",
        f"truth beta_mem:   {t.beta_mem!r}",
        f"truth beta_disk:  {t.beta_disk!r}",
        f"truth beta_net:   {t.beta_net!r}",
    ]
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    truth = GroundTruth(
        alpha=args.alpha,
        beta_cpu=args.beta_cpu,
        beta_mem=args.beta_mem,
        beta_disk=args.beta_disk,
        beta_net=args.beta_net,
    )
    config = SimConfig(
        truth=truth,
        duration_s=args.duration_s,
        interval_s=args.interval_s,
        noise_sigma_w=args.noise_w,
        seed=args.seed,
        workload_profile=args.profile,
    )
    metrics, power = generate(config)
    Path(args.out_metrics).write_text(format_metrics(metrics), encoding="utf-8")
    Path(args.out_power).write_text(format_power(power), encoding="utf-8")
    print(
        f"{len(metrics)} samples written to {args.out_metrics} and {args.out_power}",
        file=sys.stderr,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "out_metrics": args.out_metrics,
                    "out_power": args.out_power,
                    "n_samples": len(metrics),
                    "profile": config.workload_profile,
                    "seed": config.seed,
                },
                indent=2,
            )
        )
    else:
        print(describe(config))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wattmodel",
        description="Train server power models from utilization and meter "
        "traces, predict watts, and project energy cost.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fit", help="fit a power model from metric and power CSVs")
    p.add_argument("--metrics", required=True, help="metrics CSV path")
    p.add_argument("--power", required=True, help="power CSV path")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--tolerance-s", type=float, default=None, dest="tolerance_s",
                   help="pairing window in seconds (default: half the median metric interval)")
    p.add_argument("--hardware-id", default="", help="label for the hardware configuration")
    p.add_argument("--json", action="store_true", help="emit the model JSON on stdout instead of a table")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict power for a metrics CSV")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--metrics", required=True, help="metrics CSV path")
    p.add_argument("--out", required=True, help="output CSV path (timestamp,predicted_power_w)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model against a metered trace")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--metrics", required=True, help="metrics CSV path")
    p.add_argument("--power", required=True, help="power CSV path")
    p.add_argument("--tolerance-s", type=float, default=None, dest="tolerance_s",
                   help="pairing window in seconds (default: half the median metric interval)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("energy", help="integrate power into kWh")
    p.add_argument("--power", help="metered power CSV path")
    p.add_argument("--model", help="model JSON path (predicted energy)")
    p.add_argument("--metrics", help="metrics CSV path (predicted energy)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("cost", help="project energy cost under an escalating tariff")
    p.add_argument("--kwh-per-day", type=float, required=True, dest="kwh_per_day")
    p.add_argument("--rate", type=float, required=True, help="currency per kWh")
    p.add_argument("--escalation", type=float, default=0.0,
                   help="annual rate growth as a fraction (default 0)")
    p.add_argument("--months", type=int, required=True, help="projection horizon in months")
    p.add_argument("--category", action="append", default=[], metavar="LABEL=COST",
                   help="additional cost category; repeatable")
    p.add_argument("--currency", default="$", help="currency label (default $)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("simulate", help="generate a synthetic metric/power trace pair")
    p.add_argument("--profile", choices=PROFILES, default="bursty")
    p.add_argument("--alpha", type=float, default=107.5, help="baseline watts")
    p.add_argument("--beta-cpu", type=float, default=124.9, dest="beta_cpu")
    p.add_argument("--beta-mem", type=float, default=5.471e-06, dest="beta_mem")
    p.add_argument("--beta-disk", type=float, default=3.661e-02, dest="beta_disk")
    p.add_argument("--beta-net", type=float, default=3.382e-08, dest="beta_net")
    p.add_argument("--duration-s", type=float, default=86400.0, dest="duration_s")
    p.add_argument("--interval-s", type=float, default=60.0, dest="interval_s")
    p.add_argument("--noise-w", type=float, default=0.0, dest="noise_w",
                   help="Gaussian noise sigma in watts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-metrics", required=True, dest="out_metrics")
    p.add_argument("--out-power", required=True, dest="out_power")
    p.add_argument("--json", action="store_true", help="emit a JSON summary instead of text")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (UsageError, SimConfigError) as exc:
        print(f"wattmodel: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RankDeficiencyError as exc:
        print(f"wattmodel: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        TraceError,
        ModelFormatError,
        EnergyError,
        TariffError,
        InsufficientDataError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        print(f"wattmodel: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
