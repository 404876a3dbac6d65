"""Command-line pipeline: fit, predict, evaluate, energy, cost, simulate.

Exit codes:
  0  success
  1  usage error (unknown/missing flags, out-of-range flag values, an output
     that names an input file or the other output)
  2  data or validation error (unreadable files, malformed CSV or model
     JSON, empty alignment, too few rows)
  3  numerical error (rank-deficient design)

Results go to stdout (JSON or CSV when machine output is requested, plain
tables otherwise, never mixed); diagnostics and errors go to stderr. A failed
command leaves stdout empty. Set WATT_NO_COLOR to disable table styling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .energy import EnergyError, GapWarning, integrate, integrate_predicted
from .powermodel import (
    ModelFormatError,
    PowerModel,
    evaluate,
    load_model,
    predict,
    save_model,
    train,
)
from .regression import RankDeficiencyError, RegressionError
from .simgen import PROFILES, FloorWarning, GroundTruth, SimConfig, SimConfigError, generate
from .tariff import MAX_HORIZON_MONTHS
from .tariff import BreakdownReport, CostProjection, Tariff, TariffError, breakdown, project_cost
from .trace import (
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


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_file(parse, path: str):
    """parse (parse_metrics or parse_power) of the file at path, read as _read_text reads it."""
    with Path(path).open(encoding="utf-8") as fh:
        return parse(fh)


def _styling_enabled() -> bool:
    # sys.stdout is None when the process started with no fd 1
    return sys.stdout is not None and sys.stdout.isatty() and not os.environ.get("WATT_NO_COLOR")


def _out(text: str) -> None:
    """The one stdout writer: text in one write, then a flush; nothing without a stdout."""
    if sys.stdout is not None:
        sys.stdout.write(text)
        sys.stdout.flush()


def _err(line: str) -> None:
    """The one stderr writer: one line; nothing without a stderr (no fd 2) or on a failed write."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:  # an unwritable stderr (a full device, say) is treated as a closed one
            pass


def _table(text: str) -> str:
    if _styling_enabled():
        first, _, rest = text.partition("\n")
        text = f"\033[1m{first}\033[0m\n{rest}"
    return text + "\n"


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


def _json(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One stderr line per warning, in place of Python's file:line and source echo."""
    _err(f"wattmodel: warning: {category.__name__}: {message}")


def _check_tolerance(args) -> None:
    """UsageError unless --tolerance-s is absent or positive; checked before any file is read."""
    tolerance = args.tolerance_s
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise UsageError(f"--tolerance-s must be > 0, got {tolerance}")


def _file_key(path: str):
    """The regular file at path, or the one writing to it would make; None for a device or pipe."""
    try:
        found = os.stat(path)
    except OSError:  # not there yet
        return os.path.realpath(path)
    return (found.st_dev, found.st_ino) if stat.S_ISREG(found.st_mode) else None


def _check_outputs(args, outputs, inputs=()) -> None:
    """UsageError if an output flag names the regular file of an input or of another output."""
    named = {}
    for flag in (*inputs, *outputs):
        key = _file_key(getattr(args, flag.replace("-", "_")))
        if key is not None and key in named and flag in outputs:
            raise UsageError(f"--{flag} names the same file as --{named[key]}")
        named.setdefault(key, flag)


def _paired(args):
    """--metrics aligned with --power, its dropped samples counted on stderr.

    Without --tolerance-s the window is derived from the metrics and echoed.
    """
    tolerance = args.tolerance_s
    metrics = _parse_file(parse_metrics, args.metrics)
    power = _parse_file(parse_power, args.power)
    if tolerance is None:
        tolerance = default_tolerance(metrics)
        _err(f"tolerance_s = {tolerance:.6g} (half the median metric interval)")
    aligned = align(metrics, power, tolerance)
    meta = aligned.source_meta
    if meta.n_dropped:
        _err(f"dropped {meta.n_dropped} of {meta.n_metrics} metric samples "
             f"(no power sample within {tolerance:.6g} s)")
    return aligned


def cmd_fit(args) -> str:
    _check_tolerance(args)
    _check_outputs(args, ["out"], ["metrics", "power"])
    model = train(_paired(args), hardware_id=args.hardware_id)
    document = save_model(model)
    Path(args.out).write_text(document, encoding="utf-8")
    _err(f"model written to {args.out}")
    if args.json:
        return document
    d = model.diagnostics
    return _table(_coefficient_table(model)) + (
        f"\nR-squared {d.r_squared:.6g}   residual sigma {d.residual_sigma:.6g} W"
        f"   n {d.n_samples}   df {d.df}\n"
    )


def cmd_predict(args) -> str:
    _check_outputs(args, ["out"], ["model", "metrics"])
    model = load_model(_read_text(args.model))
    metrics = _parse_file(parse_metrics, args.metrics)
    if not metrics:
        raise TraceError("metrics file contains no samples")
    columns = (metrics.timestamp, predict(model, metrics))
    with Path(args.out).open("w", encoding="utf-8") as out:
        format_csv("timestamp,predicted_power_w", columns, out)
    _err(f"{len(metrics)} predictions written to {args.out}")
    return ""


def cmd_evaluate(args) -> str:
    _check_tolerance(args)
    model = load_model(_read_text(args.model))
    return _json(dataclasses.asdict(evaluate(model, _paired(args))))


def cmd_energy(args) -> str:
    have_power = args.power is not None
    have_model = args.model is not None or args.metrics is not None
    if have_power == have_model:
        raise UsageError("pass either --power, or --model together with --metrics")
    if have_power:
        report = integrate(_parse_file(parse_power, args.power))
    else:
        if args.model is None or args.metrics is None:
            raise UsageError("predicted energy needs both --model and --metrics")
        model = load_model(_read_text(args.model))
        metrics = _parse_file(parse_metrics, args.metrics)
        report = integrate_predicted(model, metrics)
    return _json(dataclasses.asdict(report))


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


def cmd_cost(args) -> str:
    if not math.isfinite(args.kwh_per_day) or args.kwh_per_day <= 0:
        raise UsageError(f"--kwh-per-day must be > 0, got {args.kwh_per_day}")
    if not math.isfinite(args.rate) or args.rate <= 0:
        raise UsageError(f"--rate must be > 0, got {args.rate}")
    if not math.isfinite(args.escalation) or args.escalation < 0:
        raise UsageError(f"--escalation must be >= 0, got {args.escalation}")
    if not 1 <= args.months <= MAX_HORIZON_MONTHS:
        raise UsageError(f"--months must be 1..{MAX_HORIZON_MONTHS}, got {args.months}")
    categories = [_parse_category(raw) for raw in args.category]

    tariff = Tariff(rate_per_kwh=args.rate, escalation_per_year=args.escalation)
    projection = project_cost(args.kwh_per_day, tariff, args.months)
    report = breakdown(projection.total_cost, categories)

    if args.json:
        return _json({
            "projection": dataclasses.asdict(projection),
            "breakdown": dataclasses.asdict(report)["categories"],
            "breakdown_total": report.total,
        })
    return (_table(render_projection_text(projection, args.currency)) + "\n"
            + _table(render_breakdown_text(report, args.currency)))


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


def _from_flags(cls, args, **given):
    """A cls dataclass with each field not given taken from the flag of its name."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**given, **flags)


def cmd_simulate(args) -> str:
    _check_outputs(args, ["out-metrics", "out-power"])
    config = _from_flags(SimConfig, args, truth=_from_flags(GroundTruth, args))
    metrics, power = generate(config)
    with Path(args.out_metrics).open("w", encoding="utf-8") as out:
        format_metrics(metrics, out)
    with Path(args.out_power).open("w", encoding="utf-8") as out:
        format_power(power, out)
    _err(f"{len(metrics)} samples written to {args.out_metrics} and {args.out_power}")
    if args.json:
        return _json({
            "out_metrics": args.out_metrics,
            "out_power": args.out_power,
            "n_samples": len(metrics),
            "profile": config.workload_profile,
            "seed": config.seed,
        })
    return describe(config) + "\n"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that writes help through _out, so a failed write of it raises.

    argparse drops the OSError of every write it makes, so help that never reached
    stdout (a full device, say) would exit 0 with nothing said. Help for a missing
    stdout (file None, which argparse would send to stderr) is not written.
    """

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _out(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wattmodel",
        description="Train server power models from utilization and meter "
        "traces, predict watts, and project energy cost.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("fit", help="fit a power model from metric and power CSVs")
    p.add_argument("--metrics", required=True, help="metrics CSV path")
    p.add_argument("--power", required=True, help="power CSV path")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--tolerance-s", type=float, default=None,
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
    p.add_argument("--tolerance-s", type=float, default=None,
                   help="pairing window in seconds (default: half the median metric interval)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("energy", help="integrate power into kWh")
    p.add_argument("--power", help="metered power CSV path")
    p.add_argument("--model", help="model JSON path (predicted energy)")
    p.add_argument("--metrics", help="metrics CSV path (predicted energy)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("cost", help="project energy cost under an escalating tariff")
    p.add_argument("--kwh-per-day", type=float, required=True)
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
    p.add_argument("--profile", choices=PROFILES, default="bursty", dest="workload_profile")
    p.add_argument("--alpha", type=float, default=107.5, help="baseline watts")
    p.add_argument("--beta-cpu", type=float, default=124.9)
    p.add_argument("--beta-mem", type=float, default=5.471e-06)
    p.add_argument("--beta-disk", type=float, default=3.661e-02)
    p.add_argument("--beta-net", type=float, default=3.382e-08)
    p.add_argument("--duration-s", type=float, default=86400.0)
    p.add_argument("--interval-s", type=float, default=60.0)
    p.add_argument("--noise-w", type=float, default=0.0, dest="noise_sigma_w", metavar="NOISE_W",
                   help="Gaussian noise sigma in watts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-metrics", required=True)
    p.add_argument("--out-power", required=True)
    p.add_argument("--json", action="store_true", help="emit a JSON summary instead of text")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            # the tool's own warnings are diagnostics, whatever -W or PYTHONWARNINGS say
            for category in (GapWarning, FloorWarning):
                warnings.simplefilter("default", category)
            _out(args.func(args))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; this tool reserves 2 for data errors
        return EXIT_USAGE if exc.code else EXIT_OK
    except (UsageError, SimConfigError) as exc:
        _err(f"wattmodel: error: {exc}")
        return EXIT_USAGE
    except RankDeficiencyError as exc:
        _err(f"wattmodel: numerical error: {exc}")
        return EXIT_NUMERIC
    except (
        TraceError,
        ModelFormatError,
        EnergyError,
        TariffError,
        RegressionError,
        UnicodeError,
        OSError,
    ) as exc:
        _err(f"wattmodel: data error: {exc}")
        return EXIT_DATA
    return EXIT_OK
