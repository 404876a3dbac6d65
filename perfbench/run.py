"""End-to-end benchmark of the wattmodel CLI, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn. Each run generates its own
inputs from the seed (perfbench/gen.py), runs the CLI as a user would, one
child process at a time (a closed loop with one client), and checks every
output (perfbench/check.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures with tracing off. The result line carries:
  setup_s       median of 5 cold starts: fresh copies of the inputs and of
                the package (no bytecode yet), then the session's first
                command (fit)
  pipeline_s    sum over the workload's non-rejecting commands of each
                one's upper-quartile wall time in the run, from launch
                until the child is reaped
  reject_s      the same sum over the three rejecting commands
  fit_rss_mb    median peak RSS of the fit child, from its own rusage
  peak_rss_mb   highest per-command median peak RSS
The lines above it also print each command's upper quartile (<cmd>_s),
fastest time (<cmd>_s.min) and median (<cmd>_s.median), with sample
counts. Passes of the session repeat at least three times, and as long as
the whole run, inputs and cold starts included, stays within --seconds.

--trace 1 runs each command once more in a child of its own through
perfbench/stages.py, untraced and then traced: the untraced child gives the
command's wall and CPU time, the traced child's spans each stage's self time.

Work files live under .perfbench_work/ in the checkout; a run deletes its
inputs and outputs when it ends and keeps its spans and environment in
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
DEFAULT_SECONDS = 60

# Children import a copy of the package and write its bytecode next to it,
# whatever the caller set; stdlib and numpy bytecode is only read.
BYTECODE_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")

# The end-to-end metrics the result line carries. Each command's own time
# is printed and is a per-layer metric (cli.<cmd>.wall_s); it is not held
# to a bound, because on a shared host single commands spread up to 0.28
# over ten runs, wider than the largest bound allowed, while the sums
# stayed within it.
END_TO_END = ("setup_s", "pipeline_s", "reject_s", "fit_rss_mb", "peak_rss_mb")

DATA_COMMANDS = ("fit", "evaluate", "predict", "energy_model", "energy_power")
COMMANDS = DATA_COMMANDS + ("simulate", "cost")
REJECTS = ("reject_cpu", "reject_dup", "reject_rank")
SESSION = COMMANDS + REJECTS

# The commands each workload times end to end: simgen and tariff only on
# day-cli, where start-up is a large share of them. The traced run gives
# every workload the whole session, so every layer is reported on each.
TIMED = {
    "fit-10d": DATA_COMMANDS + REJECTS,
    "day-cli": SESSION,
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, child timed out)."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """The small process that starts every child (see perfbench/launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, cwd: Path) -> Child:
        """Run one child to completion; its rusage is its own (wait4 in the launcher)."""
        out_path, err_path = cwd / ".child.out", cwd / ".child.err"
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher process ended unexpectedly")
        reply = json.loads(reply)
        if reply["timed_out"]:
            raise BenchError(f"child killed after {CHILD_TIMEOUT_S} s: {argv}")
        return Child(
            code=reply["code"],
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            rss_mb=reply["rss_kb"] / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def copy_package(directory: Path) -> Path:
    """Copy src/wattmodel under directory, without bytecode; return the import root."""
    root = directory / "pkg"
    shutil.copytree(ROOT / "src" / "wattmodel", root / "wattmodel",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def cli_args(name: str, workload: gen.Workload, inputs: gen.Inputs, seed: int) -> list[str]:
    """The wattmodel arguments of one session command (paths relative to the run dir)."""
    return {
        "fit": ["fit", "--metrics", "metrics.csv", "--power", "power.csv", "--out", "model.json"],
        "evaluate": ["evaluate", "--model", "model.json", "--metrics", "metrics.csv",
                     "--power", "power.csv"],
        "predict": ["predict", "--model", "model.json", "--metrics", "metrics.csv",
                    "--out", "predicted.csv"],
        "energy_model": ["energy", "--model", "model.json", "--metrics", "metrics.csv"],
        "energy_power": ["energy", "--power", "power.csv"],
        "simulate": ["simulate", "--duration-s", repr(workload.simulate_duration_s),
                     "--interval-s", repr(workload.simulate_interval_s), "--noise-w", "2",
                     "--seed", str(seed), "--out-metrics", "sim_metrics.csv",
                     "--out-power", "sim_power.csv"],
        "cost": ["cost", *inputs.cost.argv()],
        "reject_cpu": ["fit", "--metrics", "bad_cpu_metrics.csv", "--power", "power.csv",
                       "--out", "rejected.json"],
        "reject_dup": ["evaluate", "--model", "model.json", "--metrics", "metrics.csv",
                       "--power", "dup_power.csv"],
        "reject_rank": ["fit", "--metrics", "constant_disk_metrics.csv", "--power", "power.csv",
                        "--out", "rejected.json"],
    }[name]


class Run:
    """One benchmark run of one workload: inputs, children, checks and samples."""

    def __init__(self, workload: gen.Workload, seed: int, trace: bool, launcher: Launcher):
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        tag = f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.dir = WORK_ROOT / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.started = time.perf_counter()
        self.inputs = gen.generate(workload, seed)
        self.inputs.write(self.dir)
        self.generate_s = time.perf_counter() - self.started
        self.ref = self.inputs.reference
        self.package = copy_package(self.dir / "warm")
        self.attempted = 0
        self.failures: list[str] = []
        self.sim_digest: str | None = None

    def env(self, package_root: Path) -> dict:
        """Child environment importing wattmodel from a copy with its own bytecode cache."""
        env = {k: v for k, v in os.environ.items() if k not in BYTECODE_ENV}
        env["PYTHONPATH"] = str(package_root)
        return env

    def argv(self, name: str) -> list[str]:
        return [sys.executable, "-m", "wattmodel", *cli_args(name, self.workload, self.inputs, self.seed)]

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{name}: {problem}")

    def command(self, name: str, cwd: Path | None = None, package: Path | None = None) -> Child:
        cwd = cwd or self.dir
        child = self.launcher.run(self.argv(name), self.env(package or self.package), cwd)
        self.record(name, self.check(name, child, cwd))
        return child

    def check(self, name: str, child: Child, cwd: Path) -> str | None:
        ref = self.ref
        if name == "reject_cpu":
            return check.check_reject(child.code, child.stderr, 2, f"line {ref.bad_cpu_line}:")
        if name == "reject_dup":
            return check.check_reject(child.code, child.stderr, 2, f"line {ref.dup_power_line}:")
        if name == "reject_rank":
            return check.check_reject(child.code, child.stderr, 3, "'disk'")
        problem = check.check_exit(child.code, 0)
        if problem:
            return f"{problem}: {child.stderr.strip()[-200:]!r}"
        if name == "fit":
            return check.check_fit((cwd / "model.json").read_text(encoding="utf-8"), child.stderr, ref)
        if name == "cost":
            return check.check_cost(child.stdout, self.inputs.cost.total_cost())
        if name == "simulate":
            rows = max(2, round(self.workload.simulate_duration_s / self.workload.simulate_interval_s))
            problem, digest = check.simulate_digest(
                (cwd / "sim_metrics.csv").read_bytes(), (cwd / "sim_power.csv").read_bytes(), rows
            )
            return problem or self.same_simulation(digest)
        model = (cwd / "model.json").read_text(encoding="utf-8")
        if name == "evaluate":
            return check.check_evaluate(child.stdout, model, ref)
        if name == "predict":
            return check.check_predict((cwd / "predicted.csv").read_text(encoding="utf-8"), model, ref)
        if name == "energy_model":
            return check.check_energy_model(child.stdout, model, ref)
        return check.check_energy_power(child.stdout, child.stderr, ref)

    def same_simulation(self, digest: str) -> str | None:
        """Every simulate of a run uses one seed, so all must be byte-identical."""
        if self.sim_digest is None:
            self.sim_digest = digest
        elif digest != self.sim_digest:
            return "simulate output differs from an earlier run with the same seed"
        return None

    def cold_fit(self, k: int) -> Child:
        """One cold start: fresh input copies and a package copy with no bytecode yet."""
        cold = self.dir / f"cold{k}"
        package = copy_package(cold)
        for name in ("metrics.csv", "power.csv"):
            shutil.copyfile(self.dir / name, cold / name)
        return self.command("fit", cwd=cold, package=package)

    def import_cli(self) -> Child:
        """Start an interpreter that only imports wattmodel.cli (the first one compiles it)."""
        argv = [sys.executable, "-c", "import wattmodel.cli"]
        return self.launcher.run(argv, self.env(self.package), self.dir)

    def session_pass(self, samples: dict[str, list[Child]]) -> None:
        for name in samples:
            samples[name].append(self.command(name))

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def upper_quartile(values) -> float:
    return float(statistics.quantiles(values, n=4)[2])


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = [run.cold_fit(k).wall_s for k in range(SETUP_REPEATS)]
    run.import_cli()
    timed = TIMED[run.workload.name]
    samples: dict[str, list[Child]] = {name: [] for name in timed}
    # The whole run, inputs and cold starts included, ends within --seconds:
    # a pass starts only if one as long as the median pass so far still fits.
    deadline = run.started + seconds
    pass_s: list[float] = []
    while len(pass_s) < MIN_PASSES or time.perf_counter() + median(pass_s) < deadline:
        start = time.perf_counter()
        run.session_pass(samples)
        pass_s.append(time.perf_counter() - start)
    passes = len(pass_s)
    # On a shared host a command mostly runs 1.4-1.6x slower than its
    # fastest, at a steady level, and only now and then at full speed, for
    # seconds to a minute at a time. How many fast samples a run catches is
    # luck: over five to ten runs, sums of each command's fastest sample
    # spread 0.06-0.30 between quartiles, sums of medians 0.03-0.29, sums of
    # upper quartiles 0.04-0.13. The fastest and median are printed too.
    upper = {name: upper_quartile(c.wall_s for c in samples[name]) for name in timed}
    best = {name: min(c.wall_s for c in samples[name]) for name in timed}
    typical = {name: median(c.wall_s for c in samples[name]) for name in timed}
    rss = {name: median(c.rss_mb for c in samples[name]) for name in timed}
    values = {
        "setup_s": (median(setup), "s", SETUP_REPEATS),
        "pipeline_s": (sum(upper[n] for n in timed if n not in REJECTS), "s", passes),
        **{f"{n}_s": (upper[n], "s", passes) for n in timed},
        "reject_s": (sum(upper[n] for n in REJECTS), "s", passes),
        "fit_rss_mb": (rss["fit"], "MB", passes),
        "peak_rss_mb": (max(rss.values()), "MB", passes),
        **{f"{n}_s.min": (best[n], "s", passes) for n in timed},
        **{f"{n}_s.median": (typical[n], "s", passes) for n in timed},
    }
    extra = {
        "generate_s": run.generate_s,
        "setup_samples_s": setup,
        "pass_s": pass_s,
        "samples": {name: [(c.wall_s, c.rss_mb) for c in v] for name, v in samples.items()},
    }
    return values, extra


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def stage_job(run: Run, name: str, traced: bool) -> tuple[Child, dict]:
    """Run one command in process through perfbench/stages.py; check it like the CLI."""
    job_path = run.dir / f"job-{name}-{int(traced)}.json"
    out_path = run.dir / f"spans-{name}-{int(traced)}.json"
    job = {"argv": cli_args(name, run.workload, run.inputs, run.seed), "trace": traced,
           "out": str(out_path)}
    job_path.write_text(json.dumps(job))
    argv = [sys.executable, str(BENCH_DIR / "stages.py"), str(job_path)]
    child = run.launcher.run(argv, run.env(run.package), run.dir)
    run.record(f"{name} (in process)", run.check(name, child, run.dir))
    return child, json.loads(out_path.read_text(encoding="utf-8"))


# Stages reported per layer. '<stage>.s' is the stage's self time within one
# command, the median over the session's commands that call it;
# '<stage>.reject_s' is the same for calls that raised.
STAGES = (
    "trace.parse_metrics", "trace.parse_power", "trace.default_tolerance", "trace.align",
    "regression.DesignMatrix", "regression.fit_ols", "regression.student_t_sf",
    "powermodel.train", "powermodel.evaluate", "powermodel.predict",
    "powermodel.load_model", "powermodel.save_model",
    "energy.integrate", "energy.integrate_predicted",
    "simgen.generate", "trace.format_metrics", "trace.format_power",
    "tariff.project_cost", "tariff.breakdown",
)
REJECT_STAGES = ("trace.parse_metrics", "trace.parse_power", "regression.fit_ols")


def measure_layers(run: Run) -> tuple[dict, dict]:
    run.import_cli()
    import_s = median(run.import_cli().wall_s for _ in range(IMPORT_REPEATS))

    untraced: dict[str, tuple[Child, dict]] = {}
    traced: dict[str, dict] = {}
    for name in SESSION:
        untraced[name] = stage_job(run, name, traced=False)
        traced[name] = stage_job(run, name, traced=True)[1]

    per_stage: dict[tuple[str, bool], list[float]] = {}
    first_span: dict[str, dict] = {}
    rss_growth: dict[str, list[float]] = {}
    other: dict[str, float] = {}
    for name in SESSION:
        spans = traced[name]["spans"]
        own = self_times(spans)
        other[name] = own[0]  # the cli.main root: time outside every traced stage
        totals: dict[tuple[str, bool], float] = {}
        for span, t in zip(spans[1:], own[1:]):
            key = (span["name"], span["error"] is not None)
            totals[key] = totals.get(key, 0.0) + t
            if span["error"] is None and span["calls"] == 1:
                first_span.setdefault(span["name"], span)
                rss_growth.setdefault(span["name"], []).append(
                    (span["rss_after_kb"] - span["rss_before_kb"]) / 1024.0
                )
        for key, t in totals.items():
            per_stage.setdefault(key, []).append(t)

    def stage(key: str, failed: bool) -> tuple[float, str, int]:
        values = per_stage.get((key, failed), [])
        if not values:
            print(f"perfbench: no span for {key}{' (raised)' if failed else ''}", file=sys.stderr)
        return (median(values) if values else 0.0, "s", len(values))

    def count(key: str, field: str) -> int:
        return int(first_span.get(key, {}).get(field) or 0)

    values: dict[str, tuple[float, str, int]] = {}
    for key in STAGES:
        values[f"{key}.s"] = stage(key, False)
    for key in REJECT_STAGES:
        values[f"{key}.reject_s"] = stage(key, True)
    for key in ("trace.parse_metrics", "trace.parse_power"):
        nbytes = count(key, "bytes_in")
        seconds = values[f"{key}.s"][0]
        values[f"{key}.mb_per_s"] = (nbytes / 1e6 / seconds if seconds else 0.0, "MB/s", 1)
        values[f"{key}.bytes_in"] = (nbytes, "bytes", 1)
        values[f"{key}.rows_out"] = (count(key, "rows_out"), "count", 1)
    for key in ("trace.parse_metrics", "simgen.generate"):
        growth = rss_growth.get(key, [0.0])
        values[f"{key}.rss_mb"] = (median(growth), "MB", len(growth))
    values["simgen.generate.rows_out"] = (count("simgen.generate", "rows_out"), "count", 1)
    rows_in, rows_out = count("trace.align", "rows_in"), count("trace.align", "rows_out")
    values["trace.align.rows_in"] = (rows_in, "count", 1)
    values["trace.align.rows_out"] = (rows_out, "count", 1)
    values["trace.align.rows_dropped"] = (rows_in - rows_out, "count", 1)
    values["cli.import.s"] = (import_s, "s", IMPORT_REPEATS)
    for name in SESSION:
        values[f"cli.{name}.wall_s"] = (untraced[name][0].wall_s, "s", 1)
        values[f"cli.{name}.cpu_s"] = (untraced[name][0].cpu_s, "s", 1)
        values[f"cli.{name}.other_s"] = (other[name], "s", 1)
    values["bench.generate_s"] = (run.generate_s, "s", 1)
    values["bench.untraced_s"] = (sum(r[1]["elapsed_s"] for r in untraced.values()), "s", len(SESSION))
    values["bench.traced_s"] = (sum(r["elapsed_s"] for r in traced.values()), "s", len(SESSION))
    return values, {"spans": {name: traced[name]["spans"] for name in SESSION}}


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    env = environment()
    run = Run(gen.WORKLOADS[name], seed, trace, launcher)
    try:
        if trace:
            values, extra = measure_layers(run)
        else:
            values, extra = measure_end_to_end(run, seconds)
    finally:
        run.close()
    reported = values if trace else {k: values[k] for k in END_TO_END}
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit, _) in reported.items()}
    result = run.result(metrics)

    print(f"# workload {name}  seed {seed}  trace {int(trace)}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"loadavg {env['loadavg'][0]:.2f}")
    print(f"# inputs generated in {run.generate_s:.3f} s (not part of setup_s)")
    for key, (value, unit, n) in values.items():
        print(f"{name:8s} {key:34s} {value:14.6g} {unit:6s} n={n}")
    print(f"{name:8s} {'ops_failed_frac':34s} {len(run.failures) / run.attempted:14.6g} "
          f"ratio  of {run.attempted} commands")
    if trace:
        overhead = values["bench.traced_s"][0] / values["bench.untraced_s"][0] - 1.0
        print(f"# tracing overhead {100 * overhead:+.2f}% of the untraced in-process total")
    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps({"environment": env, "result": result, **extra}, default=float)
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wattmodel" / "cli.py").is_file():
        print(f"perfbench: no wattmodel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(gen.WORKLOADS)
    launcher = Launcher()
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), launcher) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
