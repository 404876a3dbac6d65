"""Run one wattmodel CLI command in process, traced or untraced.

Usage: python perfbench/stages.py JOB.json

JOB.json holds {"name": ..., "argv": [...CLI arguments...], "trace": true|false,
"out": "spans.json"}. The child calls ``wattmodel.cli.main(argv)``, so the
command does exactly what the CLI does and writes the same outputs, which
the benchmark checks. When traced, every wattmodel function that ``cli``
imported is wrapped where ``cli`` looks it up, as are the calls
``powermodel.train`` makes (design build, OLS solve, p-values), so each call
records a span: name, start, end, parent span, rows in and out, input bytes
(the length of an ASCII text argument) and peak RSS before and after. The
root span is ``cli.main``; its self time is the command's time outside the
traced stages (argument parsing, file reads, output formatting and writes).

``powermodel.predict`` runs once per row, so its calls are summed into one
span instead of one span each. Spans stay in memory and are written to
"out" when the command ends, with the elapsed time of ``cli.main``. The
child exits with the command's exit code.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from pathlib import Path

# a function called once per row gets one summed span, not one per call
PER_ROW = {"powermodel.predict"}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rows(value) -> int | None:
    if isinstance(value, tuple) and value and not isinstance(value[0], (str, float)):
        value = value[0]  # e.g. the (metrics, power) pair from simgen.generate
    if isinstance(value, (str, bytes)):
        return None
    try:
        return len(value)
    except TypeError:
        return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        first = args[0] if args else None
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rows_in": _rows(first),
            "bytes_in": len(first) if isinstance(first, str) else None,
            "rows_out": None,
            "calls": 1,
            "error": None,
            "rss_before_kb": _peak_rss_kb(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            span["rss_after_kb"] = _peak_rss_kb()
            self._stack.pop()
        span["rows_out"] = _rows(result)
        return result

    def wrap(self, name, fn):
        if name in PER_ROW:
            return self._summed(name, fn)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _summed(self, name, fn):
        span = None

        def traced(*args, **kwargs):
            nonlocal span
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if span is None:
                    span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                            "rows_in": None, "bytes_in": None, "rows_out": None, "calls": 0,
                            "error": None, "rss_before_kb": _peak_rss_kb(),
                            "start": start, "end": start}
                    self.spans.append(span)
                span["calls"] += 1
                span["end"] += end - start
                span["rss_after_kb"] = span["rss_before_kb"]

        return traced

    def install(self, cli, powermodel, regression) -> None:
        """Wrap the wattmodel functions cli calls, and those train calls."""
        for attr, value in vars(cli).copy().items():
            module = getattr(value, "__module__", "") or ""
            if inspect.isfunction(value) and module.startswith("wattmodel.") and module != cli.__name__:
                setattr(cli, attr, self.wrap(f"{module.removeprefix('wattmodel.')}.{attr}", value))
        builder = vars(regression.DesignMatrix).get("from_regressors")
        if isinstance(builder, classmethod):
            regression.DesignMatrix.from_regressors = classmethod(
                self.wrap("regression.DesignMatrix", builder.__func__)
            )
        if inspect.isfunction(getattr(powermodel, "fit_ols", None)):
            powermodel.fit_ols = self.wrap("regression.fit_ols", powermodel.fit_ols)
        if inspect.isfunction(getattr(regression, "student_t_sf", None)):
            regression.student_t_sf = self.wrap("regression.student_t_sf", regression.student_t_sf)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from wattmodel import cli, powermodel, regression

    tracer = Tracer()
    start = time.perf_counter()
    if job["trace"]:
        tracer.install(cli, powermodel, regression)
        code = tracer.call("cli.main", cli.main, job["argv"])
    else:
        code = cli.main(job["argv"])
    elapsed = time.perf_counter() - start
    sys.stdout.flush()
    Path(job["out"]).write_text(
        json.dumps({"elapsed_s": elapsed, "code": code, "spans": tracer.spans}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
