"""The package and the process around the CLI: lazy exports, BLAS threads, exit path, streams."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wattmodel
from wattmodel import energy, powermodel, regression, simgen, tariff, trace
from wattmodel.cli import main

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
GOLDEN_MODEL = Path(__file__).parent / "golden" / "model.json"


def child_env(**given):
    """This environment with buffered standard streams and no BLAS thread setting."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    return dict(env, PYTHONPATH=str(Path(wattmodel.__file__).parents[1]), **given)


def test_import_wattmodel_loads_no_numpy_and_sets_nothing():
    code = ("import os, sys, wattmodel\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "from wattmodel import *\n"
            "print(len(wattmodel.__all__), parse_power.__module__, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert done.stdout == "False None\n52 wattmodel.trace True\n", done.stderr


def test_package_exports_the_union_of_its_modules_all():
    names = [name for module in (energy, powermodel, regression, simgen, tariff, trace)
             for name in module.__all__]
    assert len(names) == 52
    assert wattmodel.__all__ == names
    namespace = {}
    exec("from wattmodel import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(wattmodel, name) for name in names}
    assert set(names) <= set(dir(wattmodel))
    assert wattmodel.trace.parse_power is wattmodel.parse_power
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wattmodel.no_such_name


# Runs `python -m wattmodel` with os._exit replaced by a recorder, which prints
# the exit code, the process's thread count with numpy loaded, and the setting.
THREADS_PROBE = """
import os, runpy, sys

def record(code):
    import numpy
    with open("/proc/self/status") as status:
        threads = next(line for line in status if line.startswith("Threads:")).split()[1]
    print(code, threads, os.environ.get("OPENBLAS_NUM_THREADS"))

os._exit = record
sys.argv = ["wattmodel", "cost", "--kwh-per-day", "1", "--rate", "0.1", "--months", "1"]
runpy.run_module("wattmodel", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="reads /proc/self/status; OpenBLAS starts a worker per extra CPU")
@pytest.mark.parametrize("given, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_module_entry_gives_numpy_one_blas_thread_unless_set(given, threads):
    done = subprocess.run([sys.executable, "-c", THREADS_PROBE], capture_output=True, text=True,
                          env=child_env(**given))
    assert done.stdout.splitlines()[-1] == f"0 {threads} {threads}", done.stderr


def test_console_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wattmodel"]
    module, _, name = target.partition(":")
    entry = importlib.import_module("wattmodel.__main__")  # runs nothing when imported
    assert getattr(importlib.import_module(module), name) is entry.run


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """A 4,000-row bursty pair, its constant-load twin (rank deficient) and a model path."""
    folder = tmp_path_factory.mktemp("entry")
    paths = {name: str(folder / f"{name}.csv") for name in ("m", "p", "flat_m", "flat_p")}
    for profile, m, p in (("bursty", "m", "p"), ("constant", "flat_m", "flat_p")):
        assert main(["simulate", "--profile", profile, "--duration-s", "240000",
                     "--interval-s", "60", "--noise-w", "2",
                     "--out-metrics", paths[m], "--out-power", paths[p]]) == 0
    paths["model"] = str(folder / "model.json")
    paths["missing"] = str(folder / "missing.csv")
    return paths


# What each stderr mode does to the child's fd 2 once it is piped: nothing, close it,
# or point it at a device where every write fails
STDERR_MODES = {
    "piped": None,
    "closed": lambda: os.close(2),
    "full": lambda: os.dup2(os.open("/dev/full", os.O_WRONLY), 2),
}


@pytest.fixture(scope="module")
def module_run():
    """`python -m wattmodel` on argv with stderr in one of STDERR_MODES.

    Each distinct run is made once in the module, and the tests that ask for it share it.
    """
    done = {}

    def run(argv, stderr="piped"):
        key = (tuple(argv), stderr)
        if key not in done:
            done[key] = subprocess.run(
                [sys.executable, "-m", "wattmodel", *argv], capture_output=True,
                env=child_env(), preexec_fn=STDERR_MODES[stderr])
        return done[key]

    return run


COMMANDS = {
    "help": (0, ["--help"]),
    "fit": (0, ["fit", "--metrics", "{m}", "--power", "{p}", "--out", "{model}"]),
    "predict_to_stdout": (0, ["predict", "--model", str(GOLDEN_MODEL), "--metrics", "{m}",
                              "--out", "/dev/stdout"]),
    "cost_1000_years": (0, ["cost", "--kwh-per-day", "15.73", "--rate", "0.14",
                            "--escalation", "0.01", "--months", "12000", "--json"]),
    "usage": (1, ["fit", "--metrics", "{m}", "--power", "{p}", "--out", "{model}",
                  "--tolerance-s", "nan"]),
    "data": (2, ["energy", "--power", "{missing}"]),
    "numeric": (3, ["fit", "--metrics", "{flat_m}", "--power", "{flat_p}", "--out", "{model}"]),
}


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="predict writes to /dev/stdout")
@pytest.mark.parametrize("command", COMMANDS)
def test_module_entry_writes_what_main_writes(command, traces, module_run, capfdbinary):
    expected_code, argv = COMMANDS[command]
    argv = [arg.format(**traces) for arg in argv]
    assert main(argv) == expected_code
    out, err = capfdbinary.readouterr()
    done = module_run(argv)
    assert (done.returncode, done.stdout, done.stderr) == (expected_code, out, err)
    if command in ("predict_to_stdout", "cost_1000_years"):
        assert len(out) > 64 * 1024  # more than a pipe holds, so a lost buffer shows


# fit --json and simulate --json as well: their diagnostics precede the JSON
WITH_JSON = dict(
    COMMANDS,
    fit_json=(0, [*COMMANDS["fit"][1], "--json"]),
    simulate_json=(0, ["simulate", "--duration-s", "6000", "--out-metrics", os.devnull,
                       "--out-power", os.devnull, "--json"]),
)
CREATED_AT = re.compile(rb'"created_at": [^,\n]+')  # the one field that differs between fits


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="predict writes to /dev/stdout")
@pytest.mark.parametrize("command", WITH_JSON)
def test_closed_stderr_changes_nothing_on_stdout(command, traces, module_run):
    # with fd 2 closed sys.stderr is None, and print(..., file=None) would write to stdout;
    # on /dev/full every stderr write raises, and a stderr that cannot be written is a closed one
    expected_code, argv = WITH_JSON[command]
    argv = [arg.format(**traces) for arg in argv]
    piped = module_run(argv)
    assert piped.returncode == expected_code
    for mode in ("closed", "full") if os.path.exists("/dev/full") else ("closed",):
        ended = module_run(argv, stderr=mode)
        assert (ended.returncode, CREATED_AT.sub(b"", ended.stdout), ended.stderr) == (
            expected_code, CREATED_AT.sub(b"", piped.stdout), b""), mode


def test_only_out_and_err_write_the_standard_streams():
    # one writer per stream: cli._out writes results, cli._err diagnostics; a print or a
    # sys.stdout/sys.stderr write or flush anywhere else could mix the two streams
    writers, found = [], []
    for path in sorted(Path(wattmodel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = set()
        for node in tree.body:
            if (path.name == "cli.py" and isinstance(node, ast.FunctionDef)
                    and node.name in ("_out", "_err")):
                writers.append(node.name)
                allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if id(node) in allowed or not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "print") or (
                    isinstance(func, ast.Attribute) and func.attr in ("write", "flush")
                    and ast.unparse(func.value) in ("sys.stdout", "sys.stderr")):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    assert writers == ["_out", "_err"]


def test_stdout_that_cannot_be_flushed_is_a_data_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "wattmodel", "cost", "--kwh-per-day", "1", "--rate", "0.1",
             "--months", "12"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env())
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == b"wattmodel: data error: [Errno 32] Broken pipe\n"


def test_closed_stdout_ends_as_at_exit(traces):
    # with fd 1 closed sys.stdout is None, and print writes nothing
    done = subprocess.run(
        [sys.executable, "-m", "wattmodel", "energy", "--power", traces["p"]],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=child_env(), preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.parametrize("command", ["cost", "fit"])
def test_closed_stdout_ends_a_table_command_as_at_exit(command, traces):
    # a table asks sys.stdout whether it is a terminal, and with fd 1 closed it is None
    argv = {"cost": ["cost", "--kwh-per-day", "1", "--rate", "0.1", "--months", "12"],
            "fit": ["fit", "--metrics", traces["m"], "--power", traces["p"],
                    "--out", traces["model"]]}[command]
    ends = [subprocess.run(
        [sys.executable, "-m", "wattmodel", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=child_env(), preexec_fn=close) for close in (None, lambda: os.close(1))]
    assert [(done.returncode, done.stderr) for done in ends] == [(0, ends[0].stderr)] * 2


def test_closed_stdout_drops_help_but_not_a_usage_error():
    # with fd 1 closed argparse would send help, meant for stdout, to stderr
    ends = [subprocess.run(
        [sys.executable, "-m", "wattmodel", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=child_env(), preexec_fn=lambda: os.close(1)) for argv in (["--help"], ["fit"])]
    assert (ends[0].returncode, ends[0].stderr) == (0, b"")
    assert ends[1].returncode == 1
    assert ends[1].stderr.startswith(b"usage: wattmodel fit [-h] --metrics METRICS")
    assert ends[1].stderr.endswith(b"error: the following arguments are required: "
                                   b"--metrics, --power, --out\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("given", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
def test_help_to_a_full_device_is_a_data_error(given):
    # buffered, the write fails at the last flush; unbuffered, in argparse, which drops the error
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "wattmodel", "--help"],
                              stdout=full, stderr=subprocess.PIPE, env=child_env(**given))
    assert done.returncode == 2
    assert done.stderr == b"wattmodel: data error: [Errno 28] No space left on device\n"
