"""Allow `python -m wattmodel`; the `wattmodel` console script calls run too."""

import os
import sys


def run() -> None:
    """Run the command line on sys.argv, then end the process at once.

    The commands gain nothing from OpenBLAS's worker thread, whose start
    costs every command 70-80 ms of CPU on 2 vCPUs, so numpy gets one thread
    unless OPENBLAS_NUM_THREADS is already set. The variable works only
    before numpy loads, hence before cli is imported. Flushing stdout is
    part of the command: a flush that fails exits 2 with one line, as a
    failed write in the command does. Then os._exit skips the interpreter
    teardown, about 25 ms once numpy is loaded; cli closes every file it
    opens, so only the standard streams hold buffered output.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import EXIT_DATA, main

    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with no fd 1
            sys.stdout.flush()
    except OSError as exc:
        print(f"wattmodel: data error: {exc}", file=sys.stderr)
        code = EXIT_DATA
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it; the exit code stands
    os._exit(code)


if __name__ == "__main__":
    run()
