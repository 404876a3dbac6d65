"""Allow `python -m wattmodel`; the `wattmodel` console script calls run too."""

import os


def run() -> None:
    """Run the command line on sys.argv, then end the process at once.

    The commands gain nothing from OpenBLAS's worker thread, whose start
    costs every command 70-80 ms of CPU on 2 vCPUs, so numpy gets one thread
    unless OPENBLAS_NUM_THREADS is already set. The variable works only
    before numpy loads, hence before cli is imported. Then os._exit skips the
    interpreter teardown, about 25 ms once numpy is loaded; cli closes every
    file it opens, main flushes stdout after its one write, and every stderr
    line flushes itself, so no buffered output is left behind.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    os._exit(main())


if __name__ == "__main__":
    run()
