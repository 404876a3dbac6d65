"""Start benchmark children from a small process and report their own rusage.

Usage: python perfbench/launcher.py   (driven by perfbench/run.py over stdin)

Linux carries a process's memory high-water mark across fork and exec into
the child's ``ru_maxrss``, so a child started from the benchmark process
itself, which holds the generated inputs, would report at least that much.
This launcher imports nothing heavy, and its children's peak RSS from
``os.wait4`` is their own.

Protocol, one JSON object per line: the request is {"argv", "cwd", "env",
"stdout", "stderr", "timeout_s"}; the reply is {"code", "wall_s", "cpu_s",
"rss_kb", "timed_out"}. End of input ends the launcher.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def launch(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"]
        )
        watchdog = threading.Timer(request["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "timed_out": proc.returncode == -signal.SIGKILL,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
