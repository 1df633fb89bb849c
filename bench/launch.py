"""Run one command and report its exit code, wall time and peak RSS.

    python3 bench/launch.py REPORT TIMEOUT_S COMMAND [ARG ...]

Writes {"code", "wall_s", "maxrss_kib"} as JSON to REPORT.  A process's
ru_maxrss also counts the memory of the process that forked it, so the
benchmark starts commands from this small process rather than from itself.
The command inherits stdout and stderr and is killed after TIMEOUT_S.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w") as fh:
        json.dump({"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}, fh)


if __name__ == "__main__":
    main()
