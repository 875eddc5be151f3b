"""Run one command; print its exit code, wall time, CPU time and peak memory as JSON.

    python spawn.py TIMEOUT_S STDOUT_FILE|- COMMAND...

run.py starts every timed command through this small interpreter.  On
Linux a process's ru_maxrss also counts the peak memory of the process it
was exec'd from, and the benchmark process holds numpy, scipy and the
arrays of its output checks; started from here, a command's peak memory
is its own.  The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(os.devnull if out == "-" else out, "wb") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
