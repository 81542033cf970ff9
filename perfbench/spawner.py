"""Start the benchmark's timed commands from a process that stays small.

On Linux a child's ru_maxrss includes the peak RSS of the process that
forked it, because exec carries the old address space's high-water mark
into the child's accounting. run.py holds outputs and reference data in
memory, so it hands every command to this process instead, and each
command's peak RSS is its own.

Usage: python3 spawner.py TIMEOUT_S
Reads one JSON request per line on stdin, {"argv", "stdout", "stderr"},
runs it to completion (killing it after TIMEOUT_S) and writes one JSON
line to stdout: {"wall_s", "maxrss_kb", "cpu_s", "code"}, wall time
measured from spawn to exit. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout_s = float(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall_s,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": proc.returncode,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
