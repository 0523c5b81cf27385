"""Start and time the commands of bench/run.py from a small process.

    python3 bench/launch.py

Reads one JSON request per line on stdin,
``{"argv": [...], "stdout": PATH or null, "stderr": PATH}``, runs the command
to completion, and answers with one JSON line: ``wall_s``, ``cpu_s`` (user +
sys), ``rss_mb`` (peak RSS, MiB) from ``wait4``, and ``code``.  Exits at end
of input.

A child's ``ru_maxrss`` starts at its parent's peak RSS, because the kernel
records the parent's memory when the child execs.  bench/run.py holds the
generated inputs and the oracle answers, so it starts this launcher first,
while it is small, and has it start every measured command.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        out = open(request["stdout"], "w") if request["stdout"] else subprocess.DEVNULL
        try:
            with open(request["stderr"], "w") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
        finally:
            if request["stdout"]:
                out.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": code,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
