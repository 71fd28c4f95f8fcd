"""Small process that starts the benchmark's children and reaps them.

Linux reports a child's peak RSS as at least the RSS of the process it was
forked from, so children are started from this process, which stays near
10 MB, rather than from the benchmark, which holds numpy and parsed triples.

Protocol: one JSON request per line on stdin,
{"argv", "cwd", "env", "timeout", "stdout", "stderr"} (the last two are file
paths), answered by one JSON line on stdout,
{"returncode", "wall_s", "cpu_s", "sys_s", "peak_rss_mb"}.  The process exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=err)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give a
        # running maximum over every child reaped so far.
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sys_s": usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
