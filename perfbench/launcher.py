"""Small helper process that starts each operation and reports its rusage.

Protocol: one JSON request per stdin line,
  {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
answered by one JSON line on stdout,
  {"exit": code, "wall_s": s, "cpu_s": s, "maxrss_kb": n}.
The process ends when stdin closes.

Why a separate process: the kernel starts a spawned child's `ru_maxrss` at
the spawning process's own peak RSS, so operations started directly from
`run.py` (which holds the reference data) would all report `run.py`'s peak.
This launcher runs without `site` (`python -S`) and imports only what it
needs, so its own peak (about 10 MiB) is below that of any `python -m
gpfq.cli` process.

The launcher pins itself, and so every process it starts, to one CPU, so
that an operation and the calibration process timed next to it (see
calibrate.py) run under the same conditions.
"""

import json
import os
import signal
import sys
from time import perf_counter


def _pin():
    """Pin this process to its lowest allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(request):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = request["argv"]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(request["timeout"]))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = perf_counter() - t0
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main():
    _pin()
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
