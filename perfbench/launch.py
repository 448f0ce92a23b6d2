"""Run one command; report its wall and CPU time, peak resident set and exit code.

Usage: python3 -S -I perfbench/launch.py OUT_FILE TIMEOUT_S COMMAND ARG...

The command's stdout goes to OUT_FILE and its stderr to OUT_FILE.err.  One
JSON object is printed: ``{"wall_s": ..., "cpu_s": ..., "rss_mb": ...,
"code": ...}``, where ``code`` is null if the command was killed after
TIMEOUT_S seconds.  Wall time runs from spawn to exit.  CPU time (user plus
system) and the peak resident set are the command's own, from its rusage as
``wait4`` returns it.

Linux records the spawning process's high-water resident set in the child
at exec, so ``ru_maxrss`` is at least the spawner's peak.  The benchmark
therefore spawns each task from this small, fresh interpreter (``-S -I``:
no site packages), never from itself.  On SIGTERM the command is killed
and reaped before this process exits.
"""

import json
import os
import select
import signal
import sys
import time


def main() -> int:
    out_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    reaped = False
    pidfd = os.pidfd_open(pid)
    try:
        exited = select.select([pidfd], [], [], timeout)[0]
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reaped = True
    finally:
        os.close(pidfd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status) if exited else None
    cpu = usage.ru_utime + usage.ru_stime
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "rss_mb": usage.ru_maxrss / 1024,
                      "code": code}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
