"""Start commands one at a time and report each one's wall time and rusage.

A child started by posix_spawn (or fork) reports its parent's peak RSS as a
floor of its own ``ru_maxrss``. The benchmark holds large references, so it
starts this small process first and lets it start every timed command.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line ``{"wall_s", "user_s", "sys_s", "maxrss_kb",
"exit", "timed_out"}``. End of input ends the process.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    """Run one command; wall time runs from spawn to the return of os.wait4."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, write, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return {
        "wall_s": wall,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
