"""Run one command; report its wall time, exit code and its own peak RSS.

    python3 perfbench/launch.py REPORT.json STDOUT STDERR -- CMD ARGS...

On Linux a child's ``ru_maxrss`` also counts the memory of the process it
was spawned from, because exec records the old address space's high-water
mark.  ``run.py`` holds groups and oracle tables in memory, so it
starts jobs through this small process: the inherited mark is then the
launcher's few megabytes, below any job's own peak.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report, stdout, stderr, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py REPORT.json STDOUT STDERR -- CMD ARGS...")
    # a terminated launcher still kills and reaps its job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "rc": os.waitstatus_to_exitcode(status),
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
