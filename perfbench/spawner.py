"""Start the benchmark's jobs from a small process, and report how each ended.

Usage: python3 -S spawner.py     (run.py starts it; requests come on stdin)

The kernel counts the memory of the process that starts a job into the
job's max-RSS.  The benchmark process holds 20–30 MB, about as much as a
job, so its jobs are started here instead: this process imports nothing
but ``os``, ``sys`` and ``json`` and stays near 8 MB.

Each request is one JSON line ``{"argv", "env", "stdout", "stderr"}``.  The
job runs in this process's working directory with stdin from /dev/null.
The reply is one line with the job's pid, then, once it has ended, one
JSON line ``{"status", "utime", "stime", "maxrss_kb"}``.  The spawner ends
when stdin closes.
"""
import json
import os
import sys


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], create, 0o644),
        ])
        print(pid, flush=True)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"status": status, "utime": usage.ru_utime, "stime": usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
