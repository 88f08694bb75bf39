"""Spawn commands one at a time and report each one's wall time, CPU time and peak RSS.

The benchmark runs this as its own small process (`python3 -I -S launcher.py`).
On Linux the `ru_maxrss` that `os.wait4` reports for a child also covers the
memory of the process that spawned it, because the child shares that
process's memory until it execs.  Spawning from a process whose own high-water
mark stays below every child's keeps the reading the child's own.

Protocol, one JSON object per line:
  stdin   {"cmds": [{"argv": [...], "stdout": path, "stderr": path}, ...]}
  stdout  {"wall_s": first spawn to last exit, "maxrss_kb": own peak,
           "cmds": [{"rc", "wall_s", "cpu_s", "maxrss_kb"}, ...]}
The commands of one request run in order, each spawned after the previous
one exits.  End of input ends the launcher.
"""

import json
import os
import resource
import sys
import time

_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(argv, stdout, stderr):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, _OUT_FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, _OUT_FLAGS, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        results = [run(c["argv"], c["stdout"], c["stderr"]) for c in request["cmds"]]
        reply = {"wall_s": time.perf_counter() - start,
                 "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 "cmds": results}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
