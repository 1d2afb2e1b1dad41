"""Starts the benchmark's CLI processes on behalf of run.py.

    python3 perfbench/spawner.py     (started by run.Runner, not by hand)

A process exec'd from a posix_spawn child inherits, in its ru_maxrss, the
peak RSS of the process that spawned it.  Spawned straight from run.py,
every CLI process would report at least run.py's own peak, which is larger
than the CLI's.  This helper imports almost nothing, so the floor it leaves
in its children's ru_maxrss is below any CLI process's own peak.

Protocol, one JSON object per line: run.py writes {"args", "out", "err"};
the helper starts `python <args>` in a process group of its own, with
stdout and stderr to the two files, writes {"pid"}, waits for it and writes
{"status", "wall", "cpu", "maxrss_kb"}.  It exits at end of input.
"""

import json
import os
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable, [sys.executable] + req["args"], os.environ,
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                              (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
                setpgroup=0)
        print(json.dumps({"pid": pid}), flush=True)
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        print(json.dumps({"status": status, "wall": wall,
                          "cpu": ru.ru_utime + ru.ru_stime,
                          "maxrss_kb": ru.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
