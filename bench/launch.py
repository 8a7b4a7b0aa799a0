"""Spawn the benchmark's child processes from a small process.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process it
was spawned from (exec carries the old address space's high-water mark
over), so CLI children spawned straight from the harness, which holds the
generated tables, would report the harness's memory.  This launcher stays
small: it reads one JSON request per line on stdin, runs the command to
completion with stdout to a file, and answers with one JSON line holding
the exit code, the wall time and the ``os.wait4`` rusage.  It exits at
end of input.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list, stdout: str, timeout: float) -> dict:
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        answer = run(request["argv"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
