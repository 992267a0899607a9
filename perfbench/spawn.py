"""Run one command; print its wall time, exit code and resource usage as JSON.

The benchmark starts every measured child through this small process. On
Linux a process's peak RSS (ru_maxrss) starts at its parent's RSS when it is
forked, and exec keeps it, so a child started straight from the benchmark,
which holds numpy and the generated graph, would report the benchmark's
memory instead of its own.

    python3 perfbench/spawn.py TIMEOUT_S STDERR_FILE STDOUT_FILE CMD...
"""
import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout, err_path, out_path, cmd = float(argv[0]), argv[1], argv[2], argv[3:]
    with open(err_path, "wb") as err, open(out_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    print(json.dumps({
        "wall": wall,
        "code": os.waitstatus_to_exitcode(status),
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
