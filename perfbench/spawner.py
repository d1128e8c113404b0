"""Start each benchmarked process from a small helper, so that its peak RSS is its own.

Linux carries the high-water RSS of the address space a process replaces at
exec into that process's ru_maxrss.  A child started by the benchmark itself
(which holds and parses large outputs) would therefore report the benchmark's
memory, growing from pass to pass.  This helper stays small: it reads one JSON
request per line on stdin, runs it with fork and exec, and writes one JSON line
{"code", "wall", "cpu", "maxrss_kib"} back, timing from fork to os.wait4.
"""

import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out, err = os.open(req["stdout"], flags, 0o644), os.open(req["stderr"], flags, 0o644)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - t0
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
