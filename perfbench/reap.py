"""Run one command as a child and report the child's own cost.

Usage: python3 perfbench/reap.py FD COMMAND [ARG ...]

Forks and execs COMMAND with this process's stdin, stdout and stderr, waits
for it with os.wait4, writes ``WALL CPU MAXRSS_KB`` to FD and exits with the
command's exit code (128 + N when signal N ended it).  WALL runs from the
fork to the end of the wait; CPU is the child's user plus system time.

Why a go-between: Linux counts the resident size of the address space a
process had before exec into that process's ru_maxrss.  After vfork or fork
that address space is the parent's, so a request started straight from the
benchmark would report the benchmark's own peak (about 20 MB, more after a
large workload) whenever its own peak is lower.  This process stays small
(about 13 MB), below every request's own peak.
"""

import os
import sys
import time


def main() -> None:
    report_fd = int(sys.argv[1])
    command = sys.argv[2:]
    os.set_inheritable(report_fd, False)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report_fd, "w") as out:
        out.write(f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    code = os.waitstatus_to_exitcode(status)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
