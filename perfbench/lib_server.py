"""Long-lived library server for the lib-entries workload.

Usage: python3 perfbench/lib_server.py [TRACE_FD]

Imports the package once, prints ``ready`` and then answers one query per
input line: ``I J`` gets back ``TRIPLE CONVOLVED SECONDS``, the values of
``entry_triple_sum(I, J)`` and ``entry_convolved(I, J)`` and the wall time
of the two calls, which is what a library user waits for (the round trip
over the pipe is the benchmark's own cost); ``cpu`` gets back
``cpu CPU``.  CPU is this process's user plus system time so far.
``calibrate`` gets back ``calibrate SECONDS``, the wall time of
calibrate.py's fixed work done in this process.  ``reset``
(traced only) gets back ``reset`` and drops the spans recorded so far, so
the spans written cover only what came after it.  At end of input it exits,
first writing its spans to TRACE_FD when one is given.
"""

import resource
import sys
import time

import calibrate


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    trace_fd = int(sys.argv[1]) if len(sys.argv) > 1 else None
    if trace_fd is not None:
        import tracer

        recorder = tracer.install()
    from pascal_rhombus import closedforms

    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        if line == "cpu\n":
            out.write(f"cpu {_cpu()!r}\n")
        elif line == "calibrate\n":
            start = time.perf_counter()
            calibrate.work()
            out.write(f"calibrate {time.perf_counter() - start!r}\n")
        elif line == "reset\n" and trace_fd is not None:
            recorder.reset()
            out.write("reset\n")
        else:
            i, j = map(int, line.split())
            # looked up on the module at each call, so the tracer's wrappers apply
            start = time.perf_counter()
            triple = closedforms.entry_triple_sum(i, j)
            convolved = closedforms.entry_convolved(i, j)
            seconds = time.perf_counter() - start
            out.write(f"{triple} {convolved} {seconds!r}\n")
        out.flush()
    if trace_fd is not None:
        recorder.dump(trace_fd)


if __name__ == "__main__":
    main()
