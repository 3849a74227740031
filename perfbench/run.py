"""Benchmark of the pascal_rhombus package, driven from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from anywhere; it locates the package at ``<checkout>/src`` and runs
it from source, the way its users do: each CLI request is a fresh
``python -m pascal_rhombus`` process, and ``lib-entries`` is one long-lived
library process fed queries over a pipe.  Requests and the serving library
process run under reap.py, which reports their own wall time, CPU and peak
RSS.  One closed-loop client keeps one
request in flight and sends requests until S seconds have passed.

The host's speed drifts by 30-50% over seconds to minutes.  So the run also
times a fixed reference work (calibrate.py) between requests, in the same
kind of process as the requests, and reports every time metric scaled to a
host on which that work takes a fixed reference time; the raw figures are
in the lines before the result line.

Every output is checked for exact correctness after the timed loop (see
reference.py); a wrong output, a nonzero exit or a timeout counts as a
failed request.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the same numbers for people, the error rate, the
latency sample count and the provenance of the run.

``--trace 1`` runs every request twice, plainly and under the tracer
(tracer.py), alternating which goes first, and reports per-layer numbers
per traced request plus the wall-time ratio of traced to plain runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
REAP = BENCH / "reap.py"
CALIBRATE = BENCH / "calibrate.py"
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable or "python3"

REQUEST_TIMEOUT_S = 60.0
# a workload run starts no request, and lets none run on, later than this
# after it began: --seconds plus room for set-up, warm-up and the last
# cycle, but never so late that a single-workload run outlives 180 s
RUN_GRACE_S = 120.0
RUN_LIMIT_S = 165.0
SETUP_SAMPLES = 5
# calibrate.py's time on a calm stretch of a 2-vCPU x86_64 VM (Python
# 3.11): as a fresh process, and inside the warm library process.  Time
# metrics are reported in seconds of a host that runs it this fast.
CALIBRATION_REF_S = {"process": 0.070, "warm": 0.025}

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "cpu_s_per_request": "s",
    "peak_rss_mb": "MB",
}
# scaled by the run's speed factor (see Run.speed_factor): times multiply,
# rates divide
SCALED = {"setup_s": 1, "throughput_rps": -1, "latency_p50_s": 1, "latency_p90_s": 1,
          "cpu_s_per_request": 1}
# printed for people but not gated: a cycle of verify (one request) or
# deep-rows (four) has no ten samples beyond its 90th percentile, and
# BENCHMARK.json cannot gate a metric on some workloads only
REPORTED = {"latency_p90_s": "s", "error_rate": "ratio"}

_SUITES = ("method_agreement", "oracle_agreement", "motzkin2_routes",
           "column_functional_equation", "column_routes", "convolved_fibonacci",
           "catalan_binomial", "symmetry")
_ROUTES = [f"series.column_gf.{m}" for m in ("closed_form", "functional_equation")] + [
    f"series.motzkin2_gf.{m}" for m in ("closed_form", "compositional", "functional_equation")
]
PER_LAYER = {
    "cli.startup_s": "s", "cli.main.s": "s", "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    **{f"checks.{s}.s": "s" for s in _SUITES},
    "checks.self_s": "s",
    "rhombus.build_table.calls": "count", "rhombus.build_table.s": "s",
    "rhombus.rows_built": "count", "rhombus.self_s": "s",
    **{f"closedforms.{f}.{k}": u for f in ("entry_triple_sum", "entry_convolved", "convolved_fib_series")
       for k, u in (("calls", "count"), ("s", "s"))},
    "closedforms.conv_prefix.lookups": "count", "closedforms.conv_prefix.builds": "count",
    "closedforms.conv_prefix.hit_ratio": "ratio", "closedforms.self_s": "s",
    **{f"{r}.{k}": u for r in _ROUTES for k, u in (("calls", "count"), ("s", "s"))},
    "series.catalan_gf.s": "s", "series.fibonacci_gf.s": "s", "series.routes.self_s": "s",
    **{f"series.kernel.{op}.{k}": u for op in ("mul", "pow", "reciprocal", "sqrt", "compose")
       for k, u in (("calls", "count"), ("s", "s"))},
    "series.kernel.mul.coeff_products": "count", "series.kernel.s": "s",
    **{f"paths.{f}.{k}": u for f in ("count_by_height", "count_motzkin2")
       for k, u in (("calls", "count"), ("s", "s"))},
    "paths.paths_walked": "count", "paths.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# layer time used to name the dominant layer of a traced run
LAYER_TIME = ("cli.self_s", "checks.self_s", "rhombus.self_s", "closedforms.self_s",
              "series.routes.self_s", "series.kernel.s", "paths.self_s")

_clock = time.perf_counter


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Budget:
    """The time one workload run may take, from when it is made."""

    def __init__(self, seconds: float):
        self.deadline = _clock() + min(seconds + RUN_GRACE_S, RUN_LIMIT_S)

    def left(self) -> float:
        return self.deadline - _clock()

    def timeout(self) -> float:
        """How long the next request may take."""
        return max(1.0, min(REQUEST_TIMEOUT_S, self.left()))


# -- child processes -----------------------------------------------------------


class Outcome:
    """One finished child process: exit code (None on timeout), output and cost.

    ``extra`` holds what the child wrote to each extra pipe, in order.
    """

    def __init__(self, code, outputs: list[bytes], wall: float, usage):
        self.code = code
        self.out = outputs[0].decode("utf-8", "replace")
        self.err = outputs[1].decode("utf-8", "replace")
        self.extra = outputs[2:]
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024


def _report(raw: bytes) -> tuple[float, float, float]:
    """Wall seconds, CPU seconds and peak RSS in MB, as reap.py wrote them."""
    wall, cpu, rss_kb = raw.split()
    return float(wall), float(cpu), int(rss_kb) / 1024


def _drain(fds: list[int], deadline: float) -> tuple[dict[int, bytes], bool]:
    """Read every fd to end of file; False if the deadline came first."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - _clock()
            if left <= 0:
                return {fd: b"".join(c) for fd, c in chunks.items()}, False
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return {fd: b"".join(c) for fd, c in chunks.items()}, True


def _reap(proc: subprocess.Popen, kill: bool):
    """Wait for ``proc`` with os.wait4 (killing it first if asked): status, rusage.

    Every child leads its own process group, so killing the group also ends
    the command that reap.py runs.
    """
    if kill:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(argv: list[str], timeout: float, pipes: list[tuple[int, int]] = ()) -> Outcome:
    """Run one process to completion and account for it.

    ``pipes`` are (read end, write end) pairs: the child inherits each write
    end, and what it writes there becomes ``Outcome.extra``.  The caller
    closes the read ends.
    """
    start = _clock()
    try:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
                                pass_fds=[w for _, w in pipes], start_new_session=True)
    finally:
        for _, write_fd in pipes:
            os.close(write_fd)
    reaped = False
    try:
        fds = [proc.stdout.fileno(), proc.stderr.fileno()] + [r for r, _ in pipes]
        data, finished = _drain(fds, start + timeout)
        code, usage = _reap(proc, kill=not finished)
        reaped = True
        wall = _clock() - start
    finally:
        if not reaped:
            _reap(proc, kill=True)
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(code if finished else None, [data[fd] for fd in fds], wall, usage)


def run_request(request: tuple, traced: bool, timeout: float) -> Outcome:
    """One CLI request: ``python -m pascal_rhombus``, or traced_cli.py under the tracer.

    The request runs under reap.py, so its wall time, CPU and peak RSS are
    its own; a traced request's span payload is ``Outcome.extra[1]``.
    """
    pipes = [os.pipe()]
    command = [PYTHON, "-m", "pascal_rhombus", *request]
    if traced:
        pipes.append(os.pipe())
        command = [PYTHON, str(BENCH / "traced_cli.py"), str(pipes[1][1]), *request]
    try:
        res = run_child([PYTHON, str(REAP), str(pipes[0][1]), *command], timeout, pipes)
    finally:
        for read_fd, _ in pipes:
            os.close(read_fd)
    if res.code is not None and res.extra[0]:
        res.wall, res.cpu, res.rss_mb = _report(res.extra[0])
    return res


def calibrate_process(timeout: float) -> float:
    """Wall time of calibrate.py as a fresh process, under reap.py like a request."""
    pipes = [os.pipe()]
    try:
        res = run_child([PYTHON, str(REAP), str(pipes[0][1]), PYTHON, str(CALIBRATE)],
                        timeout, pipes)
    finally:
        os.close(pipes[0][0])
    if res.code != 0 or not res.extra[0]:
        raise RuntimeError(f"calibration failed (exit {res.code}): {res.err.strip()[-500:]}")
    return _report(res.extra[0])[0]


def cli_setup_s(timeout: float) -> float:
    """Time for a fresh interpreter to import pascal_rhombus.cli, once."""
    res = run_child([PYTHON, "-c", "import pascal_rhombus.cli"], timeout)
    if res.code != 0:
        raise RuntimeError(f"cannot import pascal_rhombus.cli: {res.err.strip()[-500:]}")
    return res.wall


class LibServer:
    """One lib_server.py process, asked one query at a time.

    With ``reaped`` the server runs under reap.py, so that ``close`` can
    give its own peak RSS; the set-up probes run without it, so that their
    start time holds no go-between.
    """

    def __init__(self, trace: bool, budget: Budget, reaped: bool = False):
        self.budget = budget
        self.pipes: dict[str, int] = {}     # name -> read end: "trace", "report"
        write_fds = []
        argv = [PYTHON, str(BENCH / "lib_server.py")]
        if trace:
            self.pipes["trace"], write_fd = os.pipe()
            write_fds.append(write_fd)
            argv.append(str(write_fd))
        if reaped:
            self.pipes["report"], write_fd = os.pipe()
            write_fds.append(write_fd)
            argv = [PYTHON, str(REAP), str(write_fd), *argv]
        start = _clock()
        try:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE, env=_env(), cwd=ROOT, bufsize=0,
                                         pass_fds=write_fds, start_new_session=True)
        except BaseException:
            for read_fd in self.pipes.values():
                os.close(read_fd)
            raise
        finally:
            for write_fd in write_fds:
                os.close(write_fd)
        self._buffer = b""
        self.closed = False
        try:
            if self._line() != "ready":
                raise RuntimeError("library server did not start")
        except BaseException:
            self.kill()
            raise
        self.ready_s = _clock() - start

    def _line(self) -> str:
        fd = self.proc.stdout.fileno()
        deadline = _clock() + self.budget.timeout()
        while b"\n" not in self._buffer:
            readable, _, _ = select.select([fd], [], [], max(deadline - _clock(), 0))
            if not readable:
                raise TimeoutError("library server did not answer in time")
            data = os.read(fd, 1 << 16)
            if not data:
                err = self.proc.stderr.read().decode("utf-8", "replace")
                raise EOFError(f"library server exited: {err.strip()[-500:]}")
            self._buffer += data
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def reset_trace(self) -> None:
        self.proc.stdin.write(b"reset\n")
        if self._line() != "reset":
            raise RuntimeError("library server did not reset its trace")

    def ask(self, i: int, j: int) -> tuple[tuple[str, str], float]:
        """Both values of entry (i, j), and the seconds the server spent on them."""
        self.proc.stdin.write(f"{i} {j}\n".encode())
        triple, convolved, seconds = self._line().split()
        return (triple, convolved), float(seconds)

    def cpu(self) -> float:
        self.proc.stdin.write(b"cpu\n")
        return float(self._line().split()[1])

    def calibrate(self) -> float:
        """Seconds the server took for calibrate.py's work, in process."""
        self.proc.stdin.write(b"calibrate\n")
        return float(self._line().split()[1])

    def close(self) -> dict[str, bytes]:
        """End the server; what it wrote to each of its pipes, by name."""
        self.closed = True
        self.proc.stdin.close()
        fds = [self.proc.stderr.fileno(), *self.pipes.values()]
        code = None
        try:
            data, finished = _drain(fds, _clock() + self.budget.timeout())
            code, _ = _reap(self.proc, kill=not finished)
        finally:
            if self.proc.returncode is None:
                _reap(self.proc, kill=True)
            self._close_files()
        if not finished or code != 0:
            raise RuntimeError(f"library server ended badly (exit {code})")
        return {name: data[fd] for name, fd in self.pipes.items()}

    def kill(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                _reap(self.proc, kill=True)
            finally:
                self.proc.stdin.close()
                self._close_files()

    def _close_files(self) -> None:
        self.proc.stdout.close()
        self.proc.stderr.close()
        for read_fd in self.pipes.values():
            os.close(read_fd)


# -- metrics -------------------------------------------------------------------


def latency_stats(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (inclusive interpolation)."""
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10, method="inclusive")[8]


def layer_metrics(traced: list[tuple[dict, float | None, int]], requests: int,
                  overhead: float) -> dict:
    """Per-layer metrics per traced request.

    ``traced`` holds (payload, child wall time or None, stdout bytes) per
    traced process: one per CLI request, or one library server that
    answered all ``requests`` queries (wall None: it has no startup share).
    """
    totals: dict[str, float] = defaultdict(float)
    extras = {"rows": "rhombus.rows_built", "lookups": "closedforms.conv_prefix.lookups",
              "prefix_build": "closedforms.conv_prefix.builds", "paths": "paths.paths_walked"}
    for payload, wall, out_bytes in traced:
        main_s = 0.0
        for name, start, end, _parent, self_s, extra in payload["spans"]:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            layer = name.split(".")[0]
            totals["series.routes.self_s" if layer == "series" else f"{layer}.self_s"] += self_s
            for key, value in (extra or {}).items():
                totals[extras[key]] += value
            if name == "cli.main":
                main_s += end - start
        for key, value in payload["kernel"].items():
            totals["series.kernel.s" if key == "outer.s" else f"series.kernel.{key}"] += value
        if wall is not None:
            totals["cli.startup_s"] += wall - main_s
        totals["cli.stdout_bytes"] += out_bytes
    n = max(requests, 1)
    lookups = totals["closedforms.conv_prefix.lookups"]
    metrics = {name: totals[name] / n for name in PER_LAYER}
    metrics["closedforms.conv_prefix.hit_ratio"] = (
        1 - totals["closedforms.conv_prefix.builds"] / lookups if lookups else 0.0)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


# -- workloads -----------------------------------------------------------------


class Run:
    """What one workload run collected, before and after verification."""

    def __init__(self):
        self.done: list[tuple] = []          # (request, output) of every request
        self.timed: list[tuple] = []         # (index into done, cycle, latency, cpu or None)
        self.complete: list[int] = []        # cycles measured in full
        self.cycle_cpu: dict[int, float] = {}  # per-request CPU where only cycle totals exist
        self.rss: list[float] = []
        self.traced: list[tuple] = []
        self.traced_requests = 0
        self.failures: dict[int, str] = {}
        self.setup_s = 0.0
        self.setup_samples: list[float] = []
        self.calibration: list[float] = []
        self.calibration_kind = "process"
        self.cache_fill_s: float | None = None
        self.per_cycle: dict[str, list[float]] = {}
        self.overhead = 0.0

    def record(self, request, output) -> int:
        self.done.append((request, output))
        return len(self.done) - 1

    def fail(self, idx: int, reason: str) -> None:
        self.failures.setdefault(idx, reason)

    def cycle_metrics(self) -> dict[str, float]:
        """Throughput, latency and CPU per complete cycle, as medians over cycles.

        Each cycle repeats nearly the same mix of work (see workloads.py), so
        the median discards cycles that a busy neighbour on the machine
        slowed, where a mean over the run would keep them.
        """
        by_cycle: dict[int, list] = defaultdict(list)
        for idx, cycle, latency, cpu in self.timed:
            by_cycle[cycle].append((idx not in self.failures, latency, cpu))
        chosen = [c for c in self.complete if c in by_cycle] or list(by_cycle)
        if not chosen:
            raise RuntimeError("no request completed in the measuring time")
        per: dict[str, list[float]] = defaultdict(list)
        for cycle in chosen:
            reqs = by_cycle[cycle]
            # a failed request counts as missing any latency limit
            latencies = [lat if ok else REQUEST_TIMEOUT_S for ok, lat, _ in reqs]
            p50, p90 = latency_stats(latencies)
            per["throughput_rps"].append(sum(ok for ok, _, _ in reqs) / sum(l for _, l, _ in reqs))
            per["latency_p50_s"].append(p50)
            per["latency_p90_s"].append(p90)
            per["cpu_s_per_request"].append(
                self.cycle_cpu[cycle] if cycle in self.cycle_cpu
                else statistics.fmean(cpu for _, _, cpu in reqs))
        self.per_cycle = dict(per)
        return {name: statistics.median(values) for name, values in per.items()}

    def speed_factor(self) -> float:
        """Reference over measured calibration time, the median over the run.

        Below 1 when the host ran slower than the reference.  A time metric
        is multiplied by it and a rate divided by it, so both read as on the
        reference host.  The median over the whole run, not per request: a
        single calibration is as noisy as a single request, and the host's
        slow spells last longer than a cycle.
        """
        if not self.calibration:
            raise RuntimeError("no calibration sample")
        return CALIBRATION_REF_S[self.calibration_kind] / statistics.median(self.calibration)


def _cycles(stream, seconds: float):
    """Numbered cycles until ``seconds`` have passed; runs measure whole cycles."""
    start = _clock()
    for number, cycle in enumerate(stream):
        if _clock() - start >= seconds:
            return
        yield number, cycle


def run_cli_workload(run: Run, stream, seconds: float, trace: bool, budget: Budget) -> None:
    # set-up samples are spread over the run, a few first and one after each
    # cycle, so that one slow spell of the machine cannot hold all of them;
    # the very first start may still be compiling bytecode and is dropped
    cli_setup_s(budget.timeout())
    setup = []
    for _ in range(SETUP_SAMPLES):
        setup.append(cli_setup_s(budget.timeout()))
        if not trace:
            run.calibration.append(calibrate_process(budget.timeout()))
    plain_wall = traced_wall = 0.0
    k = 0
    for number, cycle in _cycles(stream, seconds):
        for request in cycle:
            if budget.left() <= 0:
                break
            modes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
            k += 1
            for traced in modes:
                res = run_request(request, traced, budget.timeout())
                idx = run.record(request, res.out)
                if res.code != 0:
                    run.fail(idx, f"{' '.join(request)}: exit {res.code} {res.err.strip()[-300:]}")
                if traced:
                    traced_wall += res.wall
                    run.traced_requests += 1
                    try:
                        run.traced.append((json.loads(res.extra[1]), res.wall, len(res.out.encode())))
                    except ValueError:
                        run.fail(idx, f"{' '.join(request)}: no trace payload")
                else:
                    plain_wall += res.wall
                    run.timed.append((idx, number, res.wall, res.cpu))
                    run.rss.append(res.rss_mb)
                    if not trace:
                        run.calibration.append(calibrate_process(budget.timeout()))
        else:
            run.complete.append(number)
            setup.append(cli_setup_s(budget.timeout()))
            continue
        break
    run.setup_s = statistics.median(setup)
    run.setup_samples = setup
    run.overhead = traced_wall / plain_wall if trace and plain_wall else 0.0


def _ask_all(run: Run, servers: list[LibServer], queries: list[tuple]) -> list[float]:
    """Ask every server every query, in turn; the seconds each server took.

    These are the client's times, round trips over the pipe included.
    """
    spent = [0.0] * len(servers)
    for query in queries:
        for idx, server in enumerate(servers):
            t = _clock()
            answer, _ = server.ask(*query)
            spent[idx] += _clock() - t
            run.record(query, answer)
    return spent


def run_lib_workload(run: Run, stream, seed: int, seconds: float, trace: bool,
                     budget: Budget) -> None:
    servers: list[LibServer] = []
    try:
        # set-up: a fresh server's start plus a short, fixed cold-cache fill,
        # the median over several servers; the full warm-up that then fills
        # the serving server's caches runs once and is reported, not gated
        setup = []
        for _ in range(SETUP_SAMPLES):
            probe = LibServer(False, budget)
            servers.append(probe)
            (fill_s,) = _ask_all(run, [probe], workloads.lib_setup_queries())
            setup.append(probe.ready_s + fill_s)
            probe.close()
        run.setup_s = statistics.median(setup)
        run.setup_samples = setup
        serving = [LibServer(False, budget, reaped=True)] + ([LibServer(True, budget)] if trace else [])
        servers.extend(serving)
        run.cache_fill_s = _ask_all(run, serving, workloads.lib_warmup(seed))[0]
        if trace:
            # the layer figures cover the timed phase only, as throughput does
            serving[1].reset_trace()

        run.calibration_kind = "warm"
        spent = [0.0] * len(serving)
        cpu_mark = serving[0].cpu()
        k = 0
        for number, cycle in _cycles(stream, seconds):
            answered = 0
            for query in cycle:
                if budget.left() <= 0:
                    break
                order = serving if k % 2 == 0 else serving[::-1]
                k += 1
                for server in order:
                    # timed inside the server: a library user's wait
                    answer, latency = server.ask(*query)
                    idx = run.record(query, answer)
                    spent[serving.index(server)] += latency
                    if server is serving[0]:
                        run.timed.append((idx, number, latency, None))
                answered += 1
            # CPU per query of a cycle cut short by the budget too, so that a
            # program too slow for one whole cycle still gets its figures
            cpu_now = serving[0].cpu()
            if answered:
                run.cycle_cpu[number] = (cpu_now - cpu_mark) / answered
            if not trace:
                run.calibration.append(serving[0].calibrate())
            cpu_mark = serving[0].cpu()
            if answered < len(cycle):
                break
            run.complete.append(number)

        _, _, rss_mb = _report(serving[0].close()["report"])
        run.rss = [rss_mb]
        if trace:
            run.traced = [(json.loads(serving[1].close()["trace"]), None, 0)]
            run.traced_requests = k
            run.overhead = spent[1] / spent[0] if spent[0] else 0.0
    finally:
        for server in servers:
            server.kill()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: the result object and its provenance."""
    budget = Budget(seconds)
    load_start = os.getloadavg()
    run = Run()
    stream = workloads.cycles(workload, seed)
    if workload == "lib-entries":
        run_lib_workload(run, stream, seed, seconds, trace, budget)
    else:
        run_cli_workload(run, stream, seconds, trace, budget)

    for idx, verdict in enumerate(reference.check_all(workload, run.done)):
        if verdict is not None:
            run.fail(idx, verdict)
    attempted = len(run.done)
    failed = len(run.failures)
    if trace:
        metrics = layer_metrics(run.traced, run.traced_requests, run.overhead)
        units = PER_LAYER
    else:
        raw = {"setup_s": run.setup_s, **run.cycle_metrics(),
               "peak_rss_mb": statistics.median(run.rss)}
        factor = run.speed_factor()
        metrics = {name: value * factor ** SCALED.get(name, 0) for name, value in raw.items()}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "requests_sent": attempted,
        "latency_samples": len(run.timed),
        "cycles": len(run.complete),
        "error_rate": failed / attempted,
        "latency_p90_s": metrics.get("latency_p90_s"),
        "raw": None if trace else {name: raw[name] for name in (*END_TO_END, "latency_p90_s")},
        "speed_factor": None if trace else factor,
        "calibration_kind": run.calibration_kind,
        "calibration_s": run.calibration,
        "requests_sha256": workloads.digest([list(req) for req, _ in run.done]),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": git_commit(),
        "first_failures": [run.failures[idx] for idx in sorted(run.failures)[:5]],
        "per_cycle": run.per_cycle,
        "setup_samples": run.setup_samples,
        "cache_fill_s": run.cache_fill_s,
    }
    return result, provenance


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe(result: dict, provenance: dict) -> str:
    lines = [f"== {provenance['workload']} (seed {provenance['seed']}, "
             f"{provenance['requests_sent']} requests, {result['failed']} failed)"]
    shown = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not provenance["trace"]:
        shown += [(name, provenance[name], unit) for name, unit in REPORTED.items()]
    raw = provenance["raw"] or {}
    for name, value, unit in shown:
        note = (f"   (median of {provenance['cycles']} cycles, {provenance['latency_samples']} requests)"
                if name.startswith("latency_") else "")
        if name in SCALED and name in raw:
            note = f"   raw {raw[name]:.6g}{note}"
        lines.append(f"  {name:40s} {value:>16.6g} {unit}{note}")
    if provenance["speed_factor"] is not None:
        lines.append(f"  speed factor {provenance['speed_factor']:.4f} (median of "
                     f"{len(provenance['calibration_s'])} calibrations, {provenance['calibration_kind']})")
    if provenance["trace"]:
        times = {n: result["metrics"][n]["value"] for n in LAYER_TIME}
        lines.append(f"  dominant layer: {max(times, key=times.get)}")
    for reason in provenance["first_failures"]:
        lines.append(f"  FAILED: {reason}")
    lines.append("provenance " + json.dumps(provenance))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "pascal_rhombus" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'pascal_rhombus'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, provenance = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(describe(result, provenance), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{m}": v for n, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


def _terminate(signum, frame):
    # unwind through the finally blocks so every child is killed and reaped
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (RuntimeError, OSError, EOFError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
