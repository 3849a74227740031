"""Work beside this process in one forked child, where a second CPU is free.

:func:`beside` forks one child to run a function while the body of a
``with`` runs in this process, and gives the body a :class:`Channel` to it:
marshal messages over a pair of pipes, each behind its length.  Where
:func:`second_cpu` says no, or the fork fails, the body gets ``None`` and
does all the work itself.  ``checks`` runs half of its suites this way, and
``rhombus`` one column half of a deep row.  It is a process helper, not a
route: no route reads another through it.
"""

from __future__ import annotations

import marshal
import os
import threading
from contextlib import contextmanager, suppress
from typing import BinaryIO, Callable, Iterator

# where proc/self/cgroup and sys/fs/cgroup are read from
_ROOT = "/"


def _cpu_quota() -> float:
    """The CPUs' worth of time this process's cgroups allow: ``cpu.max`` on
    cgroup v2, ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us`` on v1.  No
    quota, or a file that is missing or cannot be read, gives infinity."""
    quota = float("inf")
    try:
        with open(os.path.join(_ROOT, "proc/self/cgroup")) as lines:
            groups = [line.rstrip("\n").split(":", 2) for line in lines]
    except OSError:
        return quota
    for _, controllers, path in (group for group in groups if len(group) == 3):
        if controllers and "cpu" not in controllers.split(","):
            continue
        where = os.path.join(_ROOT, "sys/fs/cgroup", controllers, path.lstrip("/"))
        names = ("cpu.cfs_quota_us", "cpu.cfs_period_us") if controllers else ("cpu.max",)
        try:
            words = []
            for name in names:
                with open(os.path.join(where, name)) as file:
                    words += file.read().split()
            limit, period = words
            if limit not in ("max", "-1"):
                quota = min(quota, int(limit) / int(period))
        except (OSError, ValueError):
            continue
    return quota


def second_cpu() -> bool:
    """Whether a forked child would run beside this process: ``os.fork``
    exists, the process may run on two CPUs and its cgroups allow two CPUs'
    worth of time, and no other thread runs (a fork copies a thread's locks,
    not the thread)."""
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or threading.current_thread() is not threading.main_thread()):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and _cpu_quota() >= 2


def _other_cpus() -> set[int]:
    """The CPUs this process may run on but the one it runs on now, where
    Linux tells (field 39 of /proc/self/stat); else none."""
    try:
        with open(os.path.join(_ROOT, "proc/self/stat")) as stat:
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here}
    except (OSError, ValueError, IndexError, AttributeError):
        return set()


class _Lost(Exception):
    """The other end closed its channel."""


class Channel:
    """One end of the pipes between a parent and its forked child."""

    def __init__(self, receiving: BinaryIO, sending: BinaryIO, reads_first: bool):
        self._receiving, self._sending, self._reads_first = receiving, sending, reads_first

    def send(self, value: object) -> None:
        data = marshal.dumps(value)
        # unbuffered, so that nothing is left to write when a broken pipe closes
        unsent = memoryview(len(data).to_bytes(8, "little") + data)
        try:
            while unsent:
                unsent = unsent[self._sending.write(unsent):]
        except BrokenPipeError:
            raise _Lost from None

    def receive(self) -> object:
        return marshal.loads(self._read(int.from_bytes(self._read(8), "little")))

    def _read(self, size: int) -> bytes:
        data = self._receiving.read(size)
        if len(data) < size:
            raise _Lost
        return data

    def exchange(self, value: object) -> object:
        """Send ``value`` and receive the other end's.  The child receives
        first, so no message, however much longer than a pipe holds, waits
        on another being written the other way."""
        if not self._reads_first:
            self.send(value)
        theirs = self.receive()
        if self._reads_first:
            self.send(value)
        return theirs


@contextmanager
def beside(work: Callable[[Channel], object], what: str) -> Iterator[Channel | None]:
    """Run ``work(channel)`` beside the body of the ``with`` in a forked child
    where :func:`second_cpu` says yes and the fork succeeds, and give the
    body the parent's end of that channel; else give ``None``.

    The child runs off the CPU this process runs on, sends what ``work``
    returns as its last message, and always ends in ``os._exit``, also when
    the parent's end closes.  A channel the child closes before the body is
    done with it raises ``ChildProcessError``
    (``<what> child process ended without a result (...)``).  Whatever ends
    the body, the child is killed if it still runs, and reaped.  A SIGTERM
    during the body kills and reaps the child too, and then takes its
    course: by default it ends this process.
    """
    code, previous = None, None  # the child's exit code once reaped

    def reap(kill: bool) -> int:
        """The child's exit code, reaped at the first call; ``kill`` first if asked."""
        nonlocal code
        if code is None:
            if kill:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return code

    def terminated(signum: int, frame: object) -> None:
        with suppress(OSError):  # reaped by the body in the meantime
            reap(kill=True)
        signal(SIGTERM, previous)
        os.kill(os.getpid(), SIGTERM)

    pid = None
    if second_cpu():
        # the child runs on the other CPUs: a scheduler can leave a new child
        # on its parent's CPU while another CPU idles
        elsewhere = _other_cpus()
        down, up = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
    if pid is None:
        yield None
        return
    if pid == 0:
        try:
            if elsewhere:
                with suppress(OSError):  # CPUs gone since, say
                    os.sched_setaffinity(0, elsewhere)
            os.close(down[1])
            os.close(up[0])
            with open(down[0], "rb") as receiving, open(up[1], "wb", buffering=0) as sending:
                channel = Channel(receiving, sending, reads_first=True)
                channel.send(work(channel))
            os._exit(0)
        finally:  # whatever else ends the child, an interrupt included
            os._exit(1)
    try:  # from the fork on, so that an interrupt at any point ends the child
        # imported after the fork, so the child starts without waiting for it
        from signal import SIG_DFL, SIG_IGN, SIGTERM, Signals, getsignal, signal

        handler = getsignal(SIGTERM)
        if handler is not SIG_IGN:
            previous = SIG_DFL if handler is None else handler  # None: not set from Python
            signal(SIGTERM, terminated)
        os.close(down[0])
        os.close(up[1])
        with open(up[0], "rb") as receiving, open(down[1], "wb", buffering=0) as sending:
            yield Channel(receiving, sending, reads_first=False)
    except _Lost:
        status = reap(kill=False)
        ended = f"killed by {Signals(-status).name}" if status < 0 else f"exit code {status}"
        raise ChildProcessError(f"{what} child process ended without a result ({ended})") from None
    finally:
        reap(kill=True)
        if previous is not None:
            signal(SIGTERM, previous)
