"""The fork helper: when a second CPU is free, and SIGTERM during the work."""

import os
import signal

import pytest

from pascal_rhombus import _fork, rhombus, run_all

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def cgroups(root, lines, files):
    """A /proc/self/cgroup of ``lines`` and cgroup ``files`` under ``root``."""
    (root / "proc" / "self").mkdir(parents=True, exist_ok=True)
    (root / "proc" / "self" / "cgroup").write_text("".join(line + "\n" for line in lines))
    for name, text in files.items():
        path = root / "sys" / "fs" / "cgroup" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")


V1 = ["4:memory:/job", "2:cpu,cpuacct:/job", "0::/"]
V2 = ["0::/job"]


@pytest.mark.parametrize("lines, files, quota", [
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "-1",
          "cpu,cpuacct/job/cpu.cfs_period_us": "100000"}, float("inf")),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "50000",
          "cpu,cpuacct/job/cpu.cfs_period_us": "100000"}, 0.5),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "200000",
          "cpu,cpuacct/job/cpu.cfs_period_us": "100000"}, 2.0),
    (["1:cpu:/"], {"cpu/cpu.cfs_quota_us": "150000", "cpu/cpu.cfs_period_us": "100000"}, 1.5),
    (V2, {"job/cpu.max": "max 100000"}, float("inf")),
    (V2, {"job/cpu.max": "150000 100000"}, 1.5),
    (V2, {"job/cpu.max": "400000 100000"}, 4.0),
    (V2, {}, float("inf")),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "50000"}, float("inf")),
    (V2, {"job/cpu.max": "half of it"}, float("inf")),
    (["not a cgroup line"], {}, float("inf")),
], ids=["v1-none", "v1-half", "v1-two", "v1-root", "v2-max", "v2-one-and-a-half", "v2-four",
        "v2-no-file", "v1-no-period", "v2-unreadable", "no-cgroup-line"])
def test_the_cpu_quota_is_read_from_the_process_cgroups(monkeypatch, tmp_path, lines, files, quota):
    cgroups(tmp_path, lines, files)
    monkeypatch.setattr(_fork, "_ROOT", str(tmp_path))
    assert _fork._cpu_quota() == quota


def test_no_cgroup_file_is_no_quota(monkeypatch, tmp_path):
    monkeypatch.setattr(_fork, "_ROOT", str(tmp_path))
    assert _fork._cpu_quota() == float("inf")


def two_cpus_with_quota(monkeypatch, root, limit):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cgroups(root, V2, {"job/cpu.max": f"{limit} 100000"})
    monkeypatch.setattr(_fork, "_ROOT", str(root))


@needs_fork
@pytest.mark.parametrize("limit, second", [(100000, False), (199999, False), (200000, True),
                                           ("max", True)])
def test_a_quota_below_two_cpus_is_one_process(monkeypatch, tmp_path, limit, second):
    two_cpus_with_quota(monkeypatch, tmp_path, limit)
    assert _fork.second_cpu() is second


@needs_fork
def test_under_a_one_cpu_quota_check_and_row_run_here(monkeypatch, tmp_path):
    two_cpus_with_quota(monkeypatch, tmp_path, 100000)

    def no_fork():
        raise AssertionError("forked under a quota of one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert all(r.passed for r in run_all(max_i=6, max_oracle_n=0, series_order=8))
    for row in rhombus.iter_rows(rhombus._SPLIT):
        pass
    assert rhombus._row(rhombus._SPLIT) == row


@needs_fork
def test_sigterm_during_the_work_kills_the_child_then_takes_its_course(monkeypatch):
    # a handler this process had before the work runs once the child is
    # reaped, and is put back after the work
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(_fork, "_ROOT", os.path.join(os.devnull, "no-cgroups"))  # no CPU quota
    received = []

    def handler(signum, frame):
        received.append(signum)

    original = signal.signal(signal.SIGTERM, handler)
    try:
        with pytest.raises(ChildProcessError, match=r"^the test's child process ended "
                                                    r"without a result \(killed by SIGKILL\)$"):
            with _fork.beside(lambda child: child.receive(), "the test's") as child:
                assert child is not None
                os.kill(os.getpid(), signal.SIGTERM)
                assert received == [signal.SIGTERM]
                child.send("never read")
                child.receive()
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, original)


@needs_fork
def test_an_ignored_sigterm_stays_ignored(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(_fork, "_ROOT", os.path.join(os.devnull, "no-cgroups"))  # no CPU quota
    original = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        with _fork.beside(lambda child: "done", "the test's") as child:
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
            assert child.receive() == "done"
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGTERM, original)


def stat_on(root, cpu):
    """A /proc/self/stat under ``root`` whose process last ran on ``cpu``."""
    (root / "proc" / "self").mkdir(parents=True, exist_ok=True)
    fields = ["S"] + ["0"] * 35 + [str(cpu)] + ["0"] * 13
    (root / "proc" / "self" / "stat").write_text(f"4242 (python3 (a) b) {' '.join(fields)}\n")


@pytest.mark.parametrize("cpu, others", [(0, {1, 2}), (1, {0, 2}), (5, {0, 1, 2})])
def test_the_child_runs_on_the_cpus_the_parent_is_not_on(monkeypatch, tmp_path, cpu, others):
    stat_on(tmp_path, cpu)
    monkeypatch.setattr(_fork, "_ROOT", str(tmp_path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _fork._other_cpus() == others


def test_no_stat_file_leaves_the_child_anywhere(monkeypatch, tmp_path):
    monkeypatch.setattr(_fork, "_ROOT", str(tmp_path))
    assert _fork._other_cpus() == set()


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_the_child_runs_off_the_parents_cpu(monkeypatch, tmp_path):
    real = os.sched_getaffinity(0)
    if len(real) < 2:
        pytest.skip("needs two CPUs")
    cpu = min(real)  # as if the parent ran on its first CPU
    stat_on(tmp_path, cpu)
    monkeypatch.setattr(_fork, "_ROOT", str(tmp_path))
    cgroups(tmp_path, [], {})  # and no quota
    with _fork.beside(lambda child: sorted(os.sched_getaffinity(0)), "the test's") as child:
        assert child.receive() == sorted(real - {cpu})
    assert os.sched_getaffinity(0) == real
