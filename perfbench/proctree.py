"""CPU and memory of one process tree, read from ``/proc``.

The tree is the benchmark process and all of its descendants: the Ray
GCS, raylet, log monitor and every worker the raylet forks. Processes
of other tenants on the host are never counted, because membership is
decided by walking parent pids down from the benchmark's own pid.

CPU: each process's own ``utime + stime``, sampled at a fixed interval
while an operation runs. The CPU of an operation is the sum over every
process seen of its last reading minus its reading at the start (0 for
a process born inside the operation). Reaped-children counters
(``cutime``) are not used: the raylet ignores ``SIGCHLD``, so the
kernel reaps the workers it forks and their CPU never reaches its
``cutime``; a worker that exited would drop out of any tree total. What
a process spends after its last sample is lost, at most one interval.

Memory: the proportional set size (``Pss`` from ``smaps_rollup``)
summed over the tree, so pages shared between Ray workers (the Python
runtime, the object store mapping) are counted once. The same sampler
thread keeps its peak; it only reads ``/proc`` files.
"""

from __future__ import annotations

import os
import threading

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:
        return None
    # comm may hold spaces and parentheses: split after the last ')'
    return data.rsplit(")", 1)[1].split()


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant of it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is None:
            continue
        children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def own_cpu(pids) -> dict[int, float]:
    """Own CPU seconds (``utime + stime``) of each live pid of ``pids``."""
    out = {}
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            # fields 14-15 of stat(5); f[0] is field 3 (state)
            out[pid] = (int(f[11]) + int(f[12])) / _CLK_TCK
    return out


def host_cpu() -> tuple[int, int]:
    """(busy, stolen) ticks of the whole host so far, from the ``cpu``
    line of ``/proc/stat``: busy is user + nice + system + irq +
    softirq; stolen is the time runnable vCPUs waited for the
    hypervisor."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:9]]
    return f[0] + f[1] + f[2] + f[5] + f[6], f[7]


def stolen_share(start: tuple[int, int]) -> float:
    """Share of the host's runnable vCPU time that the hypervisor stole
    since ``start`` (a :func:`host_cpu` reading)."""
    busy, stolen = (b - a for a, b in zip(start, host_cpu()))
    return stolen / max(1, busy + stolen)


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class OpMeter:
    """Context manager entered once per timed operation: records the
    tree's CPU seconds of each operation (``cpu_s``) and the host's
    stolen share over it (``stolen``), and keeps the peak of the tree's
    PSS (``peak_mb``); CPU and PSS are sampled every ``interval``
    seconds while an operation runs (and at its start and end)."""

    def __init__(self, root: int, interval: float = 0.5):
        self.root = root
        self.interval = interval
        self.cpu_s: list[float] = []
        self.stolen: list[float] = []
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cpu0: dict[int, float] = {}
        self._cpu: dict[int, float] = {}

    def _sample(self) -> None:
        pids = tree_pids(self.root)
        self.peak_mb = max(self.peak_mb, sum(_pss_kib(p) for p in pids) / 1024.0)
        self._cpu.update(own_cpu(pids))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "OpMeter":
        self._host0 = host_cpu()
        self._cpu0 = own_cpu(tree_pids(self.root))
        self._cpu = dict(self._cpu0)
        self._sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()
        self.cpu_s.append(sum(
            t - self._cpu0.get(pid, 0.0) for pid, t in self._cpu.items()))
        self.stolen.append(stolen_share(self._host0))


def reap_descendants(root: int, timeout: float = 10.0) -> list[int]:
    """Stop every process left under ``root`` (after ``ray.shutdown``
    a few helpers can linger) and wait for each to end. Returns the
    pids that were still there."""
    import signal
    import time

    left = [p for p in tree_pids(root) if p != root]
    for pid in left:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    term_deadline = time.monotonic() + timeout
    kill_deadline = term_deadline + timeout
    for pid in left:
        while time.monotonic() < kill_deadline:
            try:
                # our own children: collect their exit status
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
            except ChildProcessError:
                # not our child: gone once /proc no longer lists it
                f = _stat_fields(pid)
                if f is None or f[0] == "Z":
                    break
            if time.monotonic() > term_deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
    return left
