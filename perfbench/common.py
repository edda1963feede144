"""Shared plumbing of the benchmark: statistics, run context, child processes.

Everything here is program-agnostic except :func:`repo_paths`, which
locates the checkout the benchmark runs from (``perfbench/`` sits at its
root, the package under ``src/``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHM_DIR = "/dev/shm"
SHM_PREFIX = "rpr"
TRACKER_ERROR = "KeyError: '/" + SHM_PREFIX

#: Pure-Python calibration loop size (about 0.25 s on a 2-CPU VM).
CALIBRATION_ITERS = 3_000_000


class BenchError(RuntimeError):
    """The benchmark could not run (missing package, child failed to start)."""


def repo_paths() -> None:
    """Make the checkout's ``src/`` importable, or fail before any work."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no package at {SRC}/repro; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def private_tmp(tag: str) -> str:
    """A run-private temp root inside the checkout, used by us and children."""
    path = os.path.join(HERE, "out", "tmp", f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    os.environ["TMPDIR"] = path
    tempfile.tempdir = None  # re-read TMPDIR on next use
    return path


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def percentile(values: Sequence[float], q: float) -> float:
    """Inclusive-interpolated percentile *q* in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_ok(n: int, q: float) -> bool:
    """True when *n* samples leave at least ten beyond percentile *q*."""
    return n * (100.0 - q) / 100.0 >= 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to scale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += (i * 7) % 13
    return time.perf_counter() - t0


def run_context() -> dict:
    import importlib.util

    import numpy

    from repro.kernels.backend import backend_info

    return {
        "nproc": nproc(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend_info()["backend"],
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# /proc accounting of the program's processes
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # comm may contain spaces; fields resume after the last ')'.
    return raw[raw.rindex(")") + 2 :].split()


def descendants(pid: int) -> List[int]:
    """All live descendants of *pid* (pool workers, resource trackers)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            parents[int(entry)] = int(fields[1])
    out: List[int] = []
    frontier = [pid]
    while frontier:
        cur = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == cur]
        out.extend(kids)
        frontier.extend(kids)
    return out


def cpu_seconds(pids: Sequence[int]) -> float:
    """Summed user+sys CPU of *pids* (processes that are gone count 0)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICK


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident memory (VmHWM) of *pids*, MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """One program process (``python -m repro.api <cmd>``) we started.

    Output goes to files in the run directory, so a chatty child can never
    block on a full pipe; the ``{"listening": [host, port]}`` line is read
    back from its stdout file.
    """

    def __init__(self, name: str, args: Sequence[str], run_dir: str) -> None:
        self.name = name
        self.out_path = os.path.join(run_dir, f"{name}.out")
        self.err_path = os.path.join(run_dir, f"{name}.err")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._out = open(self.out_path, "w")
        self._err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.api", *args],
            stdout=self._out,
            stderr=self._err,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=ROOT,
        )
        self.address: Optional[str] = None
        self.returncode: Optional[int] = None
        self.tracker_errors = 0
        self._tree: List[int] = []

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.out_path) as fh:
                line = fh.readline()
            if line.endswith("\n"):
                host, port = json.loads(line)["listening"]
                self.address = f"{host}:{port}"
                return self.address
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(f"{self.name} did not start: {self.tail()}")

    def tree(self) -> List[int]:
        """The child and its live descendants (remembered for the reap check)."""
        pids = [self.pid] + descendants(self.pid)
        self._tree = sorted(set(self._tree) | set(pids))
        return pids

    def tail(self, n: int = 2000) -> str:
        try:
            with open(self.err_path) as fh:
                return fh.read()[-n:]
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> List[str]:
        """SIGTERM, reap, check the exit code; returns the problems found."""
        problems: List[str] = []
        self.tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.returncode = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.returncode = self.proc.wait()
            problems.append(f"{self.name} ignored SIGTERM for {timeout:.0f} s")
        self._out.close()
        self._err.close()
        if self.returncode != 0:
            problems.append(f"{self.name} exited {self.returncode}: {self.tail(600)}")
        deadline = time.monotonic() + 10.0
        left = [p for p in self._tree if p != self.pid and _alive(p)]
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [p for p in left if _alive(p)]
        if left:
            problems.append(f"{self.name} left processes behind: {left}")
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            while any(_alive(p) for p in left):
                time.sleep(0.05)
        with open(self.err_path) as fh:
            self.tracker_errors = sum(1 for ln in fh if ln.startswith(TRACKER_ERROR))
        return problems


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _reap(pid: int) -> None:
    """Collect *pid*'s exit status if it is our own child; no-op otherwise."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def reap_descendants(timeout: float = 10.0) -> List[int]:
    """Stop every process still below this one and wait until each is gone.

    First this process's ``multiprocessing`` resource tracker (started on
    first use of shared memory, it would otherwise outlive the run for a
    moment), then anything else: SIGTERM, then SIGKILL after *timeout*.
    Returns the pids of the other processes found, which is a defect.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    stray = [p for p in descendants(os.getpid()) if _alive(p)]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        alive = [p for p in stray if _alive(p)]
        if not alive:
            break
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for pid in stray:
                _reap(pid)
            if not any(_alive(p) for p in stray):
                break
            time.sleep(0.05)
    for pid in descendants(os.getpid()):  # zombies left by anything else
        _reap(pid)
    return stray


def stop_all(children: Sequence[Child]) -> List[str]:
    problems: List[str] = []
    for child in children:
        problems.extend(child.stop())
    return problems


def cleanup_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
