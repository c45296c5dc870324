"""Measurement helpers shared by the workloads: percentiles, peak memory,
set-up timing, cold engines, hygiene checks and the result record."""

from __future__ import annotations

import glob
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every module a workload touches; importing them is part of ``setup_s``.
REPRO_MODULES = (
    "repro", "repro.datasets", "repro.models", "repro.editing",
    "repro.training", "repro.perf", "repro.serving", "repro.distributed",
)

#: Environment variables that size each process's BLAS thread pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Threads the library starts; none may outlive a workload.
LIBRARY_THREADS = ("repro-datapipe-prefetch", "repro-batcher", "repro-serve")

#: Median seconds of one :class:`Calibration` pass on the reference host
#: (2-core container, Python 3.11, one BLAS thread). Host-normalized
#: metrics are scaled to this speed.
REFERENCE_LOOP_S = 0.0111

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[2:]:\n"
    "    __import__(m)\n"
    "print(time.perf_counter() - t)\n"
)


def import_repro() -> float:
    """Import the library into this process; returns the seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    for name in REPRO_MODULES:
        __import__(name)
    return time.perf_counter() - t0


def import_seconds_in_fresh_interpreter() -> float:
    """The same import, timed inside a new interpreter (waited for)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), *REPRO_MODULES],
        check=True, capture_output=True, text=True, timeout=120,
        cwd=str(ROOT),
    )
    return float(out.stdout.strip().splitlines()[-1])


class Calibration:
    """Host speed, from a fixed loop that touches no library code.

    The benchmark host's speed drifts by tens of percent over tens of
    seconds (a fixed single-threaded loop ran 2.2 ms a pass in one minute
    and 3.4 ms in the next). A workload samples the loop between its
    units of work and scales single-threaded CPU-bound times by
    :attr:`speed` to the reference host's speed.
    """

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n, nnz = 20000, 200000
        self._dense = rng.random((128, 128))
        self._sparse = sp.csr_matrix(
            (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
            shape=(n, n),
        )
        self._rhs = rng.random((n, 8))
        self.samples: list[float] = []
        self._last = -1e9

    def sample(self, min_gap_s: float = 0.0) -> None:
        """Time five passes of interpreter, allocator, BLAS and sparse
        work, unless the last sample was less than ``min_gap_s`` ago."""
        if time.perf_counter() - self._last < min_gap_s:
            return
        for _ in range(5):
            t0 = time.perf_counter()
            total = 0
            for i in range(30000):
                total += i * i
            for _ in range(10):
                self._dense @ self._dense
            for _ in range(3):
                self._sparse @ self._rhs
            {i: str(i) for i in range(5000)}
            self.samples.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    @property
    def speed(self) -> float:
        """Reference pass time over this run's median pass time (below 1
        on a slower host)."""
        return REFERENCE_LOOP_S / median(self.samples)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest waited-for
    child when ``children`` (Linux reports kilobytes)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def fresh_propagation():
    """Install a cold operator cache and propagation engine as the
    library defaults, so a job pays its precompute as a new process would.
    Returns the new cache (its stats feed ``perf.cache_hit_ratio``)."""
    from repro.perf import (
        OperatorCache,
        PropagationEngine,
        set_default_cache,
        set_default_engine,
    )

    cache = OperatorCache()
    set_default_cache(cache)
    set_default_engine(PropagationEngine())
    return cache


def leftovers() -> list[str]:
    """Shared-memory segments and library threads still alive."""
    found = sorted(glob.glob("/dev/shm/repro-*"))
    found += sorted(
        t.name for t in threading.enumerate()
        if t.name.startswith(LIBRARY_THREADS)
    )
    return found


def wait_for_hygiene(timeout_s: float = 5.0) -> list[str]:
    """Leftovers after giving exiting threads ``timeout_s`` to finish."""
    deadline = time.monotonic() + timeout_s
    found = leftovers()
    while found and time.monotonic() < deadline:
        time.sleep(0.05)
        found = leftovers()
    return found


def _child_pids() -> list[int]:
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
    return sorted(set(pids))


def _reaped(pid: int, timeout_s: float) -> bool:
    """Wait up to ``timeout_s`` for child ``pid`` to end; True once gone."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return True
        except ChildProcessError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def stop_children(timeout_s: float = 5.0) -> list[int]:
    """Stop every process this one started and wait for each to end.

    Spawned ranks and shared memory start ``multiprocessing``'s resource
    tracker, which would otherwise outlive this process by design. Other
    children get ``timeout_s`` to exit, then SIGTERM, then SIGKILL.
    Returns the pids that had not ended on their own.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        tracker._stop()
    stubborn = []
    deadline = time.monotonic() + timeout_s
    for pid in _child_pids():
        if _reaped(pid, deadline - time.monotonic()):
            continue
        stubborn.append(pid)
        for sig, wait_s in ((signal.SIGTERM, 2.0), (signal.SIGKILL, 60.0)):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
            if _reaped(pid, wait_s):
                break
    return stubborn


@dataclass
class Run:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: end-to-end metric -> (value, unit, samples, value before host
    #: normalization)
    metrics: dict[str, tuple[float, str, int, float]] = field(default_factory=dict)
    #: workload-specific names for this workload's numbers (``train_s``,
    #: ``serve_p99_ms``, ...) -> (value, unit, samples), printed as
    #: measured beside the end-to-end metrics
    reports: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: per-layer metric -> value (units come from the declaration)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = bool(ok)
        if not ok:
            self.notes.append(f"check failed: {name} {detail}".rstrip())

    def metric(self, name: str, value: float, unit: str, samples: int,
               raw: float | None = None) -> None:
        raw = value if raw is None else raw
        self.metrics[name] = (float(value), unit, int(samples), float(raw))

    def report(self, name: str, value: float, unit: str, samples: int) -> None:
        self.reports[name] = (float(value), unit, int(samples))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    @property
    def error_ratio(self) -> float:
        return (self.failed + self.wrong) / max(self.attempted, 1)


def environment_note() -> str:
    return f"python {sys.version.split()[0]}, {os.cpu_count()} cpus"
