"""Shared pieces of the end-to-end benchmark: timing, statistics, tracing
and the resource-leak check.

Nothing here imports :mod:`repro`; workloads import the program themselves
so the import cost lands in their own ``setup.import_s``.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Execution-related environment variables the program reads.  They are
#: cleared before anything is imported, so a CI job that exports one of them
#: cannot change what the benchmark measures (``REPRO_MEMO=1`` would serve
#: every identify pass after the first from the lineage-hash cache).
PINNED_ENV = (
    "REPRO_BACKEND",
    "REPRO_WORKERS",
    "REPRO_KERNEL_METHOD",
    "REPRO_KERNEL_IMPL",
    "REPRO_MEMO",
    "REPRO_MEMO_DIR",
    "REPRO_BENCH_SCALE",
)

#: How many times each workload sets itself up; ``setup_s`` is the median.
SETUP_REPEATS = 3


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), 0 <= q <= 100."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(values: list[float], q: float) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (100.0 - q) / 100.0 < 10:
        return None
    return percentile(values, q)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run hands back to the entry point."""

    #: End-to-end metrics except ``peak_rss_mb``, which the entry point reads.
    e2e: dict[str, float]
    #: Per-layer metrics (filled in full only by a traced run).
    layers: dict[str, float]
    attempted: int
    #: The error of each operation that raised.
    failed: list[str]
    #: Correctness problems; any entry makes the run incorrect.
    problems: list[str]
    #: The resolved configuration and input make-up, printed before the result.
    config: dict[str, Any]
    #: Worker processes the run started, checked for exit at the end.
    worker_pids: list[int] = field(default_factory=list)


def run_for(seconds: float, op: Callable[[], Any]) -> tuple[list[float], list[Any], list[str]]:
    """Repeat ``op`` until ``seconds`` of wall time have passed (at least once).

    Returns the wall time and output of each operation that succeeded and
    the error of each that raised.
    """
    samples: list[float] = []
    outputs: list[Any] = []
    failed: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed.append(f"{type(exc).__name__}: {exc}")
        else:
            samples.append(time.perf_counter() - t0)
            outputs.append(out)
        if time.perf_counter() >= deadline:
            return samples, outputs, failed


@dataclass
class LayerStat:
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps public functions of the program with wall-clock timers.

    Each wrapped call records its total time and its self time (total minus
    the time spent in wrapped calls made from inside it).  Wrappers live in
    the benchmark, not in the program; :meth:`restore` puts the originals
    back.  Only calls made in the driver process are seen, which is why the
    in-task layers of identify are traced on the serial backend.
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: Optional per-call hooks: name -> fn(result, args, elapsed_s).
        self.hooks: dict[str, Callable[..., None]] = {}

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        stat = self.stats.setdefault(name, LayerStat())
        stack = self._stack
        hooks = self.hooks

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]  # time spent in wrapped children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            hook = hooks.get(name)
            if hook is not None:
                hook(out, args, elapsed)
            return out

        timed.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments currently in /dev/shm."""
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("sparklet")}
    except FileNotFoundError:
        return set()


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie still answers kill(0); it has ended all the same.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def leak_report(shm_before: set[str], worker_pids: list[int]) -> list[str]:
    """Problems left behind: new sparklet segments and live worker processes."""
    problems = []
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left in /dev/shm: {leaked}")
    alive = [pid for pid in worker_pids if pid_alive(pid)]
    if alive:
        problems.append(f"worker processes still running: {alive}")
    return problems
