"""Closed-loop query client and process-level measurements.

Process figures come from procfs: proportional set size from
``/proc/<pid>/smaps_rollup`` and CPU time from ``/proc/<pid>/stat``
(the benchmark's own CPU from ``time.process_time``).  Shared-memory
segments of the program are listed from ``/dev/shm`` by their
``kbtim-`` prefix.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, List, Optional, Sequence

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def pss_mb(pid: int) -> float:
    """Proportional set size of one process, in MB (10^6 bytes)."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no Pss line for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of another process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over all CPUs.

    Recorded with each run: a run slowed by a busy host shows it here.
    """
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def program_shm_segments() -> set:
    """Names of the program's POSIX shared-memory segments."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("kbtim-")}
    except FileNotFoundError:
        return set()


class LoopResult:
    """Per-query latencies and failure counts of one closed-loop pass."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Completion instants (perf_counter) and stream positions,
        #: aligned with ``latencies``.
        self.done: List[float] = []
        self.positions: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: (instant, serving CPU seconds) samples taken by ``cpu_probe``.
        self.cpu_samples: List[tuple] = []

    @property
    def answered(self) -> int:
        return self.attempted - self.failed

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.latencies), q)) * 1e3

    def p99_ms(self) -> float:
        """p99 over distinct queries of each query's median latency.

        A query the pass sent several times (the stream wrapped around)
        counts once, at its median latency, so a host stall that hits one
        execution does not make the query look slow.  A query sent once
        counts at its one latency.
        """
        by_position = defaultdict(list)
        for position, latency in zip(self.positions, self.latencies):
            by_position[position].append(latency)
        medians = [float(np.median(v)) for v in by_position.values()]
        return float(np.percentile(medians, 99)) * 1e3

    def slice_medians(self) -> dict:
        """Median over the CPU-sample slices of qps and CPU per query.

        A slowdown of the machine that lasts a minority of the slices then
        moves neither figure.
        """
        done = np.asarray(self.done)
        qps, cpu = [], []
        for (t0, c0), (t1, c1) in zip(self.cpu_samples, self.cpu_samples[1:]):
            n = int(((done >= t0) & (done < t1)).sum())
            if n:
                qps.append(n / (t1 - t0))
                cpu.append((c1 - c0) / n * 1e3)
        return {
            "qps": float(np.median(qps)),
            "cpu_ms_per_query": float(np.median(cpu)),
        }


def closed_loop(
    call: Callable,
    stream: Sequence,
    *,
    start: int,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    on_result: Optional[Callable] = None,
    around: Optional[Callable] = None,
    cpu_probe: Optional[Callable] = None,
    slices: int = 1,
) -> LoopResult:
    """One client sends stream queries, each after the previous answer.

    Query ``i`` of the pass is stream position ``(start + i) % len(stream)``.
    The pass stops issuing after ``seconds`` (time-bounded) or after
    ``count`` queries (count-bounded); the query in flight completes.
    ``on_result(position, result, latency)`` sees every answer, outside the
    latency window.  ``around(position, fn)`` may wrap each call (the
    trace's root span).  With ``cpu_probe`` (a time-bounded pass only),
    a sampler thread reads the serving CPU at ``slices + 1`` evenly spaced
    instants for :meth:`LoopResult.slice_medians`.
    """
    out = LoopResult()
    n = len(stream)
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None

    def sampler() -> None:
        for i in range(slices + 1):
            time.sleep(max(0.0, started + seconds * i / slices - time.perf_counter()))
            out.cpu_samples.append((time.perf_counter(), cpu_probe()))

    thread = threading.Thread(target=sampler) if cpu_probe is not None else None
    if thread is not None:
        thread.start()
    for i in itertools.count():
        if count is not None and i >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        position = (start + i) % n
        query = stream[position]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if around is None:
                result = call(query)
            else:
                result = around(position, lambda: call(query))
        except Exception as exc:  # counted, never fatal
            out.failed += 1
            out.errors.append(f"{position}: {type(exc).__name__}: {exc}")
            continue
        now = time.perf_counter()
        out.latencies.append(now - t0)
        out.done.append(now)
        out.positions.append(position)
        if on_result is not None:
            on_result(position, result, now - t0)
    if thread is not None:
        thread.join()
    return out
