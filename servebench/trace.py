"""Span tracing from outside the program, by wrapping its public functions.

:class:`Tracer` replaces public functions and methods of ``repro.core.*``
and ``repro.storage.*`` with wrappers that record one span per call:
name, start, end, parent span and query id.  Spans stay in memory and are
written as JSON when the run ends.  The benchmark's own call around each
query is the root span (``client.query``), so a query's layer self times
sum to the latency the client saw.

Wrappers installed before a worker pool forks are inherited by the
workers.  A worker writes each query's spans as one JSON line to its own
file (``worker-<pid>.jsonl``) when the query's root span closes, and the
parent reads those files after the traced pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: (owner module or class, attribute, span name).  Module-level functions
#: are patched in every module that imported them by name.
LAYER_FUNCTIONS = [
    ("repro.core.supervision:SupervisedServerPool", "query", "supervision.query"),
    ("repro.core.dispatch:Dispatcher", "route", "dispatch.route"),
    ("repro.core.server:KBTIMServer", "query", "server.query"),
    ("repro.core.irr_index:IRRIndex", "query", "irr_index.query"),
    ("repro.core.server", "plan_theta_q", "rr_index.plan"),
    ("repro.core.rr_index", "plan_theta_q", "rr_index.plan"),
    ("repro.core.irr_index", "plan_theta_q", "rr_index.plan"),
    ("repro.core.rr_index:RRIndex", "load_keyword_csr", "rr_index.load"),
    ("repro.core.server", "merge_coverage_csr", "coverage.merge"),
    ("repro.core.rr_index", "merge_coverage_csr", "coverage.merge"),
    ("repro.core.server", "lazy_greedy_max_coverage", "coverage.greedy"),
    ("repro.core.rr_index", "lazy_greedy_max_coverage", "coverage.greedy"),
    ("repro.storage.segments:SegmentReader", "read", "pager.read"),
    ("repro.storage.segments:SegmentReader", "read_view", "pager.read"),
    ("repro.storage.segments:SegmentReader", "read_range", "pager.read"),
    ("repro.storage.segments:SegmentReader", "read_range_view", "pager.read"),
    ("repro.storage.records:RRSetsRecord", "decode_prefix_csr", "records.decode"),
    ("repro.storage.records:InvertedListsRecord", "decode_csr", "records.decode"),
]

ROOT_SPAN = "client.query"


def _resolve(target: str):
    import importlib

    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Patches:
    """Installs wrappers on program attributes and restores the originals."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(function)``, keeping its binding kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def count_calls(patches: Patches, target: str, attr: str) -> List[int]:
    """Count calls of one function; returns a one-element counter list."""
    counter = [0]

    def make(fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return counting

    patches.replace(_resolve(target), attr, make)
    return counter


class Tracer:
    """In-memory span recorder.  A span is
    ``[id, name, start_ns, end_ns, parent_id, query_id, note]``."""

    def __init__(self, worker_dir: str) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: List[list] = []
        self.patches = Patches()
        self._ids = self._id_counter()
        self._stack: List[list] = []
        self._worker_file = None
        self._worker_queries = itertools.count()

    # -- recording -------------------------------------------------------
    def _id_counter(self):
        """Span ids unique across the parent and its forked workers."""
        return itertools.count(self.pid * 10**9)

    def _enter(self, name: str, qid=None) -> list:
        if os.getpid() != self.pid:
            self._after_fork()
        stack = self._stack
        parent = stack[-1] if stack else None
        if qid is None:
            qid = parent[5] if parent is not None else (
                f"{self.pid}:{next(self._worker_queries)}"
            )
        span = [
            next(self._ids),
            name,
            time.perf_counter_ns(),
            0,
            parent[0] if parent is not None else -1,
            qid,
            None,
        ]
        stack.append(span)
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        if not stack and self._worker_file is not None:
            # A worker's query finished: hand its spans to the parent.
            self._worker_file.write(json.dumps(self.spans) + "\n")
            self._worker_file.flush()
            self.spans = []

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._ids = self._id_counter()
        self._stack = []
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        self._worker_file = open(path, "a")

    def root(self, position: int, fn: Callable):
        """Run ``fn`` inside the root span of the query at ``position``."""
        span = self._enter(ROOT_SPAN, qid=position)
        try:
            return fn()
        finally:
            self._exit(span)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every function of :data:`LAYER_FUNCTIONS`."""
        for target, attr, name in LAYER_FUNCTIONS:
            self.patches.replace(_resolve(target), attr, self._wrapper_factory(name))

    def _wrapper_factory(self, name: str) -> Callable:
        tracer = self

        def make(fn):
            if name == "rr_index.load":
                # Note the reads issued: zero means a prefix-cache hit.
                @functools.wraps(fn)
                def traced(index, *args, **kwargs):
                    span = tracer._enter(name)
                    before = index.stats.read_calls
                    try:
                        return fn(index, *args, **kwargs)
                    finally:
                        span[6] = index.stats.read_calls - before
                        tracer._exit(span)

                return traced
            if name == "dispatch.route":
                # Note the chosen shard.
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    span = tracer._enter(name)
                    try:
                        shard = fn(*args, **kwargs)
                        span[6] = shard
                        return shard
                    finally:
                        tracer._exit(span)

                return traced

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(span)

            return traced

        return make

    def uninstall(self) -> None:
        self.patches.restore()

    # -- collection ------------------------------------------------------
    def worker_offsets(self) -> Dict[str, int]:
        """Current sizes of the worker span files (to skip earlier spans)."""
        return {
            name: os.path.getsize(os.path.join(self.worker_dir, name))
            for name in os.listdir(self.worker_dir)
            if name.startswith("worker-")
        }

    def worker_spans(self, offsets: Dict[str, int]) -> List[list]:
        """Worker spans written after ``offsets`` was taken."""
        spans: List[list] = []
        for name in sorted(os.listdir(self.worker_dir)):
            if not name.startswith("worker-"):
                continue
            with open(os.path.join(self.worker_dir, name)) as fh:
                fh.seek(offsets.get(name, 0))
                for line in fh:
                    spans.extend(json.loads(line))
        return spans


def self_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive ns and self ns.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so self times of one query sum to
    its root span's duration.
    """
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[4] >= 0:
            child_ns[span[4]] += span[3] - span[2]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
    )
    for span in spans:
        duration = span[3] - span[2]
        entry = out[span[1]]
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns.get(span[0], 0)
    return dict(out)


def layer_table(
    parent: Dict[str, Dict[str, float]],
    worker: Dict[str, Dict[str, float]],
    n_queries: int,
) -> str:
    """The per-layer self-time table, next to the traced query latency."""
    root_ms = parent[ROOT_SPAN]["total_ns"] / n_queries / 1e6
    lines = [
        f"traced query latency (mean of {n_queries}): {root_ms:.3f} ms",
        f"{'layer':<28}{'calls/query':>12}{'self ms/query':>15}{'share':>9}",
    ]
    for side, table in (("", parent), ("worker ", worker)):
        for name in sorted(table, key=lambda k: -table[k]["self_ns"]):
            entry = table[name]
            self_ms = entry["self_ns"] / n_queries / 1e6
            label = side + (name + " (benchmark)" if name == ROOT_SPAN else name)
            lines.append(
                f"{label:<28}{entry['calls'] / n_queries:>12.2f}"
                f"{self_ms:>15.4f}{self_ms / root_ms:>9.1%}"
            )
    return "\n".join(lines)
