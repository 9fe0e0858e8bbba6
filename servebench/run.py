"""KB-TIM serving benchmark: one workload, one run.

Usage (from the repository root)::

    python3 servebench/run.py --workload hot-pool --seed 1 --seconds 16 --trace 0

``--trace 0`` sets up the workload, runs a closed loop for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs the same set-up,
then two count-bounded passes over the same queries on freshly opened
servers, the first untraced and the second with every layer wrapped in
spans, and reports the per-layer metrics plus the tracing overhead.
Every answer is checked by the independent oracle (``oracle.py``).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from servebench import measure  # noqa: E402
from servebench.setup import (  # noqa: E402
    ROOT,
    STREAM_LENGTH,
    WORKLOADS,
    build_index,
    import_program,
    open_served,
)

#: Working space inside the checkout: indexes, oracle tables, worker spans.
WORK_DIR = os.path.join(ROOT, ".servebench")
#: The timed window is cut into this many slices; qps and CPU per query
#: are the medians of their per-slice values.
SLICES = 5


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    """What one run measured, before the oracle check."""

    attempted: int
    failed: int
    errors: list
    stream: tuple
    metrics: dict  # name -> (value, unit)
    #: Extra fields for the run record.
    record: dict = field(default_factory=dict)
    spans: Optional[dict] = None


def set_up(workload, seed: int, run_dir: str, answers):
    """All of a workload's set-ups; returns ``(served, stream, setup_times)``.

    The last set-up stays open.  Answers of its warm-up queries go to
    ``answers`` (they are checked like every other answer).
    """
    path = os.path.join(run_dir, f"index.{workload.kind}")
    oracle_path = os.path.join(run_dir, "oracle.npz")
    times, served = [], None
    for rep in range(workload.setups):
        if served is not None:
            served.close()
        phases, stream = build_index(
            workload, seed, path, oracle_path if rep == 0 else None
        )
        started = time.perf_counter()
        served = open_served(workload, path)
        phases["open_s"] = time.perf_counter() - started
        started = time.perf_counter()
        warm = warm_up(served, stream, answers)
        phases["warm_s"] = time.perf_counter() - started
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.errors[:3]}")
        served.phases = phases
        times.append(sum(phases.values()))
        log(f"setup {rep + 1}/{workload.setups}: {sum(phases.values()):.3f} s "
            + " ".join(f"{k}={v:.3f}" for k, v in phases.items()))
    return served, stream, times


def warm_up(served, stream, answers):
    w = served.workload
    return measure.closed_loop(
        served.call, stream, start=0, count=w.warmup,
        on_result=lambda pos, result, _lat: answers.record(pos, result),
    )


def worker_pids(served):
    return served.server.pool.pids if served.workload.server == "pool" else []


def serving_cpu(served) -> float:
    return time.process_time() + sum(measure.cpu_seconds(p) for p in worker_pids(served))


def serving_pss(served) -> float:
    return measure.pss_mb(os.getpid()) + sum(
        measure.pss_mb(p) for p in worker_pids(served)
    )


def timed_run(workload, seed: int, seconds: float, run_dir: str, answers):
    served, stream, setup_times = set_up(workload, seed, run_dir, answers)
    steal = measure.steal_seconds()
    try:
        loop = measure.closed_loop(
            served.call, stream, start=workload.warmup % STREAM_LENGTH,
            seconds=seconds,
            on_result=lambda pos, result, _lat: answers.record(pos, result),
            cpu_probe=lambda: serving_cpu(served), slices=SLICES,
        )
        pss = serving_pss(served)
    finally:
        served.close()
    steal = measure.steal_seconds() - steal
    sliced = loop.slice_medians()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "qps": (sliced["qps"], "1/s"),
        "p50_ms": (loop.percentile_ms(50), "ms"),
        "p99_ms": (loop.p99_ms(), "ms"),
        "cpu_ms_per_query": (sliced["cpu_ms_per_query"], "ms"),
        "pss_mb": (pss, "MB"),
        "index_mb": (os.path.getsize(served.index_path) / 1e6, "MB"),
    }
    if len(set(loop.positions)) < 1000:
        log(f"warning: {len(set(loop.positions))} distinct queries; p99 needs >= 1000")
    return Outcome(
        loop.attempted, loop.failed, loop.errors, stream, metrics,
        {"queries": loop.attempted, "steal_s": round(steal, 2)},
    )


def traced_run(workload, seed: int, run_dir: str, answers):
    from servebench import trace

    # Set-up once, counting the index writer's per-list encode calls.
    patches = trace.Patches()
    encode_calls = trace.count_calls(patches, "repro.storage.records", "compress_ids")
    try:
        served, stream, _times = set_up(
            replace(workload, setups=1), seed, run_dir, answers
        )
    finally:
        patches.restore()
    phases = served.phases
    n = workload.trace_queries
    start = workload.warmup % STREAM_LENGTH

    # Pass A: untraced, on the server left by the set-up.
    try:
        untraced = measure.closed_loop(
            served.call, stream, start=start, count=n,
            on_result=lambda pos, result, _lat: answers.record(pos, result),
        )
    finally:
        served.close()

    # Pass B: the same queries, traced, on a freshly opened and warmed server.
    worker_dir = os.path.join(run_dir, "spans")
    os.makedirs(worker_dir)
    tracer = trace.Tracer(worker_dir)
    tracer.install()
    stats = {"partitions": 0, "rr_sets": 0, "wait": 0.0}

    def on_result(pos, result, latency):
        answers.record(pos, result)
        stats["partitions"] += result.stats.partitions_loaded
        stats["rr_sets"] += result.stats.rr_sets_loaded
        stats["wait"] += latency - result.stats.elapsed_seconds

    try:
        served = open_served(workload, served.index_path)
        try:
            if warm_up(served, stream, answers).failed:
                raise RuntimeError("warm-up of the traced server failed")
            tracer.spans.clear()
            offsets = tracer.worker_offsets()
            counters_before = program_counters(served)
            traced = measure.closed_loop(
                served.call, stream, start=start,
                count=n, on_result=on_result, around=tracer.root,
            )
            counters = {
                key: value - counters_before[key]
                for key, value in program_counters(served).items()
            }
            worker_pss = sum(measure.pss_mb(p) for p in worker_pids(served))
        finally:
            served.close()
        worker_spans = tracer.worker_spans(offsets)
    finally:
        tracer.uninstall()
    parent_spans = tracer.spans

    parent = trace.self_times(parent_spans)
    worker = trace.self_times(worker_spans)
    layers = dict(worker)
    for name, entry in parent.items():
        layers.setdefault(name, entry)
    answered = traced.answered

    def per_query_ms(name: str, key: str = "self_ns") -> float:
        return layers[name][key] / answered / 1e6 if name in layers else 0.0

    loads = [s[6] for s in parent_spans + worker_spans if s[1] == "rr_index.load"]
    shards = [s[6] for s in parent_spans if s[1] == "dispatch.route"]
    shard_counts = [shards.count(s) for s in range(2)] if shards else []
    plan = layers.get("rr_index.plan")
    root = parent[trace.ROOT_SPAN]
    touched = counters["pages_read"] + counters["pages_hit"]
    blocks = counters["block_hits"] + counters["block_misses"]
    untraced_p50 = untraced.percentile_ms(50)
    traced_p50 = traced.percentile_ms(50)
    accounted = 1.0 - root["self_ns"] / root["total_ns"]
    metrics = {
        "offline.sample_s": (phases["sample_s"], "s"),
        "storage.write_s": (phases["write_s"], "s"),
        "compression.encode_calls": (encode_calls[0], "count"),
        "pager.pages_read_per_query": (counters["pages_read"] / answered, "count"),
        "pager.page_hit_ratio": (counters["pages_hit"] / touched if touched else 0.0,
                                 "ratio"),
        "records.decode_ms_per_query": (per_query_ms("records.decode"), "ms"),
        "rr_index.plan_us": (
            plan["total_ns"] / plan["calls"] / 1e3 if plan else 0.0, "us"),
        "rr_index.load_ms_per_query": (per_query_ms("rr_index.load", "total_ns"), "ms"),
        "rr_index.prefix_hit_ratio": (
            loads.count(0) / len(loads) if loads else 0.0, "ratio"),
        "server.block_hit_ratio": (
            counters["block_hits"] / blocks if blocks else 0.0, "ratio"),
        "server.block_misses": (counters["block_misses"], "count"),
        "coverage.merge_ms_per_query": (per_query_ms("coverage.merge"), "ms"),
        "coverage.greedy_ms_per_query": (per_query_ms("coverage.greedy"), "ms"),
        "dispatch.shard_max_over_mean": (
            max(shard_counts) / (sum(shard_counts) / len(shard_counts))
            if shard_counts else 0.0, "ratio"),
        "process_pool.wait_ms_per_query": (
            stats["wait"] / answered * 1e3 if workload.server == "pool" else 0.0,
            "ms"),
        "supervision.restarts": (counters["restarts"], "count"),
        "supervision.retries": (counters["retries"], "count"),
        "supervision.sheds": (counters["sheds"], "count"),
        "irr_index.partitions_per_query": (stats["partitions"] / answered, "count"),
        "irr_index.rr_sets_loaded_per_query": (
            stats["rr_sets"] / answered if workload.kind == "irr" else 0.0, "count"),
        "irr_index.nra_ms_per_query": (per_query_ms("irr_index.query"), "ms"),
        "memory.worker_pss_mb": (worker_pss, "MB"),
        "trace.untraced_p50_ms": (untraced_p50, "ms"),
        "trace.traced_p50_ms": (traced_p50, "ms"),
        "trace.overhead_pct": ((traced_p50 / untraced_p50 - 1.0) * 100, "%"),
        "trace.accounted_pct": (accounted * 100, "%"),
    }
    log(trace.layer_table(parent, worker, answered))
    if worker:
        log("(worker rows run inside supervision.query's self time)")
    log(f"tracing overhead: p50 {untraced_p50:.3f} ms untraced -> "
        f"{traced_p50:.3f} ms traced ({metrics['trace.overhead_pct'][0]:+.1f} %); "
        f"layers account for {accounted:.1%} of the traced latency")
    return Outcome(
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.errors + traced.errors,
        stream,
        metrics,
        {"queries": untraced.attempted + traced.attempted},
        {"parent": parent_spans, "worker": worker_spans},
    )


def program_counters(served) -> dict:
    """The program's own cumulative counters relevant to the layers."""
    w = served.workload
    if w.server == "pool":
        io = served.server.io_stats
        st = served.server.stats
    else:
        io = served.index.stats
        st = served.server.stats if w.server == "server" else None
    return {
        "pages_read": io.pages_read,
        "pages_hit": io.pages_hit,
        "block_hits": st.keyword_hits if st else 0,
        "block_misses": st.keyword_misses if st else 0,
        "restarts": st.restarts if st else 0,
        "retries": st.retries if st else 0,
        "sheds": st.sheds if st else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy

    from servebench.oracle import AnswerLog, OracleError, OracleTables

    workload = WORKLOADS[args.workload]
    shm_before = measure.program_shm_segments()
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    answers = AnswerLog()
    try:
        if args.trace:
            outcome = traced_run(workload, args.seed, run_dir, answers)
        else:
            outcome = timed_run(workload, args.seed, args.seconds, run_dir, answers)
        tables = OracleTables.load(os.path.join(run_dir, "oracle.npz"))
        try:
            checked = answers.verify(tables, outcome.stream)
            correct = True
        except OracleError as exc:
            log(f"oracle: {exc}")
            checked, correct = 0, False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Hygiene: nothing the run started may outlive it.
    import multiprocessing
    from multiprocessing import resource_tracker

    if getattr(resource_tracker._resource_tracker, "_pid", None) is not None:
        resource_tracker._resource_tracker._stop()  # started by shared memory
    leaked = [p.pid for p in multiprocessing.active_children()]
    leaked_shm = sorted(measure.program_shm_segments() - shm_before)
    if leaked or leaked_shm:
        log(f"error: run leaked worker processes {leaked} / segments {leaked_shm}")
        return 1

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome.record,
        "stream_length": STREAM_LENGTH,
        "answers_checked": checked,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    metrics = outcome.metrics
    if outcome.spans is not None:
        trace_dir = os.path.join(WORK_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        out = os.path.join(trace_dir, f"{workload.name}-seed{args.seed}.json")
        with open(out, "w") as fh:
            json.dump({"run": info, "metrics": metrics, **outcome.spans}, fh)
        info["trace_file"] = os.path.relpath(out, ROOT)
    if outcome.errors:
        log("failed queries: " + "; ".join(outcome.errors[:5]))
    print("run " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
