"""Workload definitions and set-up: dataset, sampling, index, server.

The twitter-like graph and its profiles are fixed (``DATASET_SEED``), so
all three workloads share one graph; the run's ``--seed`` drives the
offline sampling RNG and the query stream.  The
set-up of one workload is, in order (and all of it counts toward
``setup_s``): generate the dataset, sample the per-keyword RR tables,
write the index, release the build inputs, open the reader or start the
pool, and warm up with the first queries of the stream.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Graph size and density (the scaled Twitter family's n=3000 point).
DATASET_SEED = 2015
N_VERTICES = 3000
AVG_DEGREE = 11.5
#: Index settings: ε, the system-wide seed budget K, θ_w cap, IRR δ.
EPSILON = 0.5
K_MAX = 100
CAP = 1200
DELTA = 100
#: Query stream: lengths 1..6, k in {10, 25, 50}, Zipf(1.0) keywords.
LENGTHS = (1, 2, 3, 4, 5, 6)
KS = (10, 25, 50)
ZIPF = 1.0
#: Queries in one stream; the closed loop cycles through it.  Long
#: enough that the single-client workloads never repeat a query within a
#: run, so their tail is set by many distinct heavy queries.
STREAM_LENGTH = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "rr" or "irr"
    n_topics: int
    server: str  # "pool", "server" or "irr"
    #: Queries answered during set-up to fill the caches.
    warmup: int
    #: Full set-ups per run; setup_s is their median.
    setups: int
    #: Queries in each of the trace run's untraced and traced passes.
    trace_queries: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hot-pool", "rr", 16, "pool", warmup=400,
            setups=3, trace_queries=2000,
        ),
        Workload(
            "longtail-cold", "rr", 200, "server", warmup=100,
            setups=1, trace_queries=600,
        ),
        Workload(
            "irr-nra", "irr", 200, "irr", warmup=100,
            setups=1, trace_queries=600,
        ),
    )
}


def import_program(root: Optional[str] = None) -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if absent."""
    src = os.path.join(root or ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no program sources at {src}/repro")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass
class Served:
    """What a set-up leaves running: the thing queries are sent to."""

    workload: Workload
    index_path: str
    call: object  # query -> SeedSelection
    close: object  # () -> None
    server: object = None  # KBTIMServer, SupervisedServerPool or IRRIndex
    index: object = None  # RRIndex / IRRIndex (in-process workloads)
    phases: Dict[str, float] = field(default_factory=dict)


def build_index(workload: Workload, seed: int, path: str, oracle_path: Optional[str]):
    """Generate, sample and write one index.

    Returns ``(phases, stream)``: seconds per set-up phase and the seeded
    query stream.  When ``oracle_path`` is given, the oracle's copy of
    the sample tables is written there.  The stream and the oracle copy
    are made outside the timed phases; the build inputs are released
    before returning.
    """
    from repro.core.irr_index import write_irr_index
    from repro.core.offline import sample_keyword_tables
    from repro.core.rr_index import write_rr_index
    from repro.core.theta import ThetaPolicy
    from repro.datasets.synthetic import twitter_dataset
    from repro.datasets.workload import make_mixed_workload
    from repro.storage.compression import Codec

    from servebench.oracle import OracleTables

    phases = {}
    started = time.perf_counter()
    data = twitter_dataset(
        n=N_VERTICES, avg_degree=AVG_DEGREE, n_topics=workload.n_topics,
        seed=DATASET_SEED,
    )
    model = data.ic_model
    phases["dataset_s"] = time.perf_counter() - started
    stream = make_mixed_workload(
        data.profiles,
        n_queries=STREAM_LENGTH,
        lengths=LENGTHS,
        ks=KS,
        zipf_exponent=ZIPF,
        rng=seed + 2,
    )
    started = time.perf_counter()
    policy = ThetaPolicy(epsilon=EPSILON, K=K_MAX, cap=CAP)
    tables = sample_keyword_tables(model, data.profiles, policy=policy, rng=seed + 1)
    phases["sample_s"] = time.perf_counter() - started

    if oracle_path is not None:
        OracleTables.from_sample_tables(N_VERTICES, tables).save(oracle_path)

    started = time.perf_counter()
    if workload.kind == "rr":
        write_rr_index(path, tables, n_vertices=N_VERTICES, policy=policy,
                       codec=Codec.PFOR)
    else:
        write_irr_index(path, tables, n_vertices=N_VERTICES, policy=policy,
                        codec=Codec.PFOR, delta=DELTA)
    phases["write_s"] = time.perf_counter() - started

    started = time.perf_counter()
    del data, model, tables
    gc.collect()
    phases["release_s"] = time.perf_counter() - started
    return phases, stream


def open_served(workload: Workload, path: str) -> Served:
    """Open the reader, server or pool over a written index."""
    if workload.server == "pool":
        from repro.core.supervision import SupervisedServerPool

        pool = SupervisedServerPool(path, n_workers=2)
        return Served(workload, path, pool.query, pool.close, server=pool)
    if workload.server == "server":
        from repro.core.rr_index import RRIndex
        from repro.core.server import KBTIMServer

        index = RRIndex(path)
        server = KBTIMServer(index)
        return Served(workload, path, server.query, index.close, server, index)
    from repro.core.irr_index import IRRIndex

    index = IRRIndex(path)
    return Served(workload, path, index.query, index.close, index, index)
