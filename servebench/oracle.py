"""Independent answer oracle for RR and IRR index answers.

The oracle shares no query-time code with the program under test.  It
plans Eqn. 11 itself from the benchmark's own copy of the offline sample
tables (θ_w, φ_w and the stored set count per keyword), builds the
coverage instance from those tables, and replays the greedy argument of
Algorithm 2 as a *check* rather than a re-run:

* θ equals the sum of the per-keyword prefix counts, and φ_Q equals Σφ_w;
* there are exactly k seeds, all distinct;
* each marginal equals the chosen seed's gain over the still-uncovered
  sets, equals the maximum gain any unselected vertex still offers, and
  never exceeds the previous marginal.

Any seed that attains the maximum gain is accepted, so ties may be
broken differently from today's program and still pass; the oracle is
not a copy of one implementation's output.

Run ``python3 servebench/oracle.py`` from the repository root for the
self-test: it builds a smoke-size RR and IRR index, checks their answers,
and confirms that a swapped seed, an off-by-one marginal and a wrong θ
are each rejected.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["OracleTables", "OracleError"]


class OracleError(AssertionError):
    """An answer failed one of the oracle's checks."""


class OracleTables:
    """The oracle's own copy of the offline sample tables.

    Per keyword: θ_w, φ_w, the stored RR-set count and the RR sets as a
    flat CSR (``ptr`` into ``vertices``).  Built once from the program's
    sample tables and kept independent of the index files.
    """

    def __init__(self, n_vertices: int, keywords: Dict[str, tuple]) -> None:
        self.n_vertices = int(n_vertices)
        # name -> (theta, phi_w, n_sets, ptr, vertices)
        self.keywords = keywords

    @classmethod
    def from_sample_tables(cls, n_vertices: int, tables) -> "OracleTables":
        """Copy the RR sets of ``{name: KeywordTable}`` into flat arrays."""
        keywords = {}
        for name, table in tables.items():
            rr_sets = table.rr_sets
            sizes = [len(rr) for rr in rr_sets]
            ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=ptr[1:])
            vertices = np.empty(int(ptr[-1]), dtype=np.int32)
            for i, rr in enumerate(rr_sets):
                vertices[ptr[i] : ptr[i + 1]] = rr
            keywords[name] = (
                int(table.theta),
                float(table.phi_w),
                len(sizes),
                ptr,
                vertices,
            )
        return cls(n_vertices, keywords)

    def save(self, path: str) -> None:
        """Write the tables to one ``.npz`` file."""
        arrays = {"n_vertices": np.asarray(self.n_vertices)}
        for i, (name, (theta, phi, n_sets, ptr, vertices)) in enumerate(
            sorted(self.keywords.items())
        ):
            arrays[f"name_{i}"] = np.asarray(name)
            arrays[f"scalars_{i}"] = np.asarray([theta, n_sets], dtype=np.int64)
            arrays[f"phi_{i}"] = np.asarray(phi, dtype=np.float64)
            arrays[f"ptr_{i}"] = ptr
            arrays[f"vertices_{i}"] = vertices
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "OracleTables":
        """Read tables written by :meth:`save`."""
        with np.load(path) as data:
            keywords = {}
            i = 0
            while f"name_{i}" in data:
                theta, n_sets = (int(x) for x in data[f"scalars_{i}"])
                keywords[str(data[f"name_{i}"])] = (
                    theta,
                    float(data[f"phi_{i}"]),
                    n_sets,
                    data[f"ptr_{i}"],
                    data[f"vertices_{i}"],
                )
                i += 1
            return cls(int(data["n_vertices"]), keywords)

    # ------------------------------------------------------------------
    def plan(self, keywords: Sequence[str]) -> Tuple[List[int], float]:
        """Eqn. 11: per-keyword active prefix counts and φ_Q.

        θ^Q = min_w θ_w / p_w with p_w = φ_w / φ_Q, so θ^Q·p_w equals
        φ_w · min_v (θ_v / φ_v); each count is clamped into [1, n_sets].
        """
        entries = []
        for name in keywords:
            if name not in self.keywords:
                raise OracleError(f"keyword {name!r} is not in the tables")
            entries.append(self.keywords[name])
        phi_q = math.fsum(entry[1] for entry in entries)
        rate = min(theta / phi for theta, phi, *_ in entries)
        counts = [
            max(1, min(n_sets, int(math.floor(rate * phi + 1e-9))))
            for _theta, phi, n_sets, _ptr, _vertices in entries
        ]
        return counts, phi_q

    def check(
        self,
        keywords: Sequence[str],
        k: int,
        seeds: Sequence[int],
        marginals: Sequence[int],
        theta: int,
        phi_q: float,
    ) -> None:
        """Raise :class:`OracleError` unless the answer is a valid greedy one."""
        counts, want_phi = self.plan(keywords)
        if int(theta) != sum(counts):
            raise OracleError(f"theta {theta} != summed prefix counts {sum(counts)}")
        if not math.isclose(float(phi_q), want_phi, rel_tol=1e-9, abs_tol=1e-12):
            raise OracleError(f"phi_q {phi_q!r} != sum of phi_w {want_phi!r}")
        if len(seeds) != k or len(marginals) != k:
            raise OracleError(
                f"expected {k} seeds and marginals, got {len(seeds)}/{len(marginals)}"
            )
        if len(set(int(s) for s in seeds)) != k:
            raise OracleError("seeds are not distinct")

        previous = None
        for pick, (gain, available, seed) in enumerate(
            self._replay(keywords, counts, seeds)
        ):
            marginal = int(marginals[pick])
            best = int(gain[available].max()) if available.any() else 0
            if gain[seed] != marginal:
                raise OracleError(
                    f"pick {pick}: marginal {marginal} != gain {int(gain[seed])} "
                    f"of seed {seed}"
                )
            if marginal != best:
                raise OracleError(
                    f"pick {pick}: marginal {marginal} != best available gain {best}"
                )
            if previous is not None and marginal > previous:
                raise OracleError(f"pick {pick}: marginals increase")
            previous = marginal

    def _replay(self, keywords: Sequence[str], counts: Sequence[int], seeds):
        """Yield ``(gain, available, seed)`` before each pick of ``seeds``.

        ``gain[v]`` is the number of still-uncovered active sets holding
        ``v``; ``available`` masks the vertices not picked yet.  The
        arrays are updated in place after each yield.
        """
        ptr_parts, vertex_parts = [np.zeros(1, dtype=np.int64)], []
        offset = 0
        for name, count in zip(keywords, counts):
            _theta, _phi, _n, ptr, vertices = self.keywords[name]
            ptr_parts.append(ptr[1 : count + 1] + offset)
            vertex_parts.append(vertices[: ptr[count]])
            offset += int(ptr[count])
        set_ptr = np.concatenate(ptr_parts)
        members = np.concatenate(vertex_parts).astype(np.int64)
        n = self.n_vertices
        set_of_member = np.repeat(
            np.arange(len(set_ptr) - 1, dtype=np.int64), np.diff(set_ptr)
        )
        vertex_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(members, minlength=n), out=vertex_ptr[1:])
        sets_of_vertex = set_of_member[np.argsort(members, kind="stable")]

        gain = np.bincount(members, minlength=n).astype(np.int64)
        covered = np.zeros(len(set_ptr) - 1, dtype=bool)
        available = np.ones(n, dtype=bool)
        for seed in seeds:
            seed = int(seed)
            if not 0 <= seed < n:
                raise OracleError(f"seed {seed} is not a vertex")
            yield gain, available, seed
            available[seed] = False
            fresh = sets_of_vertex[vertex_ptr[seed] : vertex_ptr[seed + 1]]
            fresh = fresh[~covered[fresh]]
            if len(fresh):
                covered[fresh] = True
                starts = set_ptr[fresh]
                lengths = set_ptr[fresh + 1] - starts
                # Segmented arange: every member position of the fresh sets.
                idx = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
                idx += np.arange(int(lengths.sum()), dtype=np.int64)
                np.subtract.at(gain, members[idx], 1)


class AnswerLog:
    """Checks every answer of a run, full oracle once per distinct answer.

    Answers are keyed by stream position: a repeat of a position whose
    answer is bit-identical to one already verified passes at the cost of
    a tuple comparison; any other answer gets the full oracle check.
    """

    def __init__(self) -> None:
        self.first: Dict[int, tuple] = {}
        self.others: List[Tuple[int, tuple]] = []

    @staticmethod
    def summary(result) -> tuple:
        return (
            tuple(result.seeds),
            tuple(result.marginal_coverages),
            int(result.theta),
            float(result.phi_q),
        )

    def record(self, position: int, result) -> None:
        answer = self.summary(result)
        known = self.first.get(position)
        if known is None:
            self.first[position] = answer
        elif known != answer:
            self.others.append((position, answer))

    def verify(self, tables: OracleTables, stream) -> int:
        """Oracle-check every distinct answer; return how many were checked."""
        checked = 0
        for position, answer in list(self.first.items()) + self.others:
            query = stream[position]
            seeds, marginals, theta, phi_q = answer
            try:
                tables.check(query.keywords, query.k, seeds, marginals, theta, phi_q)
            except OracleError as exc:
                raise OracleError(f"stream position {position} {query!r}: {exc}")
            checked += 1
        return checked


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------
def _rejects(tables: OracleTables, args: tuple) -> bool:
    try:
        tables.check(*args)
    except OracleError:
        return True
    return False


def self_test(root: Optional[str] = None) -> int:
    """Smoke-size self-test; returns the number of answers checked."""
    import os
    import tempfile

    from servebench.setup import import_program

    import_program(root)
    from repro.core.irr_index import IRRIndex, write_irr_index
    from repro.core.offline import sample_keyword_tables
    from repro.core.rr_index import RRIndex, write_rr_index
    from repro.core.theta import ThetaPolicy
    from repro.datasets.synthetic import twitter_dataset
    from repro.datasets.workload import make_mixed_workload
    from repro.storage.compression import Codec

    data = twitter_dataset(n=400, avg_degree=6.0, n_topics=8, seed=5)
    policy = ThetaPolicy(epsilon=0.5, K=50, cap=300)
    samples = sample_keyword_tables(data.ic_model, data.profiles, policy=policy, rng=9)
    tables = OracleTables.from_sample_tables(data.graph.n, samples)
    stream = make_mixed_workload(
        data.profiles, n_queries=40, ks=(5, 10, 20), rng=13
    )
    answers = []
    with tempfile.TemporaryDirectory(dir=root or ".") as tmp:
        rr_path = os.path.join(tmp, "smoke.rr")
        irr_path = os.path.join(tmp, "smoke.irr")
        write_rr_index(rr_path, samples, n_vertices=data.graph.n, policy=policy,
                       codec=Codec.PFOR)
        write_irr_index(irr_path, samples, n_vertices=data.graph.n, policy=policy,
                        codec=Codec.PFOR, delta=20)
        saved = os.path.join(tmp, "tables.npz")
        tables.save(saved)
        tables = OracleTables.load(saved)
        for index in (RRIndex(rr_path), IRRIndex(irr_path)):
            with index:
                for query in stream:
                    result = index.query(query)
                    args = (query.keywords, query.k) + AnswerLog.summary(result)
                    tables.check(*args)
                    answers.append(args)

    # Corrupt the answer with the most distinct marginals.
    keywords, k, seeds, marginals, theta, phi_q = max(
        answers, key=lambda args: len(set(args[3]))
    )
    # A swapped seed: exchange a seed for a vertex with a lower gain.
    lower = [i for i in range(1, k) if marginals[i] < marginals[0]]
    if not lower:
        raise OracleError("self-test: no answer with a decreasing marginal")
    swapped = list(seeds)
    swapped[0], swapped[lower[0]] = swapped[lower[0]], swapped[0]
    unselected = next(v for v in range(tables.n_vertices) if v not in seeds)
    replaced = list(seeds)
    replaced[0] = unselected
    off_by_one = list(marginals)
    off_by_one[-1] += 1
    corrupted = {
        "swapped seed order": (keywords, k, swapped, marginals, theta, phi_q),
        "replaced seed": (keywords, k, replaced, marginals, theta, phi_q),
        "off-by-one marginal": (keywords, k, seeds, off_by_one, theta, phi_q),
        "wrong theta": (keywords, k, seeds, marginals, theta + 1, phi_q),
        "wrong phi_q": (keywords, k, seeds, marginals, theta, phi_q * 1.01),
        "duplicate seed": (keywords, k, [seeds[0]] * k, marginals, theta, phi_q),
        "missing seed": (keywords, k, seeds[:-1], marginals[:-1], theta, phi_q),
    }
    for label, args in corrupted.items():
        if not _rejects(tables, args):
            raise OracleError(f"self-test: oracle accepted a corrupted answer ({label})")
        print(f"rejected: {label}")
    # Ties are accepted: at the last pick, any other unselected vertex of
    # equal gain is an equally valid greedy answer.
    for keywords, k, seeds, marginals, theta, phi_q in answers:
        counts, _phi = tables.plan(keywords)
        for pick, (gain, available, last) in enumerate(
            tables._replay(keywords, counts, seeds)
        ):
            if pick == k - 1:
                break
        tied = np.flatnonzero(available & (gain == gain[last]))
        tied = tied[tied != last]
        if len(tied) and marginals[-1] > 0:
            tie = list(seeds[:-1]) + [int(tied[0])]
            tables.check(keywords, k, tie, marginals, theta, phi_q)
            print(f"accepted: seed {int(tied[0])} tied with {last} at the last pick")
            break
    else:
        raise OracleError("self-test: no answer with a tie at its last pick")
    return len(answers)


if __name__ == "__main__":
    import os

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    n = self_test(os.getcwd())
    print(f"oracle self-test passed: {n} answers checked, corrupted answers rejected")
