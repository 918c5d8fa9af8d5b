"""Exact k-NN engines: distance evaluations and latency per query.

Not a paper figure — the cost record of the exact query paths on one
corpus (``benchmarks/results/BENCH_exact.json``):

- the STRG tree, ``STRGIndex.knn`` (Algorithm 3; the path behind the
  Fig. 7 distance-computation counts);
- ``ShardedIndex`` exact at 1 and 4 affine shards — one bound-ordered
  scan over the pivot fleet the shards share;
- one budgeted (approximate) query on the 4-shard index, for scale.

Evaluations are read from the ``distance.pairs_computed`` counter that
every batched distance call bumps, query-to-pivot evaluations included
(the paper's Section 6.3 cost model).  Latency is timed in a separate
pass with observability off.  Every exact path must return the
brute-force answer, bit-identically.

Scales (``BENCH_EXACT_SCALE``): ``smoke`` — 1 000 OGs, 8 queries;
``default`` — 10 000 OGs, 16 queries.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import format_table, record_result, short_patterns

from repro import observability
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.batch import one_vs_many
from repro.distance.eged import MetricEGED
from repro.parallel import usable_cpus
from repro.serving import ShardedIndex, ShardedIndexConfig

SCALE = os.environ.get("BENCH_EXACT_SCALE", "default").lower()
SMOKE = SCALE == "smoke"
NUM_OGS = 1_000 if SMOKE else 10_000
NUM_QUERIES = 8 if SMOKE else 16
K = 10
BUDGET = 200
TREE = STRGIndexConfig(n_clusters=8, em_iterations=2,
                       cluster_sample_size=256)


def _brute(ogs, query) -> list[tuple[float, int]]:
    dists = one_vs_many(MetricEGED(), query.values,
                        [og.values for og in ogs])
    ids = np.array([og.og_id for og in ogs])
    order = np.lexsort((ids, dists))[:K]
    return [(float(dists[i]), int(ids[i])) for i in order]


def _measure(name: str, search, queries, truth=None) -> dict:
    """Evaluations (counted pass) and ms/query (uncounted pass)."""
    registry = observability.registry()
    observability.configure(enabled=True)
    evals, answers = [], []
    try:
        for q in queries:
            before = registry.value("distance.pairs_computed", 0)
            hits = search(q)
            evals.append(registry.value("distance.pairs_computed", 0)
                         - before)
            answers.append([(d, og.og_id) for d, og, _ in hits])
    finally:
        observability.configure(enabled=False)
    t0 = time.perf_counter()
    for q in queries:
        search(q)
    ms = (time.perf_counter() - t0) / len(queries) * 1e3
    if truth is not None:
        assert answers == truth, f"{name}: answers differ from brute force"
    return {"path": name, "evals_per_query_median": float(np.median(evals)),
            "evals_per_query_mean": float(np.mean(evals)),
            "ms_per_query": ms}


def _sharded(ogs, shards: int) -> tuple[ShardedIndex, float]:
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=shards, placement="affine", index=TREE))
    t0 = time.perf_counter()
    index.build(ogs)
    return index, time.perf_counter() - t0


def bench_exact_report():
    """evals/query and ms/query per exact path; exactness gated."""
    patterns = short_patterns()
    ogs = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=NUM_OGS, seed=0, patterns=patterns))
    queries = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=NUM_QUERIES, seed=1, patterns=patterns))
    truth = [_brute(ogs, q) for q in queries]

    tree = STRGIndex(TREE)
    t0 = time.perf_counter()
    tree.build(ogs)
    builds = {"tree": time.perf_counter() - t0}
    rows = [_measure("tree (STRGIndex.knn)",
                     lambda q: tree.knn(q, K), queries, truth)]
    for shards in (1, 4):
        index, builds[f"sharded-{shards}"] = _sharded(ogs, shards)
        rows.append(_measure(f"sharded exact, {shards} affine",
                             lambda q: index.knn(q, K), queries, truth))
    rows.append(_measure(f"sharded budget={BUDGET}, 4 affine",
                         lambda q: index.knn(q, K, search_budget=BUDGET),
                         queries))

    report = {"scale": SCALE, "num_ogs": NUM_OGS,
              "num_queries": NUM_QUERIES, "k": K,
              "usable_cpus": usable_cpus(), "build_seconds": builds,
              "paths": rows}
    lines = [f"corpus: {NUM_OGS} OGs (scale={SCALE}, k={K}, "
             f"{NUM_QUERIES} queries, {usable_cpus()} usable CPUs)"]
    lines.extend(format_table(
        ["path", "evals/query (median)", "evals/query (mean)", "ms/query"],
        [[r["path"], f"{r['evals_per_query_median']:.0f}",
          f"{r['evals_per_query_mean']:.0f}", f"{r['ms_per_query']:.1f}"]
         for r in rows]))
    record_result("BENCH_exact", lines, data=report)

    tree_evals = rows[0]["evals_per_query_median"]
    for row in rows[1:3]:
        assert row["evals_per_query_median"] < tree_evals, (
            f"{row['path']} spent {row['evals_per_query_median']:.0f} "
            f"evaluations per query, the tree {tree_evals:.0f}")
