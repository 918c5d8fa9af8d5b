"""The sharded exact scan against a brute-force oracle.

``ShardedIndex`` answers exact k-NN and range queries with one
bound-ordered scan over a pivot fleet its shards share.  These tests
check it differentially: every answer must equal a full
``one_vs_many`` sweep ranked by ``(distance, og_id)`` — on corpora full
of exact ties, duplicate series and length-1 trajectories, at every
placement and shard count, under background routing, interleaved live
writes and multi-process serving.  They also cover stores written before
shards carried sketches, and the batched signature encoder.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import STRGIndexConfig
from repro.datasets.patterns import ALL_PATTERNS
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import as_series
from repro.distance.batch import one_vs_many
from repro.distance.bounds import pivot_lower_bounds
from repro.distance.eged import MetricEGED
from repro.graph.attributes import NodeAttributes
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.graph.rag import RegionAdjacencyGraph
from repro.search.sketch import SketchConfig, SketchIndex
from repro.serving import (
    LiveIndex,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
)
from repro.storage.store import open_store

LAYOUTS = [(n, p) for p in ("hash", "affine") for n in (1, 2, 4)]


def oracle(ogs, query) -> list[tuple[float, int]]:
    """Every ``(distance, og_id)``, ranked — the brute-force answer key."""
    dists = one_vs_many(MetricEGED(), as_series(query),
                        [as_series(og) for og in ogs])
    ids = np.array([og.og_id for og in ogs], dtype=np.int64)
    order = np.lexsort((ids, dists))
    return [(float(dists[i]), int(ids[i])) for i in order]


def pairs(hits) -> list[tuple[float, int]]:
    return [(d, og.og_id) for d, og, _ in hits]


def within(truth, radius):
    return [t for t in truth if t[0] <= radius]


def sharded(ogs, num_shards, placement, **build_kwargs) -> ShardedIndex:
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=num_shards, placement=placement, coarse_iterations=2,
        index=STRGIndexConfig(n_clusters=2, em_iterations=2)))
    index.build(ogs, **build_kwargs)
    return index


def background(color) -> BackgroundGraph:
    rag = RegionAdjacencyGraph()
    rag.add_node(0, NodeAttributes(size=1000, color=color,
                                   centroid=(50.0, 50.0)))
    return BackgroundGraph(rag, frame_count=10)


def og(points) -> ObjectGraph:
    return ObjectGraph.from_values(np.asarray(points, dtype=np.float64))


# Integer grid points make exact distance ties common.
_series = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   min_size=1, max_size=5)


@st.composite
def corpora(draw):
    """A small corpus with duplicated series and length-1 trajectories."""
    base = draw(st.lists(_series, min_size=1, max_size=10))
    copies = draw(st.lists(st.sampled_from(base), max_size=10))
    singles = draw(st.lists(_series.map(lambda s: s[:1]), max_size=3))
    return [og(s) for s in base + copies + singles]


def check_exact(index, ogs, query) -> None:
    truth = oracle(ogs, query)
    n = len(ogs)
    for k in sorted({1, min(3, n), n, n + 1}):
        assert pairs(index.knn(query, k)) == truth[:k]
    # A prune bound equal to the true k-th distance leaves ties intact.
    k = min(3, n)
    assert pairs(index.knn(query, k, prune_bound=truth[k - 1][0])) \
        == truth[:k]
    # Radii exactly on (tied) distances keep every boundary hit.
    for radius in {truth[0][0], truth[k - 1][0], truth[-1][0]}:
        assert pairs(index.range_query(query, radius)) \
            == within(truth, radius)


class TestDifferentialExactness:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ogs=corpora(), query=_series, layout=st.sampled_from(LAYOUTS))
    def test_knn_and_range_match_brute_force(self, ogs, query, layout):
        index = sharded(ogs, *layout)
        check_exact(index, ogs, np.asarray(query, dtype=np.float64))
        # The corpus members themselves: distance-0 hits with duplicates.
        check_exact(index, ogs, ogs[0])

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_background_routing_is_a_row_mask(self, num_shards):
        ogs_a = generate_synthetic_ogs(SyntheticConfig(num_ogs=24, seed=1))
        ogs_b = generate_synthetic_ogs(SyntheticConfig(num_ogs=16, seed=2))
        bg_a = background((100.0, 100.0, 100.0))
        bg_b = background((250.0, 0.0, 0.0))
        # Hash placement over consecutive og_ids gives every shard
        # members of both backgrounds, so each shard routes to one root.
        index = sharded(ogs_a, num_shards, "hash", background=bg_a)
        index.build(ogs_b, background=bg_b)
        for query, bg, members in ((ogs_a[0], bg_a, ogs_a),
                                   (ogs_b[3], bg_b, ogs_b)):
            truth = oracle(members, query)
            for k in (1, 5, len(members) + 1):
                assert pairs(index.knn(query, k, background=bg)) \
                    == truth[:k]
            radius = truth[4][0]
            assert pairs(index.range_query(query, radius, background=bg)) \
                == within(truth, radius)
        assert pairs(index.knn(ogs_b[3], 8)) \
            == oracle(ogs_a + ogs_b, ogs_b[3])[:8]

    def test_live_index_interleaved_writes_stay_exact(self):
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=70, seed=4))
        ogs += [og(ogs[i].values) for i in (0, 5, 9)] + [og([[1.0, 2.0]])]
        queries = [ogs[2], ogs[-1], og([[0.0, 0.0], [3.0, 4.0]])]
        live = LiveIndex(sharded(ogs[:34], 2, "affine"))
        present = list(ogs[:34])
        rng = np.random.default_rng(0)
        for lo in range(34, len(ogs), 10):
            batch = ogs[lo:lo + 10]
            live.bulk_insert(batch)
            present += batch
            for i in sorted(rng.choice(len(present), 3, replace=False),
                            reverse=True):
                live.delete(present.pop(int(i)).og_id)
            live.compact()
            index = live.snapshot.index
            sketches = index.shard_sketches()
            assert [len(s) for s in sketches] == index.shard_sizes()
            # Cloned snapshots keep one shared fleet: one pivot sweep.
            assert len({id(s.pivots) for s in sketches}) == 1
            for query in queries:
                truth = oracle(present, query)
                assert pairs(live.knn(query, 5)) == truth[:5]
                radius = truth[4][0]
                assert pairs(live.range_query(query, radius)) \
                    == within(truth, radius)


class TestWorkerPool:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=60, seed=8))
        ogs += [og(ogs[i].values) for i in (1, 2, 3)]
        ogs += [og([[2.0, 2.0]]), og([[2.0, 2.0]])]
        index = sharded(ogs, 4, "affine",
                        clip_refs=[f"clip-{i}" for i in range(len(ogs))])
        path = os.path.join(tmp_path_factory.mktemp("exact"), "c.strg")
        target = open_store(path, format="columnar")
        target.write_index(index)
        reference = open_store(target.path).load_index(mmap=True)
        return target.path, reference, ogs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_matches_brute_force(self, store, workers):
        path, reference, ogs = store
        # Loaded shards carry equal pivot copies; loading re-shares them.
        assert len({id(s.pivots) for s in reference.shard_sketches()}) == 1
        corpus = list(reference.object_graphs())
        queries = [ogs[1], ogs[-1], og([[0.0, 0.0], [9.0, 9.0]])]
        with WorkerPool(path, WorkerPoolConfig(workers=workers)) as pool:
            for query in queries:
                truth = oracle(corpus, query)
                got = reference.knn(query, 6)
                assert pairs(got) == truth[:6]
                assert [(h.distance, h.clip_ref)
                        for h in pool.knn(query, 6).hits] \
                    == [(d, ref) for d, _, ref in got]
                radius = truth[6][0]
                ranged = reference.range_query(query, radius)
                assert pairs(ranged) == within(truth, radius)
                assert [(h.distance, h.clip_ref)
                        for h in pool.range_query(query, radius).hits] \
                    == [(d, ref) for d, _, ref in ranged]


def _strip_sketches_and_retire_options(index, path: str, fmt: str) -> str:
    """Write ``index`` the way stores were written before shards carried
    sketches: no ``sketch_*`` columns, and ``eval_batch``/``prune_slack``
    in the serving config."""
    for shard in index.shards:
        shard._sketches = None
    retired = {"eval_batch": 32, "prune_slack": 1e-9}
    if fmt == "columnar":
        store = open_store(path, format="columnar")
        store.write_index(index)
        manifest_path = os.path.join(store.path, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["serving_config"].update(retired)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        return store.path
    from repro.storage.serialize import (
        _atomic_savez,
        _verified_load,
        save_sharded_index,
    )

    target = save_sharded_index(path, index)
    arrays = {name: value for name, value in _verified_load(target).items()
              if not name.startswith("__")}
    config = json.loads(str(arrays["serving_config"]))
    config.update(retired)
    arrays["serving_config"] = np.array(json.dumps(config))
    return _atomic_savez(target, arrays)


class TestStoresWithoutShardSketches:
    @pytest.mark.parametrize("fmt", ["columnar", "npz"])
    def test_load_and_answer_bit_identically(self, tmp_path, fmt):
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=80, seed=3))
        refs = [f"clip-{i}" for i in range(len(ogs))]
        index = sharded(ogs, 4, "affine", clip_refs=refs)
        queries = [ogs[0], ogs[41], og([[1.0, 1.0], [5.0, 2.0]])]
        want = [[(d, ref) for d, _, ref in index.knn(q, 7)]
                for q in queries]
        path = _strip_sketches_and_retire_options(
            index, os.path.join(tmp_path, "old"), fmt)
        old = open_store(path).load_index()
        assert all(shard._sketches is None for shard in old.shards)
        assert [[(d, ref) for d, _, ref in old.knn(q, 7)]
                for q in queries] == want
        # One fleet, fitted lazily, shared by every shard.
        assert len({id(s.pivots) for s in old.shard_sketches()}) == 1
        truth = {ref: d for d, ref in want[1]}
        approx = old.knn(queries[1], 7, search_budget=40)
        assert len(approx) == 7
        assert all(truth.get(ref, d) == d for d, _, ref in approx)


def _bench_series(n: int) -> list[np.ndarray]:
    patterns = [dataclasses.replace(p, length_range=(10, 20))
                for p in ALL_PATTERNS]
    return [as_series(o) for o in generate_synthetic_ogs(
        SyntheticConfig(num_ogs=n, seed=0, patterns=patterns))]


class TestBatchedSignatures:
    def test_bench_corpus_codes_bit_identical(self):
        series = _bench_series(10_000)
        sketch = SketchIndex.fit(MetricEGED(), series[:300])
        batched = sketch._signatures(series)
        assert batched.dtype == np.int16
        assert np.array_equal(
            batched, np.stack([sketch.signature(s) for s in series]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=90),
                    min_size=1, max_size=12),
           st.integers(1, 3), st.integers(1, 24), st.booleans())
    def test_any_series_codes_bit_identical(self, raw, dims, sig_length,
                                            constant):
        series = [np.asarray(s[:len(s) // dims * dims],
                             dtype=np.float64).reshape(-1, dims)
                  for s in raw]
        if constant:
            series = [np.repeat(s[:1], len(s), axis=0) for s in series]
        sketch = SketchIndex(SketchConfig(sig_length=sig_length))
        sketch.bbox = (np.array([-500.0, -500.0]), np.array([500.0, 500.0]))
        assert np.array_equal(
            sketch._signatures(series),
            np.stack([sketch.signature(s) for s in series]))


class TestPivotLowerBounds:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_columnwise_max_matches_the_row_max(self, n, p, seed):
        rng = np.random.default_rng(seed)
        corpus_pd = rng.normal(size=(n, p)) * 100.0
        query_pd = rng.normal(size=p) * 100.0
        assert np.array_equal(pivot_lower_bounds(query_pd, corpus_pd),
                              np.abs(corpus_pd - query_pd).max(axis=1))
