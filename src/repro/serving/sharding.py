"""``ShardedIndex`` — the STRG-Index partitioned for serving.

The monolithic :class:`~repro.core.index.STRGIndex` answers one query at
a time against one tree.  The serving layer partitions the corpus across
N shards — each its own ``STRGIndex`` — and answers every query with
**one bound-ordered scan over one shared pivot fleet**:

- **Placement.**  ``"affine"`` (default) runs a coarse EM clustering and
  assigns each OG to the shard whose *placement pivot* (coarse
  centroid) is nearest, with a balance cap so no shard degenerates into
  the whole corpus.  ``"hash"`` places by ``og_id % num_shards`` —
  uniform, but with no locality.
- **One pivot fleet.**  At build time one set of farthest-point pivots
  (the :class:`~repro.search.sketch.SketchConfig` defaults) is fitted on
  a corpus sample, and every shard's sketch
  (:meth:`STRGIndex.sketch_tier`) keys its rows against that same
  fleet.  Sketches are built eagerly, persisted with the shards and
  maintained by inserts and deletes.
- **Exact scan.**  A query pays P query-to-pivot evaluations once per
  distinct fleet, turns every live row's stored pivot distances into a
  triangle lower bound, and hands all rows of all shards to the one
  rerank kernel (:func:`repro.search.rerank.pruned_rerank`), which
  evaluates them in ``(lower bound, og_id)`` order and stops at the
  first bound beyond the k-th distance.  Range queries use the same
  scan with the radius as the bound; ``background`` routing is a row
  mask.

Search is **exact**: every prune is justified by a metric lower bound
(with a tiny relative slack absorbing the batched kernels' float
asymmetry), and ties are broken by ``(distance, og_id)`` — so the hits,
their order *and their float distances* are bit-identical to the
monolithic index for any shard count.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.clustering.em import EMClustering, EMConfig
from repro.core.index import _SKETCH_BUILD_LOCK, STRGIndex, STRGIndexConfig
from repro.distance.base import Distance, as_series
from repro.distance.batch import one_vs_many
from repro.errors import (
    IndexStateError,
    InvalidParameterError,
    ShardUnavailableError,
)
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.resilience.faults import maybe_fail
from repro.search.rerank import count_search, pruned_rerank
from repro.search.sketch import SketchIndex

#: Supported placement strategies.
PLACEMENTS = ("affine", "hash")


@dataclass
class ShardedIndexConfig:
    """Tuning of the sharded serving index.

    ``index`` configures every per-shard ``STRGIndex`` (identical across
    shards, so total cluster granularity scales with ``num_shards``).
    ``balance_factor`` caps a shard at ``balance_factor * M / num_shards``
    members during affine placement; overflow spills to the next-nearest
    pivot.
    """

    num_shards: int = 4
    placement: str = "affine"
    index: STRGIndexConfig = field(default_factory=STRGIndexConfig)
    coarse_sample_size: int = 128
    coarse_iterations: int = 10
    balance_factor: float = 1.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.placement not in PLACEMENTS:
            raise InvalidParameterError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {PLACEMENTS}"
            )
        if self.coarse_sample_size < 2:
            raise InvalidParameterError(
                f"coarse_sample_size must be >= 2, got {self.coarse_sample_size}"
            )
        if self.balance_factor < 1.0:
            raise InvalidParameterError(
                f"balance_factor must be >= 1.0, got {self.balance_factor}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The persisted settings (``index`` is stored with each shard)."""
        return {f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "index"}

    @classmethod
    def from_dict(cls, params: dict[str, Any],
                  index: STRGIndexConfig) -> "ShardedIndexConfig":
        """Inverse of :meth:`to_dict`.

        Keys that are not fields are ignored: stores written before the
        exact scan carry the retired ``eval_batch`` and ``prune_slack``.
        """
        names = {f.name for f in fields(cls)} - {"index"}
        return cls(index=index,
                   **{k: v for k, v in params.items() if k in names})


@dataclass
class ShardedSearchResult:
    """Scatter-gather outcome: hits plus degradation telemetry.

    ``hits`` are ``(distance, og, clip_ref)`` tuples sorted by
    ``(distance, og_id)``.  When a shard fails mid-search (fault
    injection, or a real per-shard backend error) the degraded-read path
    sets ``degraded`` and lists the ``failed_shards`` whose candidates
    are missing from ``hits``.
    """

    hits: list[tuple[float, ObjectGraph, Any]]
    degraded: bool = False
    failed_shards: list[int] = field(default_factory=list)


class ShardedIndex:
    """N ``STRGIndex`` shards behind one exact bound-ordered scan."""

    def __init__(self, config: ShardedIndexConfig | None = None,
                 metric_distance: Distance | Callable | None = None,
                 cluster_distance: Distance | None = None,
                 executor: Any = None):
        self.config = config or ShardedIndexConfig()
        self.shards: list[STRGIndex] = [
            STRGIndex(self.config.index, metric_distance=metric_distance,
                      cluster_distance=cluster_distance)
            for _ in range(self.config.num_shards)
        ]
        #: Shared metric (leaf keys, pivot keys and query evaluation).
        self.metric_distance = self.shards[0].metric_distance
        self.cluster_distance = self.shards[0].cluster_distance
        #: Affine shard pivots (coarse centroids); ``None`` for hash
        #: placement or before the first build.
        self.pivots: list[np.ndarray] | None = None
        #: Optional :class:`~repro.parallel.DistanceExecutor` for fanning
        #: rerank chunks out across worker processes.
        self.executor = executor
        self.frozen = False

    @classmethod
    def from_shards(cls, config: ShardedIndexConfig,
                    shards: list[STRGIndex],
                    pivots: list[np.ndarray] | None = None
                    ) -> "ShardedIndex":
        """Wrap already-built (typically loaded) shards.

        Shard sketches whose pivots are equal are made to share one
        pivot list, so the exact scan evaluates each distinct fleet
        once per query.
        """
        index = cls(config)
        index.shards = list(shards)
        index.metric_distance = index.shards[0].metric_distance
        index.cluster_distance = index.shards[0].cluster_distance
        index.pivots = pivots
        fleets: dict[tuple, list[np.ndarray]] = {}
        for shard in index.shards:
            sketch = shard._sketches
            if sketch is not None:
                key = tuple((p.shape, p.tobytes()) for p in sketch.pivots)
                sketch.pivots = fleets.setdefault(key, sketch.pivots)
        return index

    # -- construction ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def _check_mutable(self) -> None:
        if self.frozen:
            raise IndexStateError(
                "sharded index is frozen (published as a serving "
                "snapshot); mutate a clone instead"
            )

    def build(self, ogs: Sequence[ObjectGraph],
              background: BackgroundGraph | None = None,
              clip_refs: Sequence[Any] | None = None) -> None:
        """Partition ``ogs`` across the shards and build each one."""
        if not ogs:
            raise IndexStateError("cannot build a sharded index from zero OGs")
        if clip_refs is not None and len(clip_refs) != len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs but {len(clip_refs)} clip refs"
            )
        self._check_mutable()
        refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
        with OBS.span("serving.shard_build", ogs=len(ogs),
                      shards=self.num_shards):
            assignment = self._place(ogs)
            # Sketch first: each shard's build then appends its members'
            # rows against the shared fleet.
            self.shard_sketches(extra=ogs)
            for s in range(self.num_shards):
                members = [og for og, a in zip(ogs, assignment) if a == s]
                member_refs = [r for r, a in zip(refs, assignment) if a == s]
                if members:
                    self.shards[s].build(members, background, member_refs)

    def _place(self, ogs: Sequence[ObjectGraph]) -> list[int]:
        """Shard id per OG (fits affine pivots on the first build)."""
        if self.config.placement == "hash":
            return [int(og.og_id) % self.num_shards for og in ogs]
        if self.pivots is None:
            self.pivots = self._fit_pivots(ogs)
        return self._assign_affine(ogs)

    def _fit_pivots(self, ogs: Sequence[ObjectGraph]) -> list[np.ndarray]:
        """Coarse EM centroids used as shard pivots (one per shard)."""
        rng = np.random.default_rng(self.config.seed)
        sample: Sequence[ObjectGraph] = ogs
        if self.config.coarse_sample_size < len(ogs):
            idx = rng.choice(len(ogs), size=self.config.coarse_sample_size,
                             replace=False)
            sample = [ogs[int(i)] for i in sorted(idx)]
        k = min(self.num_shards, len(sample))
        em = EMClustering(
            EMConfig(n_clusters=k,
                     max_iterations=self.config.coarse_iterations,
                     seed=self.config.seed),
            distance=self.cluster_distance,
        )
        result = em.fit(list(sample))
        pivots = [np.asarray(result.centroids[c], dtype=np.float64)
                  for c in range(result.num_clusters)]
        while len(pivots) < self.num_shards:
            # Degenerate coarse fit: duplicate pivots; the balance cap
            # still spreads members across the extra shards.
            pivots.append(pivots[len(pivots) % max(1, len(pivots))].copy())
        return pivots

    def _pivot_distances(self, ogs: Sequence[ObjectGraph]) -> np.ndarray:
        """``(len(ogs), num_shards)`` matrix of pivot-first distances."""
        series = [as_series(og) for og in ogs]
        return np.stack(
            [one_vs_many(self.metric_distance, pivot, series)
             for pivot in self.pivots],
            axis=1,
        )

    def _assign_affine(self, ogs: Sequence[ObjectGraph]) -> list[int]:
        """Nearest-pivot placement under the balance cap (deterministic)."""
        cols = self._pivot_distances(ogs)
        counts = [len(shard) for shard in self.shards]
        cap = max(1, math.ceil(
            self.config.balance_factor
            * (len(ogs) + sum(counts)) / self.num_shards
        ))
        order = np.argsort(cols, axis=1, kind="stable")
        assignment: list[int] = []
        for j in range(len(ogs)):
            chosen = int(order[j, 0])
            for s in order[j]:
                if counts[int(s)] < cap:
                    chosen = int(s)
                    break
            counts[chosen] += 1
            assignment.append(chosen)
        return assignment

    # -- maintenance ----------------------------------------------------------

    def insert(self, og: ObjectGraph,
               background: BackgroundGraph | None = None,
               clip_ref: Any = None) -> None:
        """Insert one OG into its shard (its sketch row comes along)."""
        self._check_mutable()
        if len(self) == 0 and self.pivots is None \
                and self.config.placement == "affine":
            self.build([og], background, [clip_ref])
            return
        if self.config.placement == "hash":
            target = int(og.og_id) % self.num_shards
        else:
            dists = self._pivot_distances([og])[0]
            target = int(np.argmin(dists))
        self.shards[target].insert(og, background, clip_ref)

    def delete(self, og_id: int) -> bool:
        """Remove the OG with ``og_id`` from whichever shard holds it."""
        self._check_mutable()
        return any(shard.delete(og_id) for shard in self.shards)

    def freeze(self) -> "ShardedIndex":
        """Freeze every shard (and this wrapper) for snapshot publishing."""
        for shard in self.shards:
            shard.freeze()
        self.frozen = True
        return self

    def clone(self) -> "ShardedIndex":
        """A deep, *mutable* copy sharing no state with this index.

        The copy-on-write path of the serving snapshot manager: clone the
        published (frozen) index, apply buffered writes to the clone, and
        publish it as the next snapshot.
        """
        dup = ShardedIndex.__new__(ShardedIndex)
        dup.config = self.config
        dup.shards = copy.deepcopy(self.shards)
        for shard in dup.shards:
            shard.frozen = False
        dup.metric_distance = dup.shards[0].metric_distance
        dup.cluster_distance = dup.shards[0].cluster_distance
        dup.pivots = ([p.copy() for p in self.pivots]
                      if self.pivots is not None else None)
        dup.executor = self.executor
        dup.frozen = False
        return dup

    # -- sketches -------------------------------------------------------------

    def shard_sketches(self, extra: Sequence[ObjectGraph] = ()
                       ) -> list[SketchIndex]:
        """Every shard's sketch, all keyed against one shared fleet.

        A shard without a sketch — every shard before the first build,
        or a store written before shards persisted their sketches — is
        sketched against the fleet of the other shards.  When no shard
        has one, the fleet is fitted once, on the corpus plus ``extra``,
        under the sketch build lock.
        """
        if all(shard._sketches is not None for shard in self.shards):
            return [shard._sketches for shard in self.shards]
        with _SKETCH_BUILD_LOCK:
            fleet = next((shard._sketches for shard in self.shards
                          if shard._sketches is not None
                          and shard._sketches.pivots), None)
            if fleet is None:
                corpus = [*self.object_graphs(), *extra]
                fleet = SketchIndex.fit(
                    self.metric_distance, [as_series(og) for og in corpus],
                    self.shards[0].sketch_config)
            return [shard.sketch_tier(fleet) for shard in self.shards]

    # -- search ---------------------------------------------------------------

    def knn(self, query: ObjectGraph | np.ndarray, k: int,
            background: BackgroundGraph | None = None,
            search_budget: int | None = None,
            prune_bound: float | None = None
            ) -> list[tuple[float, ObjectGraph, Any]]:
        """Exact k-NN over all shards, as ``(distance, og, clip_ref)``.

        Bit-identical to the monolithic ``STRGIndex.knn`` over the same
        corpus (ties broken by og_id).  ``k = 0`` yields ``[]``; ``k``
        beyond the corpus returns everything.  Shard failures propagate;
        use :meth:`knn_detailed` for degraded partial reads.

        With ``search_budget`` set, each shard runs its *approximate*
        sketch tier (see ``docs/SEARCH.md``) with the budget split
        proportionally to shard sizes (floored at ``k`` per shard, so
        the split can overshoot the global budget by at most
        ``num_shards * k`` evaluations), and the per-shard top-k lists
        are merged by ``(distance, og_id)``.

        ``prune_bound`` is an externally-known upper bound on the k-th
        nearest distance (e.g. the k-th hit of another partition of the
        same corpus).  It seeds the exact scan's pruning limit — never
        which evaluated candidates are kept — so any valid bound leaves
        the result exact; distributed callers (the ``serving.workers``
        pool) use it to share one global bound across partitions.
        """
        return self._search_knn(query, k, background, degrade=False,
                                search_budget=search_budget,
                                prune_bound=prune_bound).hits

    def knn_detailed(self, query: ObjectGraph | np.ndarray, k: int,
                     background: BackgroundGraph | None = None,
                     search_budget: int | None = None,
                     prune_bound: float | None = None
                     ) -> ShardedSearchResult:
        """k-NN with per-shard failure degradation.

        A shard raising :class:`~repro.errors.ShardUnavailableError`
        (e.g. under fault injection) is skipped; the result carries the
        surviving hits with ``degraded=True``.
        """
        return self._search_knn(query, k, background, degrade=True,
                                search_budget=search_budget,
                                prune_bound=prune_bound)

    def _search_knn(self, query, k: int,
                    background: BackgroundGraph | None,
                    degrade: bool,
                    search_budget: int | None = None,
                    prune_bound: float | None = None) -> ShardedSearchResult:
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        if k == 0:
            return ShardedSearchResult([])
        if search_budget is not None and search_budget < 1:
            raise InvalidParameterError(
                f"search_budget must be >= 1, got {search_budget}"
            )
        if prune_bound is not None and not prune_bound >= 0.0:
            raise InvalidParameterError(
                f"prune_bound must be >= 0, got {prune_bound}"
            )
        if len(self) == 0:
            raise IndexStateError("cannot search an empty sharded index")
        with OBS.span("serving.knn", k=k, shards=self.num_shards,
                      budget=search_budget) as sp:
            OBS.count("serving.knn_queries")
            if search_budget is not None:
                result = self._approx_scatter(query, k, background,
                                              search_budget, degrade)
            else:
                OBS.count("search.knn_queries")
                result = self._scan(
                    query, k, math.inf if prune_bound is None
                    else float(prune_bound), background, degrade)
            sp.set(hits=len(result.hits), degraded=result.degraded)
            return result

    def _live_shards(self, degrade: bool) -> tuple[list[int], list[int]]:
        """``(live, failed)`` ordinals of the non-empty shards.

        The shard fault-injection point fires here, before any kernel
        work: a failed shard contributes no rows and the search degrades
        to partial results (or raises, on the strict path).
        """
        live: list[int] = []
        failed: list[int] = []
        for s, shard in enumerate(self.shards):
            if len(shard) == 0:
                continue
            try:
                maybe_fail("serving.shard", shard=s)
            except ShardUnavailableError:
                if not degrade:
                    raise
                OBS.count("serving.shards_failed")
                failed.append(s)
                continue
            live.append(s)
        return live, failed

    def _approx_scatter(self, query, k: int,
                        background: BackgroundGraph | None,
                        search_budget: int, degrade: bool
                        ) -> ShardedSearchResult:
        """Budgeted scatter: each shard searches its own sketch.

        The budget is divided proportionally to shard sizes so a shard
        holding half the corpus gets half the evaluations; every live
        shard gets at least ``k`` so it can always fill a top-k list.
        """
        self.shard_sketches()
        total = len(self)
        live, failed = self._live_shards(degrade)
        hits: list[tuple[float, ObjectGraph, Any]] = []
        for s in live:
            shard = self.shards[s]
            share = max(k, math.ceil(search_budget * len(shard) / total))
            hits.extend(shard.knn(query, k, background,
                                  search_budget=share))
        hits.sort(key=lambda h: (h[0], h[1].og_id))
        return ShardedSearchResult(hits[:k], bool(failed), failed)

    def _scan(self, query, k: int | None, bound: float,
              background: BackgroundGraph | None, degrade: bool
              ) -> ShardedSearchResult:
        """The exact scan: top-``k``, or everything within ``bound``.

        Every live row of every live shard gets its triangle lower bound
        from the query's distances to its shard's fleet (evaluated once
        per distinct fleet), and the rerank kernel takes them all in
        ``(bound, og_id)`` order.
        """
        series = as_series(query)
        sketches = self.shard_sketches()
        live, failed = self._live_shards(degrade)
        fleets: dict[int, np.ndarray] = {}
        parts = []
        for s in live:
            sketch = sketches[s]
            qd = fleets.get(id(sketch.pivots))
            if qd is None:
                qd = fleets[id(sketch.pivots)] = np.asarray(
                    one_vs_many(self.metric_distance, series, sketch.pivots),
                    dtype=np.float64)
            rows, lbs = sketch.lower_bounds(qd)
            ids = sketch.row_og_ids(rows)
            routed = _routed_og_ids(self.shards[s], background)
            if routed is not None:
                keep = np.isin(ids, routed)
                rows, lbs, ids = rows[keep], lbs[keep], ids[keep]
            parts.append((np.full(len(rows), s), rows, lbs, ids))
        if not parts:
            return ShardedSearchResult([], bool(failed), failed)
        shard_of, rows, lbs, ids = (np.concatenate(c) for c in zip(*parts))
        hits, evaluated = pruned_rerank(
            self.metric_distance, series, lbs, ids,
            lambda i: sketches[shard_of[i]].row_record(rows[i]),
            k=k, bound=bound, executor=self.executor,
            batch=sketches[live[0]].config.rerank_batch)
        count_search(len(self), len(lbs), evaluated,
                     sum(len(qd) for qd in fleets.values()))
        return ShardedSearchResult(hits, bool(failed), failed)

    def range_query(self, query, radius: float,
                    background: BackgroundGraph | None = None
                    ) -> list[tuple[float, ObjectGraph, Any]]:
        """All OGs within ``radius``, merged across shards."""
        return self._search_range(query, radius, background,
                                  degrade=False).hits

    def range_query_detailed(self, query, radius: float,
                             background: BackgroundGraph | None = None
                             ) -> ShardedSearchResult:
        """Range query with per-shard failure degradation."""
        return self._search_range(query, radius, background, degrade=True)

    def _search_range(self, query, radius: float,
                      background: BackgroundGraph | None,
                      degrade: bool) -> ShardedSearchResult:
        if radius < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        if len(self) == 0:
            raise IndexStateError("cannot search an empty sharded index")
        with OBS.span("serving.range_query", radius=radius) as sp:
            result = self._scan(query, None, float(radius), background,
                                degrade)
            result.hits = [h for h in result.hits if h[0] <= radius]
            sp.set(hits=len(result.hits), degraded=result.degraded)
            return result

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> str:
        """Persist shards + placement; see
        :func:`repro.storage.serialize.save_sharded_index`."""
        from repro.storage.serialize import save_sharded_index

        return save_sharded_index(path, self)

    @classmethod
    def load(cls, path) -> "ShardedIndex":
        """Load an index saved by :meth:`save`."""
        from repro.storage.serialize import load_sharded_index

        return load_sharded_index(path)

    # -- introspection --------------------------------------------------------

    def object_graphs(self) -> Iterator[ObjectGraph]:
        """Iterate every indexed OG, shard by shard."""
        for shard in self.shards:
            yield from shard.object_graphs()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def num_clusters(self) -> int:
        return sum(shard.num_clusters() for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """OG count per shard (placement balance diagnostics)."""
        return [len(shard) for shard in self.shards]

    def stats(self) -> dict[str, Any]:
        return {
            "shards": self.num_shards,
            "placement": self.config.placement,
            "shard_sizes": self.shard_sizes(),
            "cluster_records": self.num_clusters(),
            "leaf_records": len(self),
            "frozen": self.frozen,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(shards={self.num_shards}, "
            f"placement={self.config.placement!r}, ogs={len(self)})"
        )



def _routed_og_ids(shard: STRGIndex, background: BackgroundGraph | None
                   ) -> np.ndarray | None:
    """og_ids of the shard's rows that ``background`` routes to.

    ``None`` when routing keeps every row (no background, or a match
    that selects every root) — the same routing ``STRGIndex.knn``
    applies at its root level.
    """
    if background is None:
        return None
    records = shard.cluster_records(background)
    if len(records) == shard.num_clusters():
        return None
    return np.fromiter((r.og.og_id for record in records
                        for r in record.leaf), dtype=np.int64)
