"""The one exact rerank kernel behind every k-NN and range path.

Every query path that holds triangle lower bounds for its candidates —
the sketch tier's budgeted shortlist, the sharded exact scan over the
whole corpus and its range variant — hands them to
:func:`pruned_rerank`.  The kernel evaluates candidates in ascending
``(lower bound, og_id)`` order, in batched kernel calls, and stops as
soon as the next bound exceeds the current pruning limit: the k-th best
distance so far, tightened by any caller-supplied bound.  Bounds are
exact, so pruning never drops a true neighbour; ties are broken by
``(distance, og_id)`` everywhere, which is what makes every path
bit-identical to the monolithic tree.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable

import numpy as np

from repro.distance.batch import one_vs_many
from repro.observability import OBS

#: Relative slack for every pruning comparison, absorbing the batched
#: kernel's ~1e-12 float asymmetry between query-first and pivot-first
#: evaluations.  Raising it never loses true neighbours.
PRUNE_SLACK = 1e-9

#: Default candidates per kernel call.
RERANK_BATCH = 64


def count_search(corpus: int, candidates: int, evaluated: int,
                 pivot_evals: int) -> None:
    """The ``search.*`` cost counters of one query over ``corpus`` rows."""
    OBS.count("search.candidates_generated", candidates)
    OBS.count("search.distances_computed", evaluated + pivot_evals)
    OBS.count("search.distances_saved",
              max(0, corpus - evaluated - pivot_evals))


def _hit_key(hit: tuple) -> tuple[float, int]:
    return (hit[0], hit[1].og_id)


def exact_top(m: int, keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Indices of the exact top-``m`` rows under lexicographic ``keys``.

    ``keys`` are aligned 1-D arrays, most-significant first.  An
    ``argpartition`` on the primary key prunes to at most ``m`` rows
    plus the primary-key ties at the boundary; the full compound sort
    then runs only on that superset.  Because every caller ends its key
    tuple with a unique og_id, the compound order is total — so the
    selected set (and its order) is exactly the first ``m`` entries of
    a global lexsort.
    """
    if m <= 0:
        return np.empty(0, dtype=np.intp)
    lex = tuple(reversed(keys))
    n = len(keys[0])
    if n <= m:
        return np.lexsort(lex)
    primary = keys[0]
    part = np.argpartition(primary, m - 1)[:m]
    boundary = primary[part].max()
    cand = np.flatnonzero(primary <= boundary)
    order = np.lexsort(tuple(key[cand] for key in lex))
    return cand[order[:m]]


class _BoundOrder:
    """Candidate positions in ascending ``(lb, og_id)``, sorted lazily.

    Only a head of ``head`` positions is selected up front; the rest is
    sorted the first time the scan runs past the head, and then only
    the rows whose bound is within the pruning limit at that moment
    (the limit never grows, so the others can never be evaluated).  The
    sequence handed out is the prefix of one global lexsort either way.
    """

    def __init__(self, lbs: np.ndarray, ids: np.ndarray, head: int):
        self.lbs, self.ids = lbs, ids
        self.order = exact_top(head, (lbs, ids))
        self.complete = len(self.order) == len(lbs)
        self.pos = 0

    def take(self, batch: int, limit: float) -> np.ndarray:
        """Next ≤ ``batch`` positions whose bound is ≤ ``limit``."""
        if not self.complete and self.pos + batch > len(self.order):
            lbs, ids = self.lbs, self.ids
            rest = np.ones(len(lbs), dtype=bool)
            rest[self.order] = False
            rest &= lbs <= limit
            rest = np.flatnonzero(rest)
            rest = rest[np.lexsort((ids[rest], lbs[rest]))]
            self.order = np.concatenate([self.order, rest])
            self.complete = True
        chunk = self.order[self.pos:self.pos + batch]
        chunk = chunk[:int(np.searchsorted(self.lbs[chunk], limit,
                                           side="right"))]
        self.pos += len(chunk)
        return chunk


def pruned_rerank(distance, series: np.ndarray, lbs: np.ndarray,
                  ids: np.ndarray,
                  record: Callable[[int], tuple[Any, Any]], *,
                  k: int | None = None, bound: float = math.inf,
                  executor: Any = None, batch: int = RERANK_BATCH
                  ) -> tuple[list[tuple[float, Any, Any]], int]:
    """Exact rerank of bounded candidates; returns ``(hits, evaluated)``.

    ``lbs[i]`` is a lower bound on ``d(series, candidate i)`` and
    ``ids[i]`` its og_id; ``record(i)`` materializes ``(og, clip_ref)``.
    With ``k`` set, ``hits`` is the top-``k`` by ``(distance, og_id)``;
    with ``k=None`` it is every evaluated candidate, sorted (range
    queries pass their radius as ``bound`` and filter the hits).

    ``bound`` is an upper bound on the distances of interest (a radius,
    or the k-th distance known from another partition).  It only
    tightens *pruning*, never which evaluated candidates are kept, so
    any valid bound leaves the result exact.
    """
    lbs = np.asarray(lbs, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    order = _BoundOrder(lbs, ids, 4 * batch)
    hits: list[tuple[float, Any, Any]] = []
    evaluated = 0
    while True:
        limit = bound
        if k is not None and len(hits) == k:
            limit = min(limit, hits[-1][0])
        if math.isfinite(limit):
            limit += PRUNE_SLACK * (1.0 + abs(limit))
        chunk = order.take(batch, limit)
        if len(chunk) == 0:
            break
        pairs = [record(int(i)) for i in chunk]
        items = [og for og, _ in pairs]
        if executor is not None:
            dists = executor.one_vs_many(distance, series, items)
        else:
            dists = one_vs_many(distance, series, items)
        evaluated += len(chunk)
        for (og, ref), d in zip(pairs, dists):
            hit = (float(d), og, ref)
            if k is None:
                hits.append(hit)
            elif len(hits) < k or _hit_key(hit) < _hit_key(hits[-1]):
                bisect.insort(hits, hit, key=_hit_key)
                if len(hits) > k:
                    hits.pop()
    if k is None:
        hits.sort(key=_hit_key)
    OBS.count("search.candidates_pruned", len(lbs) - evaluated)
    return hits, evaluated
