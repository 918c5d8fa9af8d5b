"""Brute-force k-NN oracle and the answer checks built on it.

The oracle evaluates the query against every corpus trajectory with
``one_vs_many`` and orders by ``(distance, corpus ordinal)``.  Serving
paths carry the ordinal as each record's ``clip_ref``, so an exact
answer must match the oracle bit for bit: same distances, and the same
records wherever distances differ.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Oracle:
    """Exact k-NN over a fixed list of trajectories."""

    def __init__(self, distance, series: Sequence[np.ndarray],
                 refs: Sequence | None = None):
        self.distance = distance
        self.series = [np.ascontiguousarray(s, dtype=np.float64)
                       for s in series]
        self.refs = list(range(len(self.series))) if refs is None \
            else list(refs)

    def extend(self, series: Sequence[np.ndarray], refs: Sequence) -> None:
        self.series.extend(np.ascontiguousarray(s, dtype=np.float64)
                           for s in series)
        self.refs.extend(refs)

    def ranked(self, query: np.ndarray) -> list[tuple[float, int]]:
        """``(distance, position)`` pairs, nearest first."""
        from repro.distance.batch import one_vs_many

        dists = np.asarray(one_vs_many(self.distance, query, self.series),
                           dtype=np.float64)
        order = np.lexsort((np.arange(len(dists)), dists))
        return [(float(dists[i]), int(i)) for i in order]


def exact_match(got: Sequence[tuple[float, object]],
                ranked: Sequence[tuple[float, object]], k: int) -> bool:
    """Whether ``got`` is a correct exact top-``k`` answer.

    ``got`` and ``ranked`` are ``(distance, ref)`` pairs; ``ranked`` is
    the oracle's full order.  Distances must be bit-equal position by
    position.  Records must agree for every distance strictly inside
    the top-``k``; at the ``k``-th distance any of the tied records is
    a correct pick.
    """
    k = min(k, len(ranked))
    if len(got) != k:
        return False
    want = [d for d, _ in ranked[:k]]
    if [d for d, _ in got] != want:
        return False
    if k == 0:
        return True
    kth = want[-1]
    inside = sorted(str(r) for d, r in ranked[:k] if d < kth)
    if sorted(str(r) for d, r in got if d < kth) != inside:
        return False
    tied = {str(r) for d, r in ranked if d == kth}
    return all(str(r) in tied for d, r in got if d == kth)


def recall(got_refs: Sequence, ranked: Sequence[tuple[float, object]],
           k: int) -> float:
    """Share of the true top-``k`` records present in ``got_refs``.

    A record tied at the true ``k``-th distance counts as a true
    neighbour, so an exact answer scores 1.0 whatever its tie-break.
    """
    k = min(k, len(ranked))
    if k == 0:
        return 1.0
    kth = ranked[k - 1][0]
    truth = {str(r) for d, r in ranked if d <= kth}
    return min(k, sum(1 for r in got_refs if str(r) in truth)) / k
