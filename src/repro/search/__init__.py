"""``repro.search`` — sketches, candidate generation and the rerank kernel.

Stage 1 generates candidates from compact per-OG sketches (pivot
triangle bounds + quantized-trajectory voting); stage 2 reranks them
with the exact batched EGED_M kernel (:func:`pruned_rerank`, shared by
every exact and budgeted path that holds lower bounds).  See
``docs/SEARCH.md`` for the sketch format and budget semantics; the
usual entry point is the ``search_budget=`` parameter of ``db.knn`` /
``STRGIndex.knn`` rather than this module directly.
"""

from repro.search.rerank import PRUNE_SLACK, pruned_rerank
from repro.search.sketch import (
    SketchConfig,
    SketchIndex,
    approx_knn,
    sketch_from_meta,
    sketch_meta_json,
)

__all__ = [
    "PRUNE_SLACK",
    "SketchConfig",
    "SketchIndex",
    "approx_knn",
    "pruned_rerank",
    "sketch_from_meta",
    "sketch_meta_json",
]
