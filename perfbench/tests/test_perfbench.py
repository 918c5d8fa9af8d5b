"""The benchmark's own tests (smoke scale; a few minutes on 2 CPUs).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import ingest_live, inputs, serve  # noqa: E402
from perfbench.measure import clear_distance_cache, count_evals  # noqa: E402
from perfbench.oracle import exact_match, recall  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, Context  # noqa: E402
from perfbench.spans import SpanRecorder, link_roots, self_times  # noqa: E402


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a, b))


@pytest.mark.parametrize("generate", [
    lambda seed: [og.values for og in inputs.corpus(seed, 60)],
    lambda seed: inputs.queries(seed, 60),
    lambda seed: [clip.frames for clip in inputs.clips(seed, 2, frames=4)],
    lambda seed: [inputs.arrivals(seed, phase, 25.0, 2.0)
                  for phase in range(3)],
], ids=["corpus", "queries", "clips", "arrivals"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(generate):
    assert _same(generate(7), generate(7))
    assert not _same(generate(7), generate(8))


def test_queries_are_pairwise_distinct():
    queries = inputs.queries(3, 500)
    assert len({q.tobytes() for q in queries}) == len(queries)


def test_exact_match_accepts_any_record_tied_at_the_kth_distance():
    ranked = [(0.5, "a"), (1.0, "b"), (1.0, "c"), (2.0, "d")]
    assert exact_match([(0.5, "a"), (1.0, "c")], ranked, 2)
    assert not exact_match([(0.5, "a"), (1.0, "d")], ranked, 2)
    assert not exact_match([(0.5, "b"), (1.0, "c")], ranked, 2)
    assert recall(["a", "c"], ranked, 2) == 1.0
    assert recall(["a", "d"], ranked, 2) == 0.5


def test_self_time_subtracts_children_across_request_ids():
    spans = SpanRecorder(prefix="t-")
    spans.record("net.request", "serving.net", 0.0, 10.0, rid=1)
    spans.record("workers.knn", "serving.workers", 2.0, 8.0, rid=1)
    link_roots(spans.spans, ["net.request"])
    totals = self_times(spans.spans)
    assert totals == {"serving.net": 4.0, "serving.workers": 6.0}


def test_each_set_up_builds_from_an_empty_distance_memo():
    from repro.core.index import STRGIndexConfig
    from repro.serving import ShardedIndex, ShardedIndexConfig

    ogs = inputs.corpus(4, 200)

    def build(_):
        ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="affine",
            index=STRGIndexConfig(n_clusters=4, em_iterations=2,
                                  cluster_sample_size=64))).build(ogs)

    clear_distance_cache()
    cold, warm = count_evals(build, range(2))
    assert warm < cold
    clear_distance_cache()
    assert count_evals(build, [0]) == [cold]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    for key, reported in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        assert {m["name"]: m["unit"] for m in doc[key]} == reported
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _ctx(tmp_path, seed: int, trace: bool = False, seconds: float = 2.0):
    return Context(root=ROOT, out=str(tmp_path), seed=seed, seconds=seconds,
                   trace=trace, connections=2)


def test_serve_exact_smoke_is_correct(tmp_path):
    result = serve.run(_ctx(tmp_path, 5), approx=False, scale=serve.SMOKE)
    assert result["failed"] == 0 and result["correct"]
    assert result["end_to_end"]["recall_at_10"][0] == 1.0
    assert set(END_TO_END) <= set(result["end_to_end"])


def test_approx_counts_repeat_exactly_across_runs(tmp_path):
    runs = [serve.run(_ctx(tmp_path / str(i), 6), approx=True,
                      scale=serve.SMOKE) for i in range(2)]
    for name in ("evals_per_query", "recall_at_10"):
        assert runs[0]["end_to_end"][name] == runs[1]["end_to_end"][name]
    assert all(r["failed"] == 0 for r in runs)
    assert runs[0]["end_to_end"]["recall_at_10"][0] < 1.0


def test_traced_serve_reports_every_per_layer_metric(tmp_path):
    result = serve.run(_ctx(tmp_path, 7, trace=True), approx=True,
                       scale=serve.SMOKE)
    assert result["failed"] == 0
    assert set(PER_LAYER) <= set(result["per_layer"])
    assert result["per_layer"]["sketch.shortlist_rows"][0] > 0
    assert result["spans"].spans


def test_ingest_live_smoke_is_correct(tmp_path):
    result = ingest_live.run(_ctx(tmp_path, 8, trace=True, seconds=3.0),
                             scale=ingest_live.SMOKE)
    assert result["failed"] == 0 and result["correct"]
    assert result["details"]["clips"] == result["details"]["indexed"] > 0
    assert set(END_TO_END) <= set(result["end_to_end"])
    assert set(PER_LAYER) <= set(result["per_layer"])
    assert result["per_layer"]["pipeline.clip_ms_p50"][0] > 0
