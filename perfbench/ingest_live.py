"""``ingest-live``: uploads streaming into a live index beside reads.

A 2 000-OG seed database (4 affine shards, columnar) takes rendered
160x120 16-frame clips through ``IngestService.submit`` open-loop at a
fixed rate, checkpointing to a columnar state dir.  A second thread
issues open-loop exact ``db.knn`` reads at the same time: the reference
rate first, then a fixed ladder.  Freshness is
the time from ``submit`` accepting a clip until a ``db.knn`` probe with
the clip's own trajectory (computed before the run) returns it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from perfbench import inputs
from perfbench.measure import (
    clear_distance_cache,
    count_evals,
    ladder_slo,
    median,
    pct,
    proc_status_kb,
)
from perfbench.oracle import Oracle, exact_match, recall
from perfbench.spans import SpanRecorder, durations, layer_self_times, link_roots

K = 10
SHARDS = 4
#: Seconds between probes of a clip the service reports done but a
#: probe did not yet return.
PROBE_RETRY = 0.005
#: Seconds a done clip may stay unfound before it counts as failed.
PROBE_TIMEOUT = 10.0
DRAIN_TIMEOUT = 60.0
N_CLUSTERS = 8
EM_ITERATIONS = 2
CLUSTER_SAMPLE_SIZE = 128
#: Generous: a read that waits out a clip's segmentation for the
#: interpreter lock takes a few hundred ms, and the ladder rung's p99
#: reached 470 ms when the host ran slow.
P99_LIMIT_MS = 1000.0
#: Warm-up reads at the end of each set-up.
WARM_READS = 8


@dataclass(frozen=True)
class Scale:
    """Sizes and rates of one ingest-live run."""

    seed_ogs: int = 2_000
    #: Full set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    frames: int = 16
    #: Clips per second offered to the ingest service: about half of
    #: what it absorbs with no reads running (1.7-1.9 clips/s on 2 CPUs).
    clip_rate: float = 0.8
    #: Reads per second at the reference rate, then up the ladder.  As
    #: on the serve workloads the knee (75-180 reads/s) moves too much
    #: to locate, and the one rung only detects a collapse of capacity.
    reference_rate: float = 20.0
    ladder: tuple[float, ...] = (30.0,)
    rung_seconds: float = 2.0
    oracle_sample: int = 48
    #: Queries replayed on the final database for ``evals_per_query``,
    #: beyond the reads: the median over the ~220 reads moved by 5-10%
    #: from the one over other queries of the same seed.
    replay_sample: int = 512


FULL = Scale()
SMOKE = Scale(seed_ogs=300, setups=1, frames=8, clip_rate=2.0,
              reference_rate=10.0, ladder=(20.0,), rung_seconds=0.5,
              oracle_sample=8, replay_sample=8)


def _ref_key(ref, og_position: dict) -> str:
    """Oracle key of a hit: the seed ordinal, or ``clip#position``."""
    if isinstance(ref, dict):
        return f"{ref['video']}#{og_position.get(ref['og'], '?')}"
    return str(ref)


def _probes(results: dict) -> dict:
    """Each clip's probe: ``(trajectory, k)``.

    The trajectory is the clip's longest OG, preferring one no other
    clip shares (static regions can give two clips identical OGs); ``k``
    is how many clips share it, so a top-``k`` probe always has room
    for the probing clip's own copy at distance 0.
    """
    owners: dict[bytes, set] = {}
    for name, result in results.items():
        for og in result.object_graphs:
            owners.setdefault(og.values.tobytes(), set()).add(name)
    probes = {}
    for name, result in results.items():
        values = max((og.values for og in result.object_graphs),
                     key=lambda v: (len(owners[v.tobytes()]) == 1, len(v)))
        probes[name] = (values, len(owners[values.tobytes()]))
    return probes


def _own_hits(hits, name: str) -> int:
    """How many hits are the named clip's own OGs at distance 0."""
    return sum(1 for h in hits if h.distance == 0.0
               and isinstance(h.clip_ref, dict)
               and h.clip_ref.get("video") == name)


def run(ctx, scale: Scale = FULL) -> dict:
    from repro import open_database
    from repro.core.index import STRGIndexConfig
    from repro.pipeline import PipelineConfig, VideoPipeline
    from repro.serving import IngestServiceConfig, ShardedIndex, ShardedIndexConfig
    from repro.storage.store import open_store

    schedule = inputs.phases(ctx.seconds, scale.reference_rate,
                             scale.ladder, scale.rung_seconds)
    read_offsets = [inputs.arrivals(ctx.seed, 100 + i, rate, secs)
                    for i, (rate, secs) in enumerate(schedule)]
    # Clips arrive at a steady rate: with a dozen per run, Poisson
    # clumps would decide how much ingest overlaps each read phase.
    clip_offsets = inputs.periodic(scale.clip_rate, ctx.seconds)
    n_reads = sum(len(o) for o in read_offsets)
    seed_ogs = inputs.corpus(ctx.seed, scale.seed_ogs)
    warm_end = n_reads + WARM_READS * scale.setups
    queries = inputs.queries(ctx.seed, warm_end + scale.replay_sample)
    clips = inputs.clips(ctx.seed, len(clip_offsets), scale.frames)
    config = PipelineConfig(index=STRGIndexConfig(
        n_clusters=N_CLUSTERS, em_iterations=EM_ITERATIONS,
        cluster_sample_size=CLUSTER_SAMPLE_SIZE))

    # The benchmark's own expectation of every clip, computed before the
    # run: its OG trajectories and the probe that must find it.
    pipeline = VideoPipeline(config)
    results = {clip.name: pipeline.process_clip(clip) for clip in clips}
    probes = _probes(results)
    expected = {name: {"values": [og.values for og in r.object_graphs],
                       "probe": probes[name]}
                for name, r in results.items()}

    spans = SpanRecorder(enabled=ctx.trace, prefix="bench-",
                         sampled=_sampled)

    # -- set-up, several times; the last copy takes the load --------------
    setup_times, details = [], []
    db = service = None
    for n in range(scale.setups):
        directory = os.path.join(ctx.out, f"setup-{n}")
        os.makedirs(directory)
        clear_distance_cache()
        started = time.monotonic()
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=SHARDS, placement="affine",
            index=config.index))
        t0 = time.monotonic()
        index.build(seed_ogs, clip_refs=list(range(len(seed_ogs))))
        t1 = time.monotonic()
        seed_store = open_store(os.path.join(directory, "seed.strg"),
                                format="columnar")
        seed_store.write_index(index)
        t2 = time.monotonic()
        db = open_database(seed_store.path, config=config)
        service = db.ingest_service(
            state_dir=os.path.join(directory, "state"),
            config=IngestServiceConfig(store_format="columnar",
                                       checkpoint_every=4))
        for q in queries[n_reads + WARM_READS * n:
                         n_reads + WARM_READS * (n + 1)]:
            db.knn(q, K)
        setup_times.append(time.monotonic() - started)
        details.append({"build_s": t1 - t0, "write_s": t2 - t1})
        spans.record("index.build", "core.index", t0, t1)
        spans.record("columnar.write", "storage.columnar", t1, t2)
        if n < scale.setups - 1:
            service.shutdown()

    # -- the timed phase: uploads on this thread, reads on another --------
    layer_data = _install_tracing(spans, db) if ctx.trace else None
    reads: list[dict] = []
    jobs, fresh, probe_misses, rss = {}, {}, 0, []
    t_start = time.monotonic() + 0.05
    reader = threading.Thread(
        target=_read_loop, name="perfbench-reads",
        args=(db, queries, read_offsets, reads, spans, t_start),
        daemon=True)
    cpu_start = time.process_time()
    reader.start()
    next_rss = t_start
    pending: dict[str, object] = {}
    i = 0
    finished = False
    try:
        while i < len(clips) or pending:
            now = time.monotonic()
            if now >= next_rss:
                rss.append(proc_status_kb(os.getpid(), "VmRSS"))
                next_rss = now + 0.25
            if i < len(clips) and now >= t_start + clip_offsets[i]:
                clip = clips[i]
                job = service.submit(clip, job_id=clip.name)
                jobs[clip.name] = job
                pending[clip.name] = job
                i += 1
                continue
            for name, job in list(pending.items()):
                if not job.done.is_set():
                    continue
                if job.state.value != "INDEXED":
                    del pending[name]
                    continue
                probe, k = expected[name]["probe"]
                hits = db.knn(probe, k)
                seen = time.monotonic()
                if _own_hits(hits, name):
                    fresh[name] = seen - job.submitted
                    del pending[name]
                else:
                    probe_misses += 1
                    if seen - job.finished > PROBE_TIMEOUT:
                        del pending[name]
            wait = PROBE_RETRY
            if i < len(clips):
                wait = min(wait, max(0.0, t_start + clip_offsets[i]
                                     - time.monotonic()))
            time.sleep(wait)
        reader.join()
        drained = service.drain(timeout=DRAIN_TIMEOUT)
        cpu_s = time.process_time() - cpu_start
        finished = True
    finally:
        reader.join(timeout=DRAIN_TIMEOUT)
        if layer_data is not None:
            spans.unwrap()
        if not finished:
            service.shutdown()
    t_end = time.monotonic()
    health = service.health()
    service.shutdown()

    # -- correctness -------------------------------------------------------
    failed = 0
    og_position = {}
    commits = []
    for name, job in jobs.items():
        if job.state.value != "INDEXED" or name not in fresh:
            failed += 1
            continue
        for pos, og_id in enumerate(job.og_ids):
            og_position[og_id] = pos
        commits.append((job.finished, name))
    commits.sort()
    final = db.index
    # Exactly once: the final corpus holds the seed plus every clip's
    # OGs once, and each probe finds its clip at distance 0 once.
    want_size = len(seed_ogs) + sum(len(expected[n]["values"]) for n in jobs)
    duplicates = 0
    if len(final) != want_size:
        failed += 1
    for name in jobs:
        probe, k = expected[name]["probe"]
        if _own_hits(db.knn(probe, k + 1), name) != 1:
            duplicates += 1
    failed += duplicates + len(health["quarantined_jobs"])
    failed += sum(1 for r in reads if not r["ok"])

    oracle = Oracle(type(final.metric_distance)(),
                    [og.values for og in seed_ogs])
    checked = [int(r) for r in inputs.sample(ctx.seed, len(reads),
                                             scale.oracle_sample, tag=3)]
    mismatches = 0
    recalls = []
    for r in checked:
        read = reads[r]
        if not read["ok"]:
            continue
        got = [(h.distance, _ref_key(h.clip_ref, og_position))
               for h in read["hits"]]
        match, rec = _check_read(oracle, expected, commits, read,
                                 queries[read["rid"]], got)
        mismatches += int(not match)
        recalls.append(rec)
    failed += mismatches

    # -- metrics -----------------------------------------------------------
    evals = count_evals(lambda q: db.knn(q, K), queries[warm_end:])

    by_phase = [[r for r in reads if r["phase"] == p]
                for p in range(len(schedule))]
    ref_lat = [r["latency"] * 1e3 for r in by_phase[0] if r["ok"]]
    slo, ladder_rows = ladder_slo(
        [(rate, [(r["due"], r["done"], r["ok"]) for r in phase])
         for (rate, _), phase in zip(schedule, by_phase)],
        P99_LIMIT_MS)
    freshness = [v * 1e3 for v in fresh.values()]
    attempted = len(reads) + len(jobs)
    end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "query_p50_ms": (pct(ref_lat, 50), "ms"),
        "query_p99_ms": (pct(ref_lat, 99), "ms"),
        "slo_qps": (slo, "req/s"),
        "evals_per_query": (median(evals), "count"),
        "recall_at_10": (float(np.mean(recalls)) if recalls else 0.0,
                         "fraction"),
        "server_rss_mb": (max(rss) / 1024.0, "MB"),
        # Over the whole timed phase, so every clip's processing and
        # checkpoints count whichever read phase they overlap.
        "cpu_ms_per_query": (cpu_s * 1e3 / len(reads), "ms"),
        "error_rate": (failed / attempted, "fraction"),
        "freshness_p50_ms": (pct(freshness, 50), "ms"),
        "freshness_p90_ms": (pct(freshness, 90), "ms"),
    }
    waits = [(j.started - j.submitted) * 1e3 for j in jobs.values()
             if j.started is not None]
    process = [(j.finished - j.started) * 1e3 for j in jobs.values()
               if j.started is not None and j.finished is not None]
    per_layer = {
        "net.overhead_ms_p50": (0.0, "ms"),
        "net.rejected": (0.0, "count"),
        "loadgen.lag_ms_p99": (pct([r["lag"] * 1e3 for r in by_phase[0]],
                                   99), "ms"),
        "workers.knn_ms_p50": (0.0, "ms"),
        "workers.knn_ms_p99": (0.0, "ms"),
        "workers.ipc_ms_p50": (0.0, "ms"),
        "workers.busy_frac": (0.0, "fraction"),
        "sketch.candidates_ms_p50": (0.0, "ms"),
        "sketch.shortlist_rows": (0.0, "count"),
        "sketch.rerank_evals": (0.0, "count"),
        "sketch.useful_frac": (0.0, "fraction"),
        "columnar.write_s": (median([d["write_s"] for d in details]), "s"),
        "columnar.open_s": (0.0, "s"),
        "index.build_s": (median([d["build_s"] for d in details]), "s"),
        "ingest.queue_wait_ms_p50": (pct(waits, 50), "ms"),
        "ingest.process_ms_p50": (pct(process, 50), "ms"),
        "ingest.retries": (float(health["retries"]), "count"),
        "ingest.freshness_p50_ms": (pct(freshness, 50), "ms"),
        "ingest.freshness_p90_ms": (pct(freshness, 90), "ms"),
    }
    per_layer["sharding.evals_per_query"] = (median(evals), "count")
    if ctx.trace:
        per_layer.update(_traced_layers(
            spans, jobs, reads, layer_data, expected, seed_store.path,
            service.snapshot_path))
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and drained,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": spans,
        "details": {
            "setup_s": setup_times, "setup_parts_s": details,
            "ladder": ladder_rows,
            "clips": len(jobs), "indexed": health["indexed_jobs"],
            "quarantined": health["quarantined_jobs"],
            "probe_misses": probe_misses, "duplicates": duplicates,
            "oracle_checked": len(checked), "oracle_mismatches": mismatches,
            "reads": len(reads), "timed_s": t_end - t_start,
            "corpus_after": len(final),
        },
    }


def _sampled(rid) -> bool:
    """Trace every ingest span and the even-numbered reads."""
    return not isinstance(rid, int) or rid % 2 == 0


def _read_loop(db, queries, read_offsets, reads, spans, start) -> None:
    """Open-loop exact reads, phase after phase, on this thread."""
    rid = 0
    for phase, offsets in enumerate(read_offsets):
        for offset in offsets:
            due = start + float(offset)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            entry = {"rid": rid, "phase": phase, "due": due,
                     "lag": max(0.0, sent - due), "ok": True, "hits": []}
            try:
                with spans.span("db.knn", "storage.database", rid):
                    entry["hits"] = db.knn(queries[rid], K)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["done"] = time.monotonic()
            entry["latency"] = entry["done"] - due
            reads.append(entry)
            rid += 1
        # Next phase once this one's reads are done (no spill-over).
        start = max(time.monotonic(), start + float(offsets[-1])) + 0.05


def _check_read(oracle, expected, commits, read, query, got):
    """Exact-match a read against the corpus it could have seen.

    Clips committed before the read was due are certainly visible; a
    clip whose commit finished during the read may or may not be, so
    every prefix of those commits is an acceptable corpus.
    """
    base_refs, base_series = [], []
    maybe = []
    for finished, name in commits:
        if finished < read["due"]:
            target = base_refs, base_series
        elif finished <= read["done"] + 1.0:
            maybe.append(name)
            continue
        else:
            continue
        for pos, values in enumerate(expected[name]["values"]):
            target[0].append(f"{name}#{pos}")
            target[1].append(values)
    extra_refs, extra_series = list(base_refs), list(base_series)
    candidates = [(list(extra_refs), list(extra_series))]
    for name in maybe:
        for pos, values in enumerate(expected[name]["values"]):
            extra_refs.append(f"{name}#{pos}")
            extra_series.append(values)
        candidates.append((list(extra_refs), list(extra_series)))
    best_recall = 0.0
    for refs, series in candidates:
        view = Oracle(oracle.distance, oracle.series, oracle.refs)
        view.extend(series, refs)
        ranked = [(d, str(view.refs[i])) for d, i in view.ranked(query)]
        rec = recall([r for _, r in got], ranked, K)
        best_recall = max(best_recall, rec)
        if exact_match(got, ranked, K):
            return True, rec
    return False, best_recall


def _install_tracing(spans, db) -> dict:
    """Wrap the public entry points of the layers ingest runs through."""
    import repro.pipeline
    from repro.core.index import STRGIndex
    from repro.serving import ShardedIndex
    from repro.storage.columnar import ColumnarStore

    data = {"pairs": []}
    segmenter = db.pipeline.config.segmenter
    spans.wrap(repro.pipeline.VideoPipeline, "process_clip",
               "pipeline.process_clip", "pipeline",
               rid_of=lambda self, video, **kw: video.name)
    spans.wrap(type(segmenter), "build_rag", "segmentation.frame",
               "pipeline")
    spans.wrap(repro.pipeline, "decompose", "pipeline.decompose", "pipeline")
    spans.wrap(STRGIndex, "insert", "index.insert", "core.index")
    spans.wrap(ColumnarStore, "checkpoint", "columnar.checkpoint",
               "storage.columnar")
    spans.wrap(ShardedIndex, "knn", "sharding.knn", "serving.sharding")
    spans.wrap(type(db.index.metric_distance), "compute_many",
               "distance.compute_many", "distance",
               observe=lambda out, dist, query, batch: data["pairs"].append(
                   len(batch)))
    return data


def _traced_layers(spans, jobs, reads, data, expected, seed_store: str,
                   state_store: str) -> dict:
    from repro.core.index import STRGIndex
    from repro.graph.object_graph import ObjectGraph
    from repro.storage.store import open_store

    for name, job in jobs.items():
        if job.finished is not None:
            spans.record("ingest.job", "serving.ingest", job.submitted,
                         job.finished, rid=name)
    link_roots(spans.spans, ["ingest.job"])
    traced = [r["latency"] * 1e3 for r in reads
              if r["ok"] and r["phase"] == 0 and r["rid"] % 2 == 0]
    untraced = [r["latency"] * 1e3 for r in reads
                if r["ok"] and r["phase"] == 0 and r["rid"] % 2 == 1]
    kernel = durations(spans.spans, "distance.compute_many")
    read_ms = [(s["end"] - s["start"]) * 1e3 for s in spans.spans
               if s["name"] == "sharding.knn" and isinstance(s["rid"], int)]
    traced_reads = sum(1 for r in reads if r["rid"] % 2 == 0)

    def p50(name):
        return pct([d * 1e3 for d in durations(spans.spans, name)], 50)

    out = {
        "pipeline.clip_ms_p50": (p50("pipeline.process_clip"), "ms"),
        "segmentation.frame_ms_p50": (p50("segmentation.frame"), "ms"),
        "pipeline.decompose_ms_p50": (p50("pipeline.decompose"), "ms"),
        "columnar.checkpoint_ms": (p50("columnar.checkpoint"), "ms"),
        "sharding.knn_ms_p50": (pct(read_ms, 50), "ms"),
        "sharding.knn_ms_p99": (pct(read_ms, 99), "ms"),
        "distance.pair_us": (sum(kernel) / max(sum(data["pairs"]), 1) * 1e6,
                             "us"),
        "distance.pairs_per_query": (
            sum(data["pairs"]) / max(traced_reads + len(jobs), 1), "count"),
        "trace.query_p50_ms": (pct(traced, 50), "ms"),
        "trace.untraced_query_p50_ms": (pct(untraced, 50), "ms"),
        "trace.overhead_ms": (pct(traced, 50) - pct(untraced, 50), "ms"),
    }
    out.update(layer_self_times(spans.spans))
    # Off the clock: the state dir's last checkpoint reopened, and each
    # clip OG inserted into a private copy of the seed index.
    t0 = time.monotonic()
    open_store(state_store).load_index(mmap=True)
    out["columnar.open_s"] = (time.monotonic() - t0, "s")
    copy = open_store(seed_store).load_index(mmap=False)
    insert_ms = []
    for entry in expected.values():
        for values in entry["values"]:
            og = ObjectGraph.from_values(values)
            t0 = time.monotonic()
            STRGIndex.insert(copy.shards[0], og)
            insert_ms.append((time.monotonic() - t0) * 1e3)
    out["index.insert_ms_p50"] = (pct(insert_ms, 50), "ms")
    return out
