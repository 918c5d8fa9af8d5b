"""``serve-exact`` and ``serve-approx``: query-by-example over HTTP.

The server holds a 10k-OG synthetic corpus as a 4-shard affine columnar
store, served by one slot x 2 replica worker processes behind the HTTP
frontend, in its own child process.  Load is open-loop Poisson
``POST /knn`` (k=10) at a reference rate, then up a fixed rate ladder.
Every request carries a different query trajectory.  ``serve-approx``
adds a fixed ``search_budget`` to every request.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from perfbench import httpload, inputs
from perfbench.server import REPLICAS, spans_path
from perfbench.measure import (
    clear_distance_cache,
    count_evals,
    cpu_ticks,
    ladder_slo,
    median,
    pct,
    process_cpu_seconds,
    steal_share,
)
from perfbench.oracle import Oracle, exact_match, recall
from perfbench.spans import (
    SpanRecorder,
    durations,
    layer_self_times,
    link_roots,
)

K = 10
SHARDS = 4
#: Index tuning: a fixed cluster count (BIC selection would cost
#: minutes), fitted on a per-shard sample.
N_CLUSTERS = 16
EM_ITERATIONS = 2
CLUSTER_SAMPLE_SIZE = 128
#: The latency limit a ladder rate must meet at p99.
P99_LIMIT_MS = 250.0


@dataclass(frozen=True)
class Scale:
    """Sizes and rates of one serve run."""

    corpus: int = 10_000
    #: Full set-ups per run; ``setup_s`` is their median.
    setups: int = 2
    warmup: int = 16
    #: Requests per second at the reference rate, then up the ladder.
    #: The knee moved between 100 and 245 req/s from run to run on 2
    #: shared CPUs, so the ladder does not try to locate it: its one
    #: rung, 60 req/s, passes with room to spare, and ``slo_qps`` only
    #: moves on a collapse of capacity.  (A 300 req/s rung meant to
    #: fail passed once the host ran fast.)
    reference_rate: float = 30.0
    ladder: tuple[float, ...] = (60.0,)
    #: Seconds at each ladder rate; the rest of the run is at the
    #: reference rate.
    rung_seconds: float = 2.0
    #: ``search_budget`` of serve-approx (exact evaluations per query),
    #: sized so that recall@10 sits near 0.95.
    approx_budget: int = 200
    #: Answers checked against the oracle: on serve-exact for bit
    #: equality, on serve-approx for ``recall_at_10`` (which needs more).
    oracle_sample: int = 16
    recall_sample: int = 64
    replay_sample: int = 128


FULL = Scale()
#: A seconds-long configuration for the benchmark's own tests.
SMOKE = Scale(corpus=400, setups=1, warmup=4, reference_rate=20.0,
              ladder=(40.0,), rung_seconds=0.5, approx_budget=40,
              oracle_sample=8, recall_sample=8, replay_sample=8)


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    pids: list[int]

    def command(self, cmd: str) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.process.stdin.flush()
        return _read_json_line(self.process, 60.0)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.command("stop")
            except (OSError, TimeoutError, ValueError):
                pass
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30.0)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


def _read_json_line(process: subprocess.Popen, timeout: float) -> dict:
    """Next stdout line of ``process`` as JSON, within ``timeout``."""
    box: list = []
    reader = threading.Thread(
        target=lambda: box.append(process.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    if not box or not box[0]:
        raise TimeoutError(
            f"server gave no reply within {timeout:.0f}s "
            f"(exit code {process.poll()})")
    return json.loads(box[0])


def start_server(ctx, store: str, tag: str,
                 trace_queries: str | None) -> Server:
    log = os.path.join(ctx.out, f"server-{tag}.log")
    cmd = [sys.executable, "-m", "perfbench.server", store]
    if trace_queries:
        cmd += ["--trace-queries", trace_queries]
    with open(log, "w") as log_fh:
        process = subprocess.Popen(
            cmd, cwd=ctx.root, env=ctx.child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=log_fh, text=True)
    try:
        hello = _read_json_line(process, 120.0)
    except (TimeoutError, ValueError) as exc:
        process.kill()
        process.wait(timeout=30.0)
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"server did not start:\n{tail}") from exc
    return Server(process, int(hello["port"]), list(hello["pids"]))


def _body(query: np.ndarray, budget: int | None) -> bytes:
    payload = {"query": query.tolist(), "k": K}
    if budget is not None:
        payload["search_budget"] = budget
    return json.dumps(payload).encode()


def _hits(sample: httpload.Sample) -> list[tuple[float, str]]:
    body = json.loads(sample.body)
    return [(float(h["distance"]), str(h["clip_ref"])) for h in body["hits"]]


def _setup_once(ctx, scale, ogs, warm_bodies, tag: str, trace_queries,
                spans) -> tuple[float, Server, str, dict]:
    """Build, write, serve and warm one copy of the system."""
    from repro.core.index import STRGIndexConfig
    from repro.serving import ShardedIndex, ShardedIndexConfig
    from repro.storage.store import open_store

    directory = os.path.join(ctx.out, f"setup-{tag}")
    os.makedirs(directory)
    clear_distance_cache()
    started = time.monotonic()
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=SHARDS, placement="affine",
        index=STRGIndexConfig(
            n_clusters=N_CLUSTERS, em_iterations=EM_ITERATIONS,
            cluster_sample_size=CLUSTER_SAMPLE_SIZE)))
    t0 = time.monotonic()
    index.build(ogs, clip_refs=list(range(len(ogs))))
    t1 = time.monotonic()
    store = open_store(os.path.join(directory, "corpus.strg"),
                       format="columnar")
    store.write_index(index)
    t2 = time.monotonic()
    server = start_server(ctx, store.path, tag, trace_queries)
    warm = httpload.burst("127.0.0.1", server.port, warm_bodies,
                          connections=ctx.connections)
    t3 = time.monotonic()
    elapsed = t3 - started
    bad = [s for s in warm if not s.ok]
    if bad:
        server.stop()
        raise RuntimeError(f"warm-up request failed: {bad[0].error or bad[0].status}")
    spans.record("index.build", "core.index", t0, t1)
    spans.record("columnar.write", "storage.columnar", t1, t2)
    return elapsed, server, store.path, {
        "build_s": t1 - t0, "write_s": t2 - t1, "serve_s": t3 - t2}


def run(ctx, approx: bool, scale: Scale = FULL) -> dict:
    clock = [("start", time.monotonic())]
    budget = scale.approx_budget if approx else None
    schedule = inputs.phases(ctx.seconds, scale.reference_rate,
                             scale.ladder, scale.rung_seconds)
    counts = [len(inputs.arrivals(ctx.seed, i, rate, secs))
              for i, (rate, secs) in enumerate(schedule)]
    timed = sum(counts)
    ogs = inputs.corpus(ctx.seed, scale.corpus)
    queries = inputs.queries(ctx.seed, timed + scale.warmup * scale.setups)
    bodies = [_body(q, budget) for q in queries]
    spans = SpanRecorder(enabled=ctx.trace, prefix="bench-",
                         sampled=lambda rid: rid is None or rid % 2 == 0)
    trace_queries = None
    if ctx.trace:
        trace_queries = os.path.join(ctx.out, "queries.npz")
        np.savez(trace_queries, **{f"q{i}": q
                                   for i, q in enumerate(queries[:timed])})

    clock.append(("inputs", time.monotonic()))

    # -- set-up, several times; the last copy stays up for the load -------
    setup_times, details = [], []
    server = store_path = None
    for n in range(scale.setups):
        warm = bodies[timed + n * scale.warmup:
                      timed + (n + 1) * scale.warmup]
        elapsed, server, store_path, detail = _setup_once(
            ctx, scale, ogs, warm, str(n), trace_queries, spans)
        setup_times.append(elapsed)
        details.append(detail)
        if n < scale.setups - 1:
            server.stop()
            shutil.rmtree(os.path.dirname(store_path))

    clock.append(("setups", time.monotonic()))

    # -- the timed open-loop phases ---------------------------------------
    phases = []
    rid = 0
    for i, (rate, secs) in enumerate(schedule):
        offsets = inputs.arrivals(ctx.seed, i, rate, secs)
        rids = list(range(rid, rid + len(offsets)))
        rid += len(offsets)
        phases.append(httpload.Phase(rate, offsets,
                                     [bodies[r] for r in rids], rids))
    try:
        before = server.command("stats")
        ticks = cpu_ticks()
        httpload.run_phases(
            "127.0.0.1", server.port, phases, connections=ctx.connections,
            probe=lambda: process_cpu_seconds(server.pids))
        steal = steal_share(ticks, cpu_ticks())
        after = server.command("stats")
    finally:
        server.stop()
    samples = [s for p in phases for s in p.samples]
    clock.append(("load", time.monotonic()))

    # -- in-process replay on the same snapshot ---------------------------
    from repro.storage.store import open_store

    t0 = time.monotonic()
    snapshot = open_store(store_path).load_index(mmap=True)
    open_s = time.monotonic() - t0
    spans.record("columnar.open", "storage.columnar", t0, t0 + open_s)
    replay_rids = [int(r) * 2 for r in inputs.sample(
        ctx.seed, timed // 2, scale.replay_sample, tag=1)]
    evals = count_evals(
        lambda r: snapshot.knn(queries[r], K, search_budget=budget),
        replay_rids)
    layer = {}
    if ctx.trace:
        layer = _traced_replay(snapshot, queries, replay_rids, budget,
                               spans)

    clock.append(("replay", time.monotonic()))

    # -- correctness against the brute-force oracle -----------------------
    oracle = Oracle(type(snapshot.metric_distance)(),
                    [og.values for og in ogs])
    ok = {s.rid: s for s in samples if s.ok}
    failed = len(samples) - len(ok)
    checked = [int(r) for r in inputs.sample(
        ctx.seed, timed,
        scale.recall_sample if approx else scale.oracle_sample, tag=2)]
    recalls, mismatches = [], 0
    for r in checked:
        if r not in ok:
            continue
        got = _hits(ok[r])
        ranked = [(d, str(i)) for d, i in oracle.ranked(queries[r])]
        true_d = {ref: d for d, ref in ranked}
        recalls.append(recall([ref for _, ref in got], ranked, K))
        if approx:
            # Approximate answers may miss neighbours, but every
            # distance they report must be the true one.
            wrong = any(true_d.get(ref) != d for d, ref in got) \
                or len(got) != K
        else:
            wrong = not exact_match(got, ranked, K)
        mismatches += int(wrong)
    failed += mismatches
    clock.append(("oracle", time.monotonic()))

    # -- metrics ----------------------------------------------------------
    reference = phases[0]
    ref_lat = [s.latency * 1e3 for s in reference.samples if s.ok]
    slo, ladder_rows = ladder_slo(
        [(p.rate, [(s.due, s.done, s.ok) for s in p.samples])
         for p in phases], P99_LIMIT_MS)
    rss_mb = sum(after["rss_kb"].values()) / 1024.0
    busy = sum(v["busy_seconds"] for v in after["shard_stats"].values()) \
        - sum(v["busy_seconds"] for v in before["shard_stats"].values())
    wall = phases[-1].finished - phases[0].started
    overhead = [((s.done - s.sent) - json.loads(s.body)["latency"]) * 1e3
                for s in samples if s.ok]
    lag = [x * 1e3 for x in reference.lag]
    end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "query_p50_ms": (pct(ref_lat, 50), "ms"),
        "query_p99_ms": (pct(ref_lat, 99), "ms"),
        "slo_qps": (slo, "req/s"),
        "evals_per_query": (median(evals), "count"),
        "recall_at_10": (float(np.mean(recalls)) if recalls else 0.0,
                         "fraction"),
        "server_rss_mb": (rss_mb, "MB"),
        "cpu_ms_per_query": ((reference.probe_end - reference.probe_start)
                             * 1e3 / len(reference.samples), "ms"),
        "error_rate": (failed / len(samples), "fraction"),
        "freshness_p50_ms": (None, "ms"),
        "freshness_p90_ms": (None, "ms"),
    }
    per_layer = {
        "net.overhead_ms_p50": (pct(overhead, 50), "ms"),
        "net.rejected": (float(sum(1 for s in samples if s.status == 503)),
                         "count"),
        "loadgen.lag_ms_p99": (pct(lag, 99), "ms"),
        "workers.busy_frac": (busy / max(wall * REPLICAS, 1e-9), "fraction"),
        "columnar.write_s": (median([d["write_s"] for d in details]), "s"),
        "columnar.open_s": (open_s, "s"),
        "columnar.checkpoint_ms": (0.0, "ms"),
        "index.build_s": (median([d["build_s"] for d in details]), "s"),
        "index.insert_ms_p50": (0.0, "ms"),
        "pipeline.clip_ms_p50": (0.0, "ms"),
        "segmentation.frame_ms_p50": (0.0, "ms"),
        "pipeline.decompose_ms_p50": (0.0, "ms"),
        "ingest.queue_wait_ms_p50": (0.0, "ms"),
        "ingest.process_ms_p50": (0.0, "ms"),
        "ingest.retries": (0.0, "count"),
        "ingest.freshness_p50_ms": (0.0, "ms"),
        "ingest.freshness_p90_ms": (0.0, "ms"),
    }
    if ctx.trace:
        per_layer.update(_traced_http(trace_queries, samples, spans, layer))
    return {
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": spans,
        "details": {
            "setup_s": setup_times, "setup_parts_s": details,
            "ladder": ladder_rows,
            "oracle_checked": len(checked), "oracle_mismatches": mismatches,
            "replayed": len(replay_rids), "search_budget": budget,
            "cpu_steal_share": steal,
            "corpus": scale.corpus, "requests": len(samples),
            "stage_s": {name: round(t - prev, 3) for (name, t), (_, prev)
                        in zip(clock[1:], clock[:-1])},
        },
    }


def _traced_replay(snapshot, queries, rids, budget, spans) -> dict:
    """Time the in-process layers under the same queries."""
    from repro.search.sketch import SketchIndex
    from repro.serving import ShardedIndex

    shortlist, pivot_evals, pairs = [], [], []

    def on_candidates(out, *args, **kwargs):
        shortlist.append(len(out[0]))
        pivot_evals.append(out[2])

    rid_by_query = {queries[r].tobytes(): r for r in rids}
    spans.wrap(SketchIndex, "candidates", "sketch.candidates",
               "search.sketch", observe=on_candidates)
    spans.wrap(type(snapshot.metric_distance), "compute_many",
               "distance.compute_many", "distance",
               observe=lambda out, dist, query, batch: pairs.append(
                   len(batch)))
    spans.wrap(ShardedIndex, "knn", "sharding.knn", "serving.sharding",
               rid_of=lambda self, query, *a, **kw: rid_by_query.get(
                   np.ascontiguousarray(query, dtype=np.float64).tobytes()))
    try:
        for r in rids:
            snapshot.knn(queries[r], K, search_budget=budget)
    finally:
        spans.unwrap()
    n = len(rids)
    total_pairs = sum(pairs)
    rerank = total_pairs - sum(pivot_evals) if shortlist else 0
    kernel = durations(spans.spans, "distance.compute_many")
    sharding = [d * 1e3 for d in durations(spans.spans, "sharding.knn")]
    return {
        "sharding.knn_ms_p50": (pct(sharding, 50), "ms"),
        "sharding.knn_ms_p99": (pct(sharding, 99), "ms"),
        "sharding.evals_per_query": (total_pairs / n, "count"),
        "sketch.candidates_ms_p50": (pct([d * 1e3 for d in durations(
            spans.spans, "sketch.candidates")], 50), "ms"),
        "sketch.shortlist_rows": (sum(shortlist) / n, "count"),
        "sketch.rerank_evals": (rerank / n, "count"),
        "sketch.useful_frac": ((K * n / rerank) if rerank else 0.0,
                               "fraction"),
        "distance.pair_us": (sum(kernel) / max(total_pairs, 1) * 1e6, "us"),
        "distance.pairs_per_query": (total_pairs / n, "count"),
    }


def _traced_http(trace_queries, samples, spans, layer) -> dict:
    """Join client round trips with the server's WorkerPool.knn spans
    (written by the last set-up's server, the one that took the load)."""
    from perfbench.spans import read_jsonl

    server_spans = read_jsonl(spans_path(trace_queries))
    for s in samples:
        spans.record("net.request", "serving.net", s.sent, s.done, rid=s.rid)
    spans.spans.extend(server_spans)
    link_roots(spans.spans, ["net.request"])
    pool_ms = {sp["rid"]: (sp["end"] - sp["start"]) * 1e3
               for sp in server_spans if sp["name"] == "workers.knn"}
    sharding_ms = {sp["rid"]: (sp["end"] - sp["start"]) * 1e3
                   for sp in spans.spans if sp["name"] == "sharding.knn"}
    ipc = [pool_ms[r] - sharding_ms[r] for r in sharding_ms if r in pool_ms]
    traced = [s.latency * 1e3 for s in samples
              if s.ok and s.phase == 0 and s.rid % 2 == 0]
    untraced = [s.latency * 1e3 for s in samples
                if s.ok and s.phase == 0 and s.rid % 2 == 1]
    out = dict(layer)
    out.update({
        "workers.knn_ms_p50": (pct(list(pool_ms.values()), 50), "ms"),
        "workers.knn_ms_p99": (pct(list(pool_ms.values()), 99), "ms"),
        "workers.ipc_ms_p50": (pct(ipc, 50), "ms"),
        "trace.query_p50_ms": (pct(traced, 50), "ms"),
        "trace.untraced_query_p50_ms": (pct(untraced, 50), "ms"),
        "trace.overhead_ms": (pct(traced, 50) - pct(untraced, 50), "ms"),
    })
    out.update(layer_self_times(spans.spans))
    return out
