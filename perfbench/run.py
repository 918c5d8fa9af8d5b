"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-exact --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
its ``src`` directory).  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("serve-exact", "serve-approx", "ingest-live")

#: Metrics of ``--trace 0`` runs, with units.  Every workload reports
#: all of them and none is ever 0, so they can be compared against
#: bounds from run to run.  Latency percentiles, CPU per query, the
#: error rate and freshness are printed in the summary and kept in the
#: result file instead (see README.md for why).
END_TO_END = {
    "setup_s": "s",
    "slo_qps": "req/s",
    "evals_per_query": "count",
    "recall_at_10": "fraction",
    "server_rss_mb": "MB",
}

#: Metrics of ``--trace 1`` runs, with units (0.0 where a layer is idle).
PER_LAYER = {
    "net.overhead_ms_p50": "ms",
    "net.rejected": "count",
    "loadgen.lag_ms_p99": "ms",
    "workers.knn_ms_p50": "ms",
    "workers.knn_ms_p99": "ms",
    "workers.ipc_ms_p50": "ms",
    "workers.busy_frac": "fraction",
    "sharding.knn_ms_p50": "ms",
    "sharding.knn_ms_p99": "ms",
    "sharding.evals_per_query": "count",
    "sketch.candidates_ms_p50": "ms",
    "sketch.shortlist_rows": "count",
    "sketch.rerank_evals": "count",
    "sketch.useful_frac": "fraction",
    "distance.pair_us": "us",
    "distance.pairs_per_query": "count",
    "columnar.write_s": "s",
    "columnar.open_s": "s",
    "columnar.checkpoint_ms": "ms",
    "index.build_s": "s",
    "index.insert_ms_p50": "ms",
    "pipeline.clip_ms_p50": "ms",
    "segmentation.frame_ms_p50": "ms",
    "pipeline.decompose_ms_p50": "ms",
    "ingest.queue_wait_ms_p50": "ms",
    "ingest.process_ms_p50": "ms",
    "ingest.retries": "count",
    "ingest.freshness_p50_ms": "ms",
    "ingest.freshness_p90_ms": "ms",
    "trace.query_p50_ms": "ms",
    "trace.untraced_query_p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "self_s.serving.net": "s",
    "self_s.serving.workers": "s",
    "self_s.serving.sharding": "s",
    "self_s.search.sketch": "s",
    "self_s.distance": "s",
    "self_s.storage.columnar": "s",
    "self_s.core.index": "s",
    "self_s.pipeline": "s",
    "self_s.serving.ingest": "s",
}

#: A run must end well inside the 180 s a run is allowed.
WALL_LIMIT_S = 170


@dataclass
class Context:
    root: str
    out: str
    seed: int
    seconds: float
    trace: bool
    connections: int

    def child_env(self) -> dict:
        paths = [os.path.join(self.root, "src"), self.root]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured (load) seconds of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WALL_LIMIT_S}s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {ROOT}/src/repro; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import ingest_live, serve
    from perfbench.measure import environment
    from repro.parallel import usable_cpus

    results_dir = os.path.join(ROOT, ".perfbench", "results")
    work = os.path.join(ROOT, ".perfbench",
                        f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work)
    ctx = Context(root=ROOT, out=work, seed=args.seed,
                  seconds=float(args.seconds), trace=bool(args.trace),
                  connections=min(2, usable_cpus()))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(WALL_LIMIT_S)
    started = time.monotonic()
    try:
        if args.workload == "ingest-live":
            result = ingest_live.run(ctx)
        else:
            result = serve.run(ctx, approx=args.workload == "serve-approx")
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if ctx.trace else END_TO_END
    source = result["per_layer"] if ctx.trace else result["end_to_end"]
    missing = sorted(set(wanted) - set(source))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {name: {"value": float(source[name][0]), "unit": unit}
               for name, unit in wanted.items()}
    stem = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "environment": environment(ROOT),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": {k: v for k, v in result["end_to_end"].items()
                       if v[0] is not None},
        "per_layer": result["per_layer"] if ctx.trace else None,
        "details": result["details"],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    if ctx.trace:
        result["spans"].write_jsonl(stem + ".spans.jsonl")

    _print_summary(record)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def _print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"wall={record['wall_s']:.1f}s cpus={env['usable_cpus']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"commit={env['git_commit'] or env['source_digest']}")
    print(f"  correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for name, (value, unit) in record["end_to_end"].items():
        print(f"  {name:<18} {value:>12.4f} {unit}")
    for row in record["details"].get("ladder", []):
        print("  ladder " + " ".join(
            f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()))
    if record["per_layer"]:
        for name, (value, unit) in sorted(record["per_layer"].items()):
            print(f"  {name:<30} {value:>12.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
