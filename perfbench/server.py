"""The serving process: ``WorkerPool`` + ``NetFrontend`` over one store.

Run as ``python -m perfbench.server STORE [--trace-queries NPZ]`` with
the checkout's ``src`` on ``PYTHONPATH``.  It prints one JSON line
``{"port": ..., "pids": [...]}`` once the frontend is bound, then
answers JSON commands on stdin, one per line:

- ``{"cmd": "stats"}`` — per-shard busy counters and peak RSS;
- ``{"cmd": "stop"}`` — stop the frontend and the pool, write the
  spans of a traced run to :func:`spans_path` of the NPZ, and exit.

The module keeps its entry point under the ``__main__`` check: the pool
spawns its workers with the ``spawn`` start method, which re-imports
this module in every worker.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: One worker slot served by this many replica processes.
REPLICAS = 2


def spans_path(trace_queries: str) -> str:
    """Where a server traced with ``--trace-queries`` writes its spans."""
    return os.path.splitext(trace_queries)[0] + "-spans.jsonl"


def _rss_kb(pids: list[int]) -> dict[str, int]:
    from perfbench.measure import proc_status_kb

    return {str(pid): proc_status_kb(pid, "VmHWM") for pid in pids}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store")
    parser.add_argument("--trace-queries", default=None,
                        help="NPZ of the run's query trajectories; enables "
                        "a span around every WorkerPool.knn call")
    args = parser.parse_args(argv)

    import numpy as np

    from perfbench.spans import SpanRecorder
    from repro.serving import NetConfig, NetFrontend, WorkerPool, WorkerPoolConfig

    recorder = None
    pool = WorkerPool(args.store, WorkerPoolConfig(
        workers=1, replicas=REPLICAS))
    pool.start()
    if args.trace_queries:
        with np.load(args.trace_queries) as data:
            rid_by_query = {data[key].tobytes(): int(key[1:])
                            for key in data.files}

        def rid_of(query, *args, **kwargs):
            values = np.ascontiguousarray(query, dtype=np.float64)
            return rid_by_query.get(values.tobytes())

        # Even request ids are traced and odd ones are not, so one run
        # yields the tracing overhead as a paired difference.
        recorder = SpanRecorder(
            prefix="srv-",
            sampled=lambda rid: rid is not None and rid % 2 == 0)
        recorder.wrap(pool, "knn", "workers.knn", "serving.workers",
                      rid_of=rid_of)
    frontend = NetFrontend(pool, config=NetConfig())
    frontend.start_in_thread()
    health = pool.health()
    pids = [os.getpid()] + [w["pid"] for w in health["workers"]]
    print(json.dumps({"port": frontend.port, "pids": pids}), flush=True)

    for line in sys.stdin:
        command = json.loads(line).get("cmd")
        if command == "stats":
            reply = {"shard_stats": {str(k): v for k, v in
                                     pool.shard_stats().items()},
                     "rss_kb": _rss_kb(pids),
                     "rejected": frontend.requests_rejected,
                     "served": frontend.requests_served}
            print(json.dumps(reply), flush=True)
        elif command == "stop":
            break
    frontend.stop()
    pool.shutdown()
    if recorder is not None:
        recorder.write_jsonl(spans_path(args.trace_queries))
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
