"""In-memory span recorder for the traced run.

Spans are recorded around calls into each layer's public functions,
from the benchmark's side: a wrapper installed on a public method or
module function times the call and notes its parent (the enclosing span
on the same thread) and a request id.  Spans stay in memory and are
written as JSONL once the run ends.

A span with no parent on its own thread is attached, after the run, to
the root span that carries the same request id (an HTTP request, an
ingest job), so a layer's *self time* — its duration minus the part of
it covered by child spans — is computed across threads and processes.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable


class SpanRecorder:
    """Collects ``{name, layer, start, end, parent, rid}`` records.

    ``enabled`` is the master switch.  ``sampled(rid)`` may further
    restrict recording to some requests (so traced and untraced
    requests interleave within one run); a disabled recorder costs one
    attribute check per wrapped call.
    """

    def __init__(self, prefix: str, enabled: bool = True,
                 sampled: Callable[[Any], bool] | None = None):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._prefix = prefix
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sampled = sampled
        self._installed: list[tuple[Any, str, bool, Any]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[tuple[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _active(self, rid: Any) -> bool:
        return self._sampled is None or self._sampled(rid)

    @contextmanager
    def span(self, name: str, layer: str, rid: Any = None):
        """Time the enclosed block as one span (nested spans nest).

        Yields whether the span is recorded.  Spans nested in an
        unsampled one inherit its request id and are skipped too.
        """
        stack = self._stack()
        if rid is None and stack:
            rid = stack[-1][1]
        if not self.enabled:
            yield False
            return
        if not self._active(rid):
            stack.append((None, rid))
            try:
                yield False
            finally:
                stack.pop()
            return
        sid = f"{self._prefix}{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        stack.append((sid, rid))
        start = time.monotonic()
        try:
            yield True
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append({"id": sid, "name": name, "layer": layer,
                               "start": start, "end": end,
                               "parent": parent, "rid": rid})

    def record(self, name: str, layer: str, start: float, end: float,
               rid: Any = None) -> None:
        """Add a top-level span timed elsewhere (HTTP round trips, job
        stamps)."""
        if not self.enabled or not self._active(rid):
            return
        sid = f"{self._prefix}{next(self._ids)}"
        self.spans.append({"id": sid, "name": name, "layer": layer,
                           "start": start, "end": end, "parent": None,
                           "rid": rid})

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             rid_of: Callable[..., Any] | None = None,
             observe: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper until :meth:`unwrap`.

        ``owner`` is a class (every instance is traced), a module (a
        module-level function looked up at call time) or an instance.
        ``rid_of(*args, **kwargs)`` names the request a top-level call
        belongs to; ``observe(result, *args, **kwargs)`` sees the result
        of every recorded call, so counts are taken at the same boundary
        and for the same calls as the times.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        target = original if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return target(*args, **kwargs)
            rid = None if rid_of is None else rid_of(*args, **kwargs)
            with recorder.span(name, layer, rid) as recorded:
                result = target(*args, **kwargs)
            if recorded and observe is not None:
                observe(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, own, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._installed:
            owner, attr, own, original = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def link_roots(spans: list[dict], root_names: Iterable[str]) -> None:
    """Attach parentless spans to the root span of their request id."""
    names = set(root_names)
    roots = {str(s["rid"]): s["id"] for s in spans
             if s["name"] in names and s["rid"] is not None}
    for span in spans:
        if (span["parent"] is None and span["name"] not in names
                and span["rid"] is not None):
            span["parent"] = roots.get(str(span["rid"]))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time (seconds) per layer.

    A span's self time is its duration minus the union of its
    children's intervals, clipped to the span.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span["layer"]] += max(0.0, (end - start) - covered)
    return dict(totals)


def durations(spans: list[dict], name: str) -> list[float]:
    """Durations (seconds) of every span called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


#: Layers whose self time every traced run reports (0.0 when idle).
LAYERS = ("serving.net", "serving.workers", "serving.sharding",
          "search.sketch", "distance", "storage.columnar", "core.index",
          "pipeline", "serving.ingest")


def layer_self_times(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """``self_s.<layer>`` metrics for every layer in :data:`LAYERS`."""
    totals = self_times(spans)
    return {f"self_s.{layer}": (totals.get(layer, 0.0), "s")
            for layer in LAYERS}
