"""Open-loop HTTP load generator: one asyncio thread, few connections.

Requests are released on a seeded arrival schedule regardless of how
fast the server answers (independent users, not waiting callers), over
at most ``connections`` keep-alive connections.  A request due while
every connection is busy waits for one, and that wait counts: latency
runs from each request's *due* time to its response.  How late the
generator itself released each request is reported as lag.

Connections are closed before :func:`run_phases` returns, so the server
can be stopped without abandoning open keep-alive connections.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

PATH = "/knn"
#: Seconds a request may take before it counts as failed.
TIMEOUT = 30.0
#: Seconds a warm-up request may take (the first ones attach lazy state).
WARM_TIMEOUT = 120.0
#: Pause before each phase starts.
GAP = 0.05


@dataclass
class Sample:
    """One request's fate (times on the ``time.monotonic`` clock)."""

    rid: int
    phase: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


@dataclass
class Phase:
    """One fixed-rate stretch of the schedule."""

    rate: float
    offsets: Sequence[float]          # arrival offsets from phase start
    bodies: Sequence[bytes]           # one JSON body per arrival
    rids: Sequence[int]
    samples: list[Sample] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    #: ``probe()`` readings when the phase started and when it drained.
    probe_start: float = 0.0
    probe_end: float = 0.0


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, head: bytes,
                    body: bytes) -> tuple[int, bytes]:
    writer.write(head % len(body) + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    return status, payload


async def _connection(host: str, port: int, queue: asyncio.Queue,
                      timeout: float) -> None:
    head = (f"POST {PATH} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Type: application/json\r\nConnection: keep-alive\r\n"
            "Content-Length: %d\r\n\r\n").encode("latin-1")
    reader = writer = None
    try:
        while True:
            item = await queue.get()
            if item is None:
                return
            sample, body = item
            sample.sent = time.monotonic()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                sample.status, sample.body = await asyncio.wait_for(
                    _exchange(reader, writer, head, body), timeout)
            except Exception as exc:  # noqa: BLE001 - recorded per request
                sample.error = f"{type(exc).__name__}: {exc}"
                if writer is not None:
                    writer.close()
                    await _closed(writer)
                reader = writer = None
            sample.done = time.monotonic()
    finally:
        if writer is not None:
            writer.close()
            await _closed(writer)


async def _closed(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.wait_closed()
    except (OSError, ConnectionError):
        pass


async def _run(host: str, port: int, phases: Sequence[Phase],
               connections: int, timeout: float, gap: float,
               probe: Callable[[], float]) -> None:
    queue: asyncio.Queue = asyncio.Queue()
    workers = [asyncio.create_task(_connection(host, port, queue, timeout))
               for _ in range(connections)]
    try:
        for index, phase in enumerate(phases):
            phase.started = time.monotonic() + gap
            phase.probe_start = probe()
            for offset, body, rid in zip(phase.offsets, phase.bodies,
                                         phase.rids):
                due = phase.started + float(offset)
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.lag.append(max(0.0, time.monotonic() - due))
                sample = Sample(rid=rid, phase=index, due=due)
                phase.samples.append(sample)
                queue.put_nowait((sample, body))
            # The next phase starts once this one's backlog has drained,
            # so an overloaded rung cannot spill into the next.
            while any(s.done == 0.0 for s in phase.samples):
                await asyncio.sleep(0.005)
            phase.finished = time.monotonic()
            phase.probe_end = probe()
    finally:
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers, return_exceptions=True)


def run_phases(host: str, port: int, phases: Sequence[Phase],
               connections: int, probe: Callable[[], float]) -> None:
    """Drive ``phases`` back to back with ``POST /knn``; fills each
    phase's samples.

    ``probe()`` is read as each phase starts and once it has drained
    (the serve workloads read the server's CPU seconds).
    """
    asyncio.run(_run(host, port, phases, connections, TIMEOUT, GAP, probe))


def burst(host: str, port: int, bodies: Sequence[bytes],
          connections: int) -> list[Sample]:
    """Send every body at once over ``connections`` connections (warm-up:
    concurrent requests reach every replica, so each warms its lazy
    state in parallel)."""
    phase = Phase(rate=0.0, offsets=[0.0] * len(bodies), bodies=bodies,
                  rids=list(range(len(bodies))))
    asyncio.run(_run(host, port, [phase], connections, WARM_TIMEOUT, 0.0,
                     lambda: 0.0))
    return phase.samples
