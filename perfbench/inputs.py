"""Seeded workload inputs: corpus, queries, clips and arrival schedules.

Everything the program receives is generated here from the run's
``--seed``; the same seed gives the same inputs in any process.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Motion-pattern lengths used for every synthetic trajectory.  Shorter
#: than the paper's so one exact EGED evaluation stays cheap.
LENGTH_RANGE = (10, 20)

#: Streams cycled through for rendered ingest clips.
CLIP_STREAMS = ("Traffic1", "Lab1", "Traffic2", "Lab2")

# Stream tags keep each input family on its own random stream, so
# changing one family's size never shifts another's values.
_CORPUS, _QUERIES, _CLIPS, _ARRIVALS, _SAMPLE = range(5)


def derive_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed for one input family of one run."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _patterns():
    from repro.datasets.patterns import ALL_PATTERNS

    return [dataclasses.replace(p, length_range=LENGTH_RANGE)
            for p in ALL_PATTERNS]


def _trajectories(n: int, seed: int) -> list:
    from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs

    return generate_synthetic_ogs(SyntheticConfig(
        num_ogs=n, seed=seed, patterns=_patterns()))


def corpus(seed: int, n: int) -> list:
    """``n`` synthetic object graphs (the indexed corpus)."""
    return _trajectories(n, derive_seed(seed, _CORPUS))


def queries(seed: int, n: int) -> list[np.ndarray]:
    """``n`` pairwise-distinct query trajectories, in a seeded order.

    Distinct so that no answer can be served from a result cache.
    """
    ogs = _trajectories(n, derive_seed(seed, _QUERIES))
    rng = np.random.default_rng(derive_seed(seed, _QUERIES, 1))
    out, seen = [], set()
    for i in rng.permutation(n):
        values = np.ascontiguousarray(ogs[i].values, dtype=np.float64)
        key = values.tobytes()
        if key in seen:
            raise ValueError("generated query trajectories collide")
        seen.add(key)
        out.append(values)
    return out


def clips(seed: int, n: int, frames: int) -> list:
    """``n`` rendered 160x120 clips, uniquely named ``clip-NNNN``."""
    from repro.datasets.real import render_stream_segment
    from repro.video.frames import VideoSegment

    rng = np.random.default_rng(derive_seed(seed, _CLIPS))
    out = []
    for i in range(n):
        video = render_stream_segment(
            CLIP_STREAMS[i % len(CLIP_STREAMS)], num_frames=frames, rng=rng)
        out.append(VideoSegment(video.frames, fps=video.fps,
                                name=f"clip-{i:04d}"))
    return out


def phases(seconds: float, reference_rate: float, ladder, rung_seconds: float
           ) -> list[tuple[float, float]]:
    """``(rate, seconds)`` of each load phase: the reference rate for
    all but the ladder's share of ``seconds``, then each ladder rate."""
    reference = seconds - rung_seconds * len(ladder)
    if reference < rung_seconds:
        raise ValueError(f"--seconds must be at least "
                         f"{rung_seconds * (len(ladder) + 1)}")
    return [(reference_rate, reference)] + [(rate, rung_seconds)
                                             for rate in ladder]


def arrivals(seed: int, phase: int, rate: float, duration: float
             ) -> np.ndarray:
    """Open-loop Poisson arrival offsets (seconds) for one load phase.

    The count is fixed at ``round(rate * duration)`` and the times are
    uniform order statistics, i.e. a Poisson process conditioned on its
    count: bursty like real arrivals, but every run offers exactly the
    same load.
    """
    rng = np.random.default_rng(derive_seed(seed, _ARRIVALS, phase))
    count = max(1, int(round(rate * duration)))
    return np.sort(rng.uniform(0.0, duration, size=count))


def periodic(rate: float, duration: float) -> np.ndarray:
    """Evenly spaced arrival offsets: ``round(rate * duration)`` of them,
    each in the middle of its ``1 / rate`` slot."""
    count = max(1, int(round(rate * duration)))
    return (np.arange(count) + 0.5) / rate


def sample(seed: int, population: int, size: int, tag: int
           ) -> np.ndarray:
    """A seeded sorted subset of ``range(population)``."""
    rng = np.random.default_rng(derive_seed(seed, _SAMPLE, tag))
    size = min(size, population)
    return np.sort(rng.choice(population, size=size, replace=False))
