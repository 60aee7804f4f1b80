"""Benchmark workloads: pipeline settings plus seeded input generators.

The generators live here, not in ``asap_stream``, so that a change to the
program's own sources cannot change what the benchmark feeds it. Every
workload hands the program a finished event array; the program only sees
it through ``ArraySource``, as it would see a camera replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

EVENT_DTYPE = np.dtype(
    [("t", np.int64), ("x", np.int16), ("y", np.int16), ("p", np.int8)])
WIDTH, HEIGHT = 346, 260
_FILL = 1 << 20  # arrivals drawn per generator step


def poisson_times(rng: np.random.Generator, r0: float, r1: float,
                  duration_s: float) -> np.ndarray:
    """Integer-µs arrival times of a Poisson process whose rate ramps
    linearly from ``r0`` to ``r1`` ev/s over ``duration_s``.

    Unit-rate arrivals are mapped through the inverse of the cumulative
    intensity ``r0*t + k*t^2/2``; ``r0 == r1`` gives a constant rate.
    """
    k = (r1 - r0) / duration_s
    expected = r0 * duration_s + 0.5 * k * duration_s ** 2
    out = np.empty(int(expected + 10 * np.sqrt(expected)) + _FILL, np.int64)
    n = 0
    s_base = 0.0
    while True:
        s = s_base + np.cumsum(rng.exponential(1.0, _FILL))
        s_base = float(s[-1])
        t = s / r0 if k == 0.0 else (np.sqrt(r0 * r0 + 2.0 * k * s) - r0) / k
        t = t[t < duration_s]
        if n + len(t) > len(out):
            out = np.concatenate([out, np.empty(len(out), np.int64)])
        out[n:n + len(t)] = np.floor(t * 1e6)
        n += len(t)
        if len(t) < _FILL:
            return out[:n]


def _events(t: np.ndarray, x, y, rng: np.random.Generator) -> np.ndarray:
    ev = np.empty(len(t), EVENT_DTYPE)
    ev["t"] = t
    ev["x"] = x
    ev["y"] = y
    ev["p"] = rng.integers(0, 2, len(t)) * 2 - 1
    return ev


def uniform_stream(rng: np.random.Generator, r0: float, r1: float,
                   duration_s: float) -> np.ndarray:
    """Events spread uniformly over the sensor at a (ramping) Poisson rate."""
    t = poisson_times(rng, r0, r1, duration_s)
    return _events(t, rng.integers(0, WIDTH, len(t)),
                   rng.integers(0, HEIGHT, len(t)), rng)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: config overrides, a generator and chunking.

    ``generate(rng, scale)`` returns the event array; ``scale`` shortens
    the stream for the smoke test and is 1 in benchmark runs. The latency
    figures pool the packages of the first ``latency_inputs`` inputs, so
    that they do not depend on how many passes fit in a run; the count
    is chosen so that the pool fits in a 25 s run.
    """

    name: str
    config: dict
    generate: Callable[[np.random.Generator, float], np.ndarray]
    latency_inputs: int
    chunk_events: int = 65536


# There is no realtime workload. On a shared host the threaded runner's
# p99 latency follows host stalls: one input at 1.5e4-2e4 ev/s with the
# clustering consumer gave p99 from 20 to 45 ms across runs, an IQR of
# 30-40% of the median, which no regression bound can hold.
WORKLOADS = {w.name: w for w in (
    # The bundled fig3 scenario: a 1e5 -> 1e7 ev/s ramp that crosses the
    # discard bound a = 5e6, so gamma falls to ~0.5. The per-event path.
    Workload("ramp_overload",
             {"consumer.o_us": 1000.0, "consumer.c_ns": 100.0},
             lambda rng, s: uniform_stream(rng, 1e5, 1e7, 5.0 * s), 4),
    # 2e6 ev/s (gamma = 1) in 1024-event chunks, as a camera driver's
    # transfer buffers arrive; N* ~ 5.2k, so every package spans ~5
    # chunks. The per-chunk path.
    Workload("driver_chunks",
             {"consumer.o_us": 2000.0, "consumer.c_ns": 100.0},
             lambda rng, s: uniform_stream(rng, 2e6, 2e6, 3.0 * s), 8,
             chunk_events=1024),
    # 1e6 ev/s with a 20 µs package overhead: N* ~ 23, ~42k packages per
    # stream-second. The per-package path. The controller starts at N*,
    # so this workload does not measure the latency tail of a warm-up
    # from an oversized initial target. From the default 1000 that tail
    # decides p99: pooling three 3 s inputs per seed still gave p99 from
    # 128 to 254 us over seeds 0-8, beyond any bound of at most 25%. The
    # oversized start still runs on ramp_overload (1000 against N* ~ 100
    # at 1e5 ev/s), where the ramp's lag dominates the latencies.
    Workload("small_packages",
             {"consumer.o_us": 20.0, "consumer.c_ns": 100.0,
              "packager.initial_size": 23},
             lambda rng, s: uniform_stream(rng, 1e6, 1e6, 1.0 * s), 10),
)}
