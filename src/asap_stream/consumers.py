"""Pluggable event-by-event consumers fed by the pipeline.

Two reference consumers are provided: a synthetic affine-cost consumer
whose processing time is an exact function of package size (the
analytic verification workload), and a small asynchronous clustering
consumer as a realistic event-by-event workload.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ConfigurationError
from .events import EventPackage, SensorGeometry, DAVIS346
from .packager import ProcessingFeedback


class Clock(Protocol):
    """Pipeline clock: virtual (logical counter) or wall time.

    The run loop moves it only with :meth:`advance_to`, to the next
    event or timeout deadline; a consumer spends its modelled work with
    :meth:`advance`.
    """

    @property
    def now_us(self) -> float: ...

    def advance(self, dt_us: float) -> None: ...

    def advance_to(self, t_us: float) -> None:
        """Move the clock forward to ``t_us``; never moves it backward."""


class VirtualClock:
    """Logical microsecond counter; advanced explicitly, never sleeps."""

    def __init__(self, start_us: float = 0.0):
        self.now_us = float(start_us)

    def advance(self, dt_us: float) -> None:
        self.now_us += dt_us

    def advance_to(self, t_us: float) -> None:
        # kept as given: an int deadline past 2**53 stays reached
        if t_us > self.now_us:
            self.now_us = t_us


class WallClock:
    """Monotonic wall clock; ``advance`` busy-waits for the duration."""

    def __init__(self):
        self._t0 = time.perf_counter()

    @property
    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def advance(self, dt_us: float) -> None:
        end = time.perf_counter() + dt_us / 1e6
        while time.perf_counter() < end:
            pass

    def advance_to(self, t_us: float) -> None:
        """Sleep until the clock reads ``t_us``; return at once if it
        already does."""
        delay_us = t_us - self.now_us
        if delay_us > 0:
            time.sleep(delay_us / 1e6)


class Consumer(Protocol):
    """Processes packages strictly event by event, reporting elapsed time.

    ``package.events`` may be a view of the array the source yielded,
    which for an :class:`~asap_stream.events.ArraySource` is the caller's
    own array: a consumer reads it and must not write into it.
    """

    def process(self, package: EventPackage, clock: Clock) -> ProcessingFeedback: ...


@dataclass
class SyntheticCostModel:
    """Affine processing-cost model: fixed per-package overhead plus a
    marginal cost per event, with optional multiplicative jitter."""

    overhead_us: float = 1000.0
    per_event_us: float = 0.5
    jitter_fraction: float = 0.0

    def validate(self) -> None:
        # chained comparisons are false for NaN; a jitter above 1 could
        # scale a processing time below zero
        if not 0 <= self.overhead_us < math.inf:
            raise ConfigurationError(
                f"consumer.o_us must be finite and >= 0, got "
                f"{self.overhead_us}", key="consumer.o_us")
        if not 0 <= self.per_event_us < math.inf:
            raise ConfigurationError(
                f"consumer.c_ns must be finite and >= 0, got "
                f"{self.per_event_us * 1000}", key="consumer.c_ns")
        if not 0 <= self.jitter_fraction <= 1:
            raise ConfigurationError(
                f"consumer.jitter must be in [0, 1], got {self.jitter_fraction}",
                key="consumer.jitter")


class SyntheticConsumer:
    """Consumer whose processing time is ``(o + c*size) * (1 + jitter)``.

    With a virtual clock the duration is purely modeled (bit-exact and
    reproducible for a given seed); with a wall clock it busy-loops for
    the same duration.
    """

    def __init__(self, model: SyntheticCostModel, seed: int = 0):
        model.validate()
        self.model = model
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def process(self, package: EventPackage, clock: Clock) -> ProcessingFeedback:
        m = self.model
        size = package.size
        proc_us = m.overhead_us + m.per_event_us * size
        if m.jitter_fraction > 0:
            u = self._rng.uniform(-m.jitter_fraction, m.jitter_fraction)
            proc_us *= 1.0 + u
        clock.advance(proc_us)
        return ProcessingFeedback(package.seq, size, package.span_us, proc_us)


@dataclass
class Cluster:
    cx: float
    cy: float
    count: int
    last_t_us: int
    created: int


class ClusteringConsumer:
    """Running-mean centroid clustering with TTL expiry.

    Each event either joins the nearest surviving centroid within
    ``radius_px`` (ties broken by lowest creation index) or seeds a new
    cluster. Processing time is the measured elapsed monotonic time, so
    virtual-mode runs using this consumer are not bit-reproducible. The
    clock is moved to the call's start plus that time, which a wall
    clock has already reached: the work is not waited for twice.
    """

    def __init__(self, radius_px: float = 10.0, ttl_us: int = 50_000,
                 geometry: SensorGeometry = DAVIS346):
        if not radius_px > 0:     # false for NaN; infinity is unbounded
            raise ConfigurationError(
                f"consumer.radius_px must be positive, got {radius_px}",
                key="consumer.radius_px")
        if not ttl_us > 0:
            raise ConfigurationError(
                f"consumer.ttl_us must be positive, got {ttl_us}",
                key="consumer.ttl_us")
        self.radius_px = float(radius_px)
        self.ttl_us = int(ttl_us)
        self.geometry = geometry
        self.clusters: list[Cluster] = []
        self._created = 0

    def assign_event(self, t_us: int, x: float, y: float) -> Cluster:
        """Absorb one event; returns the cluster it joined or created."""
        self.clusters = [c for c in self.clusters
                         if t_us - c.last_t_us <= self.ttl_us]
        best = None
        best_d = math.inf
        for c in self.clusters:
            d = math.hypot(x - c.cx, y - c.cy)
            # nearest wins; equal distances break toward the oldest cluster
            if d <= self.radius_px and d < best_d:
                best = c
                best_d = d
        if best is not None:
            best.count += 1
            best.cx += (x - best.cx) / best.count
            best.cy += (y - best.cy) / best.count
            best.last_t_us = t_us
            return best
        cluster = Cluster(cx=float(x), cy=float(y), count=1,
                          last_t_us=t_us, created=self._created)
        self._created += 1
        self.clusters.append(cluster)
        return cluster

    def process(self, package: EventPackage, clock: Clock) -> ProcessingFeedback:
        start_us = clock.now_us
        start = time.perf_counter()
        for ev in package.events:
            self.assign_event(int(ev["t"]), float(ev["x"]), float(ev["y"]))
        elapsed_us = (time.perf_counter() - start) * 1e6
        clock.advance_to(start_us + elapsed_us)
        return ProcessingFeedback(package.seq, package.size, package.span_us,
                                  elapsed_us)
