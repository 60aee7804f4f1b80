"""Pipeline orchestration: source -> discard filter -> packager -> consumer.

Virtual mode runs a single-threaded stage-stepping loop on a logical
microsecond clock advanced by event timestamps at the source and by
processing durations at the consumer; runs are bit-deterministic for a
given seed (with the synthetic consumer). Realtime mode runs the
stages in separate threads connected by bounded queues and paces the
source against the wall clock; it exists for demonstration.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .consumers import (Clock, Consumer, ClusteringConsumer, SyntheticConsumer,
                        SyntheticCostModel, VirtualClock, WallClock)
from .errors import ConfigurationError
from .events import EventPackage, SensorGeometry, DAVIS346, StreamSource
from .gamma import GammaConfig, GammaFilter
from .packager import Packager, PackagerConfig, ProcessingFeedback

METRICS_COLUMNS = ("seq", "size", "span_us", "proc_us", "lag_us", "gamma",
                   "rate_raw", "rate_filtered", "drop_filter", "drop_overflow",
                   "clock_us")
METRICS_HEADER = ",".join(METRICS_COLUMNS)


@dataclass
class ConsumerConfig:
    kind: str = "synthetic"            # "synthetic" or "clustering"
    o_us: float = 1000.0
    c_ns: float = 500.0
    jitter: float = 0.0
    radius_px: float = 10.0
    ttl_us: int = 50_000

    def validate(self) -> None:
        if self.kind not in ("synthetic", "clustering"):
            raise ConfigurationError(
                f"consumer.kind must be 'synthetic' or 'clustering', got "
                f"{self.kind!r}", key="consumer.kind")
        SyntheticCostModel(self.o_us, self.c_ns / 1000.0, self.jitter).validate()
        if self.radius_px <= 0:
            raise ConfigurationError(
                f"consumer.radius_px must be positive, got {self.radius_px}",
                key="consumer.radius_px")
        if self.ttl_us <= 0:
            raise ConfigurationError(
                f"consumer.ttl_us must be positive, got {self.ttl_us}",
                key="consumer.ttl_us")


@dataclass
class PipelineConfig:
    mode: str = "virtual"              # "virtual" or "realtime"
    seed: int = 0
    geometry: SensorGeometry = DAVIS346
    gamma: GammaConfig = field(default_factory=GammaConfig)
    packager: PackagerConfig = field(default_factory=PackagerConfig)
    consumer: ConsumerConfig = field(default_factory=ConsumerConfig)
    input_buffer_capacity: int = 2_000_000   # events, bounds the packager buffer

    def validate(self) -> None:
        if self.mode not in ("virtual", "realtime"):
            raise ConfigurationError(
                f"mode must be 'virtual' or 'realtime', got {self.mode!r}",
                key="mode")
        if self.input_buffer_capacity < 1:
            raise ConfigurationError(
                f"pipeline.input_buffer_capacity must be >= 1, got "
                f"{self.input_buffer_capacity}",
                key="pipeline.input_buffer_capacity")
        self.gamma.validate()
        self.packager.validate()
        self.consumer.validate()


@dataclass
class PackageMetrics:
    """Per-package record of the quantities the pipeline controls."""

    seq: int
    size: int
    span_us: int
    proc_us: float
    lag_us: float                      # proc_us - span_us
    gamma: float
    rate_raw: float
    rate_filtered: float
    drop_filter: int                   # filter drops since the previous package
    drop_overflow: int                 # overflow drops since the previous package
    clock_us: float                    # pipeline clock when the package was emitted
    emit_reason: str = "size"          # "size" or "timeout"; not serialized

    def csv_row(self) -> str:
        return (f"{self.seq},{self.size},{self.span_us},{self.proc_us!r},"
                f"{self.lag_us!r},{self.gamma!r},{self.rate_raw!r},"
                f"{self.rate_filtered!r},{self.drop_filter},"
                f"{self.drop_overflow},{self.clock_us!r}")


@dataclass
class RunResult:
    """Metrics plus the run's bookkeeping totals."""

    metrics: list[PackageMetrics]
    source_events: int
    packaged_events: int
    dropped_by_filter: int
    dropped_by_overflow: int
    residual_events: int
    final_gamma: float
    feedback_overwrites: int = 0       # realtime: stale reports discarded

    def conservation_holds(self) -> bool:
        return (self.source_events == self.packaged_events
                + self.dropped_by_filter + self.dropped_by_overflow
                + self.residual_events)


def build_consumer(config: PipelineConfig, seed_offset: int = 1) -> Consumer:
    c = config.consumer
    if c.kind == "synthetic":
        model = SyntheticCostModel(overhead_us=c.o_us,
                                   per_event_us=c.c_ns / 1000.0,
                                   jitter_fraction=c.jitter)
        return SyntheticConsumer(model, seed=config.seed + seed_offset)
    return ClusteringConsumer(radius_px=c.radius_px, ttl_us=c.ttl_us,
                              geometry=config.geometry)


def overflow_guard(buffer: np.ndarray, incoming: np.ndarray,
                   capacity: int) -> tuple[np.ndarray, int]:
    """Admit new events into a bounded buffer, dropping the oldest first.

    Never blocks and never rejects fresh events: if the merged buffer
    exceeds capacity, the oldest events are discarded (freshness wins).
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    merged = (np.concatenate([buffer, incoming])
              if len(buffer) and len(incoming) else
              (buffer if len(buffer) else incoming))
    dropped = max(0, len(merged) - capacity)
    if dropped:
        merged = merged[dropped:]
    return merged, dropped


def _put_latest(q: queue.Queue, item) -> int:
    """Enqueue ``item`` without blocking; when ``q`` is full, discard
    the oldest queued item to make room. Returns how many were discarded.

    The single reader may drain the queue between the two attempts, in
    which case nothing is discarded. Only the calling thread writes, so
    the put after a discard cannot find the queue full again.
    """
    discarded = 0
    while True:
        try:
            q.put_nowait(item)
            return discarded
        except queue.Full:
            try:
                q.get_nowait()
                discarded += 1
            except queue.Empty:
                pass


def run(config: PipelineConfig, source: StreamSource,
        consumer: Consumer | None = None) -> RunResult:
    """Drive the source to exhaustion through the full pipeline."""
    config.validate()
    if consumer is None:
        consumer = build_consumer(config)
    if config.mode == "realtime":
        return _run_realtime(config, source, consumer)
    return _run_virtual(config, source, consumer)


def _run_virtual(config: PipelineConfig, source: StreamSource,
                 consumer: Consumer) -> RunResult:
    clock = VirtualClock()
    gfilter = GammaFilter(config.gamma, seed=config.seed)
    packager = Packager(config.packager)
    metrics: list[PackageMetrics] = []
    source_events = 0
    packaged = 0
    drop_filter_total = 0
    drop_overflow_total = 0
    pending_filter = 0
    pending_overflow = 0

    def process(pkg: EventPackage, reason: str, trigger_us: float) -> None:
        nonlocal packaged, pending_filter, pending_overflow
        clock.advance_to(trigger_us)
        emit_clock = clock.now_us
        feedback = consumer.process(pkg, clock)
        metrics.append(PackageMetrics(
            seq=pkg.seq, size=pkg.size, span_us=pkg.span_us,
            proc_us=feedback.processing_time_us,
            lag_us=feedback.processing_time_us - pkg.span_us,
            gamma=gfilter.gamma, rate_raw=gfilter.rate_raw_evps,
            rate_filtered=gfilter.rate_filtered_evps,
            drop_filter=pending_filter, drop_overflow=pending_overflow,
            clock_us=emit_clock, emit_reason=reason))
        pending_filter = 0
        pending_overflow = 0
        packaged += pkg.size
        packager.update_target_size(feedback)

    for chunk in source.chunks():
        source_events += len(chunk)
        kept, dropped = gfilter.process(chunk)
        pending_filter += dropped
        drop_filter_total += dropped
        excess = packager.buffered + len(kept) - config.input_buffer_capacity
        if excess > 0:
            # drop-oldest: buffered events first, then the batch's own head
            ov = packager.drop_oldest(min(excess, packager.buffered))
            if ov < excess:
                kept = kept[excess - ov:]
                ov = excess
            pending_overflow += ov
            drop_overflow_total += ov
        packager.append(kept)
        # cut one package at a time so each feedback steers the next cut
        while (emission := packager.next_emission()) is not None:
            process(emission.package, emission.reason, emission.trigger_us)

    # drain: the residual buffer flushes when its timeout expires
    if packager.buffered:
        deadline = packager.oldest_arrival_us + config.packager.timeout_us
        pkg = packager.check_timeout(deadline)
        if pkg is not None:
            process(pkg, "timeout", deadline)

    return RunResult(
        metrics=metrics, source_events=source_events, packaged_events=packaged,
        dropped_by_filter=drop_filter_total,
        dropped_by_overflow=drop_overflow_total,
        residual_events=packager.buffered, final_gamma=gfilter.gamma)


def _run_realtime(config: PipelineConfig, source: StreamSource,
                  consumer: Consumer) -> RunResult:
    """Threaded realtime execution: one stage per thread, bounded queues.

    The producer thread paces the source against the wall clock, runs
    the discard filter and the packager, and forwards packages through
    a bounded queue; the consumer thread processes them and returns
    feedback on a dedicated bounded channel.
    """
    clock = WallClock()
    gfilter = GammaFilter(config.gamma, seed=config.seed)
    packager = Packager(config.packager)
    package_q: queue.Queue = queue.Queue(maxsize=4)
    feedback_q: queue.Queue = queue.Queue(maxsize=4)
    metrics: list[PackageMetrics] = []
    totals = {"source": 0, "packaged": 0, "filter": 0, "overflow": 0,
              "pending_filter": 0, "pending_overflow": 0,
              "feedback_overwrites": 0}
    errors: list[BaseException] = []

    def consume() -> None:
        try:
            while True:
                item = package_q.get()
                if item is None:
                    return
                pkg, reason, emit_clock, gamma, rraw, rfilt, dfil, dov = item
                feedback = consumer.process(pkg, clock)
                metrics.append(PackageMetrics(
                    seq=pkg.seq, size=pkg.size, span_us=pkg.span_us,
                    proc_us=feedback.processing_time_us,
                    lag_us=feedback.processing_time_us - pkg.span_us,
                    gamma=gamma, rate_raw=rraw, rate_filtered=rfilt,
                    drop_filter=dfil, drop_overflow=dov,
                    clock_us=emit_clock, emit_reason=reason))
                totals["packaged"] += pkg.size
                # the newest report describes the cost model best
                totals["feedback_overwrites"] += _put_latest(feedback_q,
                                                            feedback)
        except BaseException as exc:  # surfaced to the caller thread
            errors.append(exc)

    def apply_feedback() -> None:
        while True:
            try:
                packager.update_target_size(feedback_q.get_nowait())
            except queue.Empty:
                return

    def ship(pkg: EventPackage, reason: str) -> None:
        item = (pkg, reason, clock.now_us, gfilter.gamma,
                gfilter.rate_raw_evps, gfilter.rate_filtered_evps,
                totals["pending_filter"], totals["pending_overflow"])
        totals["pending_filter"] = 0
        totals["pending_overflow"] = 0
        package_q.put(item)

    worker = threading.Thread(target=consume, name="asap-consumer", daemon=True)
    worker.start()
    pace_block = 256
    try:
        for chunk in source.chunks():
            for i in range(0, len(chunk), pace_block):
                block = chunk[i:i + pace_block]
                # pace replay: wait until the block's first event is due
                delay_us = block["t"][0] - clock.now_us
                if delay_us > 0:
                    time.sleep(delay_us / 1e6)
                apply_feedback()
                now = int(clock.now_us)
                pkg = packager.check_timeout(now)
                if pkg is not None:
                    ship(pkg, "timeout")
                totals["source"] += len(block)
                kept, dropped = gfilter.process(block)
                totals["pending_filter"] += dropped
                totals["filter"] += dropped
                excess = (packager.buffered + len(kept)
                          - config.input_buffer_capacity)
                if excess > 0:
                    ov = packager.drop_oldest(min(excess, packager.buffered))
                    if ov < excess:
                        kept = kept[excess - ov:]
                        ov = excess
                    totals["pending_overflow"] += ov
                    totals["overflow"] += ov
                for pkg in packager.push_events(kept):
                    ship(pkg, "size")
        # final timeout drain on the wall clock
        while packager.buffered:
            apply_feedback()
            pkg = packager.check_timeout(int(clock.now_us))
            if pkg is not None:
                ship(pkg, "timeout")
                break
            time.sleep(0.001)
    finally:
        package_q.put(None)
        worker.join()
    if errors:
        raise errors[0]
    metrics.sort(key=lambda m: m.seq)
    return RunResult(
        metrics=metrics, source_events=totals["source"],
        packaged_events=totals["packaged"],
        dropped_by_filter=totals["filter"],
        dropped_by_overflow=totals["overflow"],
        residual_events=packager.buffered, final_gamma=gfilter.gamma,
        feedback_overwrites=totals["feedback_overwrites"])


def write_metrics_csv(path, metrics: list[PackageMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(METRICS_HEADER + "\n")
        for m in metrics:
            f.write(m.csv_row() + "\n")
