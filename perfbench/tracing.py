"""Outside-in layer tracing of ``asap_stream``.

:func:`instrumented` replaces public functions and methods of the
package's modules with wrappers that record a span around each call and
count the work passed through it, and puts the originals back on exit.
The program itself is unchanged and does not know it is traced. A span
belongs to the layer (module) that defines the called function; its
self time is its duration minus the time of the spans nested in it, so
self times add up to the traced region without double counting.

Spans are kept in memory and written out once by :meth:`Tracer.write`.
The traced runs are single-threaded (virtual mode), so one span stack
suffices.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("events", "gamma", "packager", "consumers", "pipeline", "config")


class Tracer:
    """Span store plus the per-layer counters a traced pass collects."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.peak_buffered = 0
        self.cut_at: dict[int, float] = {}   # package seq -> cut time (µs)
        self.queue_wait_us: list[float] = []
        self._ids = itertools.count()
        self._stack: list[list] = []
        self.spans: list[tuple] = []   # (id, parent, name, start, end, self)

    def enter(self, name: str) -> None:
        self._stack.append([next(self._ids), name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        sid, name, start, nested = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, name, start, end, duration - nested))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = defaultdict(float)
        for *_, name, _start, _end, self_s in self.spans:
            out[name] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("id,parent,name,start_us,end_us,self_us\n")
            for sid, parent, name, start, end, self_s in self.spans:
                f.write(f"{sid},{parent},{name},{start * 1e6:.3f},"
                        f"{end * 1e6:.3f},{self_s * 1e6:.3f}\n")

    def consumer(self, inner):
        """Wrap a consumer so its calls are spans of the consumers layer."""
        return _TracedConsumer(self, inner)

    def metrics(self, overflow_drops: int) -> dict[str, float]:
        """Per-layer figures of one traced pass, keyed by metric name."""
        s = self.self_seconds()
        c = self.counts
        out = {
            "events.validate_s": s["events.validate"],
            "events.chunk_s": s["events.chunk"],
            "events.chunks": c["events.chunks"],
            "gamma.keep_draw_s": s["gamma.keep_draw"],
            "gamma.rate_update_s": s["gamma.rate_update"],
            "gamma.rate_update_calls": c["gamma.rate_update_calls"],
            "gamma.process_s": s["gamma.process"],
            "gamma.keep_ratio": c["gamma.kept"] / max(1, c["gamma.in"]),
            "packager.append_s": s["packager.append"],
            "packager.append_calls": c["packager.append_calls"],
            "packager.peak_buffered": self.peak_buffered,
            "packager.cut_s": s["packager.cut"],
            "packager.control_s": s["packager.control"],
            "packager.size_cuts": c["packager.size_cuts"],
            "packager.timeout_cuts": c["packager.timeout_cuts"],
            "packager.overflow_drops": overflow_drops,
            "consumers.process_s": s["consumers.process"],
            "consumers.ns_per_event": (s["consumers.process"] * 1e9
                                       / max(1, c["consumers.events"])),
            "consumers.packages": c["consumers.packages"],
            "pipeline.self_s": s["pipeline.run"],
            "pipeline.write_csv_s": s["pipeline.write_csv"],
            "pipeline.queue_wait_p99_us": (
                float(np.percentile(self.queue_wait_us, 99))
                if self.queue_wait_us else 0.0),
            "config.build_s": s["config.build"],
        }
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in s.items() if k.startswith(layer + "."))
        return out


class _TracedConsumer:
    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner

    def process(self, package, clock):
        t = self.tracer
        # the runner has moved the clock to the cut time or, when the
        # consumer was still busy, past it
        t.queue_wait_us.append(clock.now_us - t.cut_at.pop(package.seq))
        t.enter("consumers.process")
        try:
            return self.inner.process(package, clock)
        finally:
            t.exit()
            t.counts["consumers.packages"] += 1
            t.counts["consumers.events"] += package.size


def _traced(tracer: Tracer, name: str, fn, after=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out
        finally:
            exit_()
    return traced


def _patches(tracer: Tracer, asap):
    """``(owner, attribute, replacement)`` for every traced entry point."""
    ev, gm, pk = asap.events, asap.gamma, asap.packager
    c = tracer.counts

    def filtered(out, gfilter, events):
        c["gamma.in"] += len(events)
        c["gamma.kept"] += len(out[0])

    def appended(out, packager, events):
        c["packager.append_calls"] += 1
        tracer.peak_buffered = max(tracer.peak_buffered, packager.buffered)

    def emitted(out, packager):
        if out is not None:
            c[f"packager.{out.reason}_cuts"] += 1
            tracer.cut_at[out.package.seq] = out.trigger_us

    def flushed(out, packager, now_us):
        if out is not None:
            c["packager.timeout_cuts"] += 1
            tracer.cut_at[out.seq] = now_us

    def rate_updated(out, estimator, timestamps):
        c["gamma.rate_update_calls"] += 1

    chunks = ev.ArraySource.chunks

    def traced_chunks(source):
        it = chunks(source)
        while True:
            tracer.enter("events.chunk")
            try:
                chunk = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            c["events.chunks"] += 1
            yield chunk

    return [
        (ev, "validate_events",
         _traced(tracer, "events.validate", ev.validate_events)),
        (ev.ArraySource, "chunks", traced_chunks),
        (gm, "apply_filter",
         _traced(tracer, "gamma.keep_draw", gm.apply_filter)),
        (gm.SlidingRateEstimator, "update",
         _traced(tracer, "gamma.rate_update", gm.SlidingRateEstimator.update,
                 after=rate_updated)),
        (gm.GammaFilter, "process",
         _traced(tracer, "gamma.process", gm.GammaFilter.process,
                 after=filtered)),
        (pk.Packager, "append",
         _traced(tracer, "packager.append", pk.Packager.append,
                 after=appended)),
        # virtual mode cuts with next_emission and flushes the residual
        # buffer with check_timeout
        (pk.Packager, "next_emission",
         _traced(tracer, "packager.cut", pk.Packager.next_emission,
                 after=emitted)),
        (pk.Packager, "check_timeout",
         _traced(tracer, "packager.cut", pk.Packager.check_timeout,
                 after=flushed)),
        (pk.Packager, "update_target_size",
         _traced(tracer, "packager.control",
                 pk.Packager.update_target_size)),
    ]


@contextmanager
def instrumented(tracer: Tracer, asap):
    """Trace the ``asap_stream`` package object ``asap`` while inside."""
    saved = []
    try:
        for owner, attr, replacement in _patches(tracer, asap):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
