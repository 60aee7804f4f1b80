"""The library still calls every entry point ``perfbench/tracing.py``
patches: a traced run that never reached one would report zero time for
its layer instead of failing."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

import asap_stream
from asap_stream import (ArraySource, ConsumerConfig, GammaConfig,
                         PackagerConfig, PipelineConfig, run)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _counted(fn, key, calls):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_traced_entry_point_is_called():
    # 3e5 ev/s against a = 2e5 in 1024-event chunks: the filter
    # discards, the packager cuts by size, feedback steers it, and the
    # residual buffer is flushed by timeout: the last event comes more
    # than a timeout after the others, so it is left buffered alone, and
    # n_min = 2 keeps it from completing a package whatever the sizes
    rng = np.random.default_rng(0)
    t = np.sort(rng.integers(0, 100_000, 30_000))
    t = np.append(t, t[-1] + PackagerConfig().timeout_us + 1)
    n = len(t)
    events = asap_stream.make_events(t, rng.integers(0, 346, n),
                                     rng.integers(0, 260, n),
                                     rng.choice([-1, 1], n))
    cfg = PipelineConfig(gamma=GammaConfig(a_evps=2e5),
                         packager=PackagerConfig(n_min=2, initial_size=50),
                         consumer=ConsumerConfig(o_us=100, c_ns=100))
    tracer = tracing.Tracer()
    seams = [(owner, attr)
             for owner, attr, _ in tracing._patches(tracing.Tracer(),
                                                    asap_stream)]
    calls = Counter()
    with tracing.instrumented(tracer, asap_stream):
        traced = [(owner, attr, owner.__dict__[attr]) for owner, attr in seams]
        try:
            for owner, attr, fn in traced:
                setattr(owner, attr, _counted(fn, attr, calls))
            result = run(cfg, ArraySource(events, chunk_size=1024),
                         tracer.consumer(asap_stream.pipeline.build_consumer(
                             cfg)))
        finally:
            for owner, attr, fn in traced:
                setattr(owner, attr, fn)
    assert result.dropped_by_filter > 0
    assert {attr for _, attr in seams} == set(calls)
    # one raw-side update per fed batch, and at least one batch per
    # chunk (a chunk wider than the rate window is fed in pieces): the
    # rate window's kept side folds the kept events' timestamp view,
    # which the raw side checked
    counts = tracer.counts
    assert counts["events.chunks"] > 0
    assert counts["gamma.rate_update_calls"] == calls["process"]
    assert calls["process"] >= counts["events.chunks"]
