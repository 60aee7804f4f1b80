"""asap-stream benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload ramp_overload --seed 0 \
        --seconds 25 --trace 0

Inputs are drawn from one generator seeded with ``--seed``, never inside
the timed region; the program only sees them through ``ArraySource``.
The timed region is what ``asap run`` does minus generation:
``ArraySource`` construction (input validation), ``pipeline.run`` and
``write_metrics_csv``.

Each run first makes one untimed pass over the first input that runs
the deep correctness gate and, with ``--trace 0``, measures peak memory
under tracemalloc. Timed passes then repeat until ``--seconds`` have
passed and at least the workload's ``latency_inputs`` were made: the
first over the same input (its metrics CSV must match), each later one
over a fresh input, so that one run averages over several streams.
Throughput is the median over passes of events per probe: the events
a pass handles in the time :class:`SpeedProbe`, timed around the pass,
takes on this host; events per second are printed beside it. The
latencies and ``keepup_fraction`` pool the packages of the first
``latency_inputs`` passes. ``--trace 0`` also times set-up (import,
config, consumer) in a fresh process after each timed pass and reports
the median. ``--trace 1`` runs each input untraced and then traced
instead, and reports the per-layer metrics of the traced passes plus
the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``attempted``
counts source events over all passes and ``failed`` the lost ones:
overflow drops, residual events, and every event of a pass that raised
or failed the gate. Exit status is 0 when every pass passed, 1 when one
did not, 2 when ``src/asap_stream`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

E2E_UNITS = {
    "throughput_per_probe": "ev/probe",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "keepup_fraction": "ratio",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "events.validate_s": "s", "events.chunk_s": "s", "events.chunks": "count",
    "gamma.keep_draw_s": "s", "gamma.rate_update_s": "s",
    "gamma.rate_update_calls": "count", "gamma.process_s": "s",
    "gamma.keep_ratio": "ratio",
    "packager.append_s": "s", "packager.append_calls": "count",
    "packager.peak_buffered": "events", "packager.cut_s": "s",
    "packager.control_s": "s", "packager.size_cuts": "count",
    "packager.timeout_cuts": "count", "packager.overflow_drops": "events",
    "consumers.process_s": "s", "consumers.ns_per_event": "ns",
    "consumers.packages": "count",
    "pipeline.self_s": "s", "pipeline.write_csv_s": "s",
    "pipeline.queue_wait_p99_us": "us",
    "config.build_s": "s",
    **{f"layer.{name}.self_s": "s" for name in tracing.LAYERS},
    "trace.region_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Set-up as a user pays it: a fresh interpreter importing the package,
# building the pipeline config and the consumer.
_SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import asap_stream
from asap_stream import config, pipeline
cfg = config.build_pipeline_config(config.merge(json.loads(sys.argv[2])))
pipeline.build_consumer(cfg)
print(time.perf_counter() - t0)
"""


def load_package():
    """Import ``asap_stream`` from this checkout's ``src``, never from an
    installed copy."""
    init = SRC / "asap_stream" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: {init} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import asap_stream
    import asap_stream.config  # noqa: F401  (not imported by the package)
    if Path(asap_stream.__file__).resolve() != init.resolve():
        print(f"perfbench: imported {asap_stream.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
    return asap_stream


@dataclass
class Pass:
    """What one pass over the input produced."""

    wall_s: float
    source_events: int
    lost: int
    problems: list[str]
    latencies_us: np.ndarray
    lags_us: np.ndarray
    digest: str
    peak_bytes: int = 0
    layer: dict = field(default_factory=dict)


def run_pass(asap, w: Workload, seed: int, events: np.ndarray, *,
             deep: bool = False, mem: bool = False,
             tracer: tracing.Tracer | None = None, wrap=None) -> Pass:
    """One pass over ``events``: the timed region, then the gate's checks.

    ``deep`` adds the O(events) order check, ``mem`` runs the region under
    tracemalloc, ``tracer`` traces it, and ``wrap`` may put a
    fault-injecting consumer between the pipeline and the recorder (the
    smoke test's)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("config.build"):
        cfg = asap.config.build_pipeline_config(
            asap.config.merge(w.config, {"seed": seed}))
    consumer = asap.pipeline.build_consumer(cfg)
    rec = gate.Recorder(tracer.consumer(consumer) if tracer else consumer,
                        deep)
    OUT.mkdir(exist_ok=True)
    csv = OUT / f"metrics-{os.getpid()}.csv"
    if mem:
        tracemalloc.start()
    try:
        t0 = perf_counter()
        source = asap.events.ArraySource(events, chunk_size=w.chunk_events)
        with span("pipeline.run"):
            result = asap.pipeline.run(cfg, source, wrap(rec) if wrap else rec)
        with span("pipeline.write_csv"):
            asap.pipeline.write_metrics_csv(csv, result.metrics)
        wall = perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] if mem else 0
    finally:
        if mem:
            tracemalloc.stop()
    problems = gate.check(result, rec)
    return Pass(
        wall_s=wall, source_events=result.source_events,
        lost=(result.source_events if problems else
              result.dropped_by_overflow + result.residual_events),
        problems=problems, latencies_us=rec.latencies_us(),
        lags_us=np.array([m.lag_us for m in result.metrics]),
        digest=hashlib.sha256(csv.read_bytes()).hexdigest(),
        peak_bytes=peak,
        layer=tracer.metrics(result.dropped_by_overflow) if tracer else {})


class Bench:
    """One run: the package, workload and seed, and the count of attempted
    and lost source events over every pass."""

    def __init__(self, asap, w: Workload, seed: int):
        self.asap = asap
        self.w = w
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, events: np.ndarray, **kwargs) -> Pass | None:
        """One pass (see :func:`run_pass`); ``None`` when it raised or
        failed the gate."""
        self.attempted += len(events)
        try:
            p = run_pass(self.asap, self.w, self.seed, events, **kwargs)
        except Exception as exc:  # a pass that raises is a failed pass
            traceback.print_exc()
            self.failed += len(events)
            self.problems.append(f"pass raised {exc!r}")
            return None
        self.failed += p.lost
        self.problems += p.problems
        return None if p.problems else p

    @property
    def ok(self) -> bool:
        return not self.problems


def inputs(w: Workload, seed: int, scale: float):
    """The run's inputs: successive draws from one seeded generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        yield w.generate(rng, scale)


class SpeedProbe:
    """Times a fixed mix of work: Python objects and small numpy calls,
    as on the per-package path, and bulk numpy, as on the per-event path.

    On a shared host the machine's speed drifts, by up to 2x within a
    minute, and moves every compute-bound time of a run with it. A pass's
    events per probe time (its rate times the probe time around it) are
    steady where its events per second are not: over runs of seeds 0-9
    on a 2-vCPU VM the spread (IQR/median) of the median fell from 20% to
    3% on ramp_overload, from 13% to 3% on driver_chunks and from 20% to
    7% on small_packages. The probe runs between passes, so a host stall
    inside a pass still shows.
    """

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._bulk = rng.random(1 << 20)
        self._small = np.arange(64, dtype=np.int64)
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        objs = []
        for i in range(15_000):
            objs.append(Pass(i, i, i, [], self._small, self._small, ""))
            int(np.searchsorted(self._small, i & 63))
        for _ in range(4):
            np.diff(self._bulk[self._bulk < 0.5])
        self.times.append(perf_counter() - t0)

    def around(self) -> list[float]:
        """Probe time over each interval between two samples."""
        return [(a + b) / 2 for a, b in zip(self.times, self.times[1:])]


def setup_seconds(w: Workload, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC),
         json.dumps({**w.config, "seed": seed})],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def _repeat(seconds: float, stream, step, min_steps: int = 1) -> bool:
    """Call ``step(events)`` on successive inputs until ``seconds`` have
    passed and at least ``min_steps`` were made; stop early when it
    returns False. Returns whether every step succeeded."""
    t0 = perf_counter()
    for n, events in enumerate(stream, start=1):
        if not step(events):
            return False
        del events  # release this input before the next one is drawn
        if n >= min_steps and perf_counter() - t0 >= seconds:
            return True
    return True


def measure(bench: Bench, stream, seconds: float) -> dict[str, float]:
    """End-to-end metrics (``--trace 0``)."""
    w = bench.w
    events = next(stream)
    t0 = perf_counter()
    first = bench.run(events, deep=True, mem=True)
    mem_pass_s = perf_counter() - t0
    stream = itertools.chain([events], stream)
    del events
    if first is None:
        return {}
    timed: list[Pass] = []
    setups: list[float] = []
    probe = SpeedProbe()
    probe.sample()

    def step(events):
        p = bench.run(events)
        probe.sample()  # every timed pass sits between two samples
        if p is None:
            return False
        timed.append(p)
        # one set-up sample after each pass: back to back, the later
        # ones find the caches warm and run about twice as fast
        setups.append(setup_seconds(w, bench.seed))
        return True
    if not _repeat(seconds, stream, step, w.latency_inputs):
        return {}
    if timed[0].digest != first.digest:
        bench.problems.append("two passes over one input wrote different "
                              "metrics CSVs")
        return {}
    pooled = timed[:w.latency_inputs]
    lat = np.concatenate([p.latencies_us for p in pooled])
    lags = np.concatenate([p.lags_us for p in pooled])
    rates = [p.source_events / p.wall_s for p in timed]
    metrics = {
        "throughput_per_probe": statistics.median(
            r * t for r, t in zip(rates, probe.around())),
        "latency_p50_us": float(np.percentile(lat, 50)),
        "latency_p99_us": float(np.percentile(lat, 99)),
        "keepup_fraction": float(np.mean(lags <= 0)),
        "peak_mem_mb": first.peak_bytes / 1e6,
        "setup_s": statistics.median(setups),
    }
    print(f"workload {w.name} seed {bench.seed}: {len(timed)} timed passes "
          f"over {first.source_events} events and then fresh inputs, "
          f"{len(lat)} packages from the first {len(pooled)} inputs, "
          f"{len(setups)} set-up samples; "
          f"memory and deep-check pass {mem_pass_s:.1f} s; probe "
          f"{statistics.median(probe.times) * 1e3:.1f} ms")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:<14.6g} {E2E_UNITS[name]}")
    print(f"  {'throughput_evps':<28} {statistics.median(rates):<14.6g} "
          f"ev/s  (not in the result line: host drift moves it)")
    print(f"  {'lost_fraction':<28} "
          f"{bench.failed / max(1, bench.attempted):<14.6g} ratio")
    print(f"  {'csv_sha256':<28} {first.digest}  (first input)")
    return metrics


def trace(bench: Bench, stream, seconds: float) -> dict[str, float]:
    """Per-layer metrics (``--trace 1``) from traced passes, with the
    tracing overhead taken against an untraced pass over each input."""
    w = bench.w
    events = next(stream)
    if bench.run(events, deep=True) is None:
        return {}
    stream = itertools.chain([events], stream)
    del events
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[tracing.Tracer] = []

    def step(events):
        p = bench.run(events)
        if p is None:
            return False
        plain.append(p)
        tracers.append(tracing.Tracer())
        with tracing.instrumented(tracers[-1], bench.asap):
            p = bench.run(events, tracer=tracers[-1])
        if p is not None:
            traced.append(p)
        return p is not None
    if not _repeat(seconds, stream, step):
        return {}
    # times are medians over the traced passes; counts and ratios come
    # from the first input alone, so that they repeat exactly
    metrics = {name: (statistics.median(p.layer[name] for p in traced)
                      if LAYER_UNITS[name] in ("s", "us", "ns")
                      else traced[0].layer[name])
               for name in traced[0].layer}
    metrics["trace.region_s"] = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_ratio"] = statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, plain))
    spans = OUT / f"spans-{w.name}.csv"
    tracers[-1].write(spans)

    region = metrics["trace.region_s"]
    print(f"workload {w.name} seed {bench.seed}: {len(traced)} traced "
          f"passes; median traced region {region:.4g} s, "
          f"{metrics['trace.overhead_ratio']:.3f}x the untraced time")
    print(f"  {'layer':<12} {'self_s':>10} {'share':>7}")
    for layer in tracing.LAYERS:
        self_s = metrics[f"layer.{layer}.self_s"]
        print(f"  {layer:<12} {self_s:>10.4g} {self_s / region:>7.1%}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:<14.6g} {LAYER_UNITS[name]}")
    print(f"  spans of the last traced pass: {spans.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stream length factor (smoke test only)")
    args = parser.parse_args(argv)

    asap = load_package()
    bench = Bench(asap, WORKLOADS[args.workload], args.seed)
    stream = inputs(bench.w, args.seed, args.scale)
    try:
        metrics = (trace if args.trace else measure)(
            bench, stream, args.seconds)
    finally:
        (OUT / f"metrics-{os.getpid()}.csv").unlink(missing_ok=True)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for problem in bench.problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if bench.ok and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
