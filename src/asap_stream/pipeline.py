"""Pipeline orchestration: source -> discard filter -> packager -> consumer.

Both modes run one loop over the same stages (:class:`_Stages`): filter
a batch, admit it to the bounded buffer dropping the oldest events, and
cut packages one at a time. The mode picks only the clock and how
batches fall due. Virtual mode feeds the source's chunks whole on a
logical microsecond clock advanced by event timestamps at the source
and by processing durations at the consumer; runs are bit-deterministic
for a given seed (with the synthetic consumer). Realtime mode paces the
source against the wall clock, feeding the events due at each wake; it
exists for demonstration. Packages are delivered in the calling thread,
and every package's processing time is applied before the next cut.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import index as _as_index
from typing import NamedTuple

import numpy as np

from .consumers import (Clock, Consumer, ClusteringConsumer, SyntheticConsumer,
                        VirtualClock, WallClock)
from .errors import ConfigurationError
from .events import StreamSource
from .gamma import GammaConfig, GammaFilter
from .packager import Packager, PackagerConfig, _Cut

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
        SyntheticConsumer(self.o_us, self.c_ns, self.jitter)  # checks all three
        ClusteringConsumer(self.radius_px, self.ttl_us)  # checks both


@dataclass
class PipelineConfig:
    mode: str = "virtual"              # "virtual" or "realtime"
    seed: int = 0
    gamma: GammaConfig = field(default_factory=GammaConfig)
    packager: PackagerConfig = field(default_factory=PackagerConfig)
    consumer: ConsumerConfig = field(default_factory=ConsumerConfig)
    input_buffer_capacity: int = 2_000_000   # events, bounds the packager buffer

    def validate(self) -> None:
        if self.mode not in ("virtual", "realtime"):
            raise ConfigurationError(
                f"mode must be 'virtual' or 'realtime', got {self.mode!r}",
                key="mode")
        if not self.seed >= 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed}", key="seed")
        if not self.input_buffer_capacity >= 1:
            raise ConfigurationError(
                f"pipeline.input_buffer_capacity must be >= 1, got "
                f"{self.input_buffer_capacity}",
                key="pipeline.input_buffer_capacity")
        self.gamma.validate()
        self.packager.validate()
        self.consumer.validate()
        c = self.consumer
        if c.kind == "synthetic":
            # a package's modelled time must be a finite span of the int64
            # microsecond clock that timestamps events
            events_us = c.c_ns / 1000.0 * self.packager.n_max
            longest = (c.o_us + events_us) * (1.0 + c.jitter)
            if not longest <= np.iinfo(np.int64).max:
                raise ConfigurationError(
                    f"consumer.o_us + consumer.c_ns * packager.n_max must "
                    f"stay within the int64 microsecond range, got a "
                    f"largest package time of {longest:g} us",
                    key="consumer.o_us" if c.o_us >= events_us
                    else "consumer.c_ns")


class PackageMetrics(NamedTuple):
    """Per-package record of the quantities the pipeline controls; a
    tuple, so a row holds no attribute dict."""

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


#: The CSV columns: the :class:`PackageMetrics` fields before ``emit_reason``.
METRICS_COLUMNS = PackageMetrics._fields[
    :PackageMetrics._fields.index("emit_reason")]
METRICS_HEADER = ",".join(METRICS_COLUMNS)

_new_row = tuple.__new__    # a row from a built tuple, no call per field

#: The struct code of each :class:`PackageMetrics` field as a
#: :class:`MetricsTable` stores it: int64 ``seq``, ``size`` and
#: ``span_us``, float64 ``proc_us`` to ``rate_filtered``, int64 drop
#: counts, float64 ``clock_us`` and one byte coding ``emit_reason``.
_CODES = "qqqdddddqqdB"
#: One row in field order, unaligned: 89 bytes.
_ROW = struct.Struct("=" + _CODES)
_EMIT_REASONS = ("size", "timeout")
_REASON_CODE = {reason: code for code, reason in enumerate(_EMIT_REASONS)}


def _unpacked(fields: tuple) -> PackageMetrics:
    return _new_row(PackageMetrics,
                    fields[:-1] + (_EMIT_REASONS[fields[-1]],))


def _refused(index: int, row: tuple) -> ValueError:
    """The error for row ``index``, which ``_ROW`` cannot pack: it names
    the row and its first field that does not fit."""
    fields = PackageMetrics._fields
    if len(row) != len(fields):
        return ValueError(f"metrics row {index} has {len(row)} fields, "
                          f"not {len(fields)}")
    for name, value, code in zip(fields[:-1], row, _CODES):
        try:
            struct.pack("=" + code, value)
        except struct.error as exc:
            kind = "an int64" if code == "q" else "a float64"
            return ValueError(f"metrics row {index}: {name}={value!r} "
                              f"cannot be stored as {kind} ({exc})")
    return ValueError(f"metrics row {index}: emit_reason={row[-1]!r} is "
                      f"not one of {', '.join(_EMIT_REASONS)}")


class MetricsTable(Sequence):
    """A run's :class:`PackageMetrics` rows, each packed by ``_ROW`` into
    one growing byte array: 89 bytes a package, and at most 1/16 more
    while the array has room to grow.

    Indexing, slicing, iteration and ``len`` read it as the list of rows
    it was filled from, with each number a plain ``int`` or ``float``.
    A slice is a list. The pipeline appends rows packed by ``_ROW``
    through ``_packed.frombytes``.
    """

    def __init__(self, rows: Iterable[PackageMetrics] = ()):
        """Pack ``rows``; a row ``_ROW`` cannot pack raises
        :class:`ValueError` naming the row and the field."""
        # not a bytearray: it grows by up to 1/8, which would take an
        # 89-byte row to 100 bytes; an array grows by 1/16
        self._packed = array("B")
        for index, row in enumerate(rows):
            try:
                *fields, reason = row
                packed = _ROW.pack(*fields, _REASON_CODE[reason])
            except (struct.error, KeyError, TypeError, ValueError):
                raise _refused(index, tuple(row)) from None
            self._packed.frombytes(packed)

    def __len__(self) -> int:
        return len(self._packed) // _ROW.size

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        i = _as_index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("metrics row index out of range")
        return _unpacked(_ROW.unpack_from(self._packed, i * _ROW.size))

    def __iter__(self):
        return map(_unpacked, _ROW.iter_unpack(self._packed))


@dataclass
class RunResult:
    """Metrics plus the run's bookkeeping totals."""

    metrics: Sequence[PackageMetrics]
    source_events: int
    packaged_events: int
    dropped_by_filter: int
    dropped_by_overflow: int
    residual_events: int
    final_gamma: float

    def conservation_holds(self) -> bool:
        return (self.source_events == self.packaged_events
                + self.dropped_by_filter + self.dropped_by_overflow
                + self.residual_events)


def build_consumer(config: PipelineConfig) -> Consumer:
    c = config.consumer
    if c.kind == "synthetic":
        # seeded apart from the filter, which draws with ``config.seed``
        return SyntheticConsumer(c.o_us, c.c_ns, c.jitter,
                                 seed=config.seed + 1)
    return ClusteringConsumer(radius_px=c.radius_px, ttl_us=c.ttl_us)


class _Stages:
    """Discard filter, drop-oldest admission and packager: the stages
    the run loop steps.

    :meth:`feed` admits one source batch, :meth:`cut` hands out the
    packages it completes or flushes, stamped with the filter state and
    the drops since the previous package.
    """

    def __init__(self, config: PipelineConfig, ordered: bool = False):
        self.gfilter = GammaFilter(config.gamma, seed=config.seed)
        self.ordered = ordered   # the source vouches for its batches' order
        self.packager = Packager(config.packager)
        self.capacity = config.input_buffer_capacity
        self.source_events = 0
        self.packaged_events = 0
        self.dropped_by_filter = 0
        self.dropped_by_overflow = 0
        self._pending_filter = 0
        self._pending_overflow = 0
        self._rates = ()  # set by feed, before there is anything to cut

    def feed(self, batch: np.ndarray) -> None:
        n = len(batch)
        if not n:
            return   # no event arrived: no stage changes
        self.source_events += n
        gfilter, packager = self.gfilter, self.packager
        kept, dropped = gfilter.process(batch, checked=self.ordered)
        # the kept events' timestamp view, order-checked once by the
        # filter's raw window, feeds its kept side and the packager
        kept_t = gfilter.kept_t
        if dropped:
            self.dropped_by_filter += dropped
            self._pending_filter += dropped
        excess = packager.buffered + len(kept) - self.capacity
        if excess > 0:
            # drop-oldest: buffered events first, then the batch's own head
            head = excess - packager.drop_oldest(excess)
            if head:   # else the view stays the one the raw window holds
                kept, kept_t = kept[head:], kept_t[head:]
            self.dropped_by_overflow += excess
            self._pending_overflow += excess
        rate = gfilter.window.fold_kept(kept_t)
        packager.append(kept, t=kept_t, rate_evps=rate)
        # gamma and both rates change only here: read once per batch for
        # the stamps of the packages it completes
        self._rates = (gfilter.gamma, gfilter.rate_raw_evps, rate)

    def cut(self, clock: Clock, now_us: int | None = None) -> _Cut | None:
        """Cut one package, if the buffer completes one, and stamp it with
        the :class:`PackageMetrics` fields known when it was cut: those
        after ``lag_us``, in field order, with ``emit_reason`` coded as
        ``_ROW`` stores it. Called once per package, so
        that feedback applied between two packages steers the next cut.

        With ``now_us``, flush the buffer instead if its oldest event
        has waited the timeout by then.
        """
        cut = (self.packager.next_emission() if now_us is None
               else self.packager.check_timeout(now_us))
        if cut is not None:
            clock.advance_to(cut.trigger_us)
            cut.stamp = self._rates + (self._pending_filter,
                                       self._pending_overflow, clock.now_us,
                                       _REASON_CODE[cut.reason])
            self._pending_filter = self._pending_overflow = 0
            self.packaged_events += cut.size
        return cut

    def result(self, metrics: MetricsTable) -> RunResult:
        return RunResult(
            metrics=metrics, source_events=self.source_events,
            packaged_events=self.packaged_events,
            dropped_by_filter=self.dropped_by_filter,
            dropped_by_overflow=self.dropped_by_overflow,
            residual_events=self.packager.buffered,
            final_gamma=self.gfilter.gamma)


def _delivery(stages: _Stages, consumer: Consumer, clock: Clock,
              metrics: MetricsTable):
    """The delivery loop of one run: returns ``deliver(package)``, which
    runs the consumer on ``package``, records its metrics row, hands the
    package's processing time to the controller and cuts again, until
    the buffer completes no package."""
    # looked up once per run, not once per package
    cut, record = stages.cut, metrics._packed.frombytes
    control, pack_row = stages.packager.update_target_size, _ROW.pack

    def deliver(package: _Cut | None) -> None:
        while package is not None:
            proc_us = consumer.process(package, clock)
            seq, size, span_us = package.seq, package.size, package.span_us
            record(pack_row(seq, size, span_us, proc_us, proc_us - span_us,
                            *package.stamp))
            control(seq, size, span_us, proc_us)
            package = cut(clock)

    return deliver


def _due(source: StreamSource, clock: Clock, wait):
    """Realtime mode's batches: at each wake, the events that are due.

    Before each batch ``wait`` moves the clock to the next event or to
    an earlier timeout deadline; the batch is every event the clock has
    then reached, so none is fed before it is due."""
    for chunk in source.chunks():
        t = np.ascontiguousarray(chunk["t"])
        fed = 0
        while fed < len(chunk):
            wait(int(t[fed]))
            due = int(t.searchsorted(int(clock.now_us), side="right"))
            if due > fed:
                yield chunk[fed:due]
                fed = due


def run(config: PipelineConfig, source: StreamSource,
        consumer: Consumer | None = None) -> RunResult:
    """Drive the source to exhaustion through the full pipeline: feed
    each batch and deliver the packages it completes, then flush the
    residual buffer when its timeout expires. The mode picks only the
    clock and the batches (realtime's are :func:`_due`'s, so events that
    fall due while the consumer runs are fed when it returns). An
    exception in the consumer propagates."""
    config.validate()
    if consumer is None:
        consumer = build_consumer(config)
    realtime = config.mode == "realtime"
    clock = WallClock() if realtime else VirtualClock()
    stages = _Stages(config, source.ordered)
    packager, timeout_us = stages.packager, config.packager.timeout_us
    metrics = MetricsTable()
    deliver = _delivery(stages, consumer, clock, metrics)
    cut = stages.cut

    def wait(next_us: int | None) -> None:
        """Advance the clock to ``next_us`` or to the oldest buffered
        event's timeout deadline, whichever is first; then flush a
        timed-out buffer."""
        oldest = packager.oldest_arrival_us
        if oldest is not None:
            deadline = oldest + timeout_us
            next_us = deadline if next_us is None else min(next_us, deadline)
        clock.advance_to(next_us)
        deliver(cut(clock, int(clock.now_us)))

    for batch in _due(source, clock, wait) if realtime else source.chunks():
        stages.feed(batch)
        deliver(cut(clock))
    while packager.buffered:
        wait(None)
    return stages.result(metrics)


#: The ``_ROW`` layout read as the parts the CSV writer formats: int64
#: ``seq``; the bytes of ``size`` to ``lag_us``; of γ and both rates; of
#: the two drop counts; float64 ``clock_us``: 88 bytes. The rest of the
#: row, from ``emit_reason`` on, is skipped as padding.
_SPLIT = struct.Struct(f"=q32s24s16sd{_ROW.size - 88}x")
_HEAD = struct.Struct("=2q2d")
_RATES = struct.Struct("=3d")
_DROPS = struct.Struct("=2q")
_HEAD_CACHE = 256     # distinct size..lag_us texts kept before clearing
_WRITE_BLOCK = 256    # CSV lines joined into one write


def _table_lines(packed):
    """The CSV lines of a table's packed rows. Equal bytes give equal
    reprs, so a part is formatted once for a run of rows with the same
    bytes (γ and the rates of one fed batch, the drops) or once per
    distinct ``size..lag_us`` bytes, which a steady consumer repeats."""
    heads = {}
    rates_key = drops_key = None
    for seq, head_key, r_key, d_key, clk in _SPLIT.iter_unpack(packed):
        head = heads.get(head_key)
        if head is None:
            if len(heads) >= _HEAD_CACHE:
                heads.clear()
            head = heads[head_key] = "%d,%d,%r,%r" % _HEAD.unpack(head_key)
        if r_key != rates_key:
            rates, rates_key = "%r,%r,%r" % _RATES.unpack(r_key), r_key
        if d_key != drops_key:
            drops, drops_key = "%d,%d" % _DROPS.unpack(d_key), d_key
        yield f"{seq},{head},{rates},{drops},{clk!r}\n"


def write_metrics_csv(path, metrics: Sequence[PackageMetrics]) -> None:
    """Write ``metrics`` to ``path`` as CSV: the ``METRICS_HEADER`` line,
    then one line per row with the columns of ``METRICS_COLUMNS``
    (``emit_reason`` is not written).

    Any sequence of rows that is not a :class:`MetricsTable` is packed
    into one first, before the file is opened, so a row ``_ROW`` cannot
    pack raises :class:`ValueError` and leaves ``path`` as it was. Each
    table is formatted straight from its packed bytes: every integer
    field as ``str``, and every float field as ``repr`` gives it for a
    Python ``float``, whatever number type the row held. The lines are
    joined and written in blocks of up to ``_WRITE_BLOCK``, so a long
    table costs one write per block, not per line, and holds one block
    of text."""
    if not isinstance(metrics, MetricsTable):
        metrics = MetricsTable(metrics)
    lines = _table_lines(metrics._packed)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(METRICS_HEADER + "\n")
        while block := "".join(islice(lines, _WRITE_BLOCK)):
            f.write(block)
