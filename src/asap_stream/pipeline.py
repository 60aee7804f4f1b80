"""Pipeline orchestration: source -> discard filter -> packager -> consumer.

Both modes run one loop over the same stages (:class:`_Stages`): filter
a batch, admit it to the bounded buffer dropping the oldest events, and
cut packages one at a time. The mode picks only the clock and how
batches fall due. Virtual mode feeds the source's chunks on a logical
microsecond clock advanced by event timestamps at the source and by
processing durations at the consumer. It splits a chunk that spans the
rate window into views that each span less, so that every package is
sized on a rate read while its own events arrived. Virtual runs are
bit-deterministic for a given seed (with the synthetic consumer).
Realtime mode paces the source against the wall clock, feeding the
events due at each wake; it exists for demonstration. Packages are
delivered in the calling thread, and every package's processing time is
applied before the next cut.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
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
from .packager import Packager, PackagerConfig

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
    """Discard filter, drop-oldest admission, packager and consumer: the
    stages a run steps, and the run's :class:`MetricsTable`.

    :meth:`feed` admits one source batch, :meth:`deliver` cuts the
    packages it completes and hands each to the consumer, and
    :meth:`wait` advances the clock and flushes a timed-out buffer.
    """

    def __init__(self, config: PipelineConfig, consumer: Consumer,
                 clock: Clock, ordered: bool = False):
        self.gfilter = GammaFilter(config.gamma, seed=config.seed)
        self.ordered = ordered   # the source vouches for its batches' order
        self.packager = Packager(config.packager)
        self.consumer, self.clock = consumer, clock
        self.capacity = config.input_buffer_capacity
        self.metrics = MetricsTable()
        self.source_events = 0
        self.packaged_events = 0
        self.dropped_by_filter = 0
        self.dropped_by_overflow = 0
        self._pending_filter = 0
        self._pending_overflow = 0
        self._rates = ()  # set by feed, before there is anything to cut

    def feed(self, batch: np.ndarray, t: np.ndarray | None = None,
             parent: np.ndarray | None = None, start: int = 0) -> None:
        """Admit one batch; ``t``, when given, is its timestamps as an
        int64 view, which the filter then takes in place of its own.
        ``parent``, when given, is the array the batch is the slice
        ``parent[start:start + len(batch)]`` of: a batch kept whole is
        appended with it, so that the packager extends the view of the
        batch before it."""
        n = len(batch)
        if not n:
            return   # no event arrived: no stage changes
        self.source_events += n
        gfilter, packager = self.gfilter, self.packager
        kept, dropped = gfilter.process(batch, checked=self.ordered, t=t)
        # the kept events' timestamp view, order-checked once by the
        # filter's raw window, feeds its kept side and the packager
        kept_t = gfilter.kept_t
        if dropped:
            self.dropped_by_filter += dropped
            self._pending_filter += dropped
            n -= dropped   # the kept events
        excess = packager.buffered + n - self.capacity
        if excess > 0:
            # drop-oldest: buffered events first, then the batch's own head
            head = excess - packager.drop_oldest(excess)
            if head:   # else the view stays the one the raw window holds
                kept, kept_t = kept[head:], kept_t[head:]
            self.dropped_by_overflow += excess
            self._pending_overflow += excess
        rate = gfilter.window.fold_kept(kept_t)
        if kept is not batch:
            parent = None   # a kept copy, or the batch without its head
        packager.append(kept, t=kept_t, rate_evps=rate, parent=parent,
                        start=start)
        # gamma and both rates change only here: read once per batch for
        # the rows of the packages it completes
        self._rates = (gfilter.gamma, gfilter.rate_raw_evps, rate)

    def deliver(self, now_us: int | None = None) -> None:
        """Cut the packages the buffer completes, one at a time: run the
        consumer on each, record its row and hand its processing time
        and queueing delay (the clock at the consumer's start minus the
        cut's trigger) to the controller before the next cut, so that
        they steer that cut.

        A row holds the clock at the cut, read before the consumer runs,
        and the drops since the previous package. With ``now_us``, the
        first cut flushes the buffer instead, if its oldest event has
        waited the timeout by then.
        """
        packager = self.packager
        cut = (packager.next_emission() if now_us is None
               else packager.check_timeout(now_us))
        if cut is None:
            return
        # looked up once per call that cuts, not once per package: most
        # fed batches complete none
        clock, process = self.clock, self.consumer.process
        record, pack_row = self.metrics._packed.frombytes, _ROW.pack
        control, next_cut = packager.update_target_size, packager.next_emission
        gamma, rate_raw, rate = self._rates
        filtered, overflowed = self._pending_filter, self._pending_overflow
        self._pending_filter = self._pending_overflow = 0
        while cut is not None:
            clock.advance_to(cut.trigger_us)
            seq, size, span_us = cut.seq, cut.size, cut.span_us
            self.packaged_events += size
            cut_us, reason = clock.now_us, _REASON_CODE[cut.reason]
            proc_us = process(cut, clock)
            record(pack_row(seq, size, span_us, proc_us, proc_us - span_us,
                            gamma, rate_raw, rate, filtered, overflowed,
                            cut_us, reason))
            control(seq, size, span_us, proc_us,
                    delay_us=cut_us - cut.trigger_us)
            filtered = overflowed = 0
            cut = next_cut()

    def wait(self, next_us: int | None) -> None:
        """Advance the clock to ``next_us`` or to the oldest buffered
        event's timeout deadline, whichever is first; then flush a
        timed-out buffer."""
        packager = self.packager
        oldest = packager.oldest_arrival_us
        if oldest is not None:
            deadline = oldest + packager.config.timeout_us
            next_us = deadline if next_us is None else min(next_us, deadline)
        self.clock.advance_to(next_us)
        self.deliver(int(self.clock.now_us))

    def result(self) -> RunResult:
        return RunResult(
            metrics=self.metrics, source_events=self.source_events,
            packaged_events=self.packaged_events,
            dropped_by_filter=self.dropped_by_filter,
            dropped_by_overflow=self.dropped_by_overflow,
            residual_events=self.packager.buffered,
            final_gamma=self.gfilter.gamma)


def _placed(source: StreamSource):
    """The source's chunks, each with its parent array and its start in
    it: the source's declared :attr:`~StreamSource.array` and the sum of
    the lengths of the chunks before it, or the chunk itself and 0."""
    array = source.array
    if array is None:
        for chunk in source.chunks():
            yield chunk, chunk, 0
        return
    start = 0
    for chunk in source.chunks():
        yield chunk, array, start
        start += len(chunk)


def _due(placed, clock: Clock, wait):
    """Realtime mode's batches: at each wake, the events that are due.

    Before each batch ``wait`` moves the clock to the next event or to
    an earlier timeout deadline; the batch is every event the clock has
    then reached, so none is fed before it is due. Each comes with its
    timestamps, a view of a contiguous copy of its chunk's, its parent
    and its start there, from the chunks ``placed`` as :func:`_placed`
    yields them."""
    for chunk, parent, start in placed:
        t = np.ascontiguousarray(chunk["t"])
        fed = 0
        while fed < len(chunk):
            wait(int(t[fed]))
            due = int(t.searchsorted(int(clock.now_us), side="right"))
            if due > fed:
                yield chunk[fed:due], t[fed:due], parent, start + fed
                fed = due


def _spans(placed, window_us: int):
    """Virtual mode's batches, from the chunks ``placed`` as
    :func:`_placed` yields them: each chunk with its ``t`` field view,
    the chunk itself when its timestamps span less than ``window_us``,
    else consecutive views of it that each do, measured from their own
    first event; each with its parent and its start there.

    Each edge is found by ``bisect_left`` on the ``t`` view, as the rate
    window's ``_slide`` does: ``searchsorted`` would copy a strided view
    whole. An edge is searched for only when it is at most the chunk's
    newest timestamp, so it stays in the int64 range."""
    for chunk, parent, start in placed:
        t = chunk["t"]
        n = t.size
        if not n or t.item(-1) - t.item(0) < window_us:
            yield chunk, t, parent, start
            continue
        newest, lo = t.item(-1), 0
        while lo < n:
            edge = t.item(lo) + window_us
            hi = n if newest < edge else bisect_left(t, edge, lo)
            yield chunk[lo:hi], t[lo:hi], parent, start + lo
            lo = hi


def run(config: PipelineConfig, source: StreamSource,
        consumer: Consumer | None = None) -> RunResult:
    """Drive the source to exhaustion through the full pipeline: feed
    each batch and deliver the packages it completes, then flush the
    residual buffer when its timeout expires. The mode picks only the
    clock and the batches: virtual mode's are :func:`_spans`', none
    wider than the rate window; realtime's are :func:`_due`'s, so events
    that fall due while the consumer runs are fed when it returns. An
    exception in the consumer propagates."""
    config.validate()
    if consumer is None:
        consumer = build_consumer(config)
    realtime = config.mode == "realtime"
    clock = WallClock() if realtime else VirtualClock()
    stages = _Stages(config, consumer, clock, source.ordered)
    placed = _placed(source)
    batches = (_due(placed, clock, stages.wait) if realtime
               else _spans(placed, stages.gfilter.window.window_us))
    feed, deliver = stages.feed, stages.deliver
    for batch, t, parent, start in batches:
        feed(batch, t, parent, start)
        deliver()
    while stages.packager.buffered:
        stages.wait(None)
    return stages.result()


#: The ``_ROW`` layout read as the parts the CSV writer formats: int64
#: ``seq``; the bytes of ``size`` to ``lag_us``; of γ and both rates; of
#: the two drop counts; float64 ``clock_us``: 88 bytes. The rest of the
#: row, from ``emit_reason`` on, is skipped as padding.
_SPLIT = struct.Struct(f"=q32s24s16sd{_ROW.size - 88}x")
_HEAD = struct.Struct("=2q2d")
_RATES = struct.Struct("=3d")
_DROPS = struct.Struct("=2q")
_HEAD_CACHE = 256     # the first distinct size..lag_us texts, kept
_WRITE_BLOCK = 256    # CSV lines joined into one write


def _table_lines(packed):
    """The CSV lines of a table's packed rows. Equal bytes give equal
    reprs, so a part is formatted once for a run of rows with the same
    bytes (γ and the rates of one fed batch, the drops) or once per
    distinct ``size..lag_us`` bytes, which a steady consumer repeats.
    The first ``_HEAD_CACHE`` distinct heads are kept; a head met once
    the cache is full is formatted for its row alone."""
    heads = {}
    rates_key = drops_key = None
    for seq, head_key, r_key, d_key, clk in _SPLIT.iter_unpack(packed):
        head = heads.get(head_key)
        if head is None:
            head = "%d,%d,%r,%r" % _HEAD.unpack(head_key)
            if len(heads) < _HEAD_CACHE:
                heads[head_key] = head
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
