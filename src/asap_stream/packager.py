"""Adaptive event packaging with closed-loop size control.

The packager accumulates filtered events and cuts packages of
``target_size`` events; a timeout bounds how long any event can sit in
the buffer at low rates. After each package the consumer reports its
processing time in microseconds, the pipeline how long the package
waited for the consumer (on the wall clock in realtime mode), and the
target size is re-solved so that the next package spans the time the
consumer stays busy.

Size control fits an affine cost model ``proc ~= o + c * size`` by
exponential averaging and sets the target to the synchronization fixed
point ``N* = o / (1/R - c)`` (R = filtered event rate), scaled by a
small headroom factor so the realized lag stays negative despite
arrival jitter. After a package that waited ``d > 0`` the target is
``R * (d + proc)`` where that is more, capped at ``R * T``, one timeout
of events: the next package starts on an idle consumer, so a backlog
drains in a package or two. The fit folds a report only on evidence,
when it did not predict it. Until the model has enough samples, a damped
multiplicative fallback ``target *= (proc / span) ** 0.5`` is used: for
an affine consumer ``proc / span = o*R/N + c*R`` falls as N grows, so a
package that took longer than it spans was too small. Each step moves
the target toward N* without passing it, and toward ``n_max`` when no
size keeps up (``c >= 1/R``), as :func:`predict_size` does.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OrderingError
from .events import EventPackage

_US = 1_000_000.0
_INF = float("inf")

#: Feedback samples required before the affine model drives the target.
MODEL_WARMUP_SAMPLES = 5
#: Relative distance within which a report's processing time is the
#: ready fit's prediction ``o + c * size``: such a report is not folded.
PREDICTED_REL = 1e-9


def ProcessingFeedback(package_seq: int, size: int, span_us: int,
                       processing_time_us: float) -> float:
    """What a consumer returns, built from the fields of the report it
    returned before :meth:`Consumer.process` returned a plain float.

    Deprecated and not exported: it keeps consumers written against the
    four-field report running (the benchmark's faulty-consumer check
    builds one), and goes with its last caller.
    """
    return float(processing_time_us)


@dataclass
class PackagerConfig:
    n_min: int = 1
    n_max: int = 1_000_000
    timeout_us: int = 10_000
    # exponential-averaging gain of the cost fit, and only of it: the
    # target is solved on the window's kept rate as ``append`` hands it
    model_smoothing: float = 0.2
    headroom: float = 1.05         # target bias above N* keeping lag negative
    initial_size: int = 1000       # target held until the first feedback

    def validate(self) -> None:
        # negated comparisons: NaN fails every bound
        if not self.n_min >= 1:
            raise ConfigurationError(
                f"packager.n_min must be >= 1, got {self.n_min}",
                key="packager.n_min")
        if not self.n_max >= self.n_min:
            raise ConfigurationError(
                f"packager.n_max must be >= n_min, got {self.n_max}",
                key="packager.n_max")
        if not self.timeout_us > 0:
            raise ConfigurationError(
                f"packager.timeout_us must be positive, got {self.timeout_us}",
                key="packager.timeout_us")
        # at 1 each fold replaces the moments by one sample's, whose
        # size variance is 0: the fit would never start
        if not 0.0 < self.model_smoothing < 1.0:
            raise ConfigurationError(
                f"packager.model_smoothing must be in (0, 1), got "
                f"{self.model_smoothing}", key="packager.model_smoothing")
        if not self.headroom >= 1.0:
            raise ConfigurationError(
                f"packager.headroom must be >= 1, got {self.headroom}",
                key="packager.headroom")
        if not self.initial_size >= 1:
            raise ConfigurationError(
                f"packager.initial_size must be >= 1, got {self.initial_size}",
                key="packager.initial_size")


def predict_size(rate_filtered_evps: float, overhead_s: float,
                 per_event_s: float, n_min: int, n_max: int) -> int:
    """Package size at which processing time equals package span.

    Solves ``o + c*N = N/R`` for N and clamps to the bounds. When the
    per-event cost reaches or exceeds the inter-event period
    (``c >= 1/R``) no size can keep up and ``n_max`` is returned.
    Nothing reduces the rate upstream in that case yet: γ follows only
    the raw rate and ``gamma.a``, so the consumer falls behind.
    """
    if not rate_filtered_evps > 0:
        raise ConfigurationError(
            f"rate must be positive, got {rate_filtered_evps}")
    if not (overhead_s >= 0 and per_event_s >= 0):
        raise ConfigurationError("cost parameters must be >= 0")
    period = 1.0 / rate_filtered_evps
    if period <= per_event_s:
        return n_max
    # clamped as min(n_max, max(n_min, n)) would, at a quarter of the cost
    n = round(overhead_s / (period - per_event_s))
    n = n if n > n_min else n_min
    return n if n < n_max else n_max


class AffineCostModel:
    """Exponentially-averaged least-squares fit of ``proc ~= o + c*size``.

    Keeps running first and second moments of (size, proc) pairs; the
    fit is refreshed only while the size variance is non-degenerate, so
    a long run of identical sizes retains the last valid estimates.
    """

    __slots__ = ("smoothing", "samples", "_m_s", "_m_p", "_m_ss", "_m_sp",
                 "overhead_us", "per_event_us", "_fitted", "ready")

    def __init__(self, smoothing: float = 0.2):
        self.smoothing = float(smoothing)
        self.samples = 0
        self._m_s = self._m_p = self._m_ss = self._m_sp = 0.0
        self.overhead_us = self.per_event_us = 0.0
        self._fitted = False
        #: Whether the fit drives the target: fitted, after the warm-up.
        self.ready = False

    def update(self, size: int, processing_time_us: float) -> bool:
        """Fold one report in; returns :attr:`ready`."""
        a = self.smoothing if self.samples else 1.0
        s, p = float(size), float(processing_time_us)
        m_s = self._m_s + a * (s - self._m_s)
        m_p = self._m_p + a * (p - self._m_p)
        m_ss = self._m_ss + a * (s * s - self._m_ss)
        m_sp = self._m_sp + a * (s * p - self._m_sp)
        self._m_s, self._m_p, self._m_ss, self._m_sp = m_s, m_p, m_ss, m_sp
        self.samples += 1
        sq = m_s * m_s
        var = m_ss - sq
        if var > 1e-9 * (sq if sq > 1.0 else 1.0):
            c = (m_sp - m_s * m_p) / var
            self.per_event_us = c = c if c > 0.0 else 0.0
            o = m_p - c * m_s
            self.overhead_us = o if o > 0.0 else 0.0
            self._fitted = True
        self.ready = r = self._fitted and self.samples >= MODEL_WARMUP_SAMPLES
        return r


class _Cut(EventPackage):
    """A package with why (``reason``: "size" or "timeout") and when on
    the arrival clock (``trigger_us``) it was cut. It is its own
    ``package``: it reads as an emission."""

    __slots__ = ("reason", "trigger_us")

    def __init__(self, events: np.ndarray, seq: int, size: int, span_us: int,
                 reason: str, trigger_us: int):
        self.events, self.seq, self.size = events, seq, size
        self.span_us, self.reason, self.trigger_us = span_us, reason, trigger_us

    package = property(lambda self: self)


class Packager:
    """Accumulates events and emits adaptively sized packages.

    The buffer is a deque of entries, each a run of adjacent batches
    that :meth:`append` received, kept with its ``t`` view, plus a head
    offset into the oldest entry and a count of the buffered events. A
    batch that :meth:`append` is told continues the newest entry in the
    same parent array (``parent=``, ``start=``) extends that entry to
    one longer view of the parent; any other batch starts an entry, kept
    as given. A package that lies inside the oldest entry is handed out
    as a view of it, so such a cut costs nothing per event, also across
    the edges of the batches it spans; only a package that spans entries
    is copied, once, from the bytes of its pieces into a new array. No
    batch is ever written: the caller's arrays stay as they were and
    emitted packages stay valid while later events arrive.
    """

    def __init__(self, config: PackagerConfig):
        config.validate()
        self.config = config
        # (events, their ``t`` view) per entry, oldest first; the oldest
        # entry, its ``t.item`` and its length are also cached
        self._batches: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._head = 0           # first buffered event in the oldest entry
        #: The number of buffered events.
        self.buffered = 0
        #: The oldest buffered timestamp, None while nothing is buffered.
        self.oldest_arrival_us: int | None = None
        self._newest = -1 << 63  # newest appended timestamp (int64 min)
        # (parent, its ``t`` view or None until a batch extends the run,
        # start, stop) of the newest entry while it is the view
        # ``parent[start:stop]``: what a batch must continue to extend it
        self._run = None
        self._front()
        self._next_seq = 0
        self._target = float(
            min(config.n_max, max(config.n_min, config.initial_size)))
        self.target_size = round(self._target)  # the next cut's size
        self.model = AffineCostModel(config.model_smoothing)
        # (h * N*, its rounded size, R in events per µs, the cap
        # max(h * N*, R * T)), clamped, of the last solve: kept until the
        # rate or the fit moves
        self._solved: tuple[float, int, float, float] | None = None
        self._last_feedback_seq = -1
        # the post-filter rate the last ``append`` was handed, on which
        # the target is solved
        self._rate_evps: float | None = None

    def _front(self) -> None:
        """Cache the oldest entry, its ``t.item`` (one timestamp as a
        Python int), its length and :attr:`oldest_arrival_us`, after the
        oldest entry changed. An empty buffer forgets the newest run."""
        if self._batches:
            events, t = self._batches[0]
            self._oldest, self._t_at, self._len = events, t.item, len(events)
            self.oldest_arrival_us = t.item(self._head)
        else:
            self._oldest, self._t_at, self._len = None, None, 0
            self.oldest_arrival_us = None
            self._run = None   # no newest entry to extend

    def _t_item(self, i: int) -> int:
        """The timestamp of the ``i``-th buffered event (0 is the oldest),
        found from the newest entry back: a size cut's last event lies in
        the entry that completed it."""
        i -= self.buffered
        for _, t in reversed(self._batches):
            i += len(t)
            if i >= 0:
                return t.item(i)
        raise IndexError("fewer events buffered")

    def _take(self, count: int) -> list[np.ndarray]:
        """Remove the ``count`` oldest buffered events (at most
        :attr:`buffered`); returns them as the entries, or views of the
        entries, that hold them, oldest first."""
        self.buffered -= count
        batches, head, events = self._batches, self._head, self._oldest
        pieces = []
        while head + count >= len(events):
            # the rest of this entry: a whole one is taken unsliced
            pieces.append(events[head:] if head else events)
            count -= len(events) - head
            batches.popleft()
            head = 0
            if not count:
                break
            events = batches[0][0]
        else:
            pieces.append(events[head:head + count])
            head += count
        self._head = head
        self._front()
        return pieces

    def _cut(self, count: int, first: int, last: int, reason: str,
             trigger_us: int) -> _Cut:
        """Emit the ``count`` oldest buffered events (timestamps ``first``
        to ``last``) as one package."""
        pieces = self._take(count)
        if len(pieces) == 1:
            events = pieces[0]
        else:
            # joined in one copy, as the raw bytes of rows in the first
            # piece's dtype: numpy copies structured rows field by field
            dtype = pieces[0].dtype
            events = np.frombuffer(bytearray().join([
                p if p.dtype == dtype and p.flags.c_contiguous
                else p.astype(dtype) for p in pieces]), dtype)
        seq = self._next_seq
        self._next_seq = seq + 1
        return _Cut(events, seq, count, last - first, reason, trigger_us)

    def check_timeout(self, now_us: int) -> _Cut | None:
        """Flush a buffer whose oldest event has waited at least the timeout."""
        first = self.oldest_arrival_us
        if first is None or now_us - first < self.config.timeout_us:
            return None
        return self._cut(self.buffered, first, self._newest, "timeout",
                         int(now_us))

    def drop_oldest(self, count: int) -> int:
        """Drop up to ``count`` events from the buffer front; returns the
        number dropped."""
        n = min(count, self.buffered)
        if n > 0:
            self._take(n)
        return n

    def append(self, events: np.ndarray, *, rate_evps: float,
               t: np.ndarray | None = None,
               parent: np.ndarray | None = None, start: int = 0) -> None:
        """Buffer events without cutting packages (see :meth:`next_emission`).

        The batch is kept as given, or as part of one longer view of its
        parent (see below), not copied, and never written. ``rate_evps``
        is the post-filter event rate after this batch, as
        :meth:`SlidingRateEstimator.fold_kept
        <asap_stream.gamma.SlidingRateEstimator.fold_kept>` measures it;
        the target is solved on it, as it is, until the next append.

        Raises :class:`OrderingError` before any state changes when the
        batch decreases or starts before the newest appended event,
        which is never older than the newest buffered one.

        ``t``, when given, must be the events' timestamps as an int64
        array or field view whose order was already checked, such as
        :attr:`GammaFilter.kept_t <asap_stream.gamma.GammaFilter.kept_t>`:
        only its start is checked.

        ``parent``, when given, must be the array the batch is the slice
        ``parent[start:start + len(events)]`` of. Like ``t`` it is
        trusted: only that the slice fits inside ``parent`` is checked,
        and a :class:`ValueError` is raised before any state changes if
        it does not. A batch that starts where the newest entry, a view
        ``parent[lo:start]`` of the same parent, stops extends that entry
        to ``parent[lo:start + len(events)]``, with the same span of
        ``parent["t"]``.
        """
        n = len(events)
        if n == 0:
            return
        stop = start + n
        if parent is not None and not 0 <= start <= len(parent) - n:
            raise ValueError(
                f"batch [{start}, {stop}) does not fit inside its parent "
                f"of {len(parent)} events")
        if t is None:
            t = events["t"]
            if np.count_nonzero(t[1:] < t[:-1]):
                raise OrderingError("batch timestamps must be non-decreasing")
        first = t.item(0)
        if first < self._newest:
            raise OrderingError(
                f"batch starts at timestamp {first}, before the newest "
                f"one already seen, {self._newest}")
        self._solved = None   # the rate, an input of the solve, moves
        self._rate_evps = rate_evps
        self._newest = t.item(-1)
        run = self._run
        if (parent is not None and run is not None and run[3] == start
                and run[0] is parent):
            # continues the newest entry: one view of the parent spans both
            _, parent_t, lo, _ = run
            if parent_t is None:
                parent_t = parent["t"]
            events, t = parent[lo:stop], parent_t[lo:stop]
            batches = self._batches
            batches[-1] = events, t
            self._run = parent, parent_t, lo, stop
            if len(batches) == 1:
                # the oldest entry grew: what ``_front`` caches but its
                # head and oldest timestamp, which stay
                self._oldest, self._t_at, self._len = events, t.item, len(t)
        else:
            self._batches.append((events, t))
            self._run = None if parent is None else (parent, None, start, stop)
            if not self.buffered:
                self._front()   # the head is 0: emptying popped every entry
        self.buffered += n

    def next_emission(self) -> _Cut | None:
        """Cut at most one package from the buffer.

        Emits a size cut when ``target_size`` events arrived before the
        oldest event's timeout deadline, a timeout flush when a
        buffered event reveals the deadline passed first, and nothing
        otherwise (more events or a later timeout check may still
        complete the package). Events act as their own arrival clock.

        Timestamps are ordered, so the size rule reads one timestamp
        (the ``target``-th) and the timeout rule one more (the newest);
        only a timeout cut searches for its length, batch by batch.
        """
        first = self.oldest_arrival_us
        if first is None:
            return None
        buffered, head = self.buffered, self._head
        deadline = first + self.config.timeout_us
        target = self.target_size
        if buffered >= target:
            stop = head + target
            if stop < self._len:
                t_at = self._t_at
                last = t_at(stop - 1)
                if last < deadline:
                    # inside the oldest batch, which it does not finish:
                    # a view, cut here rather than through ``_cut``
                    self._head = stop
                    self.oldest_arrival_us = t_at(stop)
                    self.buffered = buffered - target
                    seq = self._next_seq
                    self._next_seq = seq + 1
                    return _Cut(self._oldest[head:stop], seq, target,
                                last - first, "size", last)
            else:
                last = self._t_item(target - 1)
                if last < deadline:
                    return self._cut(target, first, last, "size", last)
        if self._newest >= deadline:
            # fewer than ``target`` events precede the deadline: count
            # them among the oldest ``target``, bisecting the batch in
            # which the deadline falls (searchsorted would first copy a
            # strided view whole); the last of those ``limit`` events,
            # the target-th or the newest, lies at or past it
            limit = min(buffered, target)
            count = 0
            for _, t in self._batches:
                stop = min(len(t), head + limit - count)
                if t.item(stop - 1) >= deadline:
                    count += bisect_left(t, deadline, head, stop) - head
                    break
                count += stop - head
                head = 0
            return self._cut(count, first, self._t_item(count - 1), "timeout",
                             deadline)
        return None

    def update_target_size(self, seq: int, size: int, span_us: int,
                           processing_time_us: float, *,
                           delay_us: float = 0.0) -> None:
        """Fold the processing time of package ``seq``, of ``size``
        events spanning ``span_us``, into the cost model and re-aim the
        target. ``delay_us`` is how long the package waited for the
        consumer: the consumer's start minus the package's trigger, on
        the run's clock (wall time in realtime mode, so it includes the
        wake latency there).

        While the fit is ready and a rate R is known, the target is
        ``h * N*``, or, for a package that waited, the events that
        arrive from its trigger to the end of its processing, ``R *
        (delay_us + processing_time_us)``, where that is more: no more
        than ``max(h * N*, R * T)``, one timeout ``T`` of events. A
        package of that span starts on an idle consumer.

        While the fit is not ready, or no rate is known, the target is
        scaled by ``(processing_time_us / span_us) ** 0.5``: ``proc /
        span = o*R/N + c*R`` falls as the size N grows, so the step
        grows a package that took longer than it spans and shrinks one
        that took less, toward N*. A span of 0 gives no ratio and no step.

        An invalid report raises ``ValueError`` before any state changes.
        An out-of-order report (seq at or below the newest applied) is
        ignored. A ``delay_us`` that is not positive (or NaN) is no wait,
        and an infinite one gives the cap. A report with
        ``processing_time_us == span_us`` that did not wait is at the
        setpoint and leaves the target unchanged.

        A report within :data:`PREDICTED_REL` of the ready fit's
        prediction is only counted in ``model.samples``: folding it
        would move no estimate. ``h * N*`` is solved once per rate and
        fit, and solved again after :meth:`append` or a fold.
        """
        proc, span = processing_time_us, span_us
        if size < 1:
            raise ValueError("feedback size must be >= 1")
        # a chained comparison is false for NaN, infinities and negatives
        if not (0 <= span < _INF and 0 <= proc < _INF):
            raise ValueError("span and processing time must be finite, >= 0")
        if seq <= self._last_feedback_seq:
            return
        self._last_feedback_seq = seq
        model = self.model
        solved = self._solved
        # the report's distance from the fit's prediction, and the guard:
        # a chained comparison costs no call to abs
        off = proc - model.overhead_us - model.per_event_us * size
        tol = PREDICTED_REL * proc
        if model.ready and -tol <= off <= tol:
            model.samples += 1   # no evidence: the fit stays as it is
        else:
            model.update(size, proc)
            solved = self._solved = None
        waited = delay_us > 0
        if proc == span and not waited:
            return
        if solved is None:
            cfg = self.config
            lo, hi = cfg.n_min, cfg.n_max
            rate_evps = self._rate_evps or 0.0
            if not (model.ready and rate_evps > 0):
                if not (span > 0 and proc > 0):
                    return  # span == 0: no ratio; the model has the sample
                target = self._target * (proc / span) ** 0.5
                target = target if target > lo else lo
                self._target = target = target if target < hi else hi
                self.target_size = round(target)
                return
            # h * N* and the cap, clamped: predict_size keeps N* >= n_min
            base = cfg.headroom * predict_size(
                rate_evps, model.overhead_us / _US, model.per_event_us / _US,
                lo, hi)
            base = base if base < hi else hi
            per_us = rate_evps / _US
            cap = per_us * cfg.timeout_us
            cap = cap if cap > base else base
            self._solved = solved = (base, round(base), per_us,
                                     cap if cap < hi else hi)
        # h * N* and its rounded size unless the package waited
        target, self.target_size, per_us, cap = solved
        if waited:
            # the events that arrive while the consumer stays busy
            busy = per_us * (delay_us + proc)
            if busy > target:
                target = busy if busy < cap else cap
                self.target_size = round(target)
        self._target = target
