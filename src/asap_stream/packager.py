"""Adaptive event packaging with closed-loop size control.

The packager accumulates filtered events and cuts packages of
``target_size`` events; a timeout bounds how long any event can sit in
the buffer at low rates. After each package the consumer reports its
processing time, and the target size is re-solved so that processing
time matches the package's temporal span.

Size control fits an affine cost model ``proc ~= o + c * size`` by
exponential averaging and sets the target to the synchronization fixed
point ``N* = o / (1/R - c)`` (R = filtered event rate), scaled by a
small headroom factor so the realized lag stays negative despite
arrival jitter. Until the model has enough samples, a damped
multiplicative fallback ``target *= (span / proc) ** kappa`` is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .events import EventPackage, empty_events
from .gamma import SlidingRateEstimator

_US = 1_000_000.0
_INF = float("inf")

#: Feedback samples required before the affine model drives the target.
MODEL_WARMUP_SAMPLES = 5


@dataclass(slots=True)
class ProcessingFeedback:
    """Consumer's report for one processed package."""

    package_seq: int
    size: int
    span_us: int
    processing_time_us: float

    def validate(self) -> None:
        if self.size < 1:
            raise ValueError("feedback size must be >= 1")
        # a chained comparison is false for NaN, infinities and negatives
        if not (0 <= self.span_us < _INF
                and 0 <= self.processing_time_us < _INF):
            raise ValueError("span and processing time must be finite, >= 0")


@dataclass
class PackagerConfig:
    n_min: int = 1
    n_max: int = 1_000_000
    timeout_us: int = 10_000
    kappa: float = 0.5             # damping exponent of the fallback law
    model_smoothing: float = 0.2   # exponential-averaging gain of the cost fit
    headroom: float = 1.05         # target bias above N* keeping lag negative
    initial_size: int = 1000       # target held until the first feedback
    rate_window_us: int = 10_000   # window of the incoming-rate estimate

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
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigurationError(
                f"packager.kappa must be in (0, 1], got {self.kappa}",
                key="packager.kappa")
        if not 0.0 < self.model_smoothing <= 1.0:
            raise ConfigurationError(
                f"packager.model_smoothing must be in (0, 1], got "
                f"{self.model_smoothing}", key="packager.model_smoothing")
        if not self.headroom >= 1.0:
            raise ConfigurationError(
                f"packager.headroom must be >= 1, got {self.headroom}",
                key="packager.headroom")
        if not self.initial_size >= 1:
            raise ConfigurationError(
                f"packager.initial_size must be >= 1, got {self.initial_size}",
                key="packager.initial_size")
        if not self.rate_window_us > 0:
            raise ConfigurationError(
                f"packager.rate_window_us must be positive, got "
                f"{self.rate_window_us}", key="packager.rate_window_us")


def predict_size(rate_filtered_evps: float, overhead_s: float,
                 per_event_s: float, n_min: int, n_max: int) -> int:
    """Package size at which processing time equals package span.

    Solves ``o + c*N = N/R`` for N and clamps to the bounds. When the
    per-event cost reaches or exceeds the inter-event period
    (``c >= 1/R``) no size can keep up and ``n_max`` is returned; rate
    reduction upstream must take over.
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
        self._m_s = m_s = self._m_s + a * (s - self._m_s)
        self._m_p = m_p = self._m_p + a * (p - self._m_p)
        self._m_ss = m_ss = self._m_ss + a * (s * s - self._m_ss)
        self._m_sp = m_sp = self._m_sp + a * (s * p - self._m_sp)
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
    the arrival clock (``trigger_us``) it was cut, and the ``stamp`` a
    pipeline adds. It is its own ``package``: it reads as an emission."""

    __slots__ = ("reason", "trigger_us", "stamp")

    def __init__(self, events: np.ndarray, seq: int, size: int, span_us: int,
                 reason: str, trigger_us: int):
        self.events, self.seq, self.size = events, seq, size
        self.span_us, self.reason, self.trigger_us = span_us, reason, trigger_us

    package = property(lambda self: self)


class Packager:
    """Accumulates events and emits adaptively sized packages.

    The buffer is one array ``_store`` whose live events are
    ``_store[_head:_end]``. A cut moves the head cursor and hands out a
    view, so cutting costs nothing per buffered event. An append writes
    behind ``_end`` while the array has room and otherwise copies the
    live events and the batch into a new array with room for as many
    more live events. The store is never written below ``_end``: emitted
    packages stay valid while later events arrive.
    """

    def __init__(self, config: PackagerConfig):
        config.validate()
        self.config = config
        self._set_store(empty_events(), 0)
        self._next_seq = 0
        self._target = float(
            min(config.n_max, max(config.n_min, config.initial_size)))
        self.target_size = round(self._target)  # the next cut's size
        self.model = AffineCostModel(config.model_smoothing)
        # (smoothed rate, fitted o, fitted c) of the last solve, whose
        # target ``_target`` still holds; None once the fallback moved it
        self._solved: tuple[float, float, float] | None = None
        self._last_feedback_seq = -1
        # rate of events reaching the packager (post-filter), measured on
        # the events' own timestamps: ``rate_evps`` is the latest window
        # count, the pipeline's one post-filter rate; its exponential
        # smoothing steers the target
        self._rate_estimator = SlidingRateEstimator(config.rate_window_us)
        self.rate_evps = 0.0
        self._rate_smooth_evps: float | None = None

    def _set_store(self, store: np.ndarray, end: int) -> None:
        self._store = store
        self._t = store["t"]
        self._t_at = self._t.item    # one timestamp as a Python int
        # the store's rows as raw bytes: numpy copies structured rows
        # field by field, 30-60x slower than raw rows
        self._raw = store.view(np.dtype((np.void, store.dtype.itemsize)))
        self._head = 0
        self._end = end

    def _copy_rows(self, at: int, src: np.ndarray) -> None:
        """Write ``src`` into the store from row ``at``: as raw rows when
        the dtypes match, field by field otherwise."""
        if src.dtype == self._store.dtype:
            self._raw[at:at + len(src)] = src.view(self._raw.dtype)
        else:
            self._store[at:at + len(src)] = src

    @property
    def buffered(self) -> int:
        return self._end - self._head

    @property
    def oldest_arrival_us(self) -> int | None:
        if self._end == self._head:
            return None
        return self._t_at(self._head)

    def _cut(self, count: int, first: int, last: int, reason: str,
             trigger_us: int) -> _Cut:
        """Emit the ``count`` oldest buffered events (timestamps ``first``
        to ``last``) as one package."""
        head = self._head
        self._head = head + count
        seq = self._next_seq
        self._next_seq = seq + 1
        return _Cut(self._store[head:head + count], seq, count, last - first,
                    reason, trigger_us)

    def check_timeout(self, now_us: int) -> _Cut | None:
        """Flush a buffer whose oldest event has waited at least the timeout."""
        first = self.oldest_arrival_us
        if first is None or now_us - first < self.config.timeout_us:
            return None
        return self._cut(self.buffered, first, self._t_at(self._end - 1),
                         "timeout", int(now_us))

    def drop_oldest(self, count: int) -> int:
        """Drop up to ``count`` events from the buffer front; returns the
        number dropped."""
        n = min(count, self.buffered)
        if n > 0:
            self._head += n
        return n

    def append(self, events: np.ndarray, *, t: np.ndarray | None = None) -> None:
        """Buffer events without cutting packages (see :meth:`next_emission`).

        The rate estimator is the one order check: it raises
        :class:`OrderingError` before any state changes when the batch
        decreases or starts before the newest appended event, which is
        never older than the newest buffered one.

        ``t``, when given, must be the events' timestamps as an int64
        array or field view whose order was already checked, such as
        :attr:`GammaFilter.kept_t <asap_stream.gamma.GammaFilter.kept_t>`.
        The rate window then folds it uncopied and checks only that it
        starts no earlier than the newest appended event.
        """
        n = len(events)
        if n == 0:
            return
        if t is None:
            self._rate_estimator.update(events["t"])
        else:
            self._rate_estimator.fold(t)
        self.rate_evps = rate = self._rate_estimator.rate_evps
        if self._rate_smooth_evps is None:
            self._rate_smooth_evps = rate
        else:
            self._rate_smooth_evps += self.config.model_smoothing * (
                rate - self._rate_smooth_evps)
        live = self.buffered
        if live == 0:
            # adopt the batch: its array ends at its last event, so the
            # next append copies rather than writes into the caller's array
            self._set_store(events, n)
        elif self._end + n <= len(self._store):
            self._copy_rows(self._end, events)
            self._end += n
        else:
            old = self._store[self._head:self._end]
            self._set_store(np.empty(2 * live + n, dtype=old.dtype), live + n)
            self._copy_rows(0, old)
            self._copy_rows(live, events)

    def next_emission(self) -> _Cut | None:
        """Cut at most one package from the buffer.

        Emits a size cut when ``target_size`` events arrived before the
        oldest event's timeout deadline, a timeout flush when a
        buffered event reveals the deadline passed first, and nothing
        otherwise (more events or a later timeout check may still
        complete the package). Events act as their own arrival clock.

        Timestamps are ordered, so the size rule reads one timestamp
        (the ``target``-th) and the timeout rule one more (the newest);
        only a timeout cut searches for its length.
        """
        head, end = self._head, self._end
        if head == end:
            return None
        t_at = self._t_at
        first = t_at(head)
        deadline = first + self.config.timeout_us
        target = self.target_size
        if end - head >= target:
            last = t_at(head + target - 1)
            if last < deadline:
                return self._cut(target, first, last, "size", last)
        if t_at(end - 1) >= deadline:
            # fewer than ``target`` events precede the deadline
            stop = min(end, head + target)
            count = int(np.searchsorted(self._t[head:stop], deadline,
                                        side="left"))
            return self._cut(count, first, t_at(head + count - 1), "timeout",
                             deadline)
        return None

    def update_target_size(self, feedback: ProcessingFeedback) -> None:
        """Fold one feedback report into the cost model and re-aim the target.

        An invalid report raises ``ValueError`` before any state changes.
        Out-of-order feedback (seq at or below the newest applied) is
        ignored. A report with ``processing_time == span`` is at the
        setpoint and leaves the target unchanged.

        While the model is ready, ``N*`` is solved again only when the
        smoothed rate or the fitted ``o`` or ``c`` differ from the last
        solve's; otherwise the stored target is the one it would give.
        """
        feedback.validate()
        seq = feedback.package_seq
        if seq <= self._last_feedback_seq:
            return
        self._last_feedback_seq = seq
        proc, span = feedback.processing_time_us, feedback.span_us
        model = self.model
        ready = model.update(feedback.size, proc)
        if proc == span:
            return
        cfg = self.config
        lo, hi = cfg.n_min, cfg.n_max
        rate_evps = self._rate_smooth_evps or 0.0
        if ready and rate_evps > 0:
            o, c = model.overhead_us, model.per_event_us
            solved = (rate_evps, o, c)
            if solved == self._solved:
                return  # the inputs of the last solve: its target stands
            target = cfg.headroom * predict_size(rate_evps, o / _US, c / _US,
                                                 lo, hi)
            self._solved = solved
        elif span > 0 and proc > 0:
            self._solved = None
            target = self._target * (span / proc) ** cfg.kappa
        else:
            return  # span == 0: no ratio; the model has the sample
        target = target if target > lo else lo
        self._target = target = target if target < hi else hi
        self.target_size = round(target)
