"""Rate-adaptive random event discard (the keep-probability filter).

Each event is kept independently with probability ``gamma``. ``gamma``
is adapted toward ``min(1, a / rate_raw)`` with exponential smoothing so
that the post-filter rate settles at or below the configured upper
bound ``a`` whenever the raw rate exceeds it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OrderingError

_US = 1_000_000.0


@dataclass
class GammaConfig:
    a_evps: float = 5e6            # upper bound on the filtered rate
    beta: float = 0.25             # smoothing gain of the gamma update
    gamma_min: float = 0.01        # floor preventing total starvation
    rate_window_us: int = 10_000   # sliding window of the rate estimator

    def validate(self) -> None:
        # negated comparisons: NaN fails every bound; a = inf never discards
        if not self.a_evps > 0:
            raise ConfigurationError(
                f"gamma.a must be positive, got {self.a_evps}", key="gamma.a")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(
                f"gamma.beta must be in (0, 1], got {self.beta}", key="gamma.beta")
        if not 0.0 < self.gamma_min < 1.0:
            raise ConfigurationError(
                f"gamma.min must be in (0, 1), got {self.gamma_min}",
                key="gamma.min")
        if not self.rate_window_us > 0:
            raise ConfigurationError(
                f"gamma.rate_window_us must be positive, got {self.rate_window_us}",
                key="gamma.rate_window_us")


def _slide(batches: deque, count: int, t: np.ndarray, cut: int) -> int:
    """Append the non-empty ordered batch ``t`` to the window ``batches``
    of ``count`` events and drop the events older than ``cut`` (``t``'s
    newest timestamp minus the window); returns the new count.

    The newest batch ends inside the window, so the loop stops. Only the
    oldest remaining batch is searched, in O(log n) item reads:
    searchsorted would first copy a strided view whole, and a key=item
    bisection is twice as slow.
    """
    batches.append(t)
    count += t.size
    while batches[0].item(-1) < cut:
        count -= batches.popleft().size
    oldest = batches[0]
    if oldest.item(0) < cut:
        outside = bisect_left(oldest, cut)
        batches[0] = oldest[outside:]
        count -= outside
    return count


class SlidingRateEstimator:
    """Event rates over a sliding window, before and after a filter.

    The raw side (:meth:`update`, :attr:`rate_evps`) counts every event
    of the stream; the kept side (:meth:`fold_kept`) counts the part of
    each raw batch that a filter and admission kept. Each window ends at
    its own side's newest timestamp and is inclusive at its tail: events
    with ``t >= newest - window`` are counted. An empty side reports 0.
    The raw side divides its count by the window. So does the kept side,
    once its timestamps have covered the window; during its first window
    it divides by the span they cover (see :meth:`fold_kept`), so that
    packages are sized on the stream's rate from its first batch. The
    raw side, which steers γ, keeps count / window: a first batch of a
    few close events must not read as a rate that makes γ discard, and
    reading the rate low delays discarding by at most one window.

    Each side keeps its timestamps as the batches they arrived in, with
    a running count. A fold drops the batches that fell out of the
    window whole and searches only the oldest remaining one, so it costs
    the size of the new batch, not of the window. A batch was kept whole
    when its kept view is the very view the raw side folded. While every
    batch with a timestamp in the window was, both sides hold the same
    timestamps: the kept side then takes the raw side's batches and
    count instead of searching. :meth:`update` reads each batch's first
    and newest timestamps once; the newest stays as an ``int``, which
    checks where the next batch starts and ends the kept side's window
    for a batch kept whole.
    """

    def __init__(self, window_us: int):
        if not window_us > 0:
            raise ConfigurationError(
                f"rate window must be positive, got {window_us}",
                key="gamma.rate_window_us")
        self.window_us = int(window_us)
        self._batches: deque[np.ndarray] = deque()
        self._count = 0
        self._kept: deque[np.ndarray] = deque()
        self._kept_count = 0
        # the stream's first kept timestamp, None until one is kept
        self._first_kept: int | None = None
        self._window_s = self.window_us / _US
        self._newest = -1 << 63   # the raw side's newest timestamp
        # the newest timestamp of the last raw batch not kept whole, plus
        # the window: the kept window holds only whole batches past it
        self._short_until = -1 << 63

    def update(self, timestamps: np.ndarray, *, checked: bool = False) -> float:
        """Fold a batch of ordered timestamps in, an int64 array or field
        view kept uncopied; returns the new estimate.

        A dtype that does not cast safely to int64 (float, uint64, object)
        raises :class:`ValueError` naming it. Raises :class:`OrderingError`,
        with the estimator unchanged, when the batch decreases (not scanned
        with ``checked=True``) or starts before the newest timestamp seen.
        The batch's first and newest timestamps are read once, here; the
        newest is kept as an ``int`` for the next batch and the kept side.
        """
        t = np.asarray(timestamps)
        if t.dtype.type is not np.int64:
            if not np.can_cast(t.dtype, np.int64):
                raise ValueError(f"timestamps must cast safely to int64, "
                                 f"got dtype {t.dtype}")
            t = t.astype(np.int64)
        if t.size:
            if not checked and np.count_nonzero(t[1:] < t[:-1]):
                raise OrderingError("batch timestamps must be non-decreasing")
            first = t.item(0)
            if first < self._newest:
                raise OrderingError(
                    f"batch starts at timestamp {first}, before the "
                    f"newest one already seen, {self._newest}")
            self._newest = newest = t.item(-1)
            self._count = _slide(self._batches, self._count, t,
                                 newest - self.window_us)
        return self._count / self._window_s if self._count else 0.0

    def fold_kept(self, t: np.ndarray) -> float:
        """Fold in what was kept of the batch last folded into the raw
        side, as an int64 view of a subsequence of it, that very batch
        when all of it was kept, or an empty view; returns the kept rate.
        Called once per raw batch, after it.

        The rate is the kept count over the window, except while the
        kept timestamps cover less of it: from the stream's first kept
        timestamp to the newest, a span that is positive but shorter
        than the window, nothing has left the window yet, and the count
        is divided by that span. Dividing by the whole window would read
        a stream that started a millisecond ago at a tenth of its rate.
        An empty view leaves the kept rate as it is: no event was kept.
        """
        batches = self._batches
        if t is batches[-1]:
            # kept whole: its newest timestamp is the raw side's
            newest = self._newest
            if self._short_until < newest:
                # every batch in the window was kept whole: the raw
                # window's timestamps, cut where the raw window was cut
                self._kept = batches.copy()
                count = self._kept_count = self._count
            else:
                count = self._kept_count = _slide(
                    self._kept, self._kept_count, t, newest - self.window_us)
        else:
            # not kept whole, or its head left the raw window already
            self._short_until = self._newest + self.window_us
            count = self._kept_count
            if t.size:
                newest = t.item(-1)
                count = self._kept_count = _slide(
                    self._kept, count, t, newest - self.window_us)
            elif count:
                newest = self._kept[-1].item(-1)
            else:
                return 0.0
        first = self._first_kept
        if first is None:
            # the first fold that kept anything: ``t`` holds the first
            first = self._first_kept = t.item(0)
        span = newest - first
        if 0 < span < self.window_us:
            return count * _US / span
        return count / self._window_s

    @property
    def rate_evps(self) -> float:
        return self._count / self._window_s if self._count else 0.0


def apply_filter(state, events: np.ndarray) -> np.ndarray:
    """Keep each event independently with probability ``state.gamma``,
    drawing from the generator ``state.rng`` (a :class:`GammaFilter`, or
    any object with these two attributes).

    Returns the kept subsequence (order and fields untouched) as a new
    array: the kept rows are selected by index, with ``take`` on the
    positions whose draw fell below ``gamma``, which copies whole rows
    where a boolean mask would copy field by field. The RNG state
    advances by exactly one draw per input event. At ``gamma >= 1``
    every draw keeps its event, since ``random()`` lies in [0, 1): the
    result is a copy of the whole batch, and the generator is left in
    the state ``bit_generator.advance(n)`` gives, which is how
    :class:`GammaFilter` skips the draws of a batch it keeps whole.
    """
    n = len(events)
    if n == 0:
        return events
    return events.take(np.flatnonzero(state.rng.random(n) < state.gamma))


class GammaFilter:
    """Stateful stage: estimate the raw rate, adapt gamma, discard events.

    Holds the keep-probability ``gamma``, the raw rate estimate
    ``rate_raw_evps`` and the keep-draw generator ``rng`` (numpy PCG64:
    equal seeds give bit-identical keep decisions). The generator takes
    one step per processed event, as :func:`apply_filter` draws, but a
    batch processed at ``gamma >= 1`` is kept whole without touching
    it: its events are only counted, and ``rng`` is advanced past all
    of them in one jump just before the next keep draw, lagging behind
    by them until then. Once per processed batch, gamma takes one
    smoothing step of gain ``beta`` toward
    ``target = min(1, max(gamma_min, a / rate_raw))`` and is clamped
    the same way, to ``min(1, max(gamma_min, g + beta * (target - g)))``;
    both clamps are conditional expressions that give the floats of
    those calls. Adapting on the raw rate has the steady state of
    adapting on the filtered rate, with a faster transient. The
    post-filter rate, which sizes packages, is
    the kept side of the same :attr:`window`, folded by the caller once
    admission has taken what it keeps of the batch.
    """

    def __init__(self, config: GammaConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.gamma = 1.0
        self.rate_raw_evps = 0.0
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._skipped = 0   # events kept at gamma >= 1, not yet stepped
        #: The rate window: :meth:`process` folds each batch into its raw
        #: side; the caller folds what it keeps into its kept side.
        self.window = SlidingRateEstimator(config.rate_window_us)
        #: Timestamps of the last batch's kept events (None before the
        #: first batch): the ``t`` field view of the kept array, or of the
        #: batch itself when nothing was discarded, whose order the raw
        #: window has checked, as :meth:`SlidingRateEstimator.fold_kept`
        #: takes it.
        self.kept_t: np.ndarray | None = None

    def process(self, events: np.ndarray, *, checked: bool = False,
                t: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        """Filter one batch; returns (kept events, dropped count).

        ``checked=True`` vouches for the batch's order, as an ``ArraySource``
        does, so the raw window checks only where the batch starts.
        ``t``, when given, is the batch's timestamps (its ``t`` field
        view, or an int64 array equal to it), used in place of a view
        made here.
        An empty batch changes nothing: no event arrived, so gamma, the
        raw rate and the generator stay as they are.
        """
        if t is None:
            t = events["t"]
        n = t.size
        if not n:
            self.kept_t = t
            return events, 0
        cfg = self.config
        gmin = cfg.gamma_min
        # the batch's newest event is in the window: the rate is positive;
        # each clamp is min(1, max(gmin, x)), as floats, without the calls
        rate = self.rate_raw_evps = self.window.update(t, checked=checked)
        x = cfg.a_evps / rate
        target = 1.0 if x >= 1.0 else x if x > gmin else gmin
        g = self.gamma
        g += cfg.beta * (target - g)
        self.gamma = g = 1.0 if g >= 1.0 else g if g > gmin else gmin
        if g >= 1.0:
            self._skipped += n
            self.kept_t = t
            return events, 0
        if self._skipped:
            self.rng.bit_generator.advance(self._skipped)
            self._skipped = 0
        kept = apply_filter(self, events)
        self.kept_t = kept["t"]
        return kept, n - len(kept)
