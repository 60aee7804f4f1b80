"""Event data model, synthetic Poisson sources, and CSV file replay.

Events are kept in numpy structured arrays (dtype :data:`EVENT_DTYPE`) so
that million-event streams stay cheap to generate, filter and slice. A
single event is one row: timestamp in integer microseconds since stream
start, pixel column, pixel row, and polarity in {+1, -1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, EventFileError, OrderingError

EVENT_DTYPE = np.dtype(
    [("t", np.int64), ("x", np.int16), ("y", np.int16), ("p", np.int8)]
)

CSV_HEADER = "t_us,x,y,p"

_US = 1_000_000.0

#: Events per block of :func:`validate_events`.
_BLOCK = 65536

#: Events per generated block of a Poisson source: its stream depends
#: on the seed alone, not on the chunk size.
_STREAM_BLOCK = 65536

#: Inclusive value range of each integer field a file line must fit.
_FIELD_RANGE = {name: (int(np.iinfo(EVENT_DTYPE[name]).min),
                       int(np.iinfo(EVENT_DTYPE[name]).max))
                for name in ("t", "x", "y")}


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the sensor producing a stream."""

    width: int = 346
    height: int = 260

    def __post_init__(self):
        for key, size in (("geometry.width", self.width),
                          ("geometry.height", self.height)):
            if not size >= 1:
                raise ConfigurationError(
                    f"sensor geometry must be at least 1x1, got "
                    f"{self.width}x{self.height}", key=key)


#: Default geometry (346x260).
DAVIS346 = SensorGeometry()


def make_events(t, x, y, p) -> np.ndarray:
    """Assemble a structured event array from per-field sequences."""
    t = np.asarray(t, dtype=np.int64)
    out = np.empty(t.shape, dtype=EVENT_DTYPE)
    out["t"] = t
    out["x"] = np.asarray(x, dtype=np.int16)
    out["y"] = np.asarray(y, dtype=np.int16)
    out["p"] = np.asarray(p, dtype=np.int8)
    return out


def _chunk_events(chunk_size) -> int:
    """``chunk_size`` as a positive event count; raises otherwise."""
    chunk = int(chunk_size)
    if chunk < 1:
        raise ConfigurationError(
            f"source chunk size must be at least 1 event, got {chunk_size}",
            key="source.chunk_events")
    return chunk


def validate_events(events: np.ndarray, geometry: SensorGeometry | None = None) -> None:
    """Check field types and invariants; raises on violation.

    An array whose ``t``, ``x``, ``y`` and ``p`` fields are missing or
    not of :data:`EVENT_DTYPE`'s integer types raises :class:`ValueError`
    naming the expected fields. Timestamp monotonicity raises
    :class:`OrderingError`, field range violations raise
    :class:`ValueError`. An ordering fault anywhere is reported before a
    field fault, and a polarity fault before an x fault before a y fault.

    The stream is checked in the calling thread, one block of
    :data:`_BLOCK` events at a time, each order check overlapping the
    next block by one event, so the temporaries stay those of one block
    (about 0.2 MB). The loop stops at the first ordering fault.
    """
    fields = events.dtype.fields or {}
    if any(name not in fields or fields[name][0] != EVENT_DTYPE[name]
           for name in EVENT_DTYPE.names):
        expected = ", ".join(f"{name} {EVENT_DTYPE[name]}"
                             for name in EVENT_DTYPE.names)
        raise ValueError(f"event array must have fields {expected}; "
                         f"got dtype {events.dtype}")
    t, p = events["t"], events["p"]
    if geometry is not None:
        # read as uint16 a negative coordinate is >= 32768, so one max
        # per field checks both bounds
        x, y = events["x"].view(np.uint16), events["y"].view(np.uint16)
        x_end = min(geometry.width, 1 << 15)
        y_end = min(geometry.height, 1 << 15)
    bad_p = bad_x = bad_y = False
    for i in range(0, len(events), _BLOCK):
        j = i + _BLOCK
        tb = t[i:j + 1]
        if np.count_nonzero(tb[1:] < tb[:-1]):
            raise OrderingError("event timestamps must be non-decreasing")
        if not bad_p:
            ok = np.abs(p[i:j])
            bad_p = not np.equal(ok, 1, out=ok.view(np.bool_)).all()
            del ok  # before the next order mask
        if geometry is not None:
            bad_x = bad_x or x[i:j].max() >= x_end
            bad_y = bad_y or y[i:j].max() >= y_end
    if bad_p:
        raise ValueError("event polarity must be +1 or -1")
    if bad_x:
        raise ValueError("event x out of sensor bounds")
    if bad_y:
        raise ValueError("event y out of sensor bounds")


@dataclass(slots=True)
class EventPackage:
    """An ordered, non-empty batch of events delivered as one unit."""

    events: np.ndarray
    seq: int
    #: Number of events and newest minus oldest timestamp (0 when empty),
    #: both fixed at construction.
    size: int = field(init=False)
    span_us: int = field(init=False)

    def __post_init__(self):
        t = self.events["t"]
        self.size = n = len(t)
        self.span_us = int(t[-1] - t[0]) if n else 0

    def validate(self) -> None:
        if len(self.events) == 0:
            raise ValueError("event package must be non-empty")
        t = self.events["t"]
        if (t[1:] < t[:-1]).any():
            raise OrderingError("package events must be timestamp-ordered")


class StreamSource:
    """Pull interface yielding timestamp-ordered event chunks.

    Sources are single-consumer: :meth:`chunks` is an exhaustible
    iterator and must not be pulled concurrently. An ``ordered`` source
    has checked its chunks' order, so the pipeline does not scan it again.
    A source whose chunks are consecutive slices of one array, the
    first starting at index 0, declares that array as :attr:`array`:
    the pipeline then places each chunk in it by the lengths of the
    chunks before it, and buffers adjacent batches as one view of it.
    """

    geometry: SensorGeometry = DAVIS346
    ordered = False
    #: The array the chunks are consecutive slices of, or None.
    array: np.ndarray | None = None

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def events(self) -> np.ndarray:
        """Materialize the full stream (convenience; consumes the source)."""
        parts = list(self.chunks())
        if not parts:
            return np.empty(0, dtype=EVENT_DTYPE)
        return np.concatenate(parts)


class ArraySource(StreamSource):
    """Stream over an in-memory event array, checked once, at
    construction, against ``geometry``. The array must not change
    afterwards: its chunks are views whose order is not checked again.
    They are consecutive slices of it from index 0, so it is declared
    as :attr:`array`, and a package may be a view of it that crosses
    chunk edges."""

    ordered = True

    def __init__(self, events: np.ndarray, geometry: SensorGeometry = DAVIS346,
                 chunk_size: int = 65536):
        self._chunk = _chunk_events(chunk_size)
        validate_events(events, geometry)
        self.array = events
        self.geometry = geometry

    def chunks(self) -> Iterator[np.ndarray]:
        for i in range(0, len(self.array), self._chunk):
            yield self.array[i:i + self._chunk]


class _PoissonSource(StreamSource):
    """Poisson stream whose rate moves linearly from ``rate_start_evps``
    to ``rate_end_evps`` over the run, a constant rate having equal ends.
    It is generated by inverting the cumulative intensity ``Lambda(t)``:
    unit-rate exponential arrivals are mapped through its inverse.
    ``rate_keys`` name the config keys of the two rates.
    """

    def __init__(self, rate_start_evps: float, rate_end_evps: float,
                 duration_s: float, geometry: SensorGeometry, seed: int,
                 chunk_size: int, rate_keys: tuple[str, str]):
        if not 0 < duration_s < math.inf:
            raise ConfigurationError(
                f"stream duration must be positive and finite, got "
                f"{duration_s}", key="source.duration_s")
        for key, size in (("geometry.width", geometry.width),
                          ("geometry.height", geometry.height)):
            if size > 1 << 15:
                raise ConfigurationError(
                    f"{key} of a generated stream must be at most "
                    f"{1 << 15} (int16 pixels), got {size}", key=key)
        self.duration_s = float(duration_s)
        self.geometry = geometry
        self.seed = int(seed)
        self._chunk = _chunk_events(chunk_size)
        # the expected event count must fit in int64, or generating it
        # would never end; halves summed: the sum of two finite rates
        # can overflow
        count = (0.5 * rate_start_evps + 0.5 * rate_end_evps) * self.duration_s
        if not count <= np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"expected event count {count:g} (mean rate x duration) "
                f"exceeds the int64 range",
                key=rate_keys[0 if rate_start_evps > rate_end_evps else 1])
        self.rate_start_evps = rate_start_evps
        self.rate_end_evps = rate_end_evps

    def _blocks(self) -> Iterator[np.ndarray]:
        """The stream in blocks of :data:`_STREAM_BLOCK` events (the
        last one shorter), each drawn as its gaps, then its x, y and p."""
        rng = np.random.Generator(np.random.PCG64(self.seed))
        s_base = 0.0
        w, h = self.geometry.width, self.geometry.height
        r0, r1 = self.rate_start_evps, self.rate_end_evps
        k = (r1 - r0) / self.duration_s
        # Lambda(duration), halves summed as in the count check; a falling
        # ramp's Lambda peaks after the end, where its root would be NaN
        s_end = (0.5 * r0 + 0.5 * r1) * self.duration_s
        while True:
            s = s_base + np.cumsum(rng.exponential(1.0, _STREAM_BLOCK))
            s_base = float(s[-1])
            done = s_base >= s_end
            if done:
                s = s[:np.searchsorted(s, s_end)]
            # Lambda(t) = r0*t + k*t^2/2; positive root of the quadratic in
            # the form that does not cancel when k is tiny
            t_s = (s / r0 if k == 0.0
                   else 2.0 * s / (np.sqrt(r0 * r0 + 2.0 * k * s) + r0))
            if done:
                t_s = t_s[t_s < self.duration_s]
            n = len(t_s)
            if n:
                t_us = np.floor(t_s * _US).astype(np.int64)
                out = np.empty(n, dtype=EVENT_DTYPE)
                out["t"] = t_us
                out["x"] = rng.integers(0, w, n).astype(np.int16)
                out["y"] = rng.integers(0, h, n).astype(np.int16)
                out["p"] = (rng.integers(0, 2, n) * 2 - 1).astype(np.int8)
                yield out
            if done:
                return

    def chunks(self) -> Iterator[np.ndarray]:
        """The stream in chunks of ``chunk_size`` events (the last one
        shorter): views of the generated blocks, joined where a chunk
        crosses a block edge, so every chunk size gives the same stream."""
        size = self._chunk
        parts: list[np.ndarray] = []
        have = 0   # events in ``parts``
        for block in self._blocks():
            while len(block):
                part, block = block[:size - have], block[size - have:]
                if len(part) == size:
                    yield part
                    continue
                parts.append(part)
                have += len(part)
                if have == size:
                    yield np.concatenate(parts)
                    parts, have = [], 0
        if parts:
            yield np.concatenate(parts)


def _rate(rate_evps: float, what: str, key: str) -> float:
    if not 0 < rate_evps < math.inf:
        raise ConfigurationError(
            f"{what} must be positive and finite, got {rate_evps}", key=key)
    return float(rate_evps)


class ConstantRateSource(_PoissonSource):
    """Homogeneous Poisson stream at a fixed mean rate."""

    def __init__(self, rate_evps: float, duration_s: float,
                 geometry: SensorGeometry = DAVIS346, seed: int = 0,
                 chunk_size: int = 65536):
        key = "source.rate_evps"
        self.rate_evps = _rate(rate_evps, "event rate", key)
        super().__init__(self.rate_evps, self.rate_evps, duration_s,
                         geometry, seed, chunk_size, (key, key))


class RampRateSource(_PoissonSource):
    """Poisson stream whose instantaneous rate ramps linearly over the run."""

    def __init__(self, rate_start_evps: float, rate_end_evps: float,
                 duration_s: float, geometry: SensorGeometry = DAVIS346,
                 seed: int = 0, chunk_size: int = 65536):
        keys = ("source.rate_start_evps", "source.rate_end_evps")
        super().__init__(
            _rate(rate_start_evps, "ramp start rate", keys[0]),
            _rate(rate_end_evps, "ramp end rate", keys[1]),
            duration_s, geometry, seed, chunk_size, keys)


def _parse_event_line(line: str, path: str, lineno: int) -> tuple[int, int, int, int]:
    parts = line.split(",")
    if len(parts) != 4:
        raise EventFileError(
            f"{path}:{lineno}: expected 4 comma-separated fields, got {len(parts)}"
        )
    try:
        t, x, y, p = (int(part) for part in parts)
    except ValueError:
        raise EventFileError(
            f"{path}:{lineno}: fields must be integers: {line!r}"
        ) from None
    for name, value in (("t", t), ("x", x), ("y", y)):
        lo, hi = _FIELD_RANGE[name]
        if not lo <= value <= hi:
            raise EventFileError(
                f"{path}:{lineno}: {name} must lie in [{lo}, {hi}], got {value}")
    if p not in (1, -1):
        raise EventFileError(f"{path}:{lineno}: polarity must be 1 or -1, got {p}")
    return t, x, y, p


def read_events(path) -> np.ndarray:
    """Parse an event CSV file (``t_us,x,y,p`` per line, optional header)."""
    rows = []
    last_t = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line == CSV_HEADER:
                continue
            row = _parse_event_line(line, str(path), lineno)
            if last_t is not None and row[0] < last_t:
                raise OrderingError(
                    f"{path}:{lineno}: timestamp {row[0]} decreases below {last_t}"
                )
            last_t = row[0]
            rows.append(row)
    if not rows:
        return np.empty(0, dtype=EVENT_DTYPE)
    arr = np.array(rows, dtype=np.int64)
    return make_events(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def read_event_file(path, geometry: SensorGeometry = DAVIS346,
                    chunk_size: int = 65536) -> ArraySource:
    """Replay an event CSV file as a stream source.

    A pixel outside ``geometry`` raises :class:`EventFileError` naming
    the file.
    """
    _chunk_events(chunk_size)  # before the file is read
    events = read_events(path)
    try:
        return ArraySource(events, geometry, chunk_size)
    except ValueError as exc:
        raise EventFileError(
            f"{path}: {exc} ({geometry.width}x{geometry.height})") from None


def write_event_file(path, events: np.ndarray) -> None:
    """Serialize events in the canonical CSV form (header, LF endings)."""
    cols = np.column_stack(
        [events["t"], events["x"].astype(np.int64),
         events["y"].astype(np.int64), events["p"].astype(np.int64)]
    ) if events.size else np.empty((0, 4), dtype=np.int64)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        np.savetxt(f, cols, fmt="%d,%d,%d,%d", newline="\n")
