"""Event data model, synthetic Poisson sources, and CSV file replay.

Events are kept in numpy structured arrays (dtype :data:`EVENT_DTYPE`) so
that million-event streams stay cheap to generate, filter and slice. A
single event is one row: timestamp in integer microseconds since stream
start, pixel column, pixel row, and polarity in {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the sensor producing a stream."""

    width: int = 346
    height: int = 260

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"sensor geometry must be at least 1x1, got {self.width}x{self.height}"
            )


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


def empty_events() -> np.ndarray:
    return np.empty(0, dtype=EVENT_DTYPE)


def validate_events(events: np.ndarray, geometry: SensorGeometry | None = None) -> None:
    """Check field invariants; raises on violation.

    Timestamp monotonicity raises :class:`OrderingError`, field range
    violations raise :class:`ValueError`. The stream is checked in
    blocks of :data:`_BLOCK` events, each order check overlapping the
    next block by one event, so temporaries stay the size of a block.
    An ordering fault anywhere is reported before a field fault, and a
    polarity fault before an x fault before a y fault.
    """
    t, p = events["t"], events["p"]
    bad_p = bad_x = bad_y = False
    for i in range(0, len(events), _BLOCK):
        tb = t[i:i + _BLOCK + 1]
        if (tb[1:] < tb[:-1]).any():
            raise OrderingError("event timestamps must be non-decreasing")
        pb = p[i:i + _BLOCK]
        bad_p = bad_p or not ((pb == 1) | (pb == -1)).all()
        if geometry is not None:
            xb = events["x"][i:i + _BLOCK]
            yb = events["y"][i:i + _BLOCK]
            bad_x = bad_x or xb.min() < 0 or xb.max() >= geometry.width
            bad_y = bad_y or yb.min() < 0 or yb.max() >= geometry.height
    if bad_p:
        raise ValueError("event polarity must be +1 or -1")
    if bad_x:
        raise ValueError("event x out of sensor bounds")
    if bad_y:
        raise ValueError("event y out of sensor bounds")


@dataclass
class EventPackage:
    """An ordered, non-empty batch of events delivered as one unit."""

    events: np.ndarray
    seq: int

    @property
    def size(self) -> int:
        return len(self.events)

    @property
    def span_us(self) -> int:
        """Temporal difference between the newest and oldest events."""
        return int(self.events["t"][-1] - self.events["t"][0])

    def validate(self) -> None:
        if len(self.events) == 0:
            raise ValueError("event package must be non-empty")
        t = self.events["t"]
        if (t[1:] < t[:-1]).any():
            raise OrderingError("package events must be timestamp-ordered")


class StreamSource:
    """Pull interface yielding timestamp-ordered event chunks.

    Sources are single-consumer: :meth:`chunks` is an exhaustible
    iterator and must not be pulled concurrently.
    """

    geometry: SensorGeometry = DAVIS346

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def events(self) -> np.ndarray:
        """Materialize the full stream (convenience; consumes the source)."""
        parts = list(self.chunks())
        if not parts:
            return empty_events()
        return np.concatenate(parts)


class ArraySource(StreamSource):
    """Stream over an in-memory event array."""

    def __init__(self, events: np.ndarray, geometry: SensorGeometry = DAVIS346,
                 chunk_size: int = 65536):
        validate_events(events)
        self._events = events
        self.geometry = geometry
        self._chunk = int(chunk_size)

    def chunks(self) -> Iterator[np.ndarray]:
        for i in range(0, len(self._events), self._chunk):
            yield self._events[i:i + self._chunk]


class _PoissonSource(StreamSource):
    """Inhomogeneous Poisson stream generated by inverting the cumulative
    intensity: unit-rate exponential arrivals are mapped through the
    inverse of ``Lambda(t)``.
    """

    def __init__(self, duration_s: float, geometry: SensorGeometry, seed: int,
                 chunk_size: int = 65536):
        if duration_s <= 0:
            raise ConfigurationError(
                f"stream duration must be positive, got {duration_s}",
                key="source.duration_s",
            )
        self.duration_s = float(duration_s)
        self.geometry = geometry
        self.seed = int(seed)
        self._chunk = int(chunk_size)

    def _invert(self, s: np.ndarray) -> np.ndarray:
        """Map cumulative expected counts to arrival times in seconds."""
        raise NotImplementedError

    def chunks(self) -> Iterator[np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        s_base = 0.0
        w, h = self.geometry.width, self.geometry.height
        while True:
            s = s_base + np.cumsum(rng.exponential(1.0, self._chunk))
            s_base = float(s[-1])
            t_s = self._invert(s)
            done = t_s[-1] >= self.duration_s
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


class ConstantRateSource(_PoissonSource):
    """Homogeneous Poisson stream at a fixed mean rate."""

    def __init__(self, rate_evps: float, duration_s: float,
                 geometry: SensorGeometry = DAVIS346, seed: int = 0,
                 chunk_size: int = 65536):
        if rate_evps <= 0:
            raise ConfigurationError(
                f"event rate must be positive, got {rate_evps}",
                key="source.rate_evps",
            )
        super().__init__(duration_s, geometry, seed, chunk_size)
        self.rate_evps = float(rate_evps)

    def _invert(self, s: np.ndarray) -> np.ndarray:
        return s / self.rate_evps


class RampRateSource(_PoissonSource):
    """Poisson stream whose instantaneous rate ramps linearly over the run."""

    def __init__(self, rate_start_evps: float, rate_end_evps: float,
                 duration_s: float, geometry: SensorGeometry = DAVIS346,
                 seed: int = 0, chunk_size: int = 65536):
        if rate_start_evps <= 0:
            raise ConfigurationError(
                f"ramp start rate must be positive, got {rate_start_evps}",
                key="source.rate_start_evps",
            )
        if rate_end_evps <= 0:
            raise ConfigurationError(
                f"ramp end rate must be positive, got {rate_end_evps}",
                key="source.rate_end_evps",
            )
        super().__init__(duration_s, geometry, seed, chunk_size)
        self.rate_start_evps = float(rate_start_evps)
        self.rate_end_evps = float(rate_end_evps)

    def _invert(self, s: np.ndarray) -> np.ndarray:
        r0 = self.rate_start_evps
        k = (self.rate_end_evps - r0) / self.duration_s
        if k == 0.0:
            return s / r0
        # Lambda(t) = r0*t + k*t^2/2; positive root of the quadratic.
        return (np.sqrt(r0 * r0 + 2.0 * k * s) - r0) / k


def generate_constant_stream(rate_evps: float, duration_s: float,
                             geometry: SensorGeometry = DAVIS346,
                             seed: int = 0) -> ConstantRateSource:
    return ConstantRateSource(rate_evps, duration_s, geometry, seed)


def generate_ramp_stream(rate_start_evps: float, rate_end_evps: float,
                         duration_s: float,
                         geometry: SensorGeometry = DAVIS346,
                         seed: int = 0) -> RampRateSource:
    return RampRateSource(rate_start_evps, rate_end_evps, duration_s,
                          geometry, seed)


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
        return empty_events()
    arr = np.array(rows, dtype=np.int64)
    return make_events(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def read_event_file(path, geometry: SensorGeometry = DAVIS346,
                    chunk_size: int = 65536) -> ArraySource:
    """Replay an event CSV file as a stream source."""
    return ArraySource(read_events(path), geometry, chunk_size)


def write_event_file(path, events: np.ndarray) -> None:
    """Serialize events in the canonical CSV form (header, LF endings)."""
    cols = np.column_stack(
        [events["t"], events["x"].astype(np.int64),
         events["y"].astype(np.int64), events["p"].astype(np.int64)]
    ) if events.size else np.empty((0, 4), dtype=np.int64)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        np.savetxt(f, cols, fmt="%d,%d,%d,%d", newline="\n")
