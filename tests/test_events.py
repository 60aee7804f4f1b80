"""Event model, synthetic sources, and CSV round-trip tests."""

import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from asap_stream import (DAVIS346, ArraySource, ConfigurationError,
                         ConstantRateSource, EventFileError, OrderingError,
                         RampRateSource, SensorGeometry, make_events,
                         read_event_file, read_events, write_event_file)
from asap_stream import events as events_mod
from asap_stream.events import EVENT_DTYPE, EventPackage, validate_events


class TestGeometry:
    def test_default_is_346_by_260(self):
        assert DAVIS346.width == 346
        assert DAVIS346.height == 260

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            SensorGeometry(width=0, height=10)
        assert info.value.key == "geometry.width"
        with pytest.raises(ConfigurationError) as info:
            SensorGeometry(width=10, height=-1)
        assert info.value.key == "geometry.height"


class TestConstantStream:
    def test_count_within_poisson_bounds(self):
        # rate * duration = 1e6; +/- 4 sigma = +/- 4000
        events = ConstantRateSource(1e6, 1.0, seed=42).events()
        assert 1_000_000 - 4000 <= len(events) <= 1_000_000 + 4000

    def test_same_seed_bit_identical(self):
        a = ConstantRateSource(1e6, 1.0, seed=7).events()
        b = ConstantRateSource(1e6, 1.0, seed=7).events()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ConstantRateSource(1e5, 0.1, seed=1).events()
        b = ConstantRateSource(1e5, 0.1, seed=2).events()
        assert not np.array_equal(a, b)

    def test_fields_within_default_geometry(self):
        ev = ConstantRateSource(1e5, 0.1, seed=3).events()
        assert np.all(ev["x"] >= 0) and np.all(ev["x"] < 346)
        assert np.all(ev["y"] >= 0) and np.all(ev["y"] < 260)
        assert np.all(np.isin(ev["p"], (-1, 1)))

    def test_timestamps_non_decreasing(self):
        ev = ConstantRateSource(1e6, 0.2, seed=5).events()
        assert np.all(np.diff(ev["t"]) >= 0)

    def test_mean_count_over_seeds_within_1pct(self):
        rate, duration = 1e5, 0.1
        counts = [len(ConstantRateSource(rate, duration, seed=s).events())
                  for s in range(100)]
        assert abs(np.mean(counts) - rate * duration) <= 0.01 * rate * duration

    @pytest.mark.parametrize("rate,duration", [(0, 1.0), (-1, 1.0), (1e6, 0)])
    def test_invalid_parameters(self, rate, duration):
        with pytest.raises(ConfigurationError):
            ConstantRateSource(rate, duration)


class TestRampStream:
    def test_count_matches_rate_integral(self):
        # integral of the linear rate from 1e5 to 1e7 over 5 s = 2.525e7
        events = RampRateSource(1e5, 1e7, 5.0, seed=11).events()
        expected = 2.525e7
        sigma = np.sqrt(expected)
        assert abs(len(events) - expected) <= 4 * sigma

    def test_flat_ramp_count_distribution_matches_constant(self):
        # degenerate ramp: same Poisson count statistics as a constant source
        rate, duration = 1e5, 0.1
        ramp = [len(RampRateSource(rate, rate, duration, seed=s).events())
                for s in range(20)]
        const = [len(ConstantRateSource(rate, duration, seed=s).events())
                 for s in range(20)]
        expected = rate * duration
        assert abs(np.mean(ramp) - expected) < 4 * np.sqrt(expected / 20)
        assert abs(np.mean(ramp) - np.mean(const)) < 4 * np.sqrt(expected / 10)

    def test_timestamps_sorted(self):
        ev = RampRateSource(1e4, 1e6, 0.5, seed=13).events()
        assert np.all(np.diff(ev["t"]) >= 0)

    def test_deterministic(self):
        a = RampRateSource(1e5, 1e6, 0.5, seed=17).events()
        b = RampRateSource(1e5, 1e6, 0.5, seed=17).events()
        assert np.array_equal(a, b)

    def test_falling_ramp_counts_follow_the_rate_integral(self):
        # the unit-rate arrivals of the last chunk run past the peak of
        # Lambda(t) = r0*t + k*t^2/2, where the root has no real value;
        # they lie past the end and must yield no event and no warning
        r0, r1, duration = 8e6, 1e5, 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = RampRateSource(r0, r1, duration, seed=0).events()["t"]
        assert np.all(t[1:] >= t[:-1])
        assert 0 <= t[0] and t[-1] < duration * 1e6
        k = (r1 - r0) / duration
        edges = np.arange(0.0, duration + 0.25, 0.5)
        expected = np.diff(r0 * edges + 0.5 * k * edges ** 2)
        counts = np.diff(np.searchsorted(t, edges * 1e6))
        assert np.all(np.abs(counts - expected) <= 5 * np.sqrt(expected))

    @pytest.mark.parametrize("eps", [1e-12, 1e-14, 1e-15])
    def test_nearly_flat_ramp_is_the_constant_stream(self, eps):
        # the root's difference form cancels when k is tiny but not zero
        ramp = RampRateSource(1e6, 1e6 * (1 + eps), 0.05, seed=1).events()
        const = ConstantRateSource(1e6, 0.05, seed=1).events()
        assert np.array_equal(ramp, const)

    def test_invalid_rates(self):
        with pytest.raises(ConfigurationError):
            RampRateSource(0, 1e6, 1.0)
        with pytest.raises(ConfigurationError):
            RampRateSource(1e6, -1, 1.0)


class TestExpectedCount:
    """A Poisson source whose expected event count does not fit in int64
    would never finish generating; it is rejected at construction."""

    @pytest.mark.parametrize("make, key", [
        (lambda: ConstantRateSource(1e300, 0.05), "source.rate_evps"),
        (lambda: ConstantRateSource(2.0**63, 1.0), "source.rate_evps"),
        (lambda: RampRateSource(1e3, 1e300, 0.05), "source.rate_end_evps"),
        (lambda: RampRateSource(1e300, 1e3, 0.05), "source.rate_start_evps")])
    def test_count_beyond_int64_rejected(self, make, key):
        with pytest.raises(ConfigurationError, match="int64") as info:
            make()
        assert info.value.key == key

    def test_count_within_int64_accepted(self):
        ConstantRateSource(2.0**62, 1.0)
        # the mean of two rates near the float maximum does not overflow
        RampRateSource(1.7e308, 1.7e308, 1e-300)


class TestGeneratedGeometry:
    """A generated stream stores pixels as int16, so its sensor must be
    at most 32768 px across; an event array may still carry a wider one."""

    @pytest.mark.parametrize("width, height, key", [
        (40_000, 260, "geometry.width"), (346, 32_769, "geometry.height")])
    @pytest.mark.parametrize("make", [
        lambda g: ConstantRateSource(1e5, 0.05, geometry=g),
        lambda g: RampRateSource(1e5, 1e6, 0.05, geometry=g)],
        ids=["constant", "ramp"])
    def test_wider_than_int16_rejected(self, make, width, height, key):
        with pytest.raises(ConfigurationError, match="32768") as info:
            make(SensorGeometry(width, height))
        assert info.value.key == key

    def test_int16_wide_sensor_yields_in_bounds_pixels(self):
        geometry = SensorGeometry(32_768, 32_768)
        ev = ConstantRateSource(1e5, 0.05, geometry=geometry, seed=1).events()
        validate_events(ev, geometry)
        assert ev["x"].min() >= 0 and ev["y"].min() >= 0


@pytest.mark.parametrize("make", [
    lambda d: ConstantRateSource(1e5, d),
    lambda d: RampRateSource(1e5, 1e6, d)], ids=["constant", "ramp"])
@pytest.mark.parametrize("duration", [float("inf"), float("nan"), 0.0])
def test_duration_must_be_positive_and_finite(make, duration):
    with pytest.raises(ConfigurationError, match="duration") as info:
        make(duration)
    assert info.value.key == "source.duration_s"


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(min_value=1e2, max_value=1e6),
       duration=st.floats(min_value=1e-3, max_value=0.05),
       seed=st.integers(min_value=0, max_value=2**31),
       chunk=st.integers(min_value=1, max_value=5000))
def test_constant_source_is_a_flat_ramp(rate, duration, seed, chunk):
    const = ConstantRateSource(rate, duration, seed=seed, chunk_size=chunk)
    ramp = RampRateSource(rate, rate, duration, seed=seed, chunk_size=chunk)
    const_chunks, ramp_chunks = list(const.chunks()), list(ramp.chunks())
    assert ([c.tobytes() for c in const_chunks]
            == [c.tobytes() for c in ramp_chunks])


@settings(max_examples=25, deadline=None)
@given(ramp=st.sampled_from([None, (1e5, 2e6), (2e6, 1e5)]),
       duration=st.floats(min_value=1e-3, max_value=0.15),
       seed=st.integers(min_value=0, max_value=2**31),
       chunk=st.sampled_from([1, 65535, 65536, 65537, 100_000, 250_000])
       | st.integers(min_value=1, max_value=250_000))
@example(ramp=(2e6, 1e5), duration=0.15, seed=0, chunk=1)
@example(ramp=None, duration=0.15, seed=0, chunk=65537)
def test_a_generated_stream_is_the_same_at_any_chunk_size(ramp, duration,
                                                          seed, chunk):
    # up to about 3e5 events: streams within one generated block and
    # across several, cut inside, at and across the block edges
    def make(chunk_size):
        if ramp is None:
            return ConstantRateSource(1e6, duration, seed=seed,
                                      chunk_size=chunk_size)
        return RampRateSource(*ramp, duration, seed=seed,
                              chunk_size=chunk_size)
    expected = make(65536).events().tobytes()
    chunks = list(make(chunk).chunks())
    assert all(len(c) == chunk for c in chunks[:-1])
    assert 0 < len(chunks[-1]) <= chunk
    assert b"".join(c.tobytes() for c in chunks) == expected


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(min_value=1e3, max_value=1e6),
       seed=st.integers(min_value=0, max_value=2**31))
def test_any_generated_stream_is_sorted(rate, seed):
    ev = ConstantRateSource(rate, 0.01, seed=seed).events()
    assert np.all(np.diff(ev["t"]) >= 0)


class TestEventFile:
    def test_single_line_parses(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1500,10,20,1\n")
        ev = read_events(path)
        assert len(ev) == 1
        assert (ev["t"][0], ev["x"][0], ev["y"][0], ev["p"][0]) == (1500, 10, 20, 1)

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("t_us,x,y,p\n1500,10,20,1\n")
        assert len(read_events(path)) == 1

    def test_empty_file_gives_exhausted_source(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        source = read_event_file(path)
        assert len(source.events()) == 0

    def test_round_trip_identity(self, tmp_path):
        ev = ConstantRateSource(1e5, 0.02, seed=9).events()
        path = tmp_path / "rt.csv"
        write_event_file(path, ev)
        back = read_events(path)
        assert np.array_equal(ev, back)

    def test_write_read_write_byte_equal(self, tmp_path):
        ev = ConstantRateSource(1e5, 0.01, seed=4).events()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_event_file(p1, ev)
        write_event_file(p2, read_events(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_boundary_field_values_round_trip(self, tmp_path):
        ev = make_events([0, 5], [345, 0], [259, 0], [-1, 1])
        path = tmp_path / "edge.csv"
        write_event_file(path, ev)
        assert np.array_equal(read_events(path), ev)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("100,1,2,1\nnot-a-line\n")
        with pytest.raises(EventFileError, match=":2"):
            read_events(path)

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "pol.csv"
        path.write_text("100,1,2,0\n")
        with pytest.raises(EventFileError, match="polarity"):
            read_events(path)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("100,1,2,1\n50,1,2,1\n")
        with pytest.raises(OrderingError, match=":2"):
            read_events(path)

    def test_coordinate_outside_int16_rejected(self, tmp_path):
        # 65541 would wrap to 5 in the int16 column
        path = tmp_path / "wrap.csv"
        path.write_text("0,1,2,1\n0,65541,5,1\n")
        with pytest.raises(EventFileError,
                           match=r"wrap\.csv:2: x must lie in "
                                 r"\[-32768, 32767\], got 65541"):
            read_events(path)

    def test_timestamp_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text(f"t_us,x,y,p\n{2**63},1,5,1\n")
        with pytest.raises(EventFileError, match=r"late\.csv:2: t must lie"):
            read_events(path)


class TestArraySource:
    def test_chunked_iteration_preserves_stream(self):
        ev = ConstantRateSource(1e5, 0.05, seed=2).events()
        src = ArraySource(ev, chunk_size=100)
        chunks = list(src.chunks())
        assert all(len(c) <= 100 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), ev)

    def test_rejects_unordered_events(self):
        ev = make_events([10, 5], [0, 0], [0, 0], [1, 1])
        with pytest.raises(OrderingError):
            ArraySource(ev)

    @pytest.mark.parametrize("x, y, fault", [
        ([1000, 5], [0, 0], "x"), ([0, -5], [0, 0], "x"),
        ([0, 0], [0, 900], "y"), ([0, 0], [-1, 0], "y"),
        ([1000, -5], [0, 900], "x")])
    def test_rejects_pixels_outside_its_geometry(self, x, y, fault):
        ev = make_events([0, 1], x, y, [1, 1])
        with pytest.raises(ValueError, match=f"event {fault} out of sensor"):
            ArraySource(ev, DAVIS346)

    def test_geometry_bounds_are_exclusive(self):
        ev = make_events([0, 1], [345, 9], [259, 4], [1, -1])
        ArraySource(ev, DAVIS346)
        with pytest.raises(ValueError, match="x out of sensor"):
            ArraySource(ev, SensorGeometry(width=345, height=260))
        with pytest.raises(ValueError, match="y out of sensor"):
            ArraySource(ev, SensorGeometry(width=346, height=259))

    def test_replayed_file_checked_against_its_geometry(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,300,10,1\n5,20,10,-1\n")
        assert len(read_event_file(path).events()) == 2
        with pytest.raises(EventFileError,
                           match=r"wide\.csv: event x out of sensor bounds "
                                 r"\(240x180\)"):
            read_event_file(path, SensorGeometry(width=240, height=180))
        path.write_text("0,1000,-5,1\n1,0,900,1\n")
        with pytest.raises(EventFileError, match="wide.csv: event x out of"):
            read_event_file(path)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    @pytest.mark.parametrize("make", [
        lambda c: ArraySource(make_events([0, 1], [0, 0], [0, 0], [1, 1]),
                              chunk_size=c),
        lambda c: ConstantRateSource(1e5, 0.01, chunk_size=c),
        lambda c: RampRateSource(1e5, 1e6, 0.01, chunk_size=c)],
        ids=["array", "constant", "ramp"])
    def test_non_positive_chunk_size_rejected(self, make, chunk_size):
        with pytest.raises(ConfigurationError, match="chunk size") as info:
            make(chunk_size)
        assert info.value.key == "source.chunk_events"


_B = events_mod._BLOCK

#: A stream spanning three validation blocks of 65536 events.
_BLOCKED_N = 2 * 65536 + 5
_BLOCK_EDGES = [0, 65535, 65536, _BLOCKED_N - 1]


def _valid_stream(n=_BLOCKED_N):
    return make_events(np.arange(n) // 2, np.arange(n) % 346,
                       np.arange(n) % 260, np.where(np.arange(n) % 2, 1, -1))


class TestValidateEvents:
    @pytest.mark.parametrize("index", _BLOCK_EDGES)
    @pytest.mark.parametrize("polarity", [0, 2, -2, 127, -128])
    def test_bad_polarity_rejected_at_block_edges(self, polarity, index):
        ev = _valid_stream()
        ev["p"][index] = polarity
        with pytest.raises(ValueError, match="polarity must be"):
            validate_events(ev)

    @pytest.mark.parametrize("index", [_BLOCKED_N - 1, 65535, 65536, 65537,
                                       131072])
    def test_timestamp_decrease_rejected(self, index):
        # indices 65536 and 131072 decrease across a block boundary
        ev = _valid_stream()
        ev["t"][index] = ev["t"][index - 1] - 1
        with pytest.raises(OrderingError, match="non-decreasing"):
            validate_events(ev)

    def test_equal_timestamps_accepted(self):
        ev = _valid_stream()
        ev["t"] = 7
        validate_events(ev)

    def test_empty_accepted(self):
        validate_events(make_events([], [], [], []))
        validate_events(make_events([], [], [], []), DAVIS346)

    def test_valid_stream_accepted_with_geometry(self):
        validate_events(_valid_stream(), DAVIS346)

    @pytest.mark.parametrize("index", _BLOCK_EDGES)
    @pytest.mark.parametrize("field,value,message", [
        ("x", -1, "x out of"), ("x", 346, "x out of"),
        ("y", -1, "y out of"), ("y", 260, "y out of")])
    def test_out_of_bounds_rejected_with_geometry(self, field, value,
                                                  message, index):
        ev = _valid_stream()
        ev[field][index] = value
        validate_events(ev)  # no geometry, no bounds check
        with pytest.raises(ValueError, match=message):
            validate_events(ev, DAVIS346)

    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("value", [-1, -30_000, -32_768])
    def test_negative_rejected_on_a_wider_than_int16_sensor(self, field,
                                                            value):
        huge = SensorGeometry(width=40_000, height=40_000)
        ev = _valid_stream()
        ev["x"][65536] = 32_767
        ev["y"][65536] = 32_767
        validate_events(ev, huge)
        ev[field][0] = value
        with pytest.raises(ValueError, match=f"{field} out of"):
            validate_events(ev, huge)

    def test_ordering_fault_reported_before_field_faults(self):
        ev = _valid_stream()
        ev["p"][0] = 0
        ev["x"][1] = -1
        ev["t"][-1] = -1
        with pytest.raises(OrderingError):
            validate_events(ev, DAVIS346)

    def test_field_faults_reported_polarity_then_x_then_y(self):
        ev = _valid_stream()
        ev["y"][0] = -1
        ev["x"][65536] = -1
        ev["p"][-1] = 0
        with pytest.raises(ValueError, match="polarity"):
            validate_events(ev, DAVIS346)
        ev["p"][-1] = 1
        with pytest.raises(ValueError, match="x out of"):
            validate_events(ev, DAVIS346)
        ev["x"][65536] = 1
        with pytest.raises(ValueError, match="y out of"):
            validate_events(ev, DAVIS346)

    def test_array_source_validates_in_bounded_memory(self):
        ev = _valid_stream(2_000_000)
        tracemalloc.start()
        try:
            ArraySource(ev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_array_source_validates_in_bounded_memory_with_16_workers(
            self, monkeypatch):
        # as if the process could run sixteen workers, one per CPU: the
        # check must not size anything by the CPU count
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(16)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        ev = _valid_stream(2_000_000)
        tracemalloc.start()
        try:
            ArraySource(ev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("dtype, accepted", [
        ([("t", np.float64), ("x", np.int16), ("y", np.int16), ("p", np.int8)],
         False),
        ([("t", np.int64), ("x", np.int32), ("y", np.int16), ("p", np.int8)],
         False),
        ([("t", np.int64), ("x", np.int16), ("y", np.int16)], False),
        (np.dtype(EVENT_DTYPE.descr, align=True), True)],
        ids=["float-t", "int32-x", "missing-p", "aligned"])
    def test_field_types_checked_at_the_source(self, dtype, accepted):
        valid = make_events([0, 1, 2], [0, 1, 2], [0, 1, 2], [1, -1, 1])
        ev = np.empty(3, dtype)
        for name in ev.dtype.names:
            ev[name] = valid[name]
        if accepted:
            assert np.array_equal(ArraySource(ev).events(), ev)
            return
        with pytest.raises(ValueError, match="must have fields t int64, "
                                             "x int16, y int16, p int8"):
            ArraySource(ev)

    def test_checked_in_the_calling_thread_without_moving_it(self,
                                                             monkeypatch):
        moves = []

        def refuse_start(thread):
            raise AssertionError("validation started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse_start)
        # as if the process may run on four CPUs, whatever this host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, mask: moves.append(set(mask)),
                            raising=False)
        before = threading.active_count()
        ArraySource(_valid_stream())  # three blocks
        assert threading.active_count() == before
        assert moves == []


def _serial_reference(events, geometry=None):
    """A plain block loop written independently of :func:`validate_events`:
    the exception it should raise, as (type, message), or None."""
    t, p = events["t"], events["p"]
    bad_p = bad_x = bad_y = False
    if geometry is not None:
        x, y = events["x"].view(np.uint16), events["y"].view(np.uint16)
        x_end = min(geometry.width, 1 << 15)
        y_end = min(geometry.height, 1 << 15)
    for i in range(0, len(events), _B):
        tb = t[i:i + _B + 1]
        if (tb[1:] < tb[:-1]).any():
            return OrderingError, "event timestamps must be non-decreasing"
        bad_p = bad_p or not (np.abs(p[i:i + _B]) == 1).all()
        if geometry is not None:
            bad_x = bad_x or x[i:i + _B].max() >= x_end
            bad_y = bad_y or y[i:i + _B].max() >= y_end
    if bad_p:
        return ValueError, "event polarity must be +1 or -1"
    if bad_x:
        return ValueError, "event x out of sensor bounds"
    if bad_y:
        return ValueError, "event y out of sensor bounds"
    return None


def _outcome(events, geometry=None):
    try:
        validate_events(events, geometry)
    except (OrderingError, ValueError) as exc:
        return type(exc), str(exc)
    return None


#: Injectable values per field: valid ones and faults on either side.
_FIELD_VALUES = {"p": [-128, -2, -1, 0, 1, 2, 127],
                 "x": [-32_768, -1, 0, 345, 346, 32_767],
                 "y": [-1, 0, 259, 260, 32_767]}


class TestParallelValidation:
    """Faults spread over several blocks. The class keeps its name from
    when the blocks were split into ranges checked in parallel threads;
    the single block loop must give the same results."""

    def test_one_block_starts_no_thread(self, monkeypatch):
        def refuse_start(thread):
            raise AssertionError("validation started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse_start)
        before = threading.active_count()
        validate_events(_valid_stream(_B), DAVIS346)
        assert threading.active_count() == before

    def test_order_fault_in_a_later_range_beats_an_earlier_field_fault(
            self):
        ev = _valid_stream()
        ev["p"][0] = 0
        ev["x"][1] = 400
        ev["t"][-1] = -1
        with pytest.raises(OrderingError):
            validate_events(ev, DAVIS346)

    def test_polarity_then_x_then_y_across_ranges(self):
        ev = _valid_stream()
        ev["y"][0] = 300             # first block
        ev["x"][_B + 3] = 400        # second block
        ev["p"][2 * _B + 1] = 5      # third block
        with pytest.raises(ValueError, match="polarity"):
            validate_events(ev, DAVIS346)
        ev["p"][2 * _B + 1] = 1
        with pytest.raises(ValueError, match="x out of"):
            validate_events(ev, DAVIS346)
        ev["x"][_B + 3] = 1
        with pytest.raises(ValueError, match="y out of"):
            validate_events(ev, DAVIS346)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_parallel_result_equals_serial_reference(self, data):
        # one to four blocks, ending a few events either side of an edge
        n = (data.draw(st.integers(1, 4), label="blocks") * _B
             + data.draw(st.integers(-2, 7), label="extra"))
        geometry = data.draw(st.sampled_from(
            [None, DAVIS346, SensorGeometry(width=40_000, height=40_000)]))
        ev = _valid_stream(n)
        assert _outcome(ev, geometry) is None
        # the events on either side of every block edge
        edges = sorted({e for b in [*range(0, n, _B), n]
                        for e in (b - 1, b, b + 1) if 0 <= e < n})
        for _ in range(data.draw(st.integers(1, 4), label="faults")):
            i = data.draw(st.one_of(st.sampled_from(edges),
                                    st.integers(0, n - 1)), label="index")
            field = data.draw(st.sampled_from("tpxy"), label="field")
            if field == "t":
                ev["t"][i] += data.draw(st.integers(-3, 3))
            else:
                ev[field][i] = data.draw(st.sampled_from(_FIELD_VALUES[field]))
        expected = _serial_reference(ev, geometry)
        event(expected[1] if expected else "valid")
        assert _outcome(ev, geometry) == expected


class TestEventPackageValidate:
    def test_ordered_package_accepted(self):
        EventPackage(events=make_events([1, 1, 2], [0] * 3, [0] * 3, [1] * 3),
                     seq=0).validate()

    @pytest.mark.parametrize("t", [[2, 1, 3], [1, 3, 2]])
    def test_disordered_package_rejected(self, t):
        pkg = EventPackage(events=make_events(t, [0] * 3, [0] * 3, [1] * 3),
                           seq=0)
        with pytest.raises(OrderingError, match="timestamp-ordered"):
            pkg.validate()

    def test_empty_package_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            EventPackage(events=make_events([], [], [], []), seq=0).validate()


class TestEventPackageSpan:
    @pytest.mark.parametrize("t, span", [([], 0), ([7], 0), ([3, 3], 0),
                                         ([5, 9, 40], 35)])
    def test_span_is_newest_minus_oldest(self, t, span):
        n = len(t)
        pkg = EventPackage(events=make_events(t, [0] * n, [0] * n, [1] * n),
                           seq=0)
        assert pkg.span_us == span and type(pkg.span_us) is int

    def test_span_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            EventPackage(events=make_events([1], [0], [0], [1]), seq=0,
                         span_us=5)

