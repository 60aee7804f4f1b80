"""End-to-end pipeline behavior in virtual and realtime modes."""

import copy
import dataclasses
import hashlib
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asap_stream import (ArraySource, ConfigurationError, ConstantRateSource,
                         ConsumerConfig, GammaConfig, PackageMetrics,
                         PackagerConfig, GammaFilter, OrderingError, Packager,
                         PipelineConfig, RampRateSource, StreamSource,
                         SyntheticConsumer, VirtualClock, make_events, run,
                         write_metrics_csv)
from asap_stream import pipeline
from asap_stream.pipeline import (METRICS_COLUMNS, METRICS_HEADER, MetricsTable,
                                  _HEAD_CACHE, _REASON_CODE, _WRITE_BLOCK,
                                  _Stages)


def _config(**kwargs):
    return PipelineConfig(**kwargs)


class _Recorder:
    """Synthetic consumer that keeps a copy of every package it is handed."""

    def __init__(self):
        self.inner = SyntheticConsumer(100.0, 100.0)
        self.packages = []

    def process(self, package, clock):
        self.packages.append(package.events.copy())
        return self.inner.process(package, clock)


def _run_buffered(t, capacity, chunk_size):
    """Run events at times ``t`` into a buffer of ``capacity`` that never
    cuts before the end of the stream; returns the run and the packages."""
    n = len(t)
    cfg = _config(packager=PackagerConfig(initial_size=1000,
                                          timeout_us=10**6),
                  input_buffer_capacity=capacity)
    rec = _Recorder()
    source = ArraySource(make_events(t, np.zeros(n), np.zeros(n), np.ones(n)),
                         chunk_size=chunk_size)
    return run(cfg, source, rec), rec.packages


class TestOverflowGuard:
    def test_full_buffer_drops_oldest(self):
        # ten buffered events, then a batch of three: the three oldest
        # buffered events make room for the whole batch
        t = [*range(10), 20, 21, 22]
        result, packages = _run_buffered(t, capacity=10, chunk_size=10)
        assert result.dropped_by_overflow == 3
        assert [m.drop_overflow for m in result.metrics] == [3]
        assert len(packages) == 1 and len(packages[0]) == 10
        assert packages[0]["t"][0] == 3          # three oldest gone
        assert packages[0]["t"][-1] == 22        # newest admitted
        assert result.conservation_holds()

    def test_batch_larger_than_capacity_keeps_its_newest(self):
        # the first batch alone is 2 over capacity and loses its own two
        # oldest events; the second pushes out the 4 oldest buffered ones
        t = list(range(16))
        result, packages = _run_buffered(t, capacity=10, chunk_size=12)
        assert result.dropped_by_overflow == 6
        assert np.array_equal(np.concatenate(packages)["t"], np.arange(6, 16))
        assert result.conservation_holds()

    def test_below_capacity_is_noop(self):
        t = [0, 1, 2]
        result, packages = _run_buffered(t, capacity=10, chunk_size=2)
        assert result.dropped_by_overflow == 0
        assert [m.drop_overflow for m in result.metrics] == [0]
        assert np.array_equal(np.concatenate(packages)["t"], t)

    def test_exactly_at_capacity_is_noop(self):
        result, packages = _run_buffered(list(range(10)), capacity=10,
                                         chunk_size=3)
        assert result.dropped_by_overflow == 0
        assert len(np.concatenate(packages)) == 10

    def test_pipeline_overflow_drops_counted(self):
        cfg = _config(
            packager=PackagerConfig(initial_size=100_000, timeout_us=10**7,
                                    n_max=1_000_000),
            consumer=ConsumerConfig(o_us=1000, c_ns=100),
            input_buffer_capacity=5_000)
        source = ConstantRateSource(1e6, 0.05, seed=0)
        result = run(cfg, source)
        assert result.dropped_by_overflow > 0
        assert result.conservation_holds()


#: sha256 of the metrics CSV of a virtual run on a 0.2 s, 1e5 ev/s
#: constant stream (seed 0, 4096-event chunks) that starts at each
#: timestamp, none of which a float64 holds
_SHIFTED_SHA256 = {
    2**53 + 1:
        "82fa0f1dcad4c90213255f78de8424f6103ab4410e3ab89e8488723d33daf8af",
    2**60 + 3:
        "3b72863d526e6f44107ff7bd4745d92f1b0850b2479a34f27e9c8403b4d7f672",
    2**62 + 12345:
        "58220e39d1e3fe252676ff00ded63ecf74bf1dedca77bccb698d9030abe6db3f",
}


class TestVirtualRun:
    def test_fixed_point_sizes_and_gamma_one(self):
        # constant 1e6 ev/s below a = 5e6: nothing discarded, and the
        # steady-state package size sits at the synchronization fixed
        # point N* = o/(1/R - c) = 2000 (times the configured headroom)
        cfg = _config(consumer=ConsumerConfig(o_us=1000, c_ns=500))
        result = run(cfg, ConstantRateSource(1e6, 1.0, seed=0))
        assert all(m.gamma == 1.0 for m in result.metrics)
        assert result.dropped_by_filter == 0
        sizes = [m.size for m in result.metrics]
        median = np.median(sizes[len(sizes) // 2:])
        assert abs(median - 2000) <= 0.10 * 2000

    def test_ramp_gamma_trace(self):
        cfg = _config(consumer=ConsumerConfig(o_us=1000, c_ns=100))
        result = run(cfg, RampRateSource(1e5, 1e7, 5.0, seed=0))
        crossing = next(i for i, m in enumerate(result.metrics)
                        if m.rate_raw >= cfg.gamma.a_evps)
        assert all(m.gamma == 1.0 for m in result.metrics[:crossing])
        assert all(m.gamma < 1.0 for m in result.metrics[crossing:])
        # time-averaged filtered rate holds near a after the crossing
        post = [m.rate_filtered for m in result.metrics[crossing + 50:]]
        assert abs(np.mean(post) - 5e6) <= 0.10 * 5e6

    def test_unfiltered_run_copies_no_event(self):
        # at gamma = 1 the filter passes each chunk through and nearly
        # every package (N* ~ 2000) lies inside one 65536-event chunk, so
        # it is a view of the source's array: the run allocates far
        # less than one chunk's bytes, 13 per event
        n = 1_000_000
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.exponential(1.0, n)).astype(np.int64)
        source = ArraySource(make_events(t, np.zeros(n), np.zeros(n),
                                         np.ones(n)), chunk_size=65536)
        cfg = _config(consumer=ConsumerConfig(o_us=1000, c_ns=500))
        tracemalloc.start()
        try:
            result = run(cfg, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.dropped_by_filter == 0
        assert result.packaged_events == n
        assert peak < 65536 * 13, f"peak {peak} bytes"

    def test_determinism_bytes(self, tmp_path):
        cfg = _config(consumer=ConsumerConfig(o_us=1000, c_ns=500))
        paths = []
        for name in ("a.csv", "b.csv"):
            result = run(cfg, ConstantRateSource(1e6, 0.2, seed=3))
            path = tmp_path / name
            write_metrics_csv(path, result.metrics)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_conservation_exact(self):
        cfg = _config(gamma=GammaConfig(a_evps=5e5),
                      consumer=ConsumerConfig(o_us=500, c_ns=300))
        result = run(cfg, ConstantRateSource(2e6, 0.1, seed=4))
        assert result.conservation_holds()
        assert result.dropped_by_filter > 0

    def test_metrics_seq_order_and_lag_identity(self):
        cfg = _config(consumer=ConsumerConfig(o_us=1000, c_ns=500))
        result = run(cfg, ConstantRateSource(1e6, 0.2, seed=5))
        seqs = [m.seq for m in result.metrics]
        assert seqs == sorted(seqs)
        for m in result.metrics:
            assert m.lag_us == m.proc_us - m.span_us

    def test_low_rate_timeout_bound(self):
        # 1e3 ev/s: packages must flush on the 10 ms timeout, far below
        # the target size
        cfg = _config(
            packager=PackagerConfig(timeout_us=10_000, n_min=32,
                                    initial_size=1000),
            consumer=ConsumerConfig(o_us=100, c_ns=500))
        result = run(cfg, ConstantRateSource(1e3, 2.0, seed=6))
        assert result.metrics
        for m in result.metrics:
            assert m.span_us <= cfg.packager.timeout_us
            assert m.emit_reason == "timeout"
            assert m.size < 1000

    def test_metrics_header_matches_interface(self):
        assert METRICS_HEADER == ("seq,size,span_us,proc_us,lag_us,gamma,"
                                  "rate_raw,rate_filtered,drop_filter,"
                                  "drop_overflow,clock_us")

    def test_csv_shape(self, tmp_path):
        cfg = _config(consumer=ConsumerConfig(o_us=1000, c_ns=500))
        result = run(cfg, ConstantRateSource(1e6, 0.05, seed=7))
        path = tmp_path / "m.csv"
        write_metrics_csv(path, result.metrics)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == len(result.metrics) + 1
        assert all(len(line.split(",")) == 11 for line in lines[1:])

    @pytest.mark.parametrize("t0", sorted(_SHIFTED_SHA256))
    def test_timestamps_past_2_53_drain(self, t0, tmp_path):
        # the residual flush waits for an int deadline that a float64
        # clock cannot hold: unless the clock lands on it exactly, the
        # buffer never times out and the drain never ends
        ev = ConstantRateSource(1e5, 0.2, seed=0).events()
        ev["t"] += t0
        path = tmp_path / "m.csv"

        def call():
            result = run(_config(), ArraySource(ev, chunk_size=4096))
            write_metrics_csv(path, result.metrics)

        runner = threading.Thread(target=call, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the run did not finish"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            _SHIFTED_SHA256[t0]

    def test_clustering_consumer_runs(self):
        cfg = _config(consumer=ConsumerConfig(kind="clustering"))
        result = run(cfg, ConstantRateSource(1e4, 0.2, seed=8))
        assert result.metrics
        assert result.conservation_holds()

    def test_invalid_config_raises_before_events_flow(self):
        cfg = _config(mode="bogus")
        with pytest.raises(ConfigurationError):
            run(cfg, ConstantRateSource(1e4, 0.1, seed=0))

    @pytest.mark.parametrize("consumer, key", [
        (ConsumerConfig(o_us=1e308), "consumer.o_us"),
        (ConsumerConfig(o_us=5e18, jitter=1.0), "consumer.o_us"),
        (ConsumerConfig(c_ns=1e308), "consumer.c_ns"),
        (ConsumerConfig(c_ns=1e16), "consumer.c_ns"),
        (ConsumerConfig(o_us=4e18, jitter=1.0), None)])
    def test_package_time_must_fit_the_clock(self, consumer, key):
        # (o + c * n_max) * (1 + jitter) within the int64 microsecond range
        cfg = _config(consumer=consumer)
        if key is None:
            cfg.validate()
            return
        with pytest.raises(ConfigurationError, match="int64") as info:
            cfg.validate()
        assert info.value.key == key


#: Floats whose shortest repr is easy to get wrong: signed zero, the
#: smallest subnormal, exponent-form large and small values, infinities.
_SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, 1e-5, float("inf"), float("-inf"))
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())


def _twin(x):
    """An object equal to ``x`` (both NaN for a NaN) but not ``x`` itself:
    for a zero, the other signed zero, whose repr differs."""
    return -x if x == 0 else float(repr(x))


def _equals(x):
    """Objects equal to ``x`` whose reprs may differ from its own: itself,
    its twin, an ``np.float64`` and, for a whole number, an ``int``."""
    f = float(x)
    return [x, _twin(f), np.float64(f)] + ([int(f)] if f.is_integer() else [])


def _float_equals(x):
    """The floats among :func:`_equals`: ``x`` and its twin."""
    return [x, _twin(x)]


@st.composite
def _rows(draw, equals=_equals):
    """Metrics rows in runs that share one ``(gamma, rate_raw,
    rate_filtered)`` object triple, as the packages cut from one fed
    batch do. From one run to the next, one, two or all three of the
    objects change: to a new value, or to one of ``equals(old value)``
    (the other signed zero, another NaN, an ``np.float64``, an ``int``).
    Each row's ``proc_us`` is a new value or one of ``equals(previous
    row's)``, as a steady consumer reports. Integer fields are drawn
    within int64, as a table stores them."""
    ints = st.integers(-2**63, 2**63 - 1)
    rates = [draw(_floats) for _ in range(3)]
    proc = draw(_floats)
    rows = []
    for run_index in range(draw(st.integers(0, 6))):
        if run_index:
            for i in draw(st.sets(st.integers(0, 2), min_size=1)):
                rates[i] = draw(st.one_of(
                    _floats, st.sampled_from(equals(rates[i]))))
        for _ in range(draw(st.integers(1, 4))):
            proc = draw(st.one_of(_floats, st.sampled_from(equals(proc))))
            rows.append(PackageMetrics(
                draw(ints), draw(ints), draw(ints),
                proc, draw(_floats), *rates, draw(ints),
                draw(ints), draw(_floats),
                draw(st.sampled_from(["size", "timeout"]))))
    return rows


#: Rows as a run stores them: int64 integers and plain floats.
_plain_rows = _rows(_float_equals)


def _rows_sharing(gamma, *rates):
    """One row per ``(rate_raw, rate_filtered)`` pair, all with the one
    ``gamma`` object, as γ = 1 gives every batch."""
    return [PackageMetrics(seq, 1, 2, 3.0, 1.0, gamma, rr, rf, 0, 0, 4.0)
            for seq, (rr, rf) in enumerate(rates)]


def _rows_with_proc(*procs):
    """One row per processing time, all else alike."""
    return [PackageMetrics(seq, 1, 2, proc, 1.0, 1.0, 2.0, 3.0, 0, 0, 4.0)
            for seq, proc in enumerate(procs)]


def _reference_line(m):
    return (f"{m.seq},{m.size},{m.span_us},{m.proc_us!r},{m.lag_us!r},"
            f"{m.gamma!r},{m.rate_raw!r},{m.rate_filtered!r},"
            f"{m.drop_filter},{m.drop_overflow},{m.clock_us!r}")


def _reference_csv(rows):
    """The bytes of a metrics CSV of ``rows``, line by line."""
    return "".join(f"{line}\n" for line in
                   [METRICS_HEADER, *map(_reference_line, rows)]).encode()


class _FeedbackRecorder(_Recorder):
    """Also keeps each processing time the consumer returned."""

    def __init__(self):
        super().__init__()
        self.reports = []

    def process(self, package, clock):
        proc_us = super().process(package, clock)
        self.reports.append(proc_us)
        return proc_us


class TestMetricsOutput:
    @given(rows=_rows())
    @example(rows=[PackageMetrics(7, 3, 12, *_SPECIAL_FLOATS[:5], 0, 2,
                                  _SPECIAL_FLOATS[5], "timeout")])
    # one gamma object throughout; rate_raw turns from 0.0 to -0.0, then
    # rate_filtered from one NaN object to another
    @example(rows=_rows_sharing(1.0, (0.0, float("nan")), (-0.0, 5.0),
                                (-0.0, float("nan")), (-0.0, float("nan"))))
    # rates equal to the previous row's, of other types that pack to the
    # same bytes
    @example(rows=_rows_sharing(1.0, (5.0, 2.0), (np.float64(5.0), 2.0),
                                (5, 2.0), (5.0, 2.0), (5.0, 2)))
    # processing times equal to the previous row's (signed zeros, int and
    # float, np.float64), then a repeated float
    @example(rows=_rows_with_proc(0.0, -0.0, 0.0, 5, 5.0, np.float64(5.0),
                                  5.0, 2.5, 2.5, 2.5))
    # signed zeros and distinct NaN objects in gamma and both rates,
    # then in proc_us
    @example(rows=_rows_sharing(1.0, (0.0, float("nan")), (-0.0, 5.0),
                                (-0.0, float("nan")), (5.0, -0.0)))
    @example(rows=_rows_with_proc(0.0, -0.0, 0.0, float("nan"),
                                  float("nan"), 5.0, 5.0, -0.0))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_csv_rows_match_reference_format(self, rows, tmp_path):
        # a new file per example: rewriting one file can wait on the
        # file system to commit the previous write
        path = tmp_path / f"m{len(list(tmp_path.iterdir()))}.csv"
        write_metrics_csv(path, rows)
        expected = "".join(_reference_line(m) + "\n"
                           for m in MetricsTable(rows))
        assert path.read_bytes().decode("utf-8") == \
            METRICS_HEADER + "\n" + expected

    def test_numpy_number_rows_write_as_plain_number_rows(self, tmp_path):
        # numpy 2 reprs an np.float64 as "np.float64(...)", and every numpy
        # reprs an np.float32 by its shortest float32 digits
        typed = [PackageMetrics(
            np.int64(seq), np.int64(3), np.int64(40), np.float64(5.0),
            np.float32(0.1), np.float64(0.5), np.float32(1e5 / 3),
            np.float64(2.5), np.int64(seq), np.int64(0), np.float32(seq * 1.1),
            "timeout") for seq in range(3)]
        plain = [PackageMetrics(*(int(v) if isinstance(v, np.integer)
                                  else float(v) for v in m[:-1]),
                                m.emit_reason)
                 for m in typed]
        for kind, rows in (("typed", typed), ("plain", plain)):
            path = tmp_path / f"{kind}.csv"
            write_metrics_csv(path, rows)
            assert path.read_bytes() == _reference_csv(plain)

    @pytest.mark.parametrize("bad", [
        {"size": 2**63},          # outside int64
        {"drop_filter": 1.5},     # not an integer
        {"gamma": "0.5"},         # not a float
        {"emit_reason": "late"},  # not a reason _ROW codes
    ], ids=["int64-overflow", "float-count", "text-float", "unknown-reason"])
    def test_row_that_cannot_be_packed_raises_and_leaves_the_file(
            self, bad, tmp_path):
        good = PackageMetrics(0, 1, 2, 3.0, 1.0, 1.0, 2.0, 3.0, 0, 0, 4.0)
        path = tmp_path / "m.csv"
        path.write_text("old\n")
        (name, value), = bad.items()
        with pytest.raises(ValueError) as refused:
            write_metrics_csv(path, [good, good._replace(seq=1, **bad)])
        assert str(refused.value).startswith(
            f"metrics row 1: {name}={value!r} ")
        assert path.read_text() == "old\n"

    def test_row_of_another_length_is_refused_by_its_index(self):
        good = PackageMetrics(0, 1, 2, 3.0, 1.0, 1.0, 2.0, 3.0, 0, 0, 4.0)
        for row in (good[:5], (), good + ("size",)):
            with pytest.raises(ValueError, match=(
                    rf"^metrics row 2 has {len(row)} fields, not 12$")):
                MetricsTable([good, good, row])

    @given(rows=_plain_rows)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_writes_the_bytes_of_its_rows(self, rows, tmp_path):
        # the table and the list it was filled from, each against the
        # reference text of the rows
        table = MetricsTable(rows)
        assert len(table) == len(rows)
        expected = _reference_csv(rows)
        for kind, metrics in (("table", table), ("list", rows)):
            path = tmp_path / f"{kind}{len(list(tmp_path.iterdir()))}.csv"
            write_metrics_csv(path, metrics)
            assert path.read_bytes() == expected

    def _assert_table_writes_reference(self, rows, path):
        write_metrics_csv(path, MetricsTable(rows))
        assert path.read_text().splitlines() == \
            [METRICS_HEADER] + [_reference_line(m) for m in rows]

    def test_table_heads_repeat_after_the_cache_is_cleared(self, tmp_path):
        # more distinct size..lag_us heads than the cache keeps, then the
        # earliest heads again, each with its own seq and clock
        heads = [(n, 2 * n, n + 0.5, 0.5 - n)
                 for n in range(1, _HEAD_CACHE + 40)]
        heads += heads[:50] + heads[::-7]
        rows = [PackageMetrics(seq, *head, 1.0, 2.0, 3.0, 0, 0, seq * 1.1)
                for seq, head in enumerate(heads)]
        self._assert_table_writes_reference(rows, tmp_path / "m.csv")

    def test_table_without_repeated_heads_writes_the_bytes_of_its_rows(
            self, tmp_path):
        # every size..lag_us head differs, across more than the cache
        # keeps; runs of rows share a proc_us, then change its bits only
        nan = float("nan")
        payload_nan = struct.unpack("=d", struct.pack("=Q",
                                                      0x7FF8000000000001))[0]
        procs = [2.5, 2.5, 0.0, -0.0, -0.0, 0.0, nan, -nan, payload_nan, 7.0]
        rows = [PackageMetrics(seq, seq + 1, 2, procs[seq // 3 % len(procs)],
                               0.5 - seq, 1.0, 2.0, 3.0, 0, 0, seq * 1.1)
                for seq in range(2 * _HEAD_CACHE + 40)]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, MetricsTable(rows))
        assert path.read_bytes() == _reference_csv(rows)

    @pytest.mark.parametrize("n", [0, 1, _WRITE_BLOCK - 1, _WRITE_BLOCK,
                                   _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 1])
    def test_blocks_write_every_line_once(self, n, tmp_path):
        rows = [PackageMetrics(seq, 1 + seq % 3, 4, 2.5 + seq % 5, -1.5,
                               1.0, 2.0, 3.0, seq % 2, 0, seq * 1.1)
                for seq in range(n)]
        expected = _reference_csv(rows)
        for kind, metrics in (("table", MetricsTable(rows)), ("list", rows)):
            path = tmp_path / f"{kind}.csv"
            write_metrics_csv(path, metrics)
            assert path.read_bytes() == expected
        if not n:
            assert expected == (METRICS_HEADER + "\n").encode()

    def test_table_formats_equal_values_of_other_bits_apart(self, tmp_path):
        nan = float("nan")
        payload_nan = struct.unpack("=d", struct.pack("=Q",
                                                      0x7FF8000000000001))[0]
        rows = [PackageMetrics(seq, 3, 4, proc, lag, 1.0, rr, 2.0, 0, 0,
                               float(seq))
                for seq, (proc, lag, rr) in enumerate([
                    (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, 0.0),
                    (0.0, 0.0, -0.0), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
                    (nan, nan, nan), (-nan, -nan, -nan),
                    (payload_nan, nan, payload_nan), (nan, payload_nan, nan),
                    (-0.0, -0.0, -0.0)])]
        self._assert_table_writes_reference(rows, tmp_path / "m.csv")

    def test_table_is_written_without_building_rows(self, tmp_path,
                                                    monkeypatch):
        def no_rows(fields):
            raise AssertionError("a PackageMetrics row was built")

        monkeypatch.setattr(pipeline, "_unpacked", no_rows)
        with pytest.raises(AssertionError):
            MetricsTable(_rows_with_proc(1.0))[0]
        self._assert_table_writes_reference(
            _rows_with_proc(1.0, 2.5, -0.0, 2.5), tmp_path / "m.csv")

    def test_table_reads_as_the_list_it_was_filled_from(self):
        rows = _rows_with_proc(1.0, 2.5, -0.0)
        rows[2] = rows[2]._replace(emit_reason="timeout")
        table = MetricsTable(rows)
        assert len(table) == 3 and table and not MetricsTable()
        assert list(table) == rows and list(reversed(table)) == rows[::-1]
        assert [table[i] for i in range(-3, 3)] == rows + rows
        assert table[np.int64(1)] == rows[1]
        assert table[::-2] == rows[::-2] and table[5:] == []
        assert table.index(rows[2]) == 2 and rows[1] in table
        for i in (3, -4):
            with pytest.raises(IndexError):
                table[i]
        assert all(type(v) is float for m in table for v in m[3:8])

    def test_numpy_processing_times_are_written_as_floats(self, tmp_path):
        class NumpyTimes(_Recorder):
            def process(self, package, clock):
                return np.float64(super().process(package, clock))

        cfg = _config(consumer=ConsumerConfig(o_us=100, c_ns=100))
        paths = []
        for consumer in (NumpyTimes(), _Recorder()):
            result = run(cfg, ConstantRateSource(1e5, 0.05, seed=2), consumer)
            assert all(type(m.proc_us) is type(m.lag_us) is float
                       for m in result.metrics)
            paths.append(tmp_path / f"{len(paths)}.csv")
            write_metrics_csv(paths[-1], result.metrics)
        text = paths[0].read_text()
        assert "np." not in text and text == paths[1].read_text()

    @pytest.mark.parametrize("number", [float, np.float64])
    def test_a_consumer_reports_its_processing_time_as_a_number(
            self, tmp_path, number):
        # a consumer returns one number, the package's processing time:
        # one that converts the synthetic consumer's time to ``number``
        # runs as the synthetic consumer does on its own
        cfg = _config(packager=PackagerConfig(initial_size=23),
                      consumer=ConsumerConfig(o_us=20, c_ns=100, jitter=0.1))

        class Converting:
            inner = pipeline.build_consumer(cfg)

            def process(self, package, clock):
                return number(self.inner.process(package, clock))

        paths = []
        for consumer in (Converting(), None):
            result = run(cfg, ConstantRateSource(1e6, 0.05, seed=4), consumer)
            paths.append(tmp_path / f"{len(paths)}.csv")
            write_metrics_csv(paths[-1], result.metrics)
        assert len(result.metrics) > 500
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_hold_at_most_100_bytes_a_package(self):
        # the small_packages workload's consumer at 1e6 ev/s: N* ~ 23
        cfg = _config(packager=PackagerConfig(initial_size=23),
                      consumer=ConsumerConfig(o_us=20, c_ns=100))
        tracemalloc.start()
        try:
            result = run(cfg, ConstantRateSource(1e6, 0.5, seed=12))
            n = len(result.metrics)
            # what the run's result holds is what deleting it frees
            held = tracemalloc.get_traced_memory()[0]
            del result
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n >= 20_000
        assert held <= 100 * n, f"{held / n:.1f} bytes a package"

    @pytest.mark.parametrize("mode", ["virtual", "realtime"])
    def test_metrics_behave_as_a_list_of_rows(self, mode, tmp_path):
        cfg = _config(mode=mode,
                      packager=PackagerConfig(initial_size=200,
                                              timeout_us=20_000),
                      consumer=ConsumerConfig(o_us=100, c_ns=100))
        rec = _FeedbackRecorder()
        result = run(cfg, ConstantRateSource(1e5, 0.2, seed=11), rec)
        metrics = result.metrics
        n = len(metrics)
        assert n == len(rec.packages) > 3
        assert metrics[0].seq == 0 and metrics[-1].seq == n - 1
        assert metrics[-1] == metrics[n - 1]
        assert [m.seq for m in metrics[1:3]] == [1, 2]
        rows = list(metrics)
        assert len(rows) == n and rows[0] == metrics[0]
        for m, events, report in zip(rows, rec.packages, rec.reports):
            assert isinstance(m, PackageMetrics)
            for name in (*METRICS_COLUMNS, "emit_reason"):
                getattr(m, name)
            assert m.size == len(events)
            assert m.span_us == int(events["t"][-1] - events["t"][0])
            assert m.proc_us == report
            assert m.lag_us == m.proc_us - m.span_us
            assert m.gamma == 1.0 and m.drop_filter == m.drop_overflow == 0
            assert m.emit_reason in ("size", "timeout")
        if mode == "virtual":
            # size cuts, then the residual buffer flushes on its timeout
            assert (metrics[0].emit_reason, metrics[-1].emit_reason) == \
                ("size", "timeout")
        path = tmp_path / "m.csv"
        write_metrics_csv(path, metrics)
        assert path.read_text().splitlines()[1:] == \
            [_reference_line(m) for m in metrics]


class TestStagesCut:
    def test_cut_at_a_time_flushes_once_the_timeout_passed(self):
        cfg = _config(packager=PackagerConfig(initial_size=100,
                                              timeout_us=50),
                      input_buffer_capacity=4)
        stages = _Stages(cfg)
        # six events into room for four: two overflow drops pending
        stages.feed(_numbered(np.arange(10, 16)))
        pending = (stages._pending_filter, stages._pending_overflow)
        assert pending == (0, 2)
        clock = VirtualClock()
        # the oldest buffered event is at 12: its deadline is 62
        assert stages.cut(clock) is None
        assert stages.cut(clock, 61) is None
        assert (stages._pending_filter, stages._pending_overflow) == pending
        assert clock.now_us == 0.0 and stages.packaged_events == 0
        cut = stages.cut(clock, 62)
        assert (cut.reason, cut.trigger_us, cut.size) == ("timeout", 62, 4)
        assert clock.now_us == 62.0
        # emit_reason is stamped as the code the metrics table stores
        assert cut.stamp == stages._rates + pending + (
            62.0, _REASON_CODE["timeout"])
        assert (stages._pending_filter, stages._pending_overflow) == (0, 0)
        assert stages.packaged_events == 4
        assert stages.cut(clock, 10**9) is None


class TestRealtimeRun:
    def test_responsivity_bound(self):
        # every size cut must also respect the timeout deadline: no
        # package may span the timeout
        cfg = _config(mode="realtime",
                      packager=PackagerConfig(initial_size=200,
                                              timeout_us=10_000))
        result = run(cfg, ConstantRateSource(1e4, 0.3))
        assert result.metrics
        assert max(m.span_us for m in result.metrics) < 10_000
        assert result.conservation_holds()

    def test_smoke_conservation_and_metrics(self):
        # short wall-clock run; verifies pacing, order and totals
        cfg = _config(mode="realtime",
                      packager=PackagerConfig(initial_size=200,
                                              timeout_us=20_000),
                      consumer=ConsumerConfig(o_us=100, c_ns=100))
        ev = ConstantRateSource(1e5, 0.3, seed=9).events()
        result = run(cfg, ArraySource(ev, chunk_size=4096))
        assert result.conservation_holds()
        assert result.metrics
        seqs = [m.seq for m in result.metrics]
        assert seqs == sorted(seqs)

    def test_packages_are_not_cut_before_their_events_are_due(self):
        # pacing feeds each event once the wall clock reaches it, so no
        # package can reach the consumer before its newest event is due
        early = []

        class Pacing(_Recorder):
            def process(self, package, clock):
                early.append(int(package.events["t"][-1]) - clock.now_us)
                return super().process(package, clock)

        result = run(_config(mode="realtime"),
                     ConstantRateSource(1e3, 0.6), Pacing())
        assert len(early) == len(result.metrics) > 0
        assert max(early) <= 0
        assert result.conservation_holds()

    def test_consumer_exception_propagates(self):
        # a consumer that raises must end the run with its exception,
        # not leave the run pacing a stream nobody consumes
        class Boom(Exception):
            pass

        class Raising(_Recorder):
            def process(self, package, clock):
                if len(self.packages) == 2:
                    raise Boom("third package")
                return super().process(package, clock)

        outcome = []

        def call():
            try:
                run(_config(mode="realtime"), ConstantRateSource(1e4, 0.3),
                    Raising())
            except BaseException as exc:
                outcome.append(exc)

        runner = threading.Thread(target=call, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], Boom)

    @pytest.mark.parametrize("kind", ["synthetic", "clustering"])
    def test_every_report_is_applied_in_order(self, monkeypatch, kind):
        # each package's report reaches the controller before the next
        # cut, as in virtual mode: none is dropped, none applied late
        applied = []
        update = Packager.update_target_size

        def spy(self, seq, *report):
            applied.append(seq)
            return update(self, seq, *report)

        monkeypatch.setattr(Packager, "update_target_size", spy)
        cfg = _config(mode="realtime", consumer=ConsumerConfig(kind=kind))
        result = run(cfg, ConstantRateSource(1e5, 0.2, seed=3))
        assert len(result.metrics) > 10
        assert applied == [m.seq for m in result.metrics] == \
            list(range(len(result.metrics)))

    def test_realtime_logic_on_virtual_time(self, monkeypatch, tmp_path):
        # realtime mode's loop on a virtual clock is deterministic: the
        # same run twice writes the same bytes, and keeps the contracts
        # the wall clock would make timing-dependent
        monkeypatch.setattr(pipeline, "WallClock", VirtualClock)
        applied = []
        update = Packager.update_target_size

        def spy(self, seq, *report):
            applied.append(seq)
            return update(self, seq, *report)

        monkeypatch.setattr(Packager, "update_target_size", spy)
        cfg = _config(mode="realtime")
        csvs = []
        for name in ("a.csv", "b.csv"):
            inner, early = pipeline.build_consumer(cfg), []

            class Paced:
                def process(self, package, clock):
                    early.append(int(package.events["t"][-1]) - clock.now_us)
                    return inner.process(package, clock)

            applied.clear()
            result = run(cfg, ConstantRateSource(1e5, 1.0, seed=0), Paced())
            metrics = result.metrics
            assert result.conservation_holds()
            assert {m.emit_reason for m in metrics} == {"size", "timeout"}
            assert len(early) == len(metrics) and max(early) <= 0
            assert applied == [m.seq for m in metrics] == \
                list(range(len(metrics)))
            path = tmp_path / name
            write_metrics_csv(path, metrics)
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    def test_consumer_runs_in_the_calling_thread(self, monkeypatch):
        def refuse_start(thread):
            raise AssertionError("the realtime run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse_start)
        callers = []

        class Caller(_Recorder):
            def process(self, package, clock):
                callers.append(threading.current_thread())
                return super().process(package, clock)

        before = threading.active_count()
        result = run(_config(mode="realtime"), ConstantRateSource(1e4, 0.1),
                     Caller())
        assert threading.active_count() == before
        assert len(callers) == len(result.metrics) > 0
        assert set(callers) == {threading.current_thread()}


class _Chunks(StreamSource):
    """Source yielding the given chunks as they are, unvalidated."""

    def __init__(self, chunks):
        self._chunks = chunks

    def chunks(self):
        yield from self._chunks


def _numbered(t):
    """Events at times ``t`` whose pixel encodes their index."""
    i = np.arange(len(t))
    return make_events(t, i % 346, i // 346, np.ones(len(t)))


class TestOrderingContract:
    """The pipeline rejects every disordered stream, with gamma < 1, also
    where only events the filter drops are out of order."""

    @staticmethod
    def _cfg():
        # 1e6 ev/s against a = 1e5: gamma falls below 1 after one chunk
        return _config(gamma=GammaConfig(a_evps=1e5))

    def _first(self):
        return _numbered(np.arange(0, 2000))

    def _run(self, second):
        return run(self._cfg(), _Chunks([self._first(), second]))

    def test_chunk_that_decreases_inside(self):
        t = np.arange(2000, 4000)
        t[1000:] -= 5
        with pytest.raises(OrderingError, match="non-decreasing"):
            self._run(_numbered(t))

    def test_chunk_that_starts_before_the_previous_one_ends(self):
        with pytest.raises(OrderingError, match="before the newest"):
            self._run(_numbered(np.arange(1998, 3998)))

    def test_disorder_only_among_dropped_events(self):
        cfg = self._cfg()
        t = np.arange(2000, 4000)
        # replay the filter on the ordered chunk to learn what it drops
        gfilter = GammaFilter(cfg.gamma, seed=cfg.seed)
        gfilter.process(self._first())
        assert gfilter.gamma < 1.0
        kept, _ = copy.deepcopy(gfilter).process(_numbered(t))
        dropped = np.ones(len(t), dtype=bool)
        dropped[kept["x"] + 346 * kept["y"].astype(np.int64)] = False
        i = int(np.flatnonzero(dropped[:-1] & dropped[1:])[0])
        # swapping two adjacent dropped events changes neither the count
        # in the window nor the newest timestamp, so the same events are
        # dropped and the kept ones stay ordered
        t[i], t[i + 1] = t[i + 1], t[i]
        assert not np.count_nonzero(np.diff(t[~dropped]) < 0)
        with pytest.raises(OrderingError, match="non-decreasing"):
            self._run(_numbered(t))

    def test_empty_chunks_change_nothing(self, tmp_path):
        # an empty chunk carries no event: the run must be the same
        # without it, byte for byte
        ev = ConstantRateSource(1e6, 0.05, seed=5).events()
        chunks = [ev[i:i + 4096] for i in range(0, len(ev), 4096)]
        empty = ev[:0]
        padded = [c for chunk in chunks for c in (empty, chunk, empty)]
        csvs = []
        for source in (_Chunks(chunks), _Chunks(padded)):
            result = run(_config(gamma=GammaConfig(a_evps=3e5)), source)
            assert result.dropped_by_filter > 0
            csvs.append(tmp_path / f"{len(csvs)}.csv")
            write_metrics_csv(csvs[-1], result.metrics)
        assert csvs[0].read_bytes() == csvs[1].read_bytes()


class TestVouchedOrder:
    """An ``ArraySource``, whose order the pipeline does not scan again,
    runs as the same chunks from a source it checks."""

    @given(gaps=st.lists(st.integers(min_value=0, max_value=20),
                         min_size=1, max_size=1500),
           chunk=st.integers(min_value=1, max_value=2000),
           a_evps=st.sampled_from([2e4, 1e5, 1e12]),
           capacity=st.integers(min_value=1, max_value=1000),
           target=st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_same_metrics_as_a_checked_source(self, tmp_path, gaps, chunk,
                                              a_evps, capacity, target):
        ev = _numbered(np.cumsum(np.asarray(gaps, dtype=np.int64)))
        # a small buffer: drop-oldest admission slices the kept_t views
        cfg = _config(gamma=GammaConfig(a_evps=a_evps),
                      packager=PackagerConfig(initial_size=target,
                                              timeout_us=2_000),
                      input_buffer_capacity=capacity)
        vouched = ArraySource(ev, chunk_size=chunk)
        checked = _Chunks([ev[i:i + chunk] for i in range(0, len(ev), chunk)])
        assert vouched.ordered and not checked.ordered
        outcomes = []
        for name, source in (("vouched", vouched), ("checked", checked)):
            result = run(cfg, source)
            path = tmp_path / f"{name}.csv"
            write_metrics_csv(path, result.metrics)
            totals = dataclasses.asdict(result)
            del totals["metrics"]
            outcomes.append((path.read_bytes(), totals))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("mode", ["virtual", "realtime"])
    def test_only_an_ordered_source_skips_the_scan(self, monkeypatch, mode):
        seen = []
        process = GammaFilter.process

        def spy(self, events, **kwargs):
            seen.append(kwargs)
            return process(self, events, **kwargs)

        monkeypatch.setattr(GammaFilter, "process", spy)
        ev = _numbered(np.arange(0, 3000, 3))
        for source, checked in ((ArraySource(ev, chunk_size=300), True),
                                (_Chunks([ev[:500], ev[500:]]), False)):
            seen.clear()
            run(_config(mode=mode), source)
            assert seen and all(kw == {"checked": checked} for kw in seen)


def _drain_keys(packager):
    keys = []
    while (cut := packager.next_emission()) is not None:
        keys.append((cut.seq, cut.reason, cut.trigger_us, cut.span_us,
                     cut.events.tobytes()))
    return keys


def _kept_rate(kept, window_us):
    """The post-filter rate after the ordered timestamps ``kept``, counted
    from scratch over the window ending at the newest of them."""
    t = np.asarray(kept, dtype=np.int64)
    if t.size == 0:
        return 0.0
    return int(np.sum(t >= t[-1] - window_us)) / (window_us / 1e6)


class TestSharedTimestamps:
    @given(gaps=st.lists(st.integers(min_value=0, max_value=40),
                         max_size=300),
           cuts=st.lists(st.integers(min_value=0, max_value=300)),
           a_evps=st.sampled_from([2e4, 1e5, 1e12]),
           capacity=st.integers(min_value=1, max_value=40),
           target=st.integers(min_value=1, max_value=50),
           back=st.integers(min_value=1, max_value=50))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_plain_append(self, gaps, cuts, a_evps, capacity, target,
                                 back):
        # feeding the packager the filter's checked timestamps must give
        # the buffer and cuts of appending the kept events alone, at the
        # rate counted from scratch over them, with the filter discarding
        # or not and admission trimming batches
        t = np.cumsum(np.asarray(gaps, dtype=np.int64))
        ev = make_events(t, np.zeros(len(t)), np.zeros(len(t)),
                         np.ones(len(t)))
        cfg = _config(gamma=GammaConfig(a_evps=a_evps, rate_window_us=100),
                      packager=PackagerConfig(initial_size=target,
                                              timeout_us=150),
                      input_buffer_capacity=capacity)
        stages = _Stages(cfg)
        shared = stages.packager
        ref_filter = GammaFilter(cfg.gamma, seed=cfg.seed)
        ref = Packager(cfg.packager)
        appended = []
        edges = sorted({0, len(ev), *(c for c in cuts if c <= len(ev))})
        for lo, hi in zip(edges, edges[1:]):
            stages.feed(ev[lo:hi])
            kept, _ = ref_filter.process(ev[lo:hi])
            excess = ref.buffered + len(kept) - capacity
            if excess > 0:
                kept = kept[excess - ref.drop_oldest(excess):]
            appended += kept["t"].tolist()
            rate = _kept_rate(appended, 100)
            ref.append(kept, rate_evps=rate)
            assert stages._rates[2] == rate
            assert (shared._rate_evps, shared.buffered) == \
                (ref._rate_evps, ref.buffered)
            assert _drain_keys(shared) == _drain_keys(ref)
        if not appended:
            return
        # a batch starting before the newest appended event still raises
        # on the shared path and leaves no trace
        newest = appended[-1]
        stale = np.asarray([newest - back, newest + 1], dtype=np.int64)
        before = (shared._rate_evps, shared.buffered)
        with pytest.raises(OrderingError, match="before the newest"):
            shared.append(_numbered(stale), t=stale, rate_evps=1e6)
        assert (shared._rate_evps, shared.buffered) == before
        later = np.asarray([newest, newest + 1], dtype=np.int64)
        shared.append(_numbered(later), t=later, rate_evps=1e6)
        ref.append(_numbered(later), rate_evps=1e6)
        assert (shared._rate_evps, shared.buffered) == \
            (ref._rate_evps, ref.buffered)
        assert _drain_keys(shared) == _drain_keys(ref)


class TestFollowedRateWindow:
    """While every batch in the rate window reached the packager whole,
    the window's kept side takes the raw side's count. After every batch
    the post-filter rate must be the one counted from scratch over the
    events appended to the packager."""

    @staticmethod
    def _feed(cfg, batches):
        """Run ``batches`` through the stages and the delivery loop as a
        virtual run does, checking the post-filter rate after each feed;
        returns the metrics and the stages."""
        stages = _Stages(cfg)
        packager = stages.packager
        append, appended = packager.append, []

        def recorded(events, **kwargs):
            append(events, **kwargs)
            appended.extend(events["t"].tolist())

        packager.append = recorded
        clock, metrics = VirtualClock(), MetricsTable()
        deliver = pipeline._delivery(stages, pipeline.build_consumer(cfg),
                                     clock, metrics)
        for batch in batches:
            stages.feed(batch)
            if len(batch):
                assert stages._rates[2] == _kept_rate(
                    appended, cfg.gamma.rate_window_us)
            deliver(stages.cut(clock))
        oldest = packager.oldest_arrival_us
        if oldest is not None:
            deliver(stages.cut(clock, oldest + cfg.packager.timeout_us))
        return metrics, stages

    @given(gaps=st.lists(st.integers(min_value=0, max_value=20),
                         max_size=600),
           cuts=st.lists(st.integers(min_value=0, max_value=600)),
           a_evps=st.one_of(st.sampled_from([2e4, 1e5, 1e12]),
                            st.floats(min_value=1e4, max_value=1e7)),
           capacity=st.integers(min_value=1, max_value=300),
           window=st.integers(min_value=1, max_value=500),
           target=st.integers(min_value=1, max_value=100))
    # two events at 5, the first cut off by admission, stay in the raw
    # window of the event at 15, where the kept window holds only one
    @example(gaps=[5, 0, 10], cuts=[2], a_evps=1e12, capacity=1, window=10,
             target=1)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rate_equals_counting_for_any_split(self, gaps, cuts, a_evps,
                                                capacity, window, target):
        # repeated edges make empty batches, adjacent ones single events
        ev = _numbered(np.cumsum(np.asarray(gaps, dtype=np.int64)))
        edges = sorted([0, len(ev), *(c for c in cuts if c <= len(ev))])
        cfg = _config(gamma=GammaConfig(a_evps=a_evps, rate_window_us=window),
                      packager=PackagerConfig(initial_size=target,
                                              timeout_us=300),
                      consumer=ConsumerConfig(o_us=50.0, c_ns=500.0),
                      input_buffer_capacity=capacity)
        self._feed(cfg, [ev[lo:hi] for lo, hi in zip(edges, edges[1:])])

    def test_a_batch_cut_at_its_head_is_counted(self):
        # the first batch overflows the buffer by its own head, which the
        # raw window holds and the kept window does not: the kept rate
        # differs from the raw one until that batch left the window
        ev = ConstantRateSource(1e6, 0.05, seed=0).events()
        cfg = _config(packager=PackagerConfig(initial_size=100),
                      consumer=ConsumerConfig(o_us=100.0, c_ns=100.0),
                      input_buffer_capacity=1000)
        batches = [ev[:5000]] + [ev[i:i + 100]
                                 for i in range(5000, len(ev), 100)]
        metrics, stages = self._feed(cfg, batches)
        assert (stages.dropped_by_filter, stages.dropped_by_overflow) == \
            (0, 4000)
        assert len(metrics) == 580
