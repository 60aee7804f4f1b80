"""Adaptive packager: cut rules, timeout, cost model, size control."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asap_stream import (EVENT_DTYPE, AffineCostModel, ConfigurationError,
                         OrderingError, Packager, PackagerConfig,
                         SlidingRateEstimator, make_events, predict_size)
from asap_stream.packager import MODEL_WARMUP_SAMPLES


def _events_at(timestamps):
    n = len(timestamps)
    return make_events(timestamps, np.zeros(n), np.zeros(n), np.ones(n))


class _Measured(Packager):
    """A packager handed the rate of the events appended to it, measured
    by a :class:`SlidingRateEstimator`, as a pipeline hands it the rate
    of the events its filter kept."""

    def __init__(self, config, window_us=10_000):
        super().__init__(config)
        self.window = SlidingRateEstimator(window_us)

    def append(self, events):
        super().append(events, rate_evps=self.window.update(events["t"]))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_min=0), dict(n_min=10, n_max=5), dict(timeout_us=0),
        dict(model_smoothing=0),
        dict(headroom=0.9), dict(initial_size=0), dict(model_smoothing=1)])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError) as err:
            PackagerConfig(**kwargs).validate()
        # the message names the key the error carries
        assert err.value.key.startswith("packager.")
        assert err.value.key in str(err.value)


class TestPredictSize:
    def test_fixed_point_2000(self):
        # o + c*N = N/R with R=1e6, o=1ms, c=0.5us -> N* = 2000
        assert predict_size(1e6, 1e-3, 5e-7, 1, 1_000_000) == 2000

    def test_zero_overhead_gives_n_min(self):
        assert predict_size(1e6, 0.0, 1e-7, 4, 1_000_000) == 4

    def test_saturation_returns_n_max(self):
        # c = 2us >= 1/R = 1us: no size keeps up
        assert predict_size(1e6, 1e-3, 2e-6, 1, 1_000_000) == 1_000_000

    def test_clamped_to_n_max(self):
        assert predict_size(1e6, 10.0, 5e-7, 1, 5000) == 5000

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            predict_size(0.0, 1e-3, 5e-7, 1, 100)


class TestAffineCostModel:
    def test_recovers_exact_affine_costs(self):
        model = AffineCostModel(smoothing=0.2)
        rng = np.random.default_rng(0)
        for size in rng.integers(100, 5000, size=50):
            model.update(int(size), 1000.0 + 0.5 * int(size))
        assert model.ready
        assert model.overhead_us == pytest.approx(1000.0, rel=0.01)
        assert model.per_event_us == pytest.approx(0.5, rel=0.01)

    def test_settled_once_a_fold_moves_no_moment_past_the_warmup(self):
        model = AffineCostModel(smoothing=0.5)
        settled = []
        for _ in range(MODEL_WARMUP_SAMPLES + 2):
            model.update(100, 70.0)
            settled.append(model.settled)
        # the moments hold from the second fold on
        assert settled == [False] * MODEL_WARMUP_SAMPLES + [True, True]
        model.update(100, 70.5)
        assert not model.settled

    def test_not_ready_before_warmup(self):
        model = AffineCostModel()
        model.update(100, 1050.0)
        model.update(200, 1100.0)
        assert not model.ready

    def test_constant_sizes_keep_last_fit(self):
        model = AffineCostModel(smoothing=0.2)
        for size in (100, 200, 300, 400, 500):
            model.update(size, 1000.0 + 0.5 * size)
        for _ in range(200):
            model.update(500, 1250.0)  # size variance decays to zero
        # the degenerate-variance guard keeps the fit from blowing up
        assert model.overhead_us == pytest.approx(1000.0, rel=0.01)
        assert model.per_event_us == pytest.approx(0.5, rel=0.05)


#: A ``check_timeout`` time past every deadline: flushes any residual.
_NEVER = 2**62


def _drain(packager):
    out = []
    while (em := packager.next_emission()) is not None:
        out.append(em)
    return out


class TestAppendAndCut:
    def test_250_events_two_packages_of_100(self):
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=10_000))
        p.append(_events_at(np.arange(250)))
        packages = [em.package for em in _drain(p)]
        assert [pkg.size for pkg in packages] == [100, 100]
        assert p.buffered == 50
        assert [pkg.seq for pkg in packages] == [0, 1]

    def test_append_nothing_is_noop(self):
        p = Packager(PackagerConfig(initial_size=100))
        p.append(_events_at([]), rate_evps=1e6)
        assert p.next_emission() is None
        assert p.buffered == 0
        assert p._rate_evps is None

    def test_partition_identity(self):
        p = _Measured(PackagerConfig(initial_size=64, timeout_us=1_000_000))
        ev = _events_at(np.arange(1000))
        out = []
        for i in range(0, 1000, 170):
            p.append(ev[i:i + 170])
            out.extend(em.package.events for em in _drain(p))
        out.append(p.check_timeout(_NEVER).events)
        assert np.array_equal(np.concatenate(out), ev)
        assert p.buffered == 0

    def test_out_of_order_rejected(self):
        p = Packager(PackagerConfig(initial_size=100))
        p.append(_events_at([10, 20]), rate_evps=1.0)
        with pytest.raises(OrderingError, match="before the newest"):
            p.append(_events_at([5]), rate_evps=2.0)
        with pytest.raises(OrderingError, match="non-decreasing"):
            p.append(_events_at([30, 25]), rate_evps=2.0)
        assert (p.buffered, p._rate_evps) == (2, 1.0)


class TestCheckTimeout:
    def test_idle_buffer_flushes(self):
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=10_000))
        p.append(_events_at([0, 5, 9]))
        pkg = p.check_timeout(now_us=10_000)
        assert pkg is not None and pkg.size == 3
        assert p.buffered == 0

    def test_empty_buffer_never_flushes(self):
        p = Packager(PackagerConfig(initial_size=100, timeout_us=10_000))
        assert p.check_timeout(now_us=10**9) is None

    def test_just_below_timeout_no_flush(self):
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=10_000))
        p.append(_events_at([0]))
        assert p.check_timeout(now_us=9_999) is None


class TestNextEmission:
    def test_size_cut_when_target_reached_in_time(self):
        p = _Measured(PackagerConfig(initial_size=10, timeout_us=10_000))
        p.append(_events_at(np.arange(25)))
        em = p.next_emission()
        assert em.reason == "size" and em.package.size == 10
        em = p.next_emission()
        assert em.reason == "size" and em.package.size == 10
        assert p.next_emission() is None and p.buffered == 5

    def test_timeout_cut_when_deadline_passes_first(self):
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=1_000))
        # 3 events, then a gap past the deadline of the first
        p.append(_events_at([0, 10, 20, 5_000]))
        em = p.next_emission()
        assert em.reason == "timeout"
        assert em.package.size == 3
        assert em.trigger_us == 1_000
        assert p.buffered == 1


class TestChunkInvariance:
    @given(gaps=st.lists(st.integers(min_value=0, max_value=400),
                         max_size=300),
           cuts=st.lists(st.integers(min_value=0, max_value=300)),
           target=st.integers(min_value=1, max_value=40),
           timeout=st.integers(min_value=1, max_value=2_000))
    @settings(max_examples=200, deadline=None)
    def test_cuts_independent_of_chunking(self, gaps, cuts, target, timeout):
        # with a fixed target (no feedback), how the events arrive must
        # not change which packages are cut, why, or when
        ev = _events_at(np.cumsum(np.asarray(gaps, dtype=np.int64)))
        cfg = PackagerConfig(initial_size=target, timeout_us=timeout)
        whole = _Measured(cfg)
        whole.append(ev)
        expected = _drain(whole)

        split = _Measured(cfg)
        got = []
        edges = sorted({0, len(ev), *(c for c in cuts if c <= len(ev))})
        for lo, hi in zip(edges, edges[1:]):
            split.append(ev[lo:hi])
            got.extend(_drain(split))
        assert [(e.reason, e.trigger_us, e.package.seq) for e in got] == \
            [(e.reason, e.trigger_us, e.package.seq) for e in expected]
        for a, b in zip(got, expected):
            assert np.array_equal(a.package.events, b.package.events)
        # the packages and the residual buffer reassemble the input
        parts = [e.package.events for e in got]
        if (rest := split.check_timeout(_NEVER)) is not None:
            parts.append(rest.events)
        assert np.array_equal(np.concatenate([ev[:0], *parts]), ev)


def _emission_key(em):
    if em is None:
        return None
    return em.reason, em.trigger_us, em.package.seq, em.package.events.tobytes()


#: One appended batch: gaps between its timestamps, the offset of its
#: first timestamp from the newest appended one, where (if anywhere) a
#: decrease is injected, and what happens to the buffer afterwards.
_batches = st.lists(st.tuples(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
    st.integers(min_value=-30, max_value=60),
    st.one_of(st.none(), st.integers(min_value=0, max_value=18)),
    st.sampled_from(["keep", "drain", "flush"])), max_size=25)


class TestAppendOrder:
    @given(batches=_batches, target=st.integers(min_value=1, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_rejects_exactly_the_disordered_batches(self, batches, target):
        # a batch must be rejected exactly when it decreases or starts
        # before the newest appended timestamp, also once cuts emptied
        # the buffer, and a rejected batch must leave no trace; each
        # batch is handed its own length as its rate
        cfg = PackagerConfig(initial_size=target, timeout_us=200)
        p, ref = Packager(cfg), Packager(cfg)
        newest = None
        for gaps, offset, decrease_at, then in batches:
            t = (100 if newest is None else newest) + offset + np.cumsum(
                np.asarray([0, *gaps[1:]], dtype=np.int64))
            if decrease_at is not None and decrease_at + 1 < len(t):
                k = decrease_at + 1
                t[k:] -= t[k] - t[k - 1] + 1
            bad = bool((t[1:] < t[:-1]).any()) or (
                newest is not None and t[0] < newest)
            before = (p.buffered, p._rate_evps)
            rate = float(len(t))
            if bad:
                with pytest.raises(OrderingError):
                    p.append(_events_at(t), rate_evps=rate)
                assert (p.buffered, p._rate_evps) == before
            else:
                p.append(_events_at(t), rate_evps=rate)
                ref.append(_events_at(t), rate_evps=rate)
                newest = int(t[-1])
            assert (p.buffered, p._rate_evps) == \
                (ref.buffered, ref._rate_evps)
            assert _emission_key(p.next_emission()) == \
                _emission_key(ref.next_emission())
            if then == "drain":
                assert [_emission_key(em) for em in _drain(p)] == \
                    [_emission_key(em) for em in _drain(ref)]
            elif then == "flush":
                _drain(p), _drain(ref)
                p.check_timeout(_NEVER), ref.check_timeout(_NEVER)
                assert p.buffered == ref.buffered == 0

    @pytest.mark.parametrize("aligned_first", [True, False])
    def test_batches_of_another_dtype_reassemble(self, aligned_first):
        # a package that spans batches takes the dtype of its first
        # batch, and rows of another dtype are copied into it field by
        # field; the packages must still hold exactly the appended rows
        aligned = np.dtype(EVENT_DTYPE.descr, align=True)
        assert aligned != EVENT_DTYPE
        rng = np.random.default_rng(3)
        ev = make_events(np.arange(600), rng.integers(0, 346, 600),
                         rng.integers(0, 260, 600), rng.choice([-1, 1], 600))
        p = _Measured(PackagerConfig(initial_size=70, timeout_us=10**9))
        parts = []
        # packages inside one batch, spanning two of either dtype, and
        # spanning several
        for i, (lo, hi) in enumerate([(0, 100), (100, 150), (150, 170),
                                      (170, 400), (400, 410), (410, 600)]):
            batch = ev[lo:hi]
            if (i % 2 == 0) == aligned_first:
                batch = batch.astype(aligned)
            p.append(batch)
            parts.extend(em.package.events for em in _drain(p))
        if (rest := p.check_timeout(_NEVER)) is not None:
            parts.append(rest.events)
        for name in EVENT_DTYPE.names:
            got = np.concatenate([part[name] for part in parts])
            assert np.array_equal(got, ev[name])


class TestViewSafety:
    def test_emitted_packages_survive_later_buffer_operations(self):
        # a consumer may keep a package it was handed while appends go
        # on, so a package must keep its events whatever the buffer does
        # next: views of a batch, packages spanning batches, drops
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=10**9))
        held = []

        def keep(events):
            held.append((events, events.copy()))

        p.append(_events_at(np.arange(0, 300)))
        for _ in range(2):
            keep(p.next_emission().package.events)
        p.append(_events_at(np.arange(300, 320)))    # a second batch
        p.append(_events_at(np.arange(320, 330)))    # and a third
        keep(p.next_emission().package.events)
        p.append(_events_at(np.arange(330, 450)))
        for em in _drain(p):
            keep(em.package.events)
        assert p.drop_oldest(5) == 5
        p.append(_events_at(np.arange(450, 460)))
        keep(p.check_timeout(_NEVER).events)
        p.append(_events_at(np.arange(460, 600)))
        keep(p.next_emission().package.events)
        p.append(_events_at(np.arange(600, 700)))
        p.drop_oldest(10**6)
        p.append(_events_at(np.arange(700, 900)))
        for events, snapshot in held:
            assert np.array_equal(events, snapshot)

    def test_a_package_inside_one_batch_is_a_view_of_it(self):
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=10**9))
        first, second = _events_at(np.arange(150)), _events_at(
            np.arange(150, 300))
        p.append(first)
        p.append(second)
        inside = p.next_emission().package.events          # 0..99
        spanning = p.next_emission().package.events        # 100..199
        assert np.shares_memory(inside, first)
        assert not np.shares_memory(spanning, first)
        assert not np.shares_memory(spanning, second)
        assert np.array_equal(spanning,
                              np.concatenate([first[100:], second[:50]]))

    def test_append_does_not_write_into_the_callers_array(self):
        p = _Measured(PackagerConfig(initial_size=100, timeout_us=10**9))
        source = _events_at(np.arange(1000))
        snapshot = source.copy()
        for lo in range(0, 1000, 70):
            p.append(source[lo:lo + 70])
            _drain(p)
        assert np.array_equal(source, snapshot)


class TestDropOldest:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                          max_size=20),
           target=st.integers(min_value=1, max_value=50),
           drop_after=st.integers(min_value=0, max_value=19),
           k=st.integers(min_value=0, max_value=400))
    @settings(max_examples=200, deadline=None)
    def test_drops_the_oldest_across_batch_edges(self, sizes, target,
                                                 drop_after, k):
        # batches of random sizes, drained after each append, and one
        # drop at a random point: the packages and the dropped events
        # rebuild the input, and the dropped ones are the k oldest
        # buffered then, whichever batches they lie in
        ev = _events_at(np.arange(sum(sizes)))
        p = _Measured(PackagerConfig(initial_size=target, timeout_us=10**9))
        parts, appended, out = [], 0, 0
        for i, size in enumerate(sizes):
            p.append(ev[appended:appended + size])
            appended += size
            for em in _drain(p):
                parts.append(em.package.events)
                out += em.package.size
            if i == min(drop_after, len(sizes) - 1):
                assert out + p.buffered == appended
                n = p.drop_oldest(k)
                assert n == min(k, appended - out)
                assert p.buffered == appended - out - n
                parts.append(ev[out:out + n])
                out += n
                if p.buffered:
                    assert p.oldest_arrival_us == out   # t is the index
        if (rest := p.check_timeout(_NEVER)) is not None:
            parts.append(rest.events)
        assert p.buffered == 0
        assert np.array_equal(np.concatenate(parts), ev)


class _SolveEveryTime:
    """Reference size control: folds each new report into its own fit
    and solves ``N*`` again on every one while the fit is ready."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.model = AffineCostModel(cfg.model_smoothing)
        self.target = float(min(cfg.n_max, max(cfg.n_min, cfg.initial_size)))
        self.newest = -1

    @property
    def target_size(self):
        return round(self.target)

    def update(self, seq, size, span, proc, rate_evps):
        if seq <= self.newest:
            return
        self.newest = seq
        ready = self.model.update(size, proc)
        cfg = self.cfg
        if proc == span:
            return
        if ready and rate_evps:
            target = cfg.headroom * predict_size(
                rate_evps, self.model.overhead_us / 1e6,
                self.model.per_event_us / 1e6, cfg.n_min, cfg.n_max)
        elif span > 0 and proc > 0:
            target = self.target * (span / proc) ** 0.5
        else:
            return
        self.target = min(cfg.n_max, max(cfg.n_min, target))


def _assert_controls_alike(p, ref):
    """The packager's target and cost model are those of ``ref``."""
    assert p.target_size == ref.target_size
    fields = ("_m_s", "_m_p", "_m_ss", "_m_sp", "overhead_us", "per_event_us",
              "ready", "samples")
    assert ([getattr(p.model, f) for f in fields]
            == [getattr(ref.model, f) for f in fields])


def _run_control(ops, smoothing):
    """Apply ``ops`` (see the tests below) to a packager and to the
    reference, comparing their control after every report."""
    # a 100 µs rate window: a few dozen appended events give rates of
    # up to ~1e6 ev/s, where N* lies between the bounds
    cfg = PackagerConfig(n_min=4, n_max=400, initial_size=50,
                         model_smoothing=smoothing)
    p = _Measured(cfg, window_us=100)
    ref = _SolveEveryTime(cfg)
    t, newest = 0, -1
    for op in ops:
        if op[0] == "append":
            _, n, gap = op
            p.append(_events_at(t + gap * np.arange(n)))
            t += gap * n
            continue
        _, step, size, span, proc, repeat = op
        if proc == "span":
            proc = float(span)
        elif isinstance(proc, tuple):
            proc = max(0.0, proc[0] + proc[1] * size)
        for seq in range(newest + step, newest + step + repeat):
            p.update_target_size(seq, size, span, proc)
            ref.update(seq, size, span, proc, p._rate_evps)
            newest = max(newest, seq)
            _assert_controls_alike(p, ref)


class TestUpdateTargetSize:
    def test_setpoint_leaves_target_unchanged(self):
        p = Packager(PackagerConfig(initial_size=500))
        p.update_target_size(0, 500, 700, 700.0)
        assert p.target_size == 500

    def test_fallback_scales_by_the_root_of_span_over_proc(self):
        # before the model is ready: 400 * (500 / 1000) ** 0.5 = 282.8
        p = Packager(PackagerConfig(initial_size=400))
        p.update_target_size(0, 400, 500, 1000.0)
        assert p.target_size == 283

    def test_stale_feedback_ignored(self):
        p = Packager(PackagerConfig(initial_size=400))
        p.update_target_size(5, 400, 500, 1000.0)
        before = p.target_size
        p.update_target_size(3, 400, 500, 4000.0)
        assert p.target_size == before

    def test_zero_span_feeds_model_but_skips_fallback(self):
        p = Packager(PackagerConfig(initial_size=400))
        p.update_target_size(0, 400, 0, 1000.0)
        assert p.target_size == 400
        assert p.model.samples == 1

    def test_rejected_report_leaves_its_seq_unused(self):
        # a report that fails validation must change nothing: the valid
        # report with the same seq that follows is applied
        p = Packager(PackagerConfig(initial_size=400))
        with pytest.raises(ValueError):
            p.update_target_size(0, 0, 500, 1000.0)
        p.update_target_size(0, 400, 500, 1000.0)
        assert p.model.samples == 1
        assert p.target_size == 283

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("field", ["span_us", "processing_time_us"])
    def test_non_finite_report_rejected(self, field, bad):
        # after a warm-up that readies the model, a non-finite report
        # must raise and leave the fit and the target as they were
        p = _Measured(PackagerConfig(initial_size=100))
        p.append(_events_at(np.arange(0, 10_000, 2)))
        for seq, size in enumerate((100, 200, 300, 400, 500, 600)):
            p.update_target_size(seq, size, 2 * size, 20.0 + 0.5 * size)
        assert p.model.ready
        before = (p.model.samples, p.model.overhead_us,
                  p.model.per_event_us, p.target_size)
        report = dict(seq=6, size=300, span_us=600, processing_time_us=170.0)
        report[field] = bad
        with pytest.raises(ValueError, match="finite"):
            p.update_target_size(**report)
        assert (p.model.samples, p.model.overhead_us,
                p.model.per_event_us, p.target_size) == before

    def test_the_solve_uses_the_rate_of_the_last_append(self):
        # a fit of o = 1000 µs, c = 0.1 µs, ready before any rate is known
        cfg = PackagerConfig(initial_size=100)
        p = Packager(cfg)
        sizes = (100, 200, 300, 400, 500)
        for seq, size in enumerate(sizes):
            p.update_target_size(seq, size, 2 * size, 1000.0 + 0.1 * size)
        assert p.model.ready
        p.append(_events_at([0, 1, 2]), rate_evps=1e6)
        p.append(_events_at([3, 4]), rate_evps=2e6)
        p.update_target_size(len(sizes), 300, 600, 1030.0)
        lo, hi = cfg.n_min, cfg.n_max
        n = cfg.headroom * predict_size(2e6, p.model.overhead_us / 1e6,
                                        p.model.per_event_us / 1e6, lo, hi)
        assert p.target_size == round(min(hi, max(lo, n)))
        # N* is 2500 at 2e6 ev/s, against 1111 at the first append's rate
        assert p.target_size == round(1.05 * 2500)

    @given(feedbacks=st.lists(
        st.tuples(st.integers(min_value=1, max_value=10**6),
                  st.integers(min_value=0, max_value=10**7),
                  st.floats(min_value=0, max_value=1e9)),
        max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_clamping_under_adversarial_feedback(self, feedbacks):
        p = Packager(PackagerConfig(n_min=16, n_max=4096, initial_size=100))
        for seq, (size, span, proc) in enumerate(feedbacks):
            p.update_target_size(seq, size, span, proc)
            assert 16 <= p.target_size <= 4096

    @given(ops=st.lists(st.one_of(
        # an append of ``n`` events ``gap`` µs apart moves the rate
        st.tuples(st.just("append"), st.integers(1, 40),
                  st.integers(0, 2) | st.integers(0, 30)),
        # ``repeat`` reports with seqs one apart, starting ``step`` after
        # the newest (stale at or below 0); a few sizes, so that the fit
        # can hold still. proc is at the setpoint, random, or on a line
        # ``o + c*size``: a negative ``o`` fits as 0, and a ``c`` beyond
        # the event period saturates the solve
        st.tuples(st.just("report"), st.integers(-2, 2),
                  st.sampled_from([8, 23, 64]) | st.integers(1, 500),
                  st.integers(0, 2000),
                  st.sampled_from(["span", (20.0, 0.1), (-1.0, 0.5),
                                   (-1.0, 1.5)]) | st.floats(0, 1e4),
                  st.integers(1, 6))), max_size=40),
        # a fast gain lets a few reports of one size freeze the fit, so
        # that the rate alone moves between solves
        smoothing=st.sampled_from([0.2, 0.99]))
    # warm-up on two sizes, one size until the fit freezes, then only the
    # rate moves before the last report
    @example(ops=[("append", 40, 1), ("report", 1, 8, 10, (20.0, 0.1), 3),
                  ("report", 1, 64, 70, (20.0, 0.1), 3),
                  ("report", 1, 8, 10, (20.0, 0.1), 6), ("append", 10, 2),
                  ("report", 1, 8, 10, (20.0, 0.1), 1)], smoothing=0.99)
    # a rate near 1e6 ev/s and costs whose ``o`` fits as 0 throughout:
    # only ``c`` moves, across the 1 µs event period
    @example(ops=[("append", 40, 1)] * 3
             + [("report", 1, size, 10, (-1.0, 1.5), 1)
                for size in (8, 64, 8, 64, 8, 64)]
             + [("report", 1, size, 10, (-1.0, 0.5), 1) for size in (8, 64)],
             smoothing=0.99)
    # the same rate and costs falling with size, whose ``c`` fits as 0
    # throughout: only ``o`` moves
    @example(ops=[("append", 40, 1)] * 3
             + [("report", 1, size, 10, proc, 1) for size, proc in
                [(8, 100.0), (64, 10.0)] * 3 + [(8, 300.0)]],
             smoothing=0.99)
    @settings(max_examples=200, deadline=None)
    def test_target_equals_a_solve_on_every_report(self, ops, smoothing):
        _run_control(ops, smoothing)

    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(1, 40),
                  st.integers(0, 2) | st.integers(0, 30)),
        # a run of one report, long enough for the fit's moments to reach
        # their fixed point, or short; sizes, spans and procs come from
        # small sets, so consecutive runs often repeat a (size, proc)
        # pair at another span, at the setpoint or not
        st.tuples(st.just("report"), st.integers(-1, 2),
                  st.sampled_from([8, 23, 64]),
                  st.sampled_from([0, 10, 23, 50, 70]),
                  st.sampled_from(["span", (20.0, 0.1), (-1.0, 1.5),
                                   50.0, 15.0]),
                  st.sampled_from([1, 2, 200, 260]))), max_size=12),
        smoothing=st.sampled_from([0.2, 0.5, 0.99]))
    # a repeat in warm-up, a settled run, an append between two runs of
    # the same report, then the report at its setpoint and at other spans
    @example(ops=[("report", 1, 23, 50, (20.0, 0.1), 2),
                  ("append", 40, 1), ("report", 1, 64, 70, (20.0, 0.1), 200),
                  ("report", 1, 23, 50, (20.0, 0.1), 260),
                  ("append", 20, 2), ("report", 1, 23, 50, (20.0, 0.1), 2),
                  ("report", 1, 23, 22, (20.0, 0.1), 1),
                  ("report", 1, 23, 0, (20.0, 0.1), 2),
                  ("report", 1, 23, 70, (20.0, 0.1), 2)], smoothing=0.2)
    # a repeat with no rate yet, at the fallback, where its span matters
    @example(ops=[("report", 1, 8, 50, 15.0, 200),
                  ("report", 1, 8, 10, 15.0, 2)], smoothing=0.99)
    @settings(max_examples=100, deadline=None)
    def test_repeated_reports_control_as_if_each_were_folded(self, ops,
                                                             smoothing):
        _run_control(ops, smoothing)

    def test_a_settled_report_repeated_is_counted_without_a_fold(
            self, monkeypatch):
        p = _Measured(PackagerConfig(initial_size=23))
        p.append(_events_at(np.arange(0, 1000)))
        sizes = (20, 30) * 3 + (23,) * 300
        for seq, size in enumerate(sizes):
            p.update_target_size(seq, size, size, 20.0 + 0.1 * size)
        assert p.model.settled
        proc = 20.0 + 0.1 * 23
        folds = []
        update = AffineCostModel.update
        monkeypatch.setattr(AffineCostModel, "update",
                            lambda m, *a: folds.append(a) or update(m, *a))
        seq = len(sizes)
        for span in (22, 23, 0, 40):
            p.update_target_size(seq, 23, span, proc)
            seq += 1
        assert folds == [] and p.model.samples == seq
        p.append(_events_at([1000]))   # the rate moves
        p.update_target_size(seq, 23, 23, proc)
        assert folds == [(23, proc)]

    def test_unchanged_inputs_are_not_solved_again(self, monkeypatch):
        import asap_stream.packager as packager
        calls = []
        monkeypatch.setattr(packager, "predict_size",
                            lambda *a: calls.append(a) or predict_size(*a))
        p = _Measured(PackagerConfig(initial_size=100))
        p.append(_events_at(np.arange(0, 10_000, 2)))
        for seq, size in enumerate((100, 200, 300, 400, 500)):
            p.update_target_size(seq, size, 2 * size, 20.0 + 0.5 * size)
        assert p.model.ready and len(calls) == 1
        # one size over and over: the fit moves until the size variance
        # decays below its floor, then holds; the rate has not moved, so
        # the settled memo counts the repeats without folding or solving
        for seq in range(5, 200):
            p.update_target_size(seq, 500, 1000, 270.0)
        fit, solves = (p.model.overhead_us, p.model.per_event_us), len(calls)
        for seq in range(200, 210):
            p.update_target_size(seq, 500, 1000, 270.0)
        assert (p.model.overhead_us, p.model.per_event_us) == fit
        assert len(calls) == solves
        p.append(_events_at([10_000]))  # moves the rate
        p.update_target_size(210, 500, 1000, 270.0)
        assert len(calls) == solves + 1

    def test_converges_to_fixed_point_with_affine_consumer(self):
        # closed loop against o=1ms, c=0.5us at a 1e6 ev/s arrival rate;
        # target must enter and stay within 10% of N* = 2000
        rng = np.random.default_rng(12)
        p = _Measured(PackagerConfig(initial_size=1000, timeout_us=100_000))
        t = 0.0
        seq = 0
        history = []
        for _ in range(120):
            target = p.target_size
            dts = rng.exponential(1.0, size=target)
            ts = (t + np.cumsum(dts)).astype(np.int64)
            t = float(ts[-1])
            p.append(_events_at(ts))
            em = p.next_emission()
            assert em is not None
            pkg = em.package
            proc = 1000.0 + 0.5 * pkg.size
            p.update_target_size(seq, pkg.size, pkg.span_us, proc)
            seq += 1
            history.append(p.target_size)
            p.check_timeout(_NEVER)
        for target in history[50:]:
            assert abs(target - 2000) <= 0.10 * 2000 + 2000 * 0.05  # headroom bias
