"""Rate estimator and keep-probability filter tests."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from asap_stream import (ConfigurationError, ConstantRateSource, GammaConfig,
                         GammaFilter, OrderingError, SlidingRateEstimator,
                         apply_filter, make_events)


def _events_at(timestamps):
    n = len(timestamps)
    return make_events(timestamps, np.zeros(n), np.zeros(n), np.ones(n))


class TestRateEstimator:
    def test_5000_events_in_1ms_window(self):
        est = SlidingRateEstimator(window_us=1000)
        t = np.linspace(0, 1000, 5000, endpoint=True).astype(np.int64)
        assert est.update(t) == pytest.approx(5e6, rel=0.001)

    def test_empty_window_is_zero(self):
        est = SlidingRateEstimator(window_us=1000)
        assert est.rate_evps == 0.0
        assert est.update(np.empty(0, dtype=np.int64)) == 0.0

    def test_poisson_stream_mean_within_2pct(self):
        # constant 1e6 ev/s stream sampled at 100 successive 10 ms windows
        ev = ConstantRateSource(1e6, 1.1, seed=21).events()
        est = SlidingRateEstimator(window_us=10_000)
        estimates = []
        edges = np.searchsorted(ev["t"], np.arange(101) * 10_000)
        for i in range(100):
            estimates.append(est.update(ev["t"][edges[i]:edges[i + 1]]))
        assert abs(np.mean(estimates) - 1e6) <= 0.02 * 1e6

    def test_old_events_leave_the_window(self):
        est = SlidingRateEstimator(window_us=100)
        est.update(np.array([0, 10, 20], dtype=np.int64))
        # newest moves to 500: only the new event remains inside the window
        assert est.update(np.array([500], dtype=np.int64)) == pytest.approx(
            1 / 100e-6)

    def test_out_of_order_batch_rejected(self):
        est = SlidingRateEstimator(window_us=100)
        with pytest.raises(OrderingError):
            est.update(np.array([10, 5], dtype=np.int64))

    def test_batch_older_than_newest_rejected(self):
        est = SlidingRateEstimator(window_us=100)
        est.update(np.array([100], dtype=np.int64))
        with pytest.raises(OrderingError):
            est.update(np.array([50], dtype=np.int64))

    def test_checked_batch_still_checked_where_it_starts(self):
        est = SlidingRateEstimator(window_us=100)
        est.update(np.array([100], dtype=np.int64), checked=True)
        with pytest.raises(OrderingError, match="before the newest"):
            est.update(np.array([50, 150], dtype=np.int64), checked=True)
        assert est.rate_evps == pytest.approx(1 / 100e-6)

    @pytest.mark.parametrize("timestamps", [
        np.array([0.4, 0.9, 999.9, 1000.7]),
        np.array([1e19]),
        np.array([0, 2**63], dtype=np.uint64),
        np.array([0, 10], dtype=object),
    ], ids=["float", "float-beyond-int64", "uint64", "object"])
    def test_dtype_that_does_not_cast_safely_rejected(self, timestamps):
        # a cast would truncate the fractions or wrap to int64 min
        est = SlidingRateEstimator(window_us=100)
        with pytest.raises(ValueError, match=f"dtype {timestamps.dtype}"):
            est.update(timestamps)
        assert est.rate_evps == 0.0

    @pytest.mark.parametrize("timestamps", [
        [0, 10, 20], np.array([0, 10, 20], dtype=np.int32),
        np.array([0, 10, 20], dtype=np.uint32),
    ], ids=["list", "int32", "uint32"])
    def test_integers_that_fit_int64_accepted(self, timestamps):
        est = SlidingRateEstimator(window_us=100)
        assert est.update(timestamps) == pytest.approx(3 / 100e-6)

    def test_field_view_folded_uncopied(self):
        est = SlidingRateEstimator(window_us=100)
        t = _events_at([0, 10, 20])["t"]
        est.update(t)
        assert est._batches[-1] is t

    def test_rate_counts_the_appended_events(self):
        # each side counts the events in the window ending at its own
        # newest one, the window's tail included
        t = np.arange(0, 2_000, 2)
        est = SlidingRateEstimator(window_us=1_000)
        assert est.update(t) == pytest.approx(501 / 1e-3)
        assert est.fold_kept(t) == est.rate_evps
        est = SlidingRateEstimator(window_us=1_000)
        est.update(t)
        assert est.fold_kept(t[::2]) == pytest.approx(251 / 1e-3)

    def test_kept_side_divides_by_its_covered_span_in_its_first_window(self):
        # one event per 500 µs from t = 1000, against a 10 ms window: the
        # raw side reads count / W throughout; the kept side reads count
        # over the span from 1000 to its newest timestamp until that span
        # reaches W, and count / W from then on
        est = SlidingRateEstimator(window_us=10_000)
        t = np.arange(1_000, 12_000, 500)
        steps = [
            # batch, raw rate, kept rate
            (t[:1], 100.0, 100.0),            # a span of 0: count / W
            (t[1:3], 300.0, 3 * 1e6 / 1_000),
            (t[3:20], 2000.0, 20 * 1e6 / 9_500),
            (t[20:21], 2100.0, 2100.0),       # the span reaches W
            (t[21:22], 2100.0, 2100.0),
        ]
        for batch, raw, kept in steps:
            assert est.update(batch) == raw
            assert est.fold_kept(batch) == kept
        # an empty kept view leaves the covered-span rate as it is
        est = SlidingRateEstimator(window_us=10_000)
        est.update(t[:3])
        rate = est.fold_kept(t[:3])
        est.update(t[3:5])
        assert est.fold_kept(t[3:3]) == rate == 3 * 1e6 / 1_000

    def test_kept_side_counts_from_the_first_kept_timestamp(self):
        # nothing of the first batch kept: the covered span starts at the
        # first timestamp that was, not at the raw stream's first
        est = SlidingRateEstimator(window_us=10_000)
        est.update(np.array([0, 100]))
        assert est.fold_kept(np.empty(0, dtype=np.int64)) == 0.0
        batch = np.array([1_000, 1_500, 3_000])
        assert est.update(batch) == 500.0
        assert est.fold_kept(batch[1:]) == 2 * 1e6 / 1_500


def _brute_force_rate(seen, window_us):
    """Rate over every timestamp seen, counted from scratch."""
    t = np.asarray(seen, dtype=np.int64)
    if t.size == 0:
        return 0.0
    return int(np.sum(t >= t[-1] - window_us)) / (window_us / 1e6)


def _brute_force_kept_rate(seen, window_us):
    """The kept side's rate over every kept timestamp seen, counted from
    scratch: divided by the span they cover while it is positive and
    shorter than the window, else by the window."""
    t = np.asarray(seen, dtype=np.int64)
    if t.size == 0:
        return 0.0
    count = int(np.sum(t >= t[-1] - window_us))
    span = int(t[-1] - t[0])
    if 0 < span < window_us:
        return count * 1e6 / span
    return count / (window_us / 1e6)


_ordered = st.lists(st.integers(min_value=0, max_value=5_000),
                    max_size=200).map(sorted)


class TestRateEstimatorProperties:
    @given(t=_ordered, cuts=st.lists(st.integers(min_value=0, max_value=200)),
           window=st.integers(min_value=1, max_value=2_000))
    @settings(max_examples=200, deadline=None)
    def test_equals_brute_force_for_any_split(self, t, cuts, window):
        est = SlidingRateEstimator(window_us=window)
        edges = sorted({0, len(t), *(c for c in cuts if c <= len(t))})
        for lo, hi in zip(edges, edges[1:] + [len(t)]):
            rate = est.update(np.array(t[lo:hi], dtype=np.int64))
            assert rate == _brute_force_rate(t[:hi], window)
            assert est.rate_evps == rate

    @given(t=_ordered, cuts=st.lists(st.integers(min_value=0, max_value=200)),
           kept=st.lists(st.tuples(
               st.sampled_from(["whole", "copy", "subset"]),
               st.lists(st.booleans(), min_size=1, max_size=8),
               st.integers(min_value=0, max_value=3), st.booleans())),
           window=st.integers(min_value=1, max_value=2_000))
    # an event cut off a batch's head stays in the raw window of the
    # whole batch after it, where the kept window must not count it
    @example(t=[5, 6, 15], cuts=[2], window=10,
             kept=[("whole", [True], 1, False)])
    # the same with nothing of the first batch kept
    @example(t=[5, 15], cuts=[1], window=10,
             kept=[("whole", [True], 1, False)])
    # the newest event of a batch discarded: the raw window of the whole
    # batch after it holds it, the kept window no event of that batch
    @example(t=[5, 8, 16], cuts=[2], window=10,
             kept=[("subset", [True, False], 0, False)])
    # a batch longer than the window, kept whole; then one kept in part
    @example(t=[0, 1, 50, 51, 52], cuts=[3], window=10,
             kept=[("whole", [True], 0, False),
                   ("subset", [False, True], 0, False)])
    @settings(max_examples=300, deadline=None)
    def test_both_sides_equal_brute_force_for_any_split(self, t, cuts, kept,
                                                         window):
        # repeated edges make empty batches, adjacent ones single events;
        # each batch's kept part is the batch itself, an equal copy or
        # the subsequence a repeated mask picks, its head cut or not;
        # an empty kept view may be folded after it, which changes nothing
        est = SlidingRateEstimator(window_us=window)
        edges = sorted([0, len(t), *(c for c in cuts if c <= len(t))])
        kept_seen = []
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            how, mask, head, empty_too = (kept[i] if i < len(kept)
                                          else ("whole", [True], 0, False))
            batch = np.array(t[lo:hi], dtype=np.int64)
            rate = est.update(batch)
            assert rate == est.rate_evps == _brute_force_rate(t[:hi], window)
            if not len(batch):
                continue   # nothing reached the raw side
            if how == "whole":
                part = batch[head:] if head else batch
            elif how == "copy":
                part = batch.copy()[head:]
            else:
                part = batch[np.resize(mask, len(batch))][head:]
            kept_seen += part.tolist()
            kept_rate = est.fold_kept(part)
            assert kept_rate == _brute_force_kept_rate(kept_seen, window)
            if empty_too:
                assert est.fold_kept(part[:0]) == kept_rate
            assert est.rate_evps == rate

    @given(t=st.lists(st.integers(min_value=0, max_value=5_000), min_size=2,
                      max_size=50, unique=True).map(sorted),
           swap=st.integers(min_value=0),
           window=st.integers(min_value=1, max_value=2_000))
    @settings(max_examples=100, deadline=None)
    def test_disorder_within_batch_rejected(self, t, swap, window):
        i = swap % (len(t) - 1)
        t[i], t[i + 1] = t[i + 1], t[i]
        est = SlidingRateEstimator(window_us=window)
        with pytest.raises(OrderingError):
            est.update(np.array(t, dtype=np.int64))
        assert est.rate_evps == 0.0   # the bad batch left no trace

    @given(t=st.lists(st.integers(min_value=0, max_value=5_000), min_size=1,
                      max_size=50).map(sorted),
           back=st.integers(min_value=1, max_value=1_000),
           window=st.integers(min_value=1, max_value=2_000))
    @settings(max_examples=100, deadline=None)
    def test_batch_older_than_newest_rejected(self, t, back, window):
        est = SlidingRateEstimator(window_us=window)
        before = est.update(np.array(t, dtype=np.int64))
        with pytest.raises(OrderingError):
            est.update(np.array([t[-1] - back, t[-1] + 1], dtype=np.int64))
        assert est.rate_evps == before
        # the estimator still counts correctly after the rejection
        assert est.update(np.array([t[-1]], dtype=np.int64)) == \
            _brute_force_rate(t + [t[-1]], window)


def _filter(a_evps, beta=0.25, gamma_min=0.01):
    """A filter with a 1 s rate window: the raw rate is the window count."""
    return GammaFilter(GammaConfig(a_evps=a_evps, beta=beta,
                                   gamma_min=gamma_min,
                                   rate_window_us=1_000_000))


def _burst(k, n):
    """``n`` events of the ``k``-th burst, 2 s after the previous one: in
    a 1 s window, a raw rate of ``n`` ev/s."""
    return _events_at(k * 2_000_000 + np.arange(n))


class TestTargetGamma:
    """One full (beta = 1) step of gamma lands on its target."""

    def test_below_bound_keeps_all(self):
        gfilter = _filter(50, beta=1.0)
        gfilter.process(_burst(0, 20))
        assert gfilter.gamma == 1.0

    def test_double_rate_halves(self):
        gfilter = _filter(50, beta=1.0)
        gfilter.process(_burst(0, 100))
        assert gfilter.gamma == 0.5

    def test_clamped_at_floor(self):
        gfilter = _filter(5, beta=1.0, gamma_min=0.25)
        gfilter.process(_burst(0, 1000))
        assert gfilter.gamma == 0.25

    def test_zero_rate_keeps_all(self):
        gfilter = _filter(50, beta=1.0)
        ev = _events_at([])
        assert gfilter.process(ev)[0] is ev
        assert (gfilter.rate_raw_evps, gfilter.gamma) == (0.0, 1.0)

    def test_invalid_bound(self):
        with pytest.raises(ConfigurationError):
            GammaFilter(GammaConfig(a_evps=0.0))

    @given(n1=st.integers(min_value=1, max_value=5_000),
           n2=st.integers(min_value=1, max_value=5_000))
    @settings(deadline=None)
    def test_monotone_non_increasing_in_rate(self, n1, n2):
        lo, hi = _filter(50, beta=1.0), _filter(50, beta=1.0)
        lo.process(_burst(0, min(n1, n2)))
        hi.process(_burst(0, max(n1, n2)))
        assert hi.gamma <= lo.gamma


class TestUpdateGamma:
    def test_midpoint_step(self):
        gfilter = _filter(50, beta=0.5)
        gfilter.process(_burst(0, 100))   # target 0.5
        assert gfilter.gamma == pytest.approx(0.75)

    def test_fixed_point_below_bound(self):
        gfilter = _filter(50, beta=0.7)
        gfilter.process(_burst(0, 10))
        assert gfilter.gamma == 1.0

    def test_seven_updates_converge_to_half(self):
        # |gamma_k - 0.5| = 0.5 * (1 - beta)^k; beta=0.5, k=7 -> < 1%
        gfilter = _filter(50, beta=0.5)
        for k in range(7):
            gfilter.process(_burst(k, 100))
        assert abs(gfilter.gamma - 0.5) <= 0.01 * 0.5

    @given(counts=st.lists(st.integers(min_value=0, max_value=10_000),
                           max_size=20),
           beta=st.floats(min_value=0.01, max_value=1.0))
    @settings(deadline=None)
    def test_gamma_never_leaves_bounds(self, counts, beta):
        gfilter = _filter(50, beta=beta, gamma_min=0.01)
        for k, n in enumerate(counts):
            gfilter.process(_burst(k, n))
            assert 0.01 <= gfilter.gamma <= 1.0


def _state(gamma, seed=0):
    """The least ``apply_filter`` reads: a gamma and a generator."""
    return SimpleNamespace(gamma=gamma,
                           rng=np.random.Generator(np.random.PCG64(seed)))


class TestApplyFilter:
    def test_gamma_one_is_identity(self):
        ev = ConstantRateSource(1e5, 0.05, seed=1).events()
        assert np.array_equal(apply_filter(_state(1.0), ev), ev)

    def test_gamma_one_returns_input_and_advances_rng_by_n(self):
        ev = ConstantRateSource(1e5, 0.05, seed=1).events()
        state = _state(1.0, seed=11)
        reference = np.random.Generator(np.random.PCG64(11))
        assert apply_filter(state, ev).tobytes() == ev.tobytes()
        skipped = np.random.Generator(np.random.PCG64(11))
        skipped.bit_generator.advance(len(ev))
        reference.random(len(ev))
        assert state.rng.bit_generator.state == reference.bit_generator.state
        assert skipped.bit_generator.state == reference.bit_generator.state
        # the next keep draws are the ones a drawing filter would make
        state.gamma = 0.5
        assert np.array_equal(apply_filter(state, ev),
                              ev[reference.random(len(ev)) < 0.5])

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
           n=st.integers(min_value=0, max_value=400),
           strided=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_kept_rows_equal_boolean_mask_selection(self, gamma, n, strided,
                                                     seed):
        fields = np.random.default_rng(seed)
        base = make_events(np.sort(fields.integers(0, 10**9, 2 * n)),
                           fields.integers(-2**15, 2**15, 2 * n),
                           fields.integers(-2**15, 2**15, 2 * n),
                           fields.integers(-128, 128, 2 * n))
        ev = base[::2] if strided else base[:n]
        state = _state(gamma, seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        kept = apply_filter(state, ev)
        expected = ev[ref.random(n) < gamma]
        assert kept.dtype == ev.dtype
        assert kept.tobytes() == expected.tobytes()
        assert not np.shares_memory(kept, base)
        assert state.rng.bit_generator.state == ref.bit_generator.state

    def test_binomial_bounds_at_gamma_02(self):
        ev = ConstantRateSource(1e6, 1.0, seed=2).events()[:1_000_000]
        kept = apply_filter(_state(0.2, seed=3), ev)
        assert 198_400 <= len(kept) <= 201_600

    def test_determinism(self):
        ev = ConstantRateSource(1e5, 0.05, seed=4).events()
        a = apply_filter(_state(0.5, seed=9), ev)
        b = apply_filter(_state(0.5, seed=9), ev)
        assert np.array_equal(a, b)

    def test_kept_is_subsequence(self):
        ev = ConstantRateSource(1e5, 0.05, seed=5).events()
        kept = apply_filter(_state(0.5, seed=6), ev)
        # every kept row appears in the input at strictly increasing indices
        idx = 0
        view = ev.tolist()
        for row in kept.tolist():
            idx = view.index(row, idx) + 1

    def test_positional_uniformity_chi_square(self):
        n = 1_000_000
        ev = _events_at(np.arange(n, dtype=np.int64))
        kept = apply_filter(_state(0.5, seed=7), ev)
        # 20 equal-count position buckets of the input; keep counts uniform
        counts, _ = np.histogram(kept["t"], bins=20, range=(0, n))
        chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        assert chi2 < stats.chi2.ppf(1 - 0.001, df=19)

    def test_empty_input(self):
        assert len(apply_filter(_state(0.5), _events_at([]))) == 0


class TestGammaFilter:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GammaConfig(a_evps=-1).validate()
        with pytest.raises(ConfigurationError):
            GammaConfig(beta=0).validate()
        with pytest.raises(ConfigurationError):
            GammaConfig(gamma_min=1.5).validate()

    def test_closed_loop_settles_at_bound(self):
        # constant raw rate 1e7 with a = 5e6: filtered rate converges to a
        cfg = GammaConfig(a_evps=5e6, beta=0.25, rate_window_us=10_000)
        gfilter = GammaFilter(cfg, seed=0)
        kept_rate = SlidingRateEstimator(window_us=10_000)
        ev = ConstantRateSource(1e7, 0.5, seed=8).events()
        edges = np.searchsorted(ev["t"], np.arange(0, 500_001, 10_000))
        filtered_rates = []
        for i in range(len(edges) - 1):
            kept, _ = gfilter.process(ev[edges[i]:edges[i + 1]])
            filtered_rates.append(kept_rate.update(kept["t"]))
        steady = np.mean(filtered_rates[len(filtered_rates) // 2:])
        assert abs(steady - 5e6) <= 0.05 * 5e6
        assert abs(gfilter.gamma - 0.5) <= 0.05 * 0.5

    def test_drop_count_partition(self):
        gfilter = GammaFilter(GammaConfig(), seed=0)
        ev = ConstantRateSource(1e7, 0.05, seed=10).events()
        kept, dropped = gfilter.process(ev)
        assert len(kept) + dropped == len(ev)

    def test_empty_batch_changes_nothing(self):
        # no event arrived: gamma, the raw rate and the generator stay put
        gfilter = GammaFilter(GammaConfig(a_evps=1e5), seed=0)
        gfilter.process(_events_at(np.arange(10_000)))
        assert gfilter.gamma < 1.0
        before = (gfilter.gamma, gfilter.rate_raw_evps,
                  gfilter.rng.bit_generator.state)
        for _ in range(3):
            kept, dropped = gfilter.process(_events_at([]))
            assert (len(kept), dropped) == (0, 0)
            assert (gfilter.gamma, gfilter.rate_raw_evps,
                    gfilter.rng.bit_generator.state) == before
        assert len(gfilter.kept_t) == 0

    @pytest.mark.parametrize("a_evps", [1e5, 1e12])
    def test_kept_timestamps_are_a_view_of_the_kept_rows(self, a_evps):
        # the kept events' own t field, not a copy; at gamma = 1 the very
        # view of the batch that the raw window folded
        gfilter = GammaFilter(GammaConfig(a_evps=a_evps), seed=0)
        ev = ConstantRateSource(1e7, 0.01, seed=3).events()
        for lo in range(0, len(ev), 20_000):
            batch = ev[lo:lo + 20_000]
            kept, _ = gfilter.process(batch)
            kt = gfilter.kept_t
            assert np.array_equal(kt, kept["t"])
            assert np.shares_memory(kt, kept)
            assert (kt is gfilter.window._batches[-1]) == (kept is batch)
        assert (gfilter.gamma < 1.0) == (a_evps < 1e12)

    @pytest.mark.parametrize("checked, bytes_per_event", [(False, 8), (True, 1)])
    def test_process_at_gamma_one_copies_no_timestamps(self, checked,
                                                       bytes_per_event):
        # the unchecked batch costs only its order scan's mask, one byte
        # an event; a vouched batch not even that
        n = 65536
        batch = _events_at(np.arange(n))
        gfilter = GammaFilter(GammaConfig(a_evps=1e12), seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept, _ = gfilter.process(batch, checked=checked)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert kept is batch
        assert peak < bytes_per_event * n

    def test_batches_kept_whole_step_the_generator_before_the_next_draw(self):
        # gamma = 1 and gamma < 1 phases in turn (beta = 1: gamma is the
        # target itself); the generator jumps once past the batches kept
        # whole, so every kept set is that of stepping it on each batch
        gfilter = GammaFilter(GammaConfig(a_evps=2e5, beta=1.0,
                                          rate_window_us=1000), seed=7)
        ref = _state(1.0, seed=7)
        gaps = np.repeat([10, 1, 10, 1], 4000)      # 1e5 and 1e6 ev/s
        ev = _events_at(np.cumsum(gaps))
        gammas = []
        for lo in range(0, len(ev), 250):
            batch = ev[lo:lo + 250]
            kept, _ = gfilter.process(batch)
            ref.gamma = gfilter.gamma
            assert kept.tobytes() == apply_filter(ref, batch).tobytes()
            gammas.append(gfilter.gamma)
        phases = [g for i, g in enumerate(gammas)
                  if i == 0 or (g == 1.0) != (gammas[i - 1] == 1.0)]
        assert len(phases) == 4 and phases[0] == phases[2] == 1.0

    def test_disordered_batch_leaves_the_filter_unchanged(self):
        gfilter = GammaFilter(GammaConfig(a_evps=1e5), seed=0)
        gfilter.process(_events_at(np.arange(1000)))
        before = (gfilter.gamma, gfilter.rate_raw_evps,
                  gfilter.rng.bit_generator.state)
        for t in ([1000, 1002, 1001], [998, 1000]):
            with pytest.raises(OrderingError):
                gfilter.process(_events_at(t))
            assert (gfilter.gamma, gfilter.rate_raw_evps,
                    gfilter.rng.bit_generator.state) == before


class TestGammaLaw:
    @given(t=_ordered, cuts=st.lists(st.integers(min_value=0, max_value=200)),
           window=st.integers(min_value=1, max_value=2_000),
           a_evps=st.one_of(st.floats(min_value=1.0, max_value=1e9),
                            st.just(float("inf"))),
           beta=st.floats(min_value=0.01, max_value=1.0),
           gamma_min=st.floats(min_value=0.001, max_value=0.999),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_process_follows_reference_recurrence(self, t, cuts, window,
                                                  a_evps, beta, gamma_min,
                                                  seed):
        gfilter = GammaFilter(GammaConfig(a_evps=a_evps, beta=beta,
                                          gamma_min=gamma_min,
                                          rate_window_us=window), seed=seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        gamma, rate = 1.0, 0.0
        ev = _events_at(t)
        # repeated edges make empty batches, which step nothing
        edges = sorted([0, len(t), *(c for c in cuts if c <= len(t))])
        for lo, hi in zip(edges, edges[1:]):
            batch = ev[lo:hi]
            kept, dropped = gfilter.process(batch)
            if hi > lo:
                rate = _brute_force_rate(t[:hi], window)
                target = 1.0 if rate == 0 else min(
                    1.0, max(gamma_min, a_evps / rate))
                gamma = min(1.0, max(gamma_min,
                                     gamma + beta * (target - gamma)))
            assert (gfilter.rate_raw_evps, gfilter.gamma) == (rate, gamma)
            expected = batch[ref.random(hi - lo) < gamma]
            assert kept.tobytes() == expected.tobytes()
            assert dropped == len(batch) - len(expected)

    @given(batches=st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                                      st.integers(min_value=0, max_value=40)),
                            max_size=40),
           a_evps=st.one_of(st.sampled_from([2e4, 1e5, 5e5, float("inf")]),
                            st.floats(min_value=1e3, max_value=1e7)),
           beta=st.one_of(st.just(1.0), st.floats(min_value=0.01,
                                                  max_value=1.0)),
           gamma_min=st.one_of(st.sampled_from([0.01, 0.999, 1 - 1e-12]),
                               st.floats(min_value=0.001, max_value=0.999)),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    # a never binds; gamma_min just below 1 with full steps; and a ramp
    # from 2.5e4 to 1e6 ev/s across a = 1e5
    @example(batches=[(50, 5)] * 10, a_evps=float("inf"), beta=1.0,
             gamma_min=0.5, seed=0)
    @example(batches=[(40, 1), (3, 0), (40, 20), (0, 0), (40, 1)],
             a_evps=5e5, beta=1.0, gamma_min=1 - 1e-12, seed=1)
    @example(batches=[(20, gap) for gap in (40, 20, 10, 5, 2, 1, 1, 2, 40)],
             a_evps=1e5, beta=0.25, gamma_min=0.01, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_gamma_steps_by_the_clamped_law_on_the_window_rate(
            self, batches, a_evps, beta, gamma_min, seed):
        # batches of n events, gap µs apart (0: all at one timestamp), in
        # a 1 ms window: raw rates from 2.5e4 ev/s (40 µs apart) to 1e6
        # ev/s and beyond, on both sides of a
        gfilter = GammaFilter(GammaConfig(a_evps=a_evps, beta=beta,
                                          gamma_min=gamma_min,
                                          rate_window_us=1000), seed=seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        g, lag, now = 1.0, 0, 0
        for n, gap in batches:
            batch = _events_at(now + gap * np.arange(n))
            now += gap * n + 1
            kept, dropped = gfilter.process(batch)
            if n:
                rate = gfilter.window.rate_evps
                target = min(1.0, max(gamma_min, a_evps / rate))
                g = min(1.0, max(gamma_min, g + beta * (target - g)))
            assert gfilter.gamma == g
            # apply_filter's rule: one draw per event, kept below gamma
            expected = batch[ref.random(n) < g]
            assert kept.tobytes() == expected.tobytes()
            assert dropped == n - len(expected)
            # the draws of batches kept whole are skipped until the next
            # batch that is filtered
            lag = lag + n if g >= 1.0 else 0
        state = np.random.Generator(np.random.PCG64())
        state.bit_generator.state = gfilter.rng.bit_generator.state
        state.bit_generator.advance(lag)
        assert state.bit_generator.state == ref.bit_generator.state
