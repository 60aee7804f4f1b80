"""Reference consumers: synthetic cost model and clustering workload."""

import time

import numpy as np
import pytest

from asap_stream import (ClusteringConsumer, ConfigurationError, EventPackage,
                         SyntheticConsumer, SyntheticCostModel, VirtualClock,
                         WallClock, make_events)


def _package(timestamps, xs=None, ys=None, seq=0):
    n = len(timestamps)
    xs = np.zeros(n) if xs is None else xs
    ys = np.zeros(n) if ys is None else ys
    return EventPackage(events=make_events(timestamps, xs, ys, np.ones(n)),
                        seq=seq)


class TestVirtualClock:
    def test_advance_and_advance_to(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance_to(50)      # never moves backward
        assert clock.now_us == 100
        clock.advance_to(250)
        assert clock.now_us == 250


class TestWallClock:
    def test_advance_blocks_for_duration(self):
        clock = WallClock()
        t0 = clock.now_us
        clock.advance(2000)
        assert clock.now_us - t0 >= 2000

    def test_advance_to_sleeps_until_the_time(self):
        clock = WallClock()
        target = clock.now_us + 2000
        clock.advance_to(target)
        assert clock.now_us >= target

    def test_advance_to_a_time_passed_returns_at_once(self, monkeypatch):
        def refuse(seconds):
            raise AssertionError("advance_to slept for a time passed")

        monkeypatch.setattr(time, "sleep", refuse)
        clock = WallClock()
        clock.advance_to(clock.now_us - 5)


class TestSyntheticConsumer:
    def test_affine_cost_exact(self):
        # o = 1 ms, c = 1 us/event, 1000 events -> 2000 us
        consumer = SyntheticConsumer(SyntheticCostModel(1000.0, 1.0, 0.0))
        clock = VirtualClock()
        fb = consumer.process(_package(np.arange(1000)), clock)
        assert fb.processing_time_us == 2000.0
        assert clock.now_us == 2000.0

    def test_feedback_echoes_package(self):
        consumer = SyntheticConsumer(SyntheticCostModel(10.0, 0.5, 0.0))
        pkg = _package([100, 150, 400], seq=7)
        fb = consumer.process(pkg, VirtualClock())
        assert fb.package_seq == 7
        assert fb.size == 3
        assert fb.span_us == 300

    def test_jitter_bounded_and_seeded(self):
        model = SyntheticCostModel(1000.0, 1.0, 0.1)
        times_a = [SyntheticConsumer(model, seed=5).process(
            _package(np.arange(100)), VirtualClock()).processing_time_us
            for _ in range(1)]
        times_b = [SyntheticConsumer(model, seed=5).process(
            _package(np.arange(100)), VirtualClock()).processing_time_us
            for _ in range(1)]
        assert times_a == times_b
        base = 1100.0
        assert 0.9 * base <= times_a[0] <= 1.1 * base

    def test_invalid_model(self):
        with pytest.raises(ConfigurationError):
            SyntheticConsumer(SyntheticCostModel(-1.0, 0.5, 0.0))


class TestClusteringAssign:
    def test_first_event_seeds_cluster(self):
        c = ClusteringConsumer(radius_px=5)
        cluster = c.assign_event(0, 10, 20)
        assert (cluster.cx, cluster.cy, cluster.count) == (10.0, 20.0, 1)
        assert len(c.clusters) == 1

    def test_running_mean_update(self):
        c = ClusteringConsumer(radius_px=5)
        c.assign_event(0, 10, 20)
        cluster = c.assign_event(1, 12, 20)
        assert (cluster.cx, cluster.cy, cluster.count) == (11.0, 20.0, 2)

    def test_outside_radius_makes_new_cluster(self):
        c = ClusteringConsumer(radius_px=5)
        c.assign_event(0, 10, 20)
        c.assign_event(1, 100, 20)
        assert len(c.clusters) == 2

    def test_ttl_expiry(self):
        c = ClusteringConsumer(radius_px=5, ttl_us=1000)
        c.assign_event(0, 10, 20)
        cluster = c.assign_event(5000, 10, 20)  # old cluster expired
        assert cluster.count == 1
        assert len(c.clusters) == 1

    def test_tie_breaks_to_oldest_cluster(self):
        c = ClusteringConsumer(radius_px=10)
        c.assign_event(0, 0, 0)
        c.assign_event(1, 10, 0)
        winner = c.assign_event(2, 5, 0)  # equidistant from both centroids
        assert winner.created == 0

    def test_two_separated_bursts_two_clusters(self):
        rng = np.random.default_rng(3)
        radius = 10.0
        c = ClusteringConsumer(radius_px=radius, ttl_us=10**9)
        centers = [(50.0, 50.0), (200.0, 150.0)]
        points = []
        for cx, cy in centers:
            for _ in range(200):
                points.append((cx + rng.uniform(-3, 3), cy + rng.uniform(-3, 3)))
        rng.shuffle(points)
        trace = []
        for t, (x, y) in enumerate(points):
            before = [(cl.created, cl.cx, cl.cy) for cl in c.clusters]
            cluster = c.assign_event(t, x, y)
            trace.append((x, y, before, cluster.created))
        assert len(c.clusters) == 2
        # brute-force oracle: no event of one burst was ever within radius
        # of any centroid seeded by the other burst
        burst_of = {}
        for x, y, before, created in trace:
            burst = 0 if abs(x - 50.0) < 25 else 1
            burst_of.setdefault(created, burst)
            assert burst_of[created] == burst
            for other_created, ox, oy in before:
                if burst_of.get(other_created, burst) != burst:
                    assert np.hypot(x - ox, y - oy) > radius

    def test_cluster_count_never_exceeds_events(self):
        rng = np.random.default_rng(5)
        c = ClusteringConsumer(radius_px=10, ttl_us=10**9)
        for t in range(500):
            c.assign_event(t, rng.uniform(0, 345), rng.uniform(0, 259))
            assert len(c.clusters) <= t + 1


class TestClusteringProcess:
    def test_feedback_echoes_package(self):
        c = ClusteringConsumer()
        pkg = _package([0, 10, 20], xs=[1, 2, 3], ys=[4, 5, 6], seq=3)
        fb = c.process(pkg, VirtualClock())
        assert fb.package_seq == 3
        assert fb.size == 3
        assert fb.span_us == 20
        assert fb.processing_time_us >= 0

    def test_virtual_clock_ends_at_the_start_plus_the_reported_time(self):
        clock = VirtualClock(500.0)
        fb = ClusteringConsumer().process(_package([0, 10, 20]), clock)
        assert clock.now_us == 500.0 + fb.processing_time_us

    def test_a_wall_clock_is_not_waited_on_again(self, monkeypatch):
        # the measured work has already taken its wall time: waiting it
        # out again on the clock would double every package's cost
        def refuse(*args):
            raise AssertionError("the consumer waited out its own work")

        monkeypatch.setattr(time, "sleep", refuse)
        monkeypatch.setattr(WallClock, "advance", refuse)
        clock = WallClock()
        n = 200
        fb = ClusteringConsumer().process(
            _package(np.arange(n), xs=np.arange(n) % 346, ys=np.zeros(n)),
            clock)
        assert 0 < fb.processing_time_us <= clock.now_us

    def test_events_observed_one_by_one_in_order(self):
        c = ClusteringConsumer()
        seen = []
        original = c.assign_event

        def spy(t_us, x, y):
            seen.append(t_us)
            return original(t_us, x, y)

        c.assign_event = spy
        ts = [5, 10, 15, 20]
        c.process(_package(ts, xs=[1, 2, 3, 4], ys=[1, 2, 3, 4]), VirtualClock())
        assert seen == ts

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ClusteringConsumer(radius_px=0)
        with pytest.raises(ConfigurationError):
            ClusteringConsumer(ttl_us=0)
