"""Discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.core import Environment, Event
from repro.sim.resources import BandwidthChannel, Resource, Store
from repro.sim.stats import (
    HISTORY_EPOCHS,
    EpochTrafficMonitor,
    LatencyRecorder,
    TimeWeightedValue,
)


class TestEnvironment:
    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(5.0)
        assert env.run() == 5.0

    def test_events_fire_in_time_order(self):
        env = Environment()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            def make(d):
                def proc():
                    yield env.timeout(d)
                    fired.append(d)
                return proc
            env.process(make(delay)())
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_fifo_tiebreak_at_same_time(self):
        env = Environment()
        fired = []
        for tag in "abc":
            def make(t):
                def proc():
                    yield env.timeout(1.0)
                    fired.append(t)
                return proc
            env.process(make(tag)())
        env.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_bounds_time(self):
        env = Environment()
        env.timeout(10.0)
        assert env.run(until=4.0) == 4.0
        assert env.now == 4.0

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_process_return_value(self):
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            return 42

        proc = env.process(worker())
        env.run()
        assert proc.value == 42

    def test_process_chaining(self):
        env = Environment()

        def inner():
            yield env.timeout(2.0)
            return "inner-done"

        def outer():
            result = yield env.process(inner())
            return result + "!"

        proc = env.process(outer())
        env.run()
        assert proc.value == "inner-done!"
        assert env.now == 2.0

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 5

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def worker():
            barrier = env.all_of([env.timeout(1.0, "a"), env.timeout(3.0, "b")])
            values = yield barrier
            return (env.now, values)

        proc = env.process(worker())
        env.run()
        assert proc.value == (3.0, ["a", "b"])

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def worker():
            values = yield env.all_of([])
            return values

        proc = env.process(worker())
        env.run()
        assert proc.value == []

    def test_yield_already_processed_event(self):
        env = Environment()

        def worker():
            t = env.timeout(1.0, "x")
            yield env.timeout(5.0)
            value = yield t  # fired long ago
            return (env.now, value)

        proc = env.process(worker())
        env.run()
        assert proc.value == (5.0, "x")

    def test_double_succeed_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_run_until_event_stops_with_perpetual_process(self):
        env = Environment()

        def forever():
            while True:
                yield env.timeout(1.0)

        def finite():
            yield env.timeout(3.5)
            return "done"

        env.process(forever())
        proc = env.process(finite())
        env.run_until_event(proc)
        assert proc.value == "done"
        assert env.now == 3.5

    def test_run_until_event_time_limit(self):
        env = Environment()

        def forever():
            while True:
                yield env.timeout(1.0)

        env.process(forever())
        never = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(never, limit=10.0)

    def test_run_until_event_limit_keeps_over_limit_event(self):
        env = Environment()

        def late():
            yield env.timeout(20.0)
            return "late"

        proc = env.process(late())
        with pytest.raises(SimulationError):
            env.run_until_event(proc, limit=10.0)
        # The t=20 event was peeked, not popped: a retry with a larger
        # limit still completes the process.
        env.run_until_event(proc, limit=30.0)
        assert proc.value == "late"
        assert env.now == 20.0

    def test_run_until_event_empty_queue_raises(self):
        env = Environment()
        never = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(never)

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(2.5)
        assert env.peek() == 2.5

    def test_peek_sees_immediate_events(self):
        env = Environment()
        env.timeout(2.5)
        env.event().succeed()
        assert env.peek() == 0.0


class TestRunClampSemantics:
    """``run(until=...)`` clamp contract (documented on the method)."""

    def test_idle_advance_on_empty_queue(self):
        env = Environment()
        assert env.run(until=3.0) == 3.0
        assert env.now == 3.0

    def test_idle_advance_past_last_event(self):
        env = Environment()
        env.timeout(1.0)
        assert env.run(until=5.0) == 5.0
        assert env.now == 5.0

    def test_event_exactly_at_until_fires(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(4.0)
            fired.append(env.now)

        env.process(proc())
        assert env.run(until=4.0) == 4.0
        assert fired == [4.0]

    def test_until_in_past_raises_instead_of_rewinding(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=2.0)
        assert env.now == 5.0  # clock untouched by the failed call

    def test_until_equal_to_now_is_a_noop(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=5.0)
        assert env.run(until=5.0) == 5.0

    def test_tiled_runs_cover_the_timeline_without_gaps(self):
        env = Environment()
        fired = []

        def proc():
            for _ in range(3):
                yield env.timeout(2.0)
                fired.append(env.now)

        env.process(proc())
        for bound in (1.0, 3.0, 7.0):
            env.run(until=bound)
            assert env.now == bound
        assert fired == [2.0, 4.0, 6.0]

    def test_run_until_event_backwards_time_guard(self):
        import heapq

        env = Environment()
        env.timeout(5.0)
        env.run()  # now == 5.0
        stale = Event(env)
        stale._triggered = True
        heapq.heappush(env._queue, (1.0, 999_999, stale))
        never = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(never)

    def test_run_backwards_time_guard(self):
        import heapq

        env = Environment()
        env.timeout(5.0)
        env.run()  # now == 5.0
        stale = Event(env)
        stale._triggered = True
        heapq.heappush(env._queue, (1.0, 999_999, stale))
        with pytest.raises(SimulationError):
            env.run()


class TestSameTimeSequencing:
    """Zero-delay (immediate) and heap events must interleave in strict
    insertion order — the determinism contract of the kernel."""

    def test_succeed_and_zero_timeout_fifo(self):
        env = Environment()
        order = []

        def waiter(tag, event):
            yield event
            order.append(tag)

        first = env.event()
        env.process(waiter("a", first))
        # b's zero-timeout fires before b's bootstrap runs, so b resumes
        # via a same-time reschedule that lands *after* the two succeed
        # events already in the queue — for both the seed kernel and the
        # fast path.
        env.process(waiter("b", env.timeout(0.0)))
        second = env.event()
        env.process(waiter("c", second))
        first.succeed()
        second.succeed()
        env.run()
        assert order == ["a", "c", "b"]

    def test_already_processed_yield_resumes_in_insertion_order(self):
        env = Environment()
        order = []

        def early():
            t = env.timeout(1.0, "x")
            yield env.timeout(2.0)
            # t fired long ago: the resume is scheduled at `now`, after
            # anything already queued for time 2.0.
            yield t
            order.append("resumed")

        def peer():
            yield env.timeout(2.0)
            order.append("peer")

        env.process(early())
        env.process(peer())
        env.run()
        assert order == ["peer", "resumed"]

    def test_heap_event_before_later_immediate_at_same_time(self):
        env = Environment()
        order = []

        def driver():
            yield env.timeout(1.0)
            order.append("heap-1")
            # Scheduled *after* the 1.0 heap entries below were pushed,
            # so it must fire after them despite being immediate.
            env.process(immediate())

        def immediate():
            order.append("immediate")
            return
            yield  # pragma: no cover

        def peer():
            yield env.timeout(1.0)
            order.append("heap-2")

        env.process(driver())
        env.process(peer())
        env.run()
        assert order == ["heap-1", "heap-2", "immediate"]


class TestAbsoluteTimeScheduling:
    """``timeout_at`` and the run bound the epoch controllers read."""

    def test_timeout_at_fires_at_the_given_time(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        event = env.timeout_at(3.25, "v")
        assert env.run() == 3.25
        assert event.processed and event.value == "v"

    def test_timeout_at_rejects_a_past_time(self):
        env = Environment()
        env.timeout(2.0)
        env.run()
        with pytest.raises(SimulationError):
            env.timeout_at(1.999)

    def test_timeout_at_now_goes_to_the_immediate_fifo(self):
        env = Environment()
        order = []

        def driver():
            yield env.timeout(1.0)
            order.append("driver")
            env.timeout_at(env.now).callbacks = (
                lambda _: order.append("at-now")
            )
            # Zero delay: queued behind the heap entry already at 1.0,
            # like any zero-length timeout, not ahead of it.
            assert env._immediate and env.peek() == env.now

        def peer():
            yield env.timeout(1.0)
            order.append("peer")

        env.process(driver())
        env.process(peer())
        env.run()
        assert order == ["driver", "peer", "at-now"]

    def test_timeout_at_orders_like_the_equivalent_timeout(self):
        """Same time, same sequence position as ``timeout(at - now)``."""
        orders = []
        for absolute in (False, True):
            env = Environment()
            order = []
            env.timeout(0.5).callbacks = lambda _: order.append("early")
            if absolute:
                env.timeout_at(0.5).callbacks = lambda _: order.append("tick")
            else:
                env.timeout(0.5).callbacks = lambda _: order.append("tick")
            env.timeout(0.5).callbacks = lambda _: order.append("late")
            env.run()
            orders.append(order)
        assert orders[0] == orders[1] == ["early", "tick", "late"]

    def test_both_run_loops_record_their_bound(self):
        env = Environment()
        seen = []

        def probe():
            while True:
                seen.append(env.bound)
                yield env.timeout(1.0)

        env.process(probe())
        env.run(until=2.5)
        assert seen and set(seen) == {2.5}
        seen.clear()
        env.run_until_event(env.timeout(1.0), limit=7.0)
        assert seen and set(seen) == {7.0}
        seen.clear()
        env.run_until_event(env.timeout(1.0))
        assert seen and set(seen) == {float("inf")}
        env.run(until=env.now + 1.5)
        assert seen[-1] == env.now
        fresh = Environment()
        assert fresh.bound == float("inf")
        fresh.timeout(2.0).callbacks = lambda _: seen.append(fresh.bound)
        fresh.run()
        assert seen[-1] == float("inf")


class TestResource:
    def test_grants_up_to_capacity(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        env.run()
        assert first.processed and second.processed
        assert not third.triggered
        assert resource.queue_length == 1

    def test_release_grants_waiter_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def worker(tag, hold):
            grant = resource.request()
            yield grant
            order.append(f"{tag}-start")
            yield env.timeout(hold)
            resource.release()
            order.append(f"{tag}-end")

        env.process(worker("a", 2.0))
        env.process(worker("b", 1.0))
        env.run()
        assert order == ["a-start", "a-end", "b-start", "b-end"]
        assert env.now == 3.0

    def test_release_without_request_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env).release()

    def test_utilization_tracking(self):
        env = Environment()
        resource = Resource(env)

        def worker():
            grant = resource.request()
            yield grant
            yield env.timeout(3.0)
            resource.release()
            yield env.timeout(1.0)

        env.process(worker())
        env.run()
        assert resource.busy_time() == pytest.approx(3.0)
        assert resource.utilization() == pytest.approx(0.75)

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")

        def getter():
            item = yield store.get()
            return item

        proc = env.process(getter())
        env.run()
        assert proc.value == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def getter():
            item = yield store.get()
            return (env.now, item)

        def putter():
            yield env.timeout(2.0)
            store.put("late")

        proc = env.process(getter())
        env.process(putter())
        env.run()
        assert proc.value == (2.0, "late")

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        got = []

        def getter():
            got.append((yield store.get()))
            got.append((yield store.get()))

        env.process(getter())
        env.run()
        assert got == [1, 2]
        assert len(store) == 0


class TestBandwidthChannel:
    def test_serialization_time(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1000.0)
        assert channel.serialization_time(500.0) == pytest.approx(0.5)

    def test_transfer_occupies_channel(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=100.0)

        def sender(bits):
            yield env.process(channel.transfer(bits))
            return env.now

        first = env.process(sender(100.0))   # 1 s
        second = env.process(sender(200.0))  # then 2 s more
        env.run()
        assert first.value == pytest.approx(1.0)
        assert second.value == pytest.approx(3.0)
        assert channel.bits_transferred == pytest.approx(300.0)
        assert channel.transfer_count == 2

    def test_extra_latency_after_release(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=100.0)

        def sender():
            yield env.process(channel.transfer(100.0, extra_latency_s=0.5))
            return env.now

        proc = env.process(sender())
        env.run()
        assert proc.value == pytest.approx(1.5)

    def test_bandwidth_reconfiguration(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=100.0)
        channel.set_bandwidth(200.0)
        assert channel.serialization_time(100.0) == pytest.approx(0.5)

    def test_invalid_bandwidth(self):
        env = Environment()
        with pytest.raises(SimulationError):
            BandwidthChannel(env, bandwidth_bps=0.0)
        channel = BandwidthChannel(env, 1.0)
        with pytest.raises(SimulationError):
            channel.set_bandwidth(-1.0)

    def test_negative_bits_rejected(self):
        env = Environment()
        channel = BandwidthChannel(env, 1.0)
        with pytest.raises(SimulationError):
            channel.serialization_time(-1.0)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                    max_size=20))
    def test_total_time_is_sum_of_serializations(self, sizes):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1e3)

        def sender(bits):
            yield env.process(channel.transfer(bits))

        for bits in sizes:
            env.process(sender(bits))
        env.run()
        assert env.now == pytest.approx(sum(sizes) / 1e3)


class TestStats:
    def test_time_weighted_value_integral(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=2.0)

        def driver():
            yield env.timeout(3.0)
            signal.set(5.0)
            yield env.timeout(2.0)

        env.process(driver())
        env.run()
        assert signal.integral() == pytest.approx(2 * 3 + 5 * 2)
        assert signal.time_average() == pytest.approx(16 / 5)

    def test_time_weighted_add(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=1.0)
        signal.add(2.0)
        assert signal.value == 3.0

    def test_epoch_monitor_bins(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, epoch_length_s=1.0)
        monitor.record("a", 100.0)
        monitor.record("a", 50.0)
        monitor.record("b", 10.0)
        epoch = monitor.close_epoch()
        assert epoch == {"a": 150.0, "b": 10.0}
        assert monitor.close_epoch() == {}
        assert len(monitor.history) == 2

    def test_epoch_monitor_history_is_bounded(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, epoch_length_s=1.0)
        for index in range(HISTORY_EPOCHS + 10):
            monitor.record("a", float(index))
            monitor.close_epoch()
        assert len(monitor.history) == HISTORY_EPOCHS
        assert monitor.history[-1] == {"a": float(HISTORY_EPOCHS + 9)}
        assert monitor.history[0] == {"a": 10.0}

    def test_epoch_monitor_demand(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, epoch_length_s=2.0)
        demand = monitor.demanded_bandwidth_bps({"x": 100.0})
        assert demand == {"x": 50.0}

    def test_epoch_monitor_rejects_negative(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, 1.0)
        with pytest.raises(SimulationError):
            monitor.record("a", -1.0)

    def test_latency_recorder(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        recorder.record(3.0)
        assert recorder.count == 2
        assert recorder.mean == 2.0
        assert recorder.max == 3.0
        assert recorder.total == 4.0

    def test_latency_recorder_empty(self):
        recorder = LatencyRecorder()
        assert recorder.mean == 0.0
        assert recorder.max == 0.0

    def test_latency_recorder_rejects_negative(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().record(-0.1)
