"""Unit tests for the discrete-event simulator."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(2.0, fired.append, "early")
        sim.schedule(3.5, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(7.25, lambda: None)
        sim.run()
        assert sim.now == 7.25

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_delay_rejected(self):
        # A NaN entry compares false both ways and breaks the heap order.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["a", "b"]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_until_with_empty_heap_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0


class TestCounters:
    def test_events_processed_counts_only_executed(self):
        # Read inside each callback (tied and newly scheduled ones
        # included) and after a run(until=...) that leaves an entry
        # pending, the count equals the callbacks executed so far.
        sim = Simulator()
        seen = []

        def fire(then=None):
            seen.append(sim.events_processed)
            if then is not None:
                sim.schedule(then, fire)

        sim.schedule(1.0, fire)
        sim.schedule(2.0, fire, 0.0)  # adds a tied entry at t=2
        sim.schedule(2.0, fire)
        sim.schedule(7.0, fire)
        sim.run(until=5.0)
        assert seen == [1, 2, 3, 4]
        assert sim.events_processed == len(seen)
        assert sim.pending_events == 1
        sim.run()
        assert seen == [1, 2, 3, 4, 5]
        assert sim.events_processed == len(seen)
