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


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_is_lazy_but_counted_out(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        assert sim.pending_events == 1  # still in heap
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        sim.cancel(drop)
        sim.run()
        assert fired == ["keep"]
        assert keep.active


class TestBatchScheduling:
    def test_sorted_batch_fires_in_order(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_sorted_at(
            [(1.0, fired.append, ("a",)), (2.0, fired.append, ("b",)), (2.0, fired.append, ("c",))]
        )
        assert len(events) == 3
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 2.0

    def test_batch_onto_empty_heap_appends_without_sifting(self):
        sim = Simulator()
        sim.schedule_sorted_at((float(i), (lambda: None), ()) for i in range(100))
        # a sorted batch on an empty calendar is stored in input order
        assert [entry[0] for entry in sim._heap] == [float(i) for i in range(100)]

    def test_batch_interleaves_with_existing_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "mid")
        sim.schedule_sorted_at([(1.0, fired.append, ("lo",)), (2.0, fired.append, ("hi",))])
        sim.run()
        assert fired == ["lo", "mid", "hi"]

    def test_unsorted_batch_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_sorted_at([(2.0, lambda: None, ()), (1.0, lambda: None, ())])

    def test_failed_batch_is_atomic(self):
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError):
            sim.schedule_sorted_at(
                [(1.0, fired.append, ("a",)), (0.5, fired.append, ("b",))]
            )
        assert sim.pending_events == 0  # nothing half-scheduled
        first = sim.schedule(1.0, fired.append, "ok")
        assert first.seq == 0  # no sequence numbers were consumed either
        sim.run()
        assert fired == ["ok"]

    def test_batch_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_sorted_at([(5.0, lambda: None, ())])

    def test_batch_events_are_cancellable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_sorted_at(
            [(1.0, fired.append, ("a",)), (2.0, fired.append, ("b",))]
        )
        sim.cancel(events[0])
        sim.run()
        assert fired == ["b"]


class TestBatchCallScheduling:
    """The batch fast paths: schedule_sorted_calls / schedule_calls."""

    def test_sorted_calls_match_schedule_call_loop_order(self):
        # Duplicate timestamps spanning the batch boundary: global seq
        # order (batch entries in input order, then later singles) must
        # be identical to the equivalent schedule_call loop.
        batched, looped = Simulator(), Simulator()
        got_b, got_l = [], []
        triples = [(1.0, got_b.append, ("a",)), (2.0, got_b.append, ("b",)),
                   (2.0, got_b.append, ("c",))]
        batched.schedule_sorted_calls(triples)
        batched.schedule_call(2.0, got_b.append, "d")
        for t, _fn, args in triples:
            looped.schedule_call(t, got_l.append, *args)
        looped.schedule_call(2.0, got_l.append, "d")
        batched.run()
        looped.run()
        assert got_b == got_l == ["a", "b", "c", "d"]
        assert batched.events_processed == looped.events_processed == 4

    def test_sorted_calls_heapify_path_interleaves_with_singles(self):
        # A batch much larger than the calendar takes the heapify path;
        # pop order must still honour (time, seq) against prior singles.
        sim = Simulator()
        fired = []
        sim.schedule_call(2.5, fired.append, "single")
        sim.schedule_sorted_calls(
            (float(i), fired.append, (i,)) for i in range(50)
        )
        sim.run()
        assert fired.index("single") == 3  # after t=0,1,2, before t=3
        assert [x for x in fired if x != "single"] == list(range(50))

    def test_sorted_calls_shared_event_cancels_remaining_entries(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_sorted_calls(
            [(1.0, fired.append, ("a",)), (2.0, fired.append, ("b",)),
             (3.0, fired.append, ("c",))]
        )
        sim.schedule_at(1.5, sim.cancel, event)
        sim.run()
        # "a" already dispatched before the cancel; the rest of the
        # batch dies with the shared event.
        assert fired == ["a"]
        assert sim.events_processed == 2  # "a" + the cancelling event

    def test_sorted_calls_unsorted_batch_is_atomic(self):
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError):
            sim.schedule_sorted_calls(
                [(2.0, fired.append, ("a",)), (1.0, fired.append, ("b",))]
            )
        assert sim.pending_events == 0
        assert sim.schedule(1.0, fired.append, "ok").seq == 0  # no seq burned
        sim.run()
        assert fired == ["ok"]

    def test_sorted_calls_past_entry_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_sorted_calls([(5.0, lambda: None, ())])

    def test_sorted_calls_empty_batch_returns_inert_event(self):
        sim = Simulator()
        event = sim.schedule_sorted_calls([])
        assert sim.pending_events == 0
        sim.cancel(event)  # harmless: nothing shares it
        sim.run()
        assert sim.events_processed == 0

    def test_sorted_calls_drain_honours_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule_sorted_calls(
            [(1.0, fired.append, ("a",)), (2.0, sim.stop, ()),
             (3.0, fired.append, ("c",))]
        )
        sim.run()
        assert fired == ["a"]
        sim.run()  # resumes where stop() left off
        assert fired == ["a", "c"]

    def test_schedule_calls_matches_schedule_call_loop(self):
        batched, looped = Simulator(), Simulator()
        got_b, got_l = [], []
        delays = [(3.0, got_b.append, ("x",)), (1.0, got_b.append, ("y",)),
                  (1.0, got_b.append, ("z",))]
        batched.schedule_calls(delays)
        for d, _fn, args in delays:
            looped.schedule_call(d, got_l.append, *args)
        batched.run()
        looped.run()
        assert got_b == got_l == ["y", "z", "x"]

    def test_schedule_calls_negative_delay_is_atomic(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_calls(
                [(1.0, lambda: None, ()), (-0.5, lambda: None, ())]
            )
        assert sim.pending_events == 0
        assert sim.schedule(1.0, lambda: None).seq == 0


class TestScheduleCall:
    def test_schedule_call_fires_like_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule_call(2.0, fired.append, "x")
        sim.schedule(1.0, fired.append, "y")
        sim.run()
        assert fired == ["y", "x"]
        assert sim.events_processed == 2

    def test_schedule_call_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.5, lambda: None)


class TestStepAndStop:
    def test_step_processes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert fired == [1, 2]
        assert not sim.step()

    def test_stop_interrupts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, lambda: sim.stop())
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]
        sim.run()  # resumes
        assert fired == [1, 3]

    def test_stop_then_step_clears_stop_like_run_does(self):
        # Regression (ISSUE 2): step() used to bypass the _running/_stopped
        # bookkeeping and silently carry a stale stop() request across calls.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.stop()
        assert sim.stop_requested
        assert sim.step()  # a prior stop() is cleared on entry, as in run()
        assert fired == [1]
        assert not sim.stop_requested
        sim.run()
        assert fired == [1, 2]

    def test_step_maintains_running_flag(self):
        sim = Simulator()
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.running))
        assert not sim.running
        sim.step()
        assert observed == [True]
        assert not sim.running

    def test_stop_during_step_is_visible_afterwards(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.step()
        assert sim.stop_requested  # recorded, and cleared by the next run()
        sim.run()
        assert sim.events_processed == 2

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None


class TestCounters:
    def test_events_processed_counts_only_executed(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        ev = sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        sim.run()
        assert sim.events_processed == 5
