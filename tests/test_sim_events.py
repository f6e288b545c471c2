"""Tests for the discrete-event scheduler (:mod:`repro.sim.events`)."""

import pytest

from oracles.sim import EventScheduler as ReferenceScheduler
from repro.errors import SimulationError
from repro.sim import EventScheduler


def deliver_to(sink):
    """A delivery callback appending the delivered message to ``sink``."""

    def callback(sender, target, message):
        sink.append(message)

    return callback


def test_events_run_in_time_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule(2.0, lambda: order.append("late"))
    scheduler.schedule(1.0, lambda: order.append("early"))
    scheduler.run()
    assert order == ["early", "late"]
    assert scheduler.now == pytest.approx(2.0)


def test_ties_broken_by_insertion_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule(1.0, lambda: order.append("first"))
    scheduler.schedule(1.0, lambda: order.append("second"))
    scheduler.run()
    assert order == ["first", "second"]


def test_negative_delay_rejected():
    scheduler = EventScheduler()
    with pytest.raises(SimulationError):
        scheduler.schedule(-1.0, lambda: None)


def test_nan_times_rejected():
    """NaN compares false with everything: ``time < now`` let it into the heap."""
    scheduler = EventScheduler()
    nan = float("nan")
    with pytest.raises(SimulationError):
        scheduler.schedule(nan, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.schedule_at(nan, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.schedule_delivery(nan, False, lambda *args: None, "a", "b", "m")
    assert scheduler.pending() == 0


def test_schedule_in_the_past_rejected():
    scheduler = EventScheduler()
    scheduler.schedule(5.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.schedule_at(1.0, lambda: None)


def test_cancelled_events_do_not_fire():
    scheduler = EventScheduler()
    fired = []
    event = scheduler.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    scheduler.run()
    assert not fired
    assert scheduler.events_processed == 0


def test_events_can_schedule_more_events():
    scheduler = EventScheduler()
    seen = []

    def first():
        seen.append("first")
        scheduler.schedule(1.0, lambda: seen.append("second"))

    scheduler.schedule(1.0, first)
    scheduler.run()
    assert seen == ["first", "second"]
    assert scheduler.now == pytest.approx(2.0)


def test_run_respects_max_time():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule(1.0, lambda: seen.append(1))
    scheduler.schedule(10.0, lambda: seen.append(2))
    scheduler.run(max_time=5.0)
    assert seen == [1]
    assert scheduler.now == pytest.approx(5.0)
    assert scheduler.pending() == 1


@pytest.mark.parametrize(
    "scheduler_class", [EventScheduler, ReferenceScheduler], ids=["production", "reference"]
)
def test_stop_ends_the_run_at_exactly_the_stopping_event(scheduler_class):
    scheduler = scheduler_class()
    seen = []

    def note(i):
        seen.append(i)
        if len(seen) == 3:
            scheduler.stop()

    for i in range(5):
        scheduler.schedule(float(i + 1), lambda i=i: note(i))
    scheduler.run()
    assert seen == [0, 1, 2]
    assert scheduler.events_processed == 3
    assert scheduler.now == 3.0
    assert scheduler.pending() == 2
    # The next run starts unstopped and drains the rest.
    scheduler.run()
    assert seen == [0, 1, 2, 3, 4]
    assert scheduler.events_processed == 5


@pytest.mark.parametrize(
    "scheduler_class", [EventScheduler, ReferenceScheduler], ids=["production", "reference"]
)
def test_stop_outside_a_run_does_nothing(scheduler_class):
    scheduler = scheduler_class()
    scheduler.stop()
    fired = []
    scheduler.schedule(1.0, lambda: fired.append(1))
    scheduler.run()
    assert fired == [1] and scheduler.events_processed == 1


def test_stop_from_a_delivery_leaves_later_deliveries_queued():
    scheduler = EventScheduler()
    sink = []

    def stop_on_second(sender, target, message):
        sink.append(message)
        if message == 2:
            scheduler.stop()

    for message in (1, 2, 3):
        scheduler.schedule_delivery(1.0, True, stop_on_second, "a", "b", message)
    scheduler.run()
    assert sink == [1, 2]
    assert scheduler.pending() == 1


def test_events_processed_counter():
    scheduler = EventScheduler()
    for i in range(3):
        scheduler.schedule(float(i), lambda: None)
    scheduler.run()
    assert scheduler.events_processed == 3


# --------------------------------------------------------------------------- #
# Hot path: tuple queue, FIFO short-circuit lane, lazy-deletion compaction
# --------------------------------------------------------------------------- #
def test_pending_is_live_count_with_cancellations():
    scheduler = EventScheduler()
    events = [scheduler.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert scheduler.pending() == 6
    events[0].cancel()
    events[3].cancel()
    assert scheduler.pending() == 4
    # Cancelling twice (or after compaction dropped the event) changes nothing.
    events[0].cancel()
    assert scheduler.pending() == 4
    scheduler.run()
    assert scheduler.pending() == 0
    assert scheduler.events_processed == 4


def test_cancel_after_fire_is_a_noop_for_the_live_count():
    scheduler = EventScheduler()
    event = scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    assert scheduler.pending() == 0
    event.cancel()
    assert scheduler.pending() == 0


def test_compaction_drops_cancelled_events_from_the_heap():
    scheduler = EventScheduler()
    keep = [scheduler.schedule(100.0 + i, lambda: None) for i in range(3)]
    doomed = [scheduler.schedule(1_000_000.0 + i, lambda: None) for i in range(20)]
    for event in doomed:
        event.cancel()
    # The cancelled majority was compacted away instead of occupying the heap
    # until simulated time one million; the lazy-deletion invariant keeps
    # cancelled corpses at no more than half the heap.
    assert len(scheduler._queue) <= 2 * len(keep)
    assert scheduler.pending() == 3
    scheduler.run()
    assert scheduler.events_processed == 3


def test_pool_reuse_does_not_leak_stale_callbacks_or_cancelled_state():
    """No queue entry outlives its firing, and a handle acts at most once.

    (Named for the recycling pool the tuple queue replaced; the property is
    the same: nothing stale — callback or cancelled flag — survives a round.)
    """
    scheduler = EventScheduler()
    fired = []
    for round_index in range(50):
        for i in range(4):
            scheduler.schedule_delivery(1.0, True, deliver_to(fired), "s", "t", (round_index, i))
        scheduler.run()
        assert not scheduler._fifo and not scheduler._queue
    assert fired == [(r, i) for r in range(50) for i in range(4)]

    # Cancel-after-fire: the handle is spent, later events are unaffected.
    first = scheduler.schedule(1.0, lambda: fired.append("first"))
    scheduler.run()
    first.cancel()
    assert not first.cancelled
    second = scheduler.schedule(1.0, lambda: fired.append("second"))
    assert second is not first and second.seq > first.seq
    scheduler.run()
    assert fired[-2:] == ["first", "second"]

    # Cancel-then-compact (the third cancellation tips 3 of 4 past one half):
    # the corpses are gone from the heap, their handles stay cancelled, and a
    # second cancel() cannot disturb the live count.
    doomed = [scheduler.schedule(50.0 + i, lambda: fired.append("doomed")) for i in range(3)]
    survivor = scheduler.schedule(10.0, lambda: fired.append("survivor"))
    for handle in doomed:
        handle.cancel()
    assert [entry[3] for entry in scheduler._queue] == [survivor]
    for handle in doomed:
        handle.cancel()
        assert handle.cancelled
    assert scheduler.pending() == 1
    scheduler.run()
    assert fired[-1] == "survivor" and "doomed" not in fired
    assert scheduler.pending() == 0 and scheduler._heap_cancelled == 0


def test_fifo_lane_merges_with_heap_in_time_seq_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule(2.0, lambda: order.append("heap@2"))
    scheduler.schedule_delivery(1.0, True, deliver_to(order), "s", "t", "fifo@1")
    scheduler.schedule_delivery(2.0, True, deliver_to(order), "s", "t", "fifo@2")
    scheduler.schedule(1.0, lambda: order.append("heap@1"))
    scheduler.run()
    # Ties at t=1 and t=2 break by scheduling order (seq), exactly like the
    # reference single-heap path would order them.
    assert order == ["fifo@1", "heap@1", "heap@2", "fifo@2"]


def test_fifo_lane_falls_back_to_heap_on_out_of_order_times():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule_delivery(5.0, True, deliver_to(order), "s", "t", "late")
    # A misdeclared delay model handing out a shorter delivery after a longer
    # one must still fire in time order.
    scheduler.schedule_delivery(1.0, True, deliver_to(order), "s", "t", "early")
    assert len(scheduler._fifo) == 1 and len(scheduler._queue) == 1
    scheduler.run()
    assert order == ["early", "late"]


def test_fifo_and_pooled_reject_negative_delays():
    scheduler = EventScheduler()
    for fifo in (False, True):
        with pytest.raises(SimulationError):
            scheduler.schedule_delivery(-1.0, fifo, deliver_to([]), "s", "t", "m")
    assert scheduler.pending() == 0


def test_reference_path_routes_everything_through_the_heap():
    scheduler = ReferenceScheduler()
    fired = []
    scheduler.schedule_delivery(1.0, True, deliver_to(fired), "s", "t", "a")
    scheduler.schedule_delivery(2.0, False, deliver_to(fired), "s", "t", "b")
    assert not hasattr(scheduler, "_fifo")
    assert len(scheduler._queue) == 2
    scheduler.run()
    assert fired == ["a", "b"]
    assert not scheduler._queue


def test_run_max_time_considers_the_fifo_lane():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule_delivery(1.0, True, deliver_to(seen), "s", "t", 1)
    scheduler.schedule_delivery(10.0, True, deliver_to(seen), "s", "t", 2)
    scheduler.run(max_time=5.0)
    assert seen == [1]
    assert scheduler.now == pytest.approx(5.0)
    assert scheduler.pending() == 1
    scheduler.run()
    assert seen == [1, 2]


def test_timers_and_deliveries_at_one_instant_fire_in_seq_order_on_both_lanes():
    """Timer entries and argument-carrying delivery entries scheduled for the
    same instant, deliveries on the heap lane and on the FIFO lane, fire in
    the order they were scheduled — and each delivery gets its own arguments."""
    for fifo in (False, True):
        scheduler = EventScheduler()
        fired = []
        expected = []

        def deliver(sender, target, message):
            fired.append((sender, target, message))

        for index in range(12):
            if index % 3 == 1:
                scheduler.schedule(1.0, lambda index=index: fired.append(("timer", index)))
                expected.append(("timer", index))
            else:
                scheduler.schedule_delivery(
                    1.0, fifo, deliver, "s{}".format(index), index, ("m", index)
                )
                expected.append(("s{}".format(index), index, ("m", index)))
        assert bool(scheduler._fifo) == fifo
        scheduler.run()
        assert fired == expected
        assert scheduler.events_processed == 12 and scheduler.now == 1.0
        assert scheduler.pending() == 0
