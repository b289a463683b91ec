"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [5.5]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [10.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append("x"))
        h.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append("x"))
        sim.run_until_idle()
        h.cancel()
        assert fired == ["x"]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        end = sim.run_until(5.0)
        assert fired == [1]
        assert end == 5.0
        assert sim.now == 5.0
        assert sim.pending == 1  # the t=10 event remains queued

    def test_stop_predicate_halts_early(self):
        sim = Simulator()
        fired = []
        for t in range(1, 6):
            sim.schedule(float(t), lambda t=t: fired.append(t))
        sim.run_until(100.0, stop=lambda: len(fired) >= 2)
        assert fired == [1, 2]

    def test_max_events_budget(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run_until(1e9, max_events=50)
        assert count[0] == 50

    def test_run_until_idle_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run_until_idle(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        sim.run_until_idle()
        assert sim.events_fired == 5


class TestEdgeCases:
    def test_run_until_idle_on_already_idle(self):
        sim = Simulator()
        assert sim.run_until_idle() == 0.0
        assert sim.now == 0.0
        assert sim.events_fired == 0
        # Idempotent: calling again after a run changes nothing.
        sim.schedule(2.0, lambda: None)
        sim.run_until_idle()
        assert sim.run_until_idle() == 2.0
        assert sim.events_fired == 1

    def test_same_timestamp_fifo_across_scheduling_styles(self):
        # Relative and absolute scheduling at the same instant still fire
        # in scheduling order (the FIFO tie-break covers both APIs).
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("rel-first"))
        sim.schedule_at(1.0, lambda: fired.append("abs-second"))
        sim.schedule(1.0, lambda: fired.append("rel-third"))
        sim.run_until_idle()
        assert fired == ["rel-first", "abs-second", "rel-third"]

    def test_same_timestamp_fifo_for_events_scheduled_while_firing(self):
        # An event scheduled with zero delay from inside a handler fires
        # at the same timestamp, after already-queued same-time events.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"),
                                   sim.schedule(0.0, lambda: fired.append("late"))))
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.run_until_idle()
        assert fired == ["a", "b", "late"]

    def test_cancel_before_firing_inside_run_until(self):
        # A cancelled event at the queue head is skipped by run_until's
        # lazy-deletion path without advancing the clock to its time.
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        h.cancel()
        end = sim.run_until(5.0)
        assert fired == ["kept"]
        assert end == 5.0
        assert sim.events_fired == 1

    def test_cancel_from_within_event_at_same_time(self):
        # Cancelling a same-timestamp sibling from a handler prevents it
        # from firing even though it was already queued.
        sim = Simulator()
        fired = []
        handles = []
        sim.schedule(1.0, lambda: (fired.append("first"), handles[0].cancel()))
        handles.append(sim.schedule(1.0, lambda: fired.append("second")))
        sim.run_until_idle()
        assert fired == ["first"]

    def test_cancel_after_firing_keeps_counters(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        h.cancel()  # no-op
        assert sim.events_fired == 1
        assert sim.pending == 0

    def test_run_until_max_events_exhaustion_preserves_queue(self):
        sim = Simulator()
        fired = []
        for t in range(6):
            sim.schedule(float(t + 1), lambda t=t: fired.append(t))
        end = sim.run_until(100.0, max_events=3)
        # Stopped at the third event's time, with the rest still queued.
        assert fired == [0, 1, 2]
        assert end == 3.0
        assert sim.now == 3.0
        assert sim.pending == 3
        # Resuming picks up exactly where the budget ran out.
        sim.run_until(100.0)
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_run_until_max_events_counts_only_fired_not_cancelled(self):
        sim = Simulator()
        fired = []
        cancelled = [sim.schedule(0.5, lambda: fired.append("x")) for _ in range(4)]
        for h in cancelled:
            h.cancel()
        for t in range(3):
            sim.schedule(float(t + 1), lambda t=t: fired.append(t))
        sim.run_until(100.0, max_events=2)
        assert fired == [0, 1]  # cancelled events did not consume budget

    def test_run_until_stop_checked_after_each_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(1.0, lambda: fired.append(2))
        end = sim.run_until(10.0, stop=lambda: True)
        assert fired == [1]
        assert end == 1.0  # clock NOT advanced to the horizon on early stop


class TestOrderingEdgeCases:
    """(time, seq) ordering at the queue's extremes.

    Exercised purely through the public API: far-future events, large
    and duplicate-heavy loads, horizons landing exactly on and between
    event times, and scheduling again after long quiet stretches.
    """

    def test_far_future_events_order_correctly(self):
        # Times spanning nine orders of magnitude, scheduled out of order.
        sim = Simulator()
        fired = []
        for t in (1e9, 5.0, 1e6, 0.5, 1e3):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run_until_idle()
        assert fired == [0.5, 5.0, 1e3, 1e6, 1e9]

    def test_interleaved_near_and_far_pushes(self):
        # Events scheduled *while running*, interleaving near and far
        # times, still fire in global (time, seq) order.
        sim = Simulator()
        fired = []

        def hop(n):
            fired.append(sim.now)
            if n < 40:
                sim.schedule(0.1, lambda: hop(n + 1))       # near
                sim.schedule(500.0 + n, lambda: fired.append(sim.now))

        sim.schedule(0.0, lambda: hop(0))
        sim.run_until_idle()
        assert fired == sorted(fired)

    def test_large_load_keeps_exact_order(self):
        # 2000 entries with many duplicate timestamps: the (time, seq)
        # total order holds, including the FIFO tie-break.
        import random

        rng = random.Random(7)
        sim = Simulator()
        times = [round(rng.uniform(0.0, 300.0), 1) for _ in range(2000)]
        fired = []
        expected = []
        for i, t in enumerate(times):
            sim.schedule_at(t, lambda t=t, i=i: fired.append((t, i)))
            expected.append((t, i))
        sim.run_until_idle()
        assert fired == sorted(expected)

    def test_run_until_exactly_at_event_time_fires_it(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(60.0, lambda: fired.append("at"))
        sim.schedule_at(60.0 + 1e-9, lambda: fired.append("after"))
        sim.run_until(60.0)
        assert fired == ["at"]          # horizon is inclusive
        assert sim.pending == 1
        sim.run_until_idle()
        assert fired == ["at", "after"]

    def test_horizon_stops_between_and_on_event_times(self):
        # Repeated short horizons that land between event times and
        # exactly on them never skip or re-fire events.
        sim = Simulator()
        fired = []
        for k in range(1, 61):
            sim.schedule_at(k * 10.0, lambda k=k: fired.append(k))
        for horizon in (95.0, 100.0, 155.5, 600.0):
            sim.run_until(horizon)
            assert fired == list(range(1, int(horizon // 10) + 1))
            assert sim.now == horizon

    def test_schedule_after_long_idle_gap(self):
        # Drain the queue, then schedule years ahead: the events fire
        # at their exact times.
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run_until_idle()
        fired = []
        sim.schedule_at(3.15e8, lambda: fired.append(sim.now))   # ~10 years
        sim.schedule_at(3.15e8 + 1.0, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == [3.15e8, 3.15e8 + 1.0]

    def test_cancelled_far_future_entries_drain_cleanly(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule_at(1e6 + k, lambda: fired.append("x"))
                   for k in range(10)]
        keep = sim.schedule_at(2.0, lambda: fired.append("keep"))
        for h in handles:
            h.cancel()
        assert keep is not None
        sim.run_until_idle()
        assert fired == ["keep"]
        assert sim.pending == 0

    def test_nonfinite_event_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(float("inf"), lambda: None)

    def test_nan_horizon_rejected(self):
        # NaN compares false with every event time, so a NaN horizon
        # would otherwise fire events until max_events.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            sim.run_until(float("nan"))
        assert sim.events_fired == 0 and sim.pending == 1 and sim.now == 0.0

    def test_identical_timestamps_en_masse_stay_fifo(self):
        # Every event at one instant: order is the FIFO tie-break alone.
        sim = Simulator()
        fired = []
        for i in range(1000):
            sim.schedule_at(42.0, lambda i=i: fired.append(i))
        sim.run_until_idle()
        assert fired == list(range(1000))


#: a few small delays with repeats, so same-instant ties are common
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0])

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("spawn"), _DELAYS, _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("horizon"), _DELAYS),
    st.tuples(st.just("max_events"), st.integers(1, 4)),
    st.tuples(st.just("stop_after"), st.integers(1, 4)),
)


class TestGeneratedPrograms:
    """Random programs of schedule/cancel/run calls against a model.

    The model numbers every scheduled entry in call order (the engine's
    FIFO ``seq``) with the time it was scheduled for.  Whatever the
    program, fired entries come out in ascending ``(time, seq)`` order,
    a run never skips a live entry it should have fired, and ``pending``
    is always scheduled - fired - cancelled.
    """

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(st.lists(_OPS, max_size=40))
    def test_fire_order_and_pending_match_the_model(self, program):
        sim = Simulator()
        keys = []        # entry id -> (time, seq); seq == entry id
        handles = []
        fired = []       # entry ids in fire order
        cancelled = set()

        def add(handle, time):
            keys.append((time, len(keys)))
            handles.append(handle)

        def make_action(eid, child_delay=None):
            def action():
                fired.append(eid)
                if child_delay is not None:
                    t = sim.now + child_delay
                    add(sim.schedule(child_delay, make_action(len(keys))), t)
            return action

        def live():
            done = set(fired) | cancelled
            return [i for i in range(len(keys)) if i not in done]

        for op in program:
            kind = op[0]
            if kind == "schedule":
                add(sim.schedule(op[1], make_action(len(keys))), sim.now + op[1])
            elif kind == "schedule_at":
                t = sim.now + op[1]
                add(sim.schedule_at(t, make_action(len(keys))), t)
            elif kind == "spawn":
                add(sim.schedule(op[1], make_action(len(keys), op[2])),
                    sim.now + op[1])
            elif kind == "cancel":
                if handles:
                    eid = op[1] % len(handles)
                    handles[eid].cancel()
                    if eid not in fired:
                        cancelled.add(eid)
            else:
                before = len(fired)
                if kind == "horizon":
                    horizon, budget = sim.now + op[1], None
                    end = sim.run_until(horizon)
                elif kind == "max_events":
                    horizon, budget = sim.now + 10.0, op[1]
                    end = sim.run_until(horizon, max_events=budget)
                else:
                    horizon, budget = sim.now + 10.0, op[1]
                    end = sim.run_until(
                        horizon, stop=lambda: len(fired) - before >= budget)
                ran = fired[before:]
                assert end == sim.now
                if budget is not None and len(ran) == budget:
                    # Stopped early: the clock stays at the last event.
                    assert sim.now == keys[ran[-1]][0]
                else:
                    # Stopped by the horizon: nothing live is due.
                    assert budget is None or len(ran) < budget
                    assert sim.now == horizon
                    assert all(keys[i][0] > horizon for i in live())
                if ran:
                    # Nothing still live sorts before what already fired.
                    assert all(keys[i] > keys[ran[-1]] for i in live())
            assert sim.pending == len(keys) - len(fired) - len(cancelled)
            assert sim.events_fired == len(fired)
            assert not cancelled & set(fired)

        sim.run_until_idle()
        assert sim.pending == 0
        assert fired == sorted(set(range(len(keys))) - cancelled,
                               key=keys.__getitem__)
