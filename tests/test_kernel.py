import gc
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from noclock import harness, kernel, messages
from noclock.adversary import RATE_SCHEDULES, SilentNode
from noclock.kernel import (ACTION, DELAY_STEPS, DELIVERY, THRESHOLD,
                            HardwareClock, Simulator, SimulatorBug, tick_grid)
from noclock.messages import Garbage, Init, RoundMsg, Update
from noclock.node import NodeRuntime
from noclock.protocols import make_protocol
from noclock.scenario import Scenario
from noclock.timebase import frac
from shapes import derive_pk4


# The grid unit of the exact-reference tests, which read no grid.
UNIT = Fraction(1, 20)
# A time step the tick grids of `make_sim` and `timed_sim` hold, so that the
# tests can run to any hundredth.
HUNDREDTH = Fraction(1, 100)


class Recorder:
    """One node's handler; the nodes' recorders share one event list."""

    def __init__(self, node, events):
        self.node = node
        self.events = events

    def on_threshold(self, units, tag):
        self.events.append(("thr", self.node, units, tag))

    def on_deliver(self, sender, envelope):
        self.events.append(("msg", self.node, sender, envelope))

    def on_malformed(self, sender):
        self.events.append(("bad", self.node, sender))

    def on_action(self):
        self.events.append(("act", self.node))


def make_sim(rates=None, n=2, delay_policy=lambda *a: 512):
    p = derive_pk4(4, 1, "1.1", "1")
    rates = rates or [(0, 1)]
    clocks = {v: HardwareClock(0, rates, p.grid.unit) for v in range(n)}
    tick_grid(clocks.values(), [p.d / DELAY_STEPS, HUNDREDTH])
    events = []
    handlers = {v: Recorder(v, events) for v in range(n)}
    sim = Simulator(p, clocks, handlers, delay_policy, random.Random(0))
    return sim, handlers[0]


def test_schedule_into_empty_queue_becomes_head():
    sim, rec = make_sim()
    sim.schedule(frac("2.5"), DELIVERY, 0, (1, Init(0), True, "Init"))
    sim.run_until(10)
    assert rec.events == [("msg", 0, 1, Init(0))]


def test_same_time_events_ordered_by_node_id():
    sim, rec = make_sim()
    sim.schedule(frac(3), ACTION, 1, None)
    sim.schedule(frac(3), ACTION, 0, None)
    sim.run_until(10)
    assert [e[1] for e in rec.events] == [0, 1]


def test_threshold_events_precede_deliveries_at_equal_time():
    sim, rec = make_sim()
    sim.schedule(frac(3), DELIVERY, 0, (1, Init(0), True, "Init"))
    sim.schedule(frac(3), THRESHOLD, 0, (60, ("tick",)))
    sim.run_until(10)
    assert [e[0] for e in rec.events] == ["thr", "msg"]


@pytest.mark.parametrize("fails", [False, True], ids=["ends", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_the_event_loop_pauses_and_restores_the_collector(enabled, fails):
    """The loop runs with the cyclic collector off; after it, whether it
    ends or a handler's `SimulatorBug` ends it, the collector is as the
    caller left it, and no object was frozen or thawed."""
    sim, rec = make_sim()
    seen = []

    def on_action():
        seen.append(gc.isenabled())
        if fails:
            sim.alarm(0, 0, ("late",))  # local 0 passed: a SimulatorBug
    rec.on_action = on_action
    sim.schedule(frac(1), ACTION, 0, None)
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SimulatorBug) if fails else nullcontext():
            sim.run_until(2)
        assert seen == [False]
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


def test_scheduling_in_the_past_is_a_bug():
    sim, _ = make_sim()
    sim.run_until(2)
    with pytest.raises(SimulatorBug):
        sim.schedule(frac(1), ACTION, 0, None)


def test_a_deadline_before_now_is_a_bug():
    sim, _ = make_sim()
    sim.run_until(2)
    with pytest.raises(SimulatorBug, match="deadline precedes"):
        sim.run_until(1)
    assert sim.now == 2


@pytest.mark.parametrize("extra", [0, 1], ids=["within", "past"])
def test_one_event_past_its_action_budget_is_a_bug(monkeypatch, extra):
    """An event may queue the budget's alarms, send sets and scheduled
    events, and no more; a send set counts once, however many receivers it
    has.  What is queued outside an event counts against no budget."""
    monkeypatch.setattr(kernel, "MAX_ACTIONS_PER_EVENT", 4)
    sim, rec = make_sim(n=4)
    for _ in range(10):
        sim.schedule(frac(2), ACTION, 1, None)
    sim.multicast(0, [None, Init(1), Init(2), Init(3)])

    def on_action():
        sim.multicast(0, [None, Init(1), Init(2), Init(3)])
        sim.alarm(0, 100, ("x",))
        for _ in range(2 + extra):
            sim.schedule(frac(3), ACTION, 2, None)
    rec.on_action = on_action
    sim.schedule(frac(1), ACTION, 0, None)
    with pytest.raises(SimulatorBug, match="action budget") if extra \
            else nullcontext():
        sim.run_until(2)


def test_a_long_script_runs_under_a_small_action_budget(monkeypatch):
    monkeypatch.setattr(kernel, "MAX_ACTIONS_PER_EVENT", 10)
    script = [{"t": f"{k}/7", "node": 0, "action": "initiate"}
              for k in range(1, 40)]
    res = harness.run(Scenario(n=4, f=1, duration="12", script=script),
                      evaluate=False)
    assert any(rec[0] == "init" for rec in res.trace)


def test_inverting_a_value_before_the_clock_start_is_refused():
    clock = HardwareClock(5, [(0, 1)], UNIT)
    tick_grid([clock], [])
    assert clock.invert(frac(5)) == 0 and clock.tick_at(100) == 0
    with pytest.raises(ValueError, match="precedes clock start"):
        clock.invert(frac("4.95"))
    with pytest.raises(ValueError, match="precedes clock start"):
        clock.tick_at(99)


def test_a_time_off_the_tick_grid_raises():
    sim, rec = make_sim()       # the grid holds 1/100, 1/1024 and 1/20
    third = Fraction(1, 3)
    with pytest.raises(SimulatorBug, match="off the tick grid"):
        sim.schedule(third, ACTION, 0, None)
    with pytest.raises(SimulatorBug, match="off the tick grid"):
        sim.inject_garbage(0, 1, Init(5), third)
    with pytest.raises(SimulatorBug, match="off the tick grid"):
        sim.run_until(third)
    assert sim._queue == [] and sim.now == 0


def test_run_until_empty_queue_advances_time():
    sim, rec = make_sim()
    sim.run_until(10)
    assert sim.now == 10
    assert rec.events == []
    assert sim.trace == []


def test_local_clock_identity_rate():
    clock = HardwareClock(0, [(0, 1)], UNIT)
    assert clock.value(frac(7)) == 7


def test_local_clock_constant_max_rate():
    clock = HardwareClock(0, [(0, frac("1.1"))], UNIT)
    assert clock.value(frac(10)) == 11


def test_local_clock_piecewise_matches_summation_oracle():
    # rate 1 on [0,5), 1.1 on [5,10]; oracle: stepwise Riemann sum on the
    # 1/8 grid, exact for piecewise-constant rates with on-grid breakpoints.
    clock = HardwareClock(0, [(0, 1), (5, frac("1.1"))], UNIT)
    step = Fraction(1, 8)
    acc = Fraction(0)
    t = Fraction(0)
    while t < 10:
        rate = 1 if t < 5 else frac("1.1")
        acc += rate * step
        t += step
    assert acc == Fraction("10.5")
    assert clock.value(frac(10)) == acc


def test_threshold_inversion_identity_rate():
    sim, rec = make_sim()
    sim.run_until(3)          # clock value 3 at rate 1
    sim.alarm(0, 100, ("x",))  # local 5.0 in units of 1/20
    sim.run_until(10)
    assert rec.events == [("thr", 0, 100, ("x",))]
    # fired exactly at real time 5 (rate 1): event order says nothing more,
    # so check via a fresh clock inversion
    assert HardwareClock(0, [(0, 1)], UNIT).invert(frac(5)) == 5


def test_threshold_inversion_at_max_rate():
    # threshold 2.2*theta*d with theta=1.1, d=1 is local 2.42, real 2.2
    clock = HardwareClock(0, [(0, frac("1.1"))], UNIT)
    assert clock.invert(frac("2.42")) == frac("2.2")


def test_local_units_floor_the_clock_to_the_grid():
    sim, _ = make_sim(rates=[(0, frac("1.1"))])
    sim.run_until(frac("2.75"))         # clock 3.025, grid unit 1/20
    assert sim.local_units(0) == 60


def test_threshold_already_passed_is_a_bug():
    sim, _ = make_sim()
    sim.run_until(3)
    with pytest.raises(SimulatorBug):
        sim.alarm(0, 20, ("x",))   # local 1.0 already passed (clock at 3.0)


def to_one(receiver, envelope):
    """An n = 4 send set that carries `envelope` to `receiver` alone."""
    envelopes = [None] * 4
    envelopes[receiver] = envelope
    return envelopes


def test_send_rejects_delays_outside_open_interval():
    sim, _ = make_sim()
    with pytest.raises(SimulatorBug):
        sim.multicast(0, to_one(1, Init(0)), delay=1024)
    with pytest.raises(SimulatorBug):
        sim.multicast(0, to_one(1, Init(0)), delay=0)


@pytest.mark.parametrize("delay", [-1, Fraction(1, 2), True])
def test_send_rejects_a_delay_that_is_not_a_positive_step_count(delay):
    sim, rec = make_sim()
    with pytest.raises(SimulatorBug):
        sim.multicast(0, to_one(1, Init(0)), delay=delay)
    sim.run_until(2)
    assert sim.trace == [] and rec.events == []


class Timed(Recorder):
    """A recorder that also notes the simulated time of each event."""

    def __init__(self, node, events, sim):
        super().__init__(node, events)
        self.sim = sim

    def on_threshold(self, units, tag):
        self.events.append(("thr", self.sim.now, units))

    def on_deliver(self, sender, envelope):
        self.events.append(("msg", self.sim.now, sender))

    def on_malformed(self, sender):
        self.events.append(("bad", self.sim.now, sender))


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from(["1", "3/2", "7/3"]),
       start=st.fractions(min_value=0, max_value=40, max_denominator=97),
       k=st.integers(1, DELAY_STEPS - 1))
def test_delivery_time_is_now_plus_k_steps_of_d(d, start, k):
    p = derive_pk4(4, 1, "1.1", d)
    clocks = {v: HardwareClock(0, [(0, 1)], p.grid.unit) for v in range(2)}
    tick_grid(clocks.values(), [p.d / DELAY_STEPS, start])
    events = []
    sim = Simulator(p, clocks, {}, lambda *a: k, random.Random(0))
    sim.handlers.update({v: Timed(v, events, sim) for v in range(2)})
    sim.run_until(start)
    sim.send(0, 1, Init(0))
    sim.run_until(start + p.d)
    assert events == [("msg", start + k * p.d / DELAY_STEPS, 0)]


@pytest.mark.parametrize("schedule", [
    [],                                   # no segment
    [(1, 1)],                             # the first start is not 0
    [(frac("0.5"), 1), (1, 1)],
    [(0, 1), (2, frac("1.1")), (2, 1)],   # a start that does not increase
    [(0, 1), (3, 1), (frac("5/2"), 1)],
    [(0, 0)],                             # a rate that is not positive
    [(0, 1), (1, frac("-1/2"))],
])
def test_clock_refuses_a_schedule_it_cannot_follow(schedule):
    with pytest.raises(ValueError):
        HardwareClock(0, schedule, UNIT)


def random_schedule(data, theta):
    """A rate schedule in [1, theta] with up to five later segments."""
    def rate():
        return 1 + Fraction(data.draw(st.integers(0, 8)), 8) * (theta - 1)
    segs = [(0, rate())]
    for _ in range(data.draw(st.integers(0, 5))):
        segs.append((segs[-1][0] + data.draw(st.fractions(
            min_value=Fraction(1, 8), max_value=9, max_denominator=24)), rate()))
    return segs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grid_inversion_equals_the_exact_clock_inversion(data):
    theta = frac(data.draw(st.sampled_from(["1", "1.1", "1.25", "1.3"])))
    p = derive_pk4(4, 1, theta, "1")
    grid = p.grid
    offset = data.draw(st.integers(0, 400)) * grid.unit
    clock = HardwareClock(offset, random_schedule(data, theta), grid.unit)
    ticks = tick_grid([clock], [])
    first = grid.ceil_units(offset)
    # The first grid value on or after each segment start, the one before
    # it, and values in any order and past the last segment.
    starts = [grid.ceil_units(h) for h in clock.h_starts]
    units = st.one_of(st.sampled_from(starts),
                      st.sampled_from(starts).map(lambda u: max(first, u - 1)),
                      st.integers(first, starts[-1] + 4000))
    for u in data.draw(st.lists(units, min_size=1, max_size=30)):
        tick = clock.tick_at(u)
        assert Fraction(tick, ticks) == clock.invert(grid.from_units(u))
    with pytest.raises(ValueError):
        clock.tick_at(first - 1)


def test_alarm_fires_where_the_clock_reaches_its_value():
    rates = [(0, 1), (frac("2.5"), frac("1.1")), (7, frac("1.05"))]
    sim, _ = make_sim(rates=rates)
    events = []
    sim.handlers[0] = Timed(0, events, sim)
    sim.run_until(1)
    for units in (30, 60, 61, 150, 400):
        sim.alarm(0, units, ("x",))
    sim.run_until(30)
    clock = sim.clocks[0]
    assert events == [("thr", clock.invert(sim.p.grid.from_units(u)), u)
                      for u in (30, 60, 61, 150, 400)]


def test_send_prices_the_envelope_and_asks_the_policy_per_receiver():
    asked = []

    def policy(receiver, rng):
        asked.append(receiver)
        return 256
    sim, rec = make_sim(delay_policy=policy)
    env = RoundMsg((0, 0), 1, (1, 0, 1))
    sim.send(0, 1, env)
    sim.send(1, 0, Init(0))
    assert asked == [1, 0]
    assert sim.trace == [
        ("send", 0, 0, 1, "RoundMsg", env.frame_bits(sim.p), 3, env),
        ("send", 0, 1, 0, "Init", Init(0).frame_bits(sim.p), 0, Init(0))]
    sim.run_until(1)
    assert [e[:3] for e in rec.events] == [("msg", 0, 1), ("msg", 1, 0)]


def test_garbage_injection_window():
    sim, rec = make_sim()
    sim.inject_garbage(0, 1, Init(5), frac("0.5"))
    with pytest.raises(ValueError):
        sim.inject_garbage(0, 1, Init(5), frac("1.5"))
    sim.run_until(2)
    assert ("msg", 1, 0, Init(5)) in rec.events


def test_garbage_injection_only_at_time_zero():
    sim, _ = make_sim()
    sim.run_until(frac("0.25"))
    with pytest.raises(SimulatorBug):
        sim.inject_garbage(0, 1, Init(5), frac("0.5"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drift_bound_holds_for_random_schedules(data):
    theta = frac("1.1")
    segs = [(0, 1 + Fraction(data.draw(st.integers(0, 8)), 8) * (theta - 1))]
    t = 0
    for _ in range(data.draw(st.integers(0, 5))):
        t += data.draw(st.integers(1, 7))
        segs.append((t, 1 + Fraction(data.draw(st.integers(0, 8)), 8)
                     * (theta - 1)))
    clock = HardwareClock(0, segs, UNIT)
    a = Fraction(data.draw(st.integers(0, 400)), 8)
    b = a + Fraction(data.draw(st.integers(1, 400)), 8)
    lo, hi = clock.value(a), clock.value(b)
    assert b - a <= hi - lo <= theta * (b - a)
    # strict monotonicity and exact inversion
    assert clock.invert(hi) == b


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grid_reading_equals_the_floored_exact_clock(data):
    p = derive_pk4(4, 1, "1.1", "1")
    rates = st.fractions(min_value=1, max_value=2, max_denominator=40)
    segs = [(0, data.draw(rates))]
    for _ in range(data.draw(st.integers(0, 6))):
        step = data.draw(st.fractions(min_value=Fraction(1, 16), max_value=9,
                                      max_denominator=16))
        segs.append((segs[-1][0] + step, data.draw(rates)))
    offset = data.draw(st.fractions(min_value=0, max_value=50,
                                    max_denominator=20))
    clock = HardwareClock(offset, segs, p.grid.unit)
    ticks = tick_grid([clock], [])
    last = segs[-1][0]
    starts = [s for s, _ in segs]
    # Segment starts and the instants just before them, times past the last
    # segment, and any order: the cursor must also go back.  A time off the
    # grid reads as the tick before it, since readings change only on ticks.
    times = st.one_of(
        st.sampled_from(starts),
        st.sampled_from(starts).map(lambda s: max(0, s - Fraction(1, 1024))),
        st.fractions(min_value=0, max_value=int(last) + 20,
                     max_denominator=1024))
    for t in data.draw(st.lists(times, min_size=1, max_size=40)):
        t = frac(t)
        assert clock.units_at(t.numerator * ticks // t.denominator) == \
            p.grid.floor_units(clock.value(t))


def test_reading_is_the_quantized_grid_reading():
    sim, _ = make_sim(rates=[(0, 1), (2, frac("1.1"))])
    for t in ("0.3", "2", "2.75", "9.99"):
        sim.run_until(frac(t))
        value = sim.clocks[0].value(sim.now)
        assert sim.local_units(0) == sim.p.grid.floor_units(value)
        q = sim.p.grid.q_units
        assert sim.reading(0) == sim.p.grid.floor_units(value) // q * q


def test_reading_floors_to_the_read_quantum():
    sim, _ = make_sim()   # rate 1 from 0: the local clock is the real time
    for t, units in (("7", 140), ("7.11", 140), ("7.49", 145)):
        sim.run_until(frac(t))                   # 7.11 -> 7.0, 7.49 -> 7.25
        assert sim.reading(0) == units


# Envelopes a send set may repeat: well-formed ones and malformed ones
# (a short clock vector, a stamp out of range, junk) at n = 4.
POOL = [Init(5), Update((None, 3, None, 7)), RoundMsg((1, 9), 2, (1, 0)),
        Update((1, 2)), Init(-1), Garbage((7, 7))]


def draws(lo, hi):
    """A delay policy that draws from the RNG the kernel passes it."""
    return lambda receiver, rng: rng.randint(lo, hi)


def timed_sim(policy, times=()):
    p = derive_pk4(4, 1, "1.1", "1")
    clocks = {v: HardwareClock(0, [(0, 1), (3, frac("1.1"))], p.grid.unit)
              for v in range(4)}
    tick_grid(clocks.values(), [p.d / DELAY_STEPS, HUNDREDTH, *times])
    events = []
    sim = Simulator(p, clocks, {}, policy, random.Random(11))
    sim.handlers.update({v: Timed(v, events, sim) for v in range(4)})
    return sim, events


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_multicast_equals_a_loop_of_single_sends(data):
    sender = data.draw(st.integers(0, 3))
    picks = data.draw(st.lists(st.one_of(st.none(), st.integers(0, len(POOL) - 1)),
                               min_size=4, max_size=4))
    envelopes = [None if k is None or w == sender else POOL[k]
                 for w, k in enumerate(picks)]
    delay = data.draw(st.one_of(st.none(), st.integers(1, DELAY_STEPS - 1)))
    start = data.draw(st.fractions(min_value=0, max_value=6, max_denominator=97))
    one, one_events = timed_sim(draws(1, DELAY_STEPS - 1), [start])
    loop, loop_events = timed_sim(draws(1, DELAY_STEPS - 1), [start])
    for sim in (one, loop):
        sim.run_until(start)
    one.multicast(sender, envelopes, delay)
    for w, envelope in enumerate(envelopes):
        if envelope is not None:
            loop.multicast(sender, to_one(w, envelope), delay)
    for sim in (one, loop):
        sim.run_until(start + 2)
    assert one.trace == loop.trace
    assert one_events == loop_events
    assert len(one_events) == sum(e is not None for e in envelopes)
    assert one.rng.getstate() == loop.rng.getstate()


@pytest.mark.parametrize("policy, delay", [
    (draws(1, DELAY_STEPS - 1), 0), (draws(1, DELAY_STEPS - 1), DELAY_STEPS),
    (draws(1, DELAY_STEPS - 1), True), (draws(1, DELAY_STEPS - 1), 0.5),
    (draws(DELAY_STEPS, DELAY_STEPS), None), (lambda *a: 0.5, None)])
def test_multicast_rejects_a_bad_delay(policy, delay):
    sim, events = timed_sim(policy)
    sim.run_until(1)
    with pytest.raises(SimulatorBug):
        sim.multicast(0, [None, Init(5), Init(5), Init(6)], delay)
    assert sim.trace == [] and sim._queue == []
    sim.run_until(3)
    assert events == []


def test_multicast_rejects_a_self_entry():
    sim, events = timed_sim(draws(1, DELAY_STEPS - 1))
    with pytest.raises(SimulatorBug):
        sim.multicast(2, [Init(5), None, Init(5), None])
    sim.run_until(2)
    assert sim.trace == [] and events == []


def test_a_fixed_delay_multicast_shares_one_delivery_time():
    sim, events = timed_sim(draws(1, DELAY_STEPS - 1), [Fraction(7, 3)])
    sim.run_until(Fraction(7, 3))
    state = sim.rng.getstate()
    sim.multicast(1, [Init(5), None, Update((1, 2, 3, 4)), Init(5)], 300)
    assert sim.rng.getstate() == state          # no delay was drawn
    ticks = {entry[0] for entry in sim._queue}
    assert len(sim._queue) == 3 and len(ticks) == 1
    at = Fraction(7, 3) + sim.p.d * Fraction(300, DELAY_STEPS)
    assert ticks == {at * sim.ticks}
    sim.run_until(4)
    assert [rec[2] for rec in sim.trace if rec[0] == "recv"] == [0, 2, 3]
    assert [e[1] for e in events] == [at] * 3


def test_malformed_envelopes_are_dropped_once_per_delivery(monkeypatch):
    p = derive_pk4(4, 1, "1.1", "1")
    checked = []
    well_formed = messages.well_formed

    def counted(envelope, params):
        checked.append(envelope)
        return well_formed(envelope, params)
    monkeypatch.setattr(messages, "well_formed", counted)
    entered = []
    monkeypatch.setattr(NodeRuntime, "on_deliver",
                        lambda self, sender, envelope: entered.append(self.node))
    clocks = {v: HardwareClock(0, [(0, 1)], p.grid.unit) for v in range(4)}
    tick_grid(clocks.values(), [p.d / DELAY_STEPS])
    handlers = {}
    sim = Simulator(p, clocks, handlers, draws(1, DELAY_STEPS - 1),
                    random.Random(5))
    proto = make_protocol("phase-king-silent", 4, 1)
    for v in range(3):
        handlers[v] = NodeRuntime(sim, v, proto, lambda *a: 1)
    handlers[3] = SilentNode(sim, 3)
    # By injection: a fresh object per delivery.
    injected = [Update((1, 2)), Garbage((1,)), Update((None,) * 5)]
    for v, envelope in enumerate(injected):
        sim.inject_garbage(3, v, envelope, frac("0.5"))
    # By a sender: two objects, one of them to two receivers.
    short, junk = Update((4,)), Garbage((9, 9))
    sim.multicast(3, [short, junk, short, None])
    assert [id(e) for e in checked] == [id(e) for e in injected + [short, junk]]
    sim.run_until(2)
    assert entered == []
    recvs = [k for k, rec in enumerate(sim.trace) if rec[0] == "recv"]
    assert len(recvs) == 6
    for k in recvs:
        _, t, node, sender, _ = sim.trace[k]
        assert sim.trace[k + 1] == ("drop", t, node, "malformed", sender)
    drops = [rec[2] for rec in sim.trace if rec[0] == "drop"]
    assert sorted(drops) == [0, 0, 1, 1, 2, 2]
    assert len(checked) == 5


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_tick_reads_and_inversions_equal_the_exact_clock(data):
    """On the grid `tick_grid` builds from a `random_steps` schedule, an
    offset and script times, a tick reads what `value` floors to, and the
    tick of a grid value is where `invert` puts it."""
    theta = 1 + data.draw(st.fractions(min_value=0, max_value=3,
                                       max_denominator=40))
    p = derive_pk4(4, 1, theta, data.draw(st.sampled_from(["1", "3/2"])))
    grid = p.grid
    duration = 60
    schedule = RATE_SCHEDULES["random_steps"](
        theta, Fraction(duration), random.Random(data.draw(st.integers(0, 2**16))))
    offset = data.draw(st.integers(0, 16)) * grid.from_units(p.update_period)
    clock = HardwareClock(offset, schedule, grid.unit)
    script = data.draw(st.lists(st.fractions(
        min_value=0, max_value=duration, max_denominator=60), max_size=6))
    ticks = tick_grid([clock], [p.d / DELAY_STEPS, duration, *script])
    steps = data.draw(st.lists(st.integers(0, DELAY_STEPS * duration),
                               max_size=10))
    for t in script + [k * p.d / DELAY_STEPS for k in steps]:
        assert t * ticks % 1 == 0
        assert clock.units_at(int(t * ticks)) == grid.floor_units(clock.value(t))
    first = grid.ceil_units(offset)
    last = grid.floor_units(clock.value(Fraction(duration)))
    for u in data.draw(st.lists(st.integers(first, last), max_size=10)):
        assert Fraction(clock.tick_at(u), ticks) == \
            clock.invert(grid.from_units(u))
