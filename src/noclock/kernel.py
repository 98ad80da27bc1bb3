"""Deterministic discrete-event engine on one integer clock.

Reference time is exact.  Hardware clocks are piecewise-constant rate
schedules with rates in [1, theta]; an alarm set for a local clock value fires
at the unique real time where the clock reaches it.

Every event time of a run lies on one grid 1/L, so the kernel counts time in
int ticks of 1/L.  `tick_grid` fixes L before the run: the lcm of the
denominators of d/DELAY_STEPS, of each rate segment's start and of the times
it reaches grid values at, and of the times given (the script and the run's
end).  A delay is an int count k of d/DELAY_STEPS, so a delivery is at
`tick + k*step`; on one rate segment a clock is (tick/M + B) / C grid units
for M = L/A, so it reads `(tick // M + B) // C` and reaches u units at tick
`M*(C*u - B)`.  A time given off the grid raises; nothing is rounded.  The queue is keyed by the
tick, and `now`, the exact `Fraction` trace records carry, is built once per
distinct tick the loop pops.

A send set is one `multicast` call, queued in one pass; it names, prices and
validates each distinct envelope object once, and a malformed envelope
reaches its receiver's `on_malformed` instead of `on_deliver`.

Event order is total: (tick, kind rank, node, sequence number), a tie-break
that realizes the modeling assumption that no two events coincide.  Handlers
run atomically at zero simulated time; one event may queue at most
MAX_ACTIONS_PER_EVENT alarms, send sets and scheduled events.  The loop runs
with the cyclic garbage collector paused (`collector_paused`): a run makes no
reference cycles, so collections would only re-scan the growing trace, and
handlers, strategies and plugins must build none per event, which
`tests/test_harness.py` checks.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, inf, lcm
from typing import Optional

from . import messages
from .timebase import frac

THRESHOLD, DELIVERY, ACTION = 0, 1, 2
MAX_ACTIONS_PER_EVENT = 100_000
DELAY_STEPS = 1024      # a message delay is k * d / DELAY_STEPS, 0 < k < DELAY_STEPS


class SimulatorBug(Exception):
    """Internal misuse: past or off-grid times, runaway handlers, bad alarms."""


@contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector disabled.

    On exit, also when the body raises, one `gc.collect(1)` scans what the
    body left in the young generations and moves the survivors to the oldest,
    so the deferred work neither lands in the caller's next allocations nor
    grows with the caller's heap; then the collector is as it was on entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.collect(1)
        if enabled:
            gc.enable()


def _ratio(x) -> tuple:
    return (x if type(x) is int else frac(x)).as_integer_ratio()


def tick_grid(clocks, times) -> int:
    """Put `clocks` on one tick grid 1/L and return L, the least on which
    each clock's segment starts and alarm times and each of `times` lie."""
    ticks = lcm(*(c.grain for c in clocks),
                *(frac(t).denominator for t in times))
    for clock in clocks:
        clock.on_grid(ticks)
    return ticks


class HardwareClock:
    """Strictly increasing local clock with drift in [1, theta], read on the
    grid of `unit` in plain integers; `schedule` lists (start, rate) pairs.

    One integer pass over the schedule builds each segment's A, B and C: there
    the clock is (A*t + B) / C units, so it reaches u units at real time
    (C*u - B) / A, on the last segment whose start value h_i has
    ceil(h_i / unit) <= u.  `grain` is the least L whose ticks 1/L hold these
    times and the segment starts; `on_grid(L)`, once, gives each segment its
    M = L/A ticks per 1/A.  Reads keep a segment cursor, as time never
    decreases.  `value` and `invert`, the exact references, read `Fraction`s
    built from the schedule on first use."""

    def __init__(self, offset: Fraction, schedule, unit: Fraction):
        if not schedule or _ratio(schedule[0][0])[0]:
            raise ValueError("rate schedule must start at time 0")
        self.offset, self.schedule = offset, schedule
        (un, ud), (hn, hd) = _ratio(unit), _ratio(offset)   # h: start value
        segments, h_units = [], []
        for t, rate in schedule:
            (sn, sd), (rn, rd) = _ratio(t), _ratio(rate)
            if rn <= 0:
                raise ValueError("clock rates must be positive")
            if segments:    # h += the last rate q * (t - the last start p)
                span = sn * pd - pn * sd
                if span <= 0:
                    raise ValueError("rate schedule times must increase")
                hn, hd = hn * qd * sd * pd + qn * span * hd, hd * qd * sd * pd
                g = gcd(hn, hd)
                hn, hd = hn // g, hd // g
            # (A*t + B) / C = (h + rate*(t - start)) / unit, in lowest terms
            a, c = rn * ud * hd * sd, hd * rd * sd * un
            b = (hn * rd * sd - rn * sn * hd) * ud
            g = gcd(a, b, c)
            segments.append((sn, sd, a // g, b // g, c // g))
            h_units.append(-(-hn * ud // (hd * un)))    # ceil(h / unit)
            pn, pd, qn, qd = sn, sd, rn, rd
        self.segments, self.h_units, self.i = segments, h_units, 0
        self.grain = lcm(*{s[1] for s in segments}, *{s[2] for s in segments})

    def on_grid(self, ticks: int) -> None:
        """Read the clock in ticks of 1/`ticks`, a multiple of `grain`, from
        now on; the last segment ends after every tick."""
        segments = self.segments
        del self.segments       # what the clock is read from now on replaces it
        self.ticks = ticks
        self.start_ticks = [sn * (ticks // sd) for sn, sd, *_ in segments] + [inf]
        self.lines = [(ticks // a, b, c) for _, _, a, b, c in segments]

    @cached_property
    def starts(self) -> list:
        return [frac(t) for t, _ in self.schedule]

    @cached_property
    def rates(self) -> list:
        return [frac(r) for _, r in self.schedule]

    @cached_property
    def h_starts(self) -> list:
        h = [frac(self.offset)]     # the local value at each segment start
        for s0, s1, rate in zip(self.starts, self.starts[1:], self.rates):
            h.append(h[-1] + rate * (s1 - s0))
        return h

    def value(self, t: Fraction) -> Fraction:
        i = bisect_right(self.starts, t) - 1
        return self.h_starts[i] + self.rates[i] * (t - self.starts[i])

    def invert(self, local: Fraction) -> Fraction:
        if local < self.h_starts[0]:
            raise ValueError("local value precedes clock start")
        i = bisect_right(self.h_starts, local) - 1
        return self.starts[i] + (local - self.h_starts[i]) / self.rates[i]

    def units_at(self, tick: int) -> int:
        """`grid.floor_units(self.value(Fraction(tick, self.ticks)))`."""
        i, starts = self.i, self.start_ticks
        if tick < starts[i]:    # before the cursor's segment: scan from 0
            i = 0
        while starts[i + 1] <= tick:
            i += 1
        self.i = i
        m, b, c = self.lines[i]
        return (tick // m + b) // c     # = (tick + b*m) // (c*m), b and c ints

    def tick_at(self, units: int) -> int:
        """`self.invert(grid.from_units(units)) * self.ticks`."""
        i = bisect_right(self.h_units, units) - 1
        if i < 0:
            raise ValueError("local value precedes clock start")
        m, b, c = self.lines[i]
        return m * (c * units - b)


class Simulator:
    """Each node's handler gets `on_threshold(units, tag)`,
    `on_deliver(sender, envelope)` for a well-formed envelope,
    `on_malformed(sender)` for any other, and `on_action()`.  Each delay is
    `delay_policy(receiver, rng)` unless given.  The clocks share one tick
    grid (`tick_grid`), on which d/DELAY_STEPS lies."""

    def __init__(self, p, clocks, handlers, delay_policy, rng):
        self.p = p
        self.clocks = clocks            # node -> HardwareClock on p.grid
        self.handlers = handlers        # node -> handler object
        self.delay_policy, self.rng = delay_policy, rng
        (self.ticks,) = {clock.ticks for clock in clocks.values()}
        self.step = self._to_tick(p.d / DELAY_STEPS)
        self.tick, self.now = 0, Fraction(0)    # now: the tick's exact time
        self.trace: list = []
        self._queue: list = []
        self._seq = count()
        self._left = inf        # what the running event may still queue

    # -- scheduling ---------------------------------------------------------

    def _to_tick(self, t) -> int:
        """The tick of real time t, which must lie on the grid."""
        t = frac(t)
        tick, rest = divmod(t.numerator * self.ticks, t.denominator)
        if rest:
            raise SimulatorBug(f"time {t} is off the tick grid 1/{self.ticks}")
        return tick

    def _spend(self) -> None:
        """Count one action against the running event's budget."""
        self._left -= 1
        if self._left < 0:
            raise SimulatorBug("per-event action budget exceeded (runaway handler?)")

    def schedule(self, t: Fraction, kind: int, node: int, payload) -> None:
        tick = self._to_tick(t)
        if tick < self.tick:
            raise SimulatorBug(f"event at {t} scheduled in the past (now={self.now})")
        self._spend()
        heapq.heappush(self._queue, (tick, kind, node, next(self._seq), payload))

    def alarm(self, node: int, local_units: int, tag) -> None:
        """Fire a THRESHOLD event when `node`'s clock reaches local_units."""
        clock = self.clocks[node]
        # A clock value not yet reached lies strictly in the future.
        if local_units <= clock.units_at(self.tick):
            raise SimulatorBug(f"alarm for node {node} at local "
                               f"{self.p.grid.from_units(local_units)} already passed")
        self._spend()
        heapq.heappush(self._queue, (clock.tick_at(local_units), THRESHOLD,
                                     node, next(self._seq), (local_units, tag)))

    def multicast(self, sender: int, envelopes,
                  delay: Optional[int] = None) -> None:
        """Send `envelopes[w]` to each node w whose entry is not None.

        One pass, in receiver order: each send draws its delay unless one is
        given, appends its `send` record and queues its delivery.  Each
        distinct envelope object is named, priced and checked by
        `messages.well_formed` once, at its first receiver."""
        if envelopes[sender] is not None:
            raise SimulatorBug("self-delivery is local state, not a channel send")
        self._spend()
        p, policy, rng, now, base, step = (self.p, self.delay_policy, self.rng,
                                           self.now, self.tick, self.step)
        append, push, queue, seq = (self.trace.append, heapq.heappush,
                                    self._queue, self._seq)
        facts = {}      # id(envelope) -> (kind, frame bits, payload bits, delivery)
        tick = None
        for receiver, envelope in enumerate(envelopes):
            if envelope is None:
                continue
            if delay is None or tick is None:
                k = policy(receiver, rng) if delay is None else delay
                if type(k) is not int or not 0 < k < DELAY_STEPS:
                    raise SimulatorBug(f"delay {k!r} is not an int count of "
                                       f"d/{DELAY_STEPS} in (0, {DELAY_STEPS})")
                tick = base + k * step      # after now, for 0 < k
            fact = facts.get(id(envelope))
            if fact is None:
                kind = type(envelope).__name__
                fact = facts[id(envelope)] = (
                    kind, envelope.frame_bits(p), envelope.payload_bits(),
                    (sender, envelope, messages.well_formed(envelope, p), kind))
            kind, frame, bits, delivery = fact
            append(("send", now, sender, receiver, kind, frame, bits, envelope))
            push(queue, (tick, DELIVERY, receiver, next(seq), delivery))

    def send(self, sender: int, receiver: int, envelope) -> None:
        self.multicast(sender, [envelope if w == receiver else None
                                for w in range(self.p.n)])

    def inject_garbage(self, sender: int, receiver: int, envelope, deliver_at) -> None:
        """Queue a pre-existing in-flight envelope; only legal before time d."""
        deliver_at = frac(deliver_at)
        if self.tick != 0:
            raise SimulatorBug("initial-state injection only at time 0")
        if not (0 < deliver_at < self.p.d):
            raise ValueError(f"garbage delivery time {deliver_at} outside (0, {self.p.d})")
        kind = type(envelope).__name__
        valid = messages.well_formed(envelope, self.p)
        self.trace.append(("garbage", deliver_at, sender, receiver, kind, 0, 0, envelope))
        self.schedule(deliver_at, DELIVERY, receiver, (sender, envelope, valid, kind))

    # -- clock access -------------------------------------------------------

    def local_units(self, node: int) -> int:
        """Current local clock, floored to grid units."""
        return self.clocks[node].units_at(self.tick)

    def reading(self, node: int) -> int:
        """Current local clock, floored to the read quantum, in grid units."""
        q = self.p.grid.q_units
        return self.clocks[node].units_at(self.tick) // q * q

    # -- main loop ----------------------------------------------------------

    def run_until(self, deadline) -> None:
        end = self._to_tick(deadline)
        if end < self.tick:
            raise SimulatorBug("deadline precedes current time")
        queue, handlers, trace = self._queue, self.handlers, self.trace
        budget, last, now, ticks = MAX_ACTIONS_PER_EVENT, self.tick, self.now, self.ticks
        with collector_paused():
            while queue and queue[0][0] <= end:
                tick, kind, node, _, payload = heapq.heappop(queue)
                if tick != last:
                    self.tick = last = tick
                    self.now = now = Fraction(tick, ticks)
                self._left = budget
                handler = handlers[node]
                if kind == THRESHOLD:
                    handler.on_threshold(*payload)
                elif kind == DELIVERY:
                    sender, envelope, valid, name = payload
                    trace.append(("recv", now, node, sender, name))
                    if valid:
                        handler.on_deliver(sender, envelope)
                    else:
                        handler.on_malformed(sender)
                else:
                    handler.on_action()
        self._left = inf
        self.tick, self.now = end, frac(deadline)
