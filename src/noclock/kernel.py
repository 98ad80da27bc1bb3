"""Deterministic discrete-event engine.

Reference time is exact (Fraction).  Hardware clocks are piecewise-constant
rate schedules with rates in [1, theta]; threshold scheduling inverts the rate
schedule exactly, so an alarm set for a local clock value fires at the unique
real time where the clock reaches it.

Clock reads on the delivery path go through a `GridReader` per node, which
gives the floored grid reading in exact integer arithmetic: no `Fraction` is
built per read, and a segment cursor replaces the search of the rate schedule.

Event order is total: (time, kind rank, node, sequence number); the
deterministic tie-break realizes the modeling assumption that no two events
coincide.  Handlers run atomically at zero simulated time.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from fractions import Fraction
from typing import Optional

from .timebase import frac

THRESHOLD, DELIVERY, ACTION = 0, 1, 2
MAX_ACTIONS_PER_EVENT = 100_000


class SimulatorBug(Exception):
    """Internal misuse: events in the past, runaway handlers, bad alarms."""


class HardwareClock:
    """Strictly increasing local clock with drift in [1, theta]."""

    def __init__(self, offset: Fraction, schedule):
        # schedule: list of (start_real_time, rate), first start must be 0.
        self.starts = [frac(t) for t, _ in schedule]
        self.rates = [frac(r) for _, r in schedule]
        if not self.starts or self.starts[0] != 0:
            raise ValueError("rate schedule must start at time 0")
        if any(r <= 0 for r in self.rates):
            raise ValueError("clock rates must be positive")
        self.h_starts = [frac(offset)]   # local value at each segment start
        for i in range(1, len(self.starts)):
            span = self.starts[i] - self.starts[i - 1]
            if span <= 0:
                raise ValueError("rate schedule times must increase")
            self.h_starts.append(self.h_starts[-1] + self.rates[i - 1] * span)

    def value(self, t: Fraction) -> Fraction:
        i = bisect_right(self.starts, t) - 1
        return self.h_starts[i] + self.rates[i] * (t - self.starts[i])

    def invert(self, local: Fraction) -> Fraction:
        if local < self.h_starts[0]:
            raise ValueError("local value precedes clock start")
        i = bisect_right(self.h_starts, local) - 1
        return self.starts[i] + (local - self.h_starts[i]) / self.rates[i]


class GridReader:
    """`grid.floor_units(clock.value(t))` of one clock, in plain integers.

    On rate segment i the clock over the grid unit is a*t + b with rational
    a and b, so for t = tn/td the floored reading is (A*tn + B*td) // (C*td)
    with integers A, B, C fixed per segment.  The segment of the last read is
    kept as a cursor, since simulated time never decreases; a read before the
    cursor's segment falls back to a search of the schedule.
    """

    def __init__(self, clock: HardwareClock, unit: Fraction):
        self.starts = clock.starts
        self.bounds = [(s.numerator, s.denominator) for s in clock.starts]
        self.coef = []
        for start, h, rate in zip(clock.starts, clock.h_starts, clock.rates):
            a = rate / unit
            b = (h - rate * start) / unit
            self.coef.append((a.numerator * b.denominator,
                              b.numerator * a.denominator,
                              a.denominator * b.denominator))
        self.last = len(self.bounds) - 1
        self.i = 0

    def floor_units(self, t: Fraction) -> int:
        tn, td = t.numerator, t.denominator
        i = self.i
        sn, sd = self.bounds[i]
        if tn * sd < sn * td:
            i = bisect_right(self.starts, t) - 1
        else:
            while i < self.last:
                sn, sd = self.bounds[i + 1]
                if tn * sd < sn * td:
                    break
                i += 1
        self.i = i
        a, b, c = self.coef[i]
        return (a * tn + b * td) // (c * td)


class Simulator:
    """Each node's handler gets `on_threshold(units, tag)`,
    `on_deliver(sender, envelope)` and `on_action(payload)`.  `send` prices
    the envelope; the delay is `delay_policy(receiver, rng)` unless given."""

    def __init__(self, p, clocks, handlers, delay_policy, rng):
        self.p = p
        self.clocks = clocks            # node -> HardwareClock
        self.readers = {v: GridReader(c, p.grid.unit) for v, c in clocks.items()}
        self.handlers = handlers        # node -> handler object
        self.delay_policy = delay_policy
        self.rng = rng
        self.now: Fraction = Fraction(0)
        self.trace: list = []
        self._queue: list = []
        self._seq = 0
        self._actions_this_event = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, t: Fraction, kind: int, node: int, payload) -> None:
        if t < self.now:
            raise SimulatorBug(f"event at {t} scheduled in the past (now={self.now})")
        self._seq += 1
        self._actions_this_event += 1
        if self._actions_this_event > MAX_ACTIONS_PER_EVENT:
            raise SimulatorBug("per-event action budget exceeded (runaway handler?)")
        # float(t) is monotone in t, so the float leads the comparison for
        # speed and the exact Fraction settles the rare float ties.
        heapq.heappush(self._queue, (float(t), t, kind, node, self._seq, payload))

    def alarm(self, node: int, local_units: int, tag) -> None:
        """Fire a THRESHOLD event when `node`'s clock reaches local_units."""
        local = self.p.grid.from_units(local_units)
        if local_units <= self.local_units(node):
            raise SimulatorBug(f"alarm for node {node} at local {local} already passed")
        self.schedule(self.clocks[node].invert(local), THRESHOLD, node,
                      (local_units, tag))

    def send(self, sender: int, receiver: int, envelope,
             delay: Optional[Fraction] = None) -> None:
        if sender == receiver:
            raise SimulatorBug("self-delivery is local state, not a channel send")
        if delay is None:
            delay = self.delay_policy(receiver, self.rng)
        if not (0 < delay < self.p.d):
            raise SimulatorBug(f"delay {delay} outside (0, {self.p.d})")
        self.trace.append(("send", self.now, sender, receiver,
                           type(envelope).__name__, envelope.frame_bits(self.p),
                           envelope.payload_bits(), envelope))
        self.schedule(self.now + delay, DELIVERY, receiver, (sender, envelope))

    def inject_garbage(self, sender: int, receiver: int, envelope, deliver_at) -> None:
        """Queue a pre-existing in-flight envelope; only legal before time d."""
        deliver_at = frac(deliver_at)
        if self.now != 0:
            raise SimulatorBug("initial-state injection only at time 0")
        if not (0 < deliver_at < self.p.d):
            raise ValueError(f"garbage delivery time {deliver_at} outside (0, {self.p.d})")
        self.trace.append(("garbage", deliver_at, sender, receiver,
                           type(envelope).__name__, 0, 0, envelope))
        self.schedule(deliver_at, DELIVERY, receiver, (sender, envelope))

    # -- clock access -------------------------------------------------------

    def local_units(self, node: int) -> int:
        """Current local clock, floored to grid units."""
        return self.readers[node].floor_units(self.now)

    def reading(self, node: int) -> int:
        """Current quantized local clock, in grid units: `grid.read` of it."""
        q = self.p.grid.q_units
        return self.readers[node].floor_units(self.now) // q * q

    # -- main loop ----------------------------------------------------------

    def run_until(self, deadline) -> None:
        deadline = frac(deadline)
        if deadline < self.now:
            raise SimulatorBug("deadline precedes current time")
        queue = self._queue
        deadline_f = float(deadline)
        while queue and (queue[0][0] < deadline_f or queue[0][1] <= deadline):
            _, t, kind, node, _, payload = heapq.heappop(queue)
            self.now = t
            self._actions_this_event = 0
            handler = self.handlers[node]
            if kind == THRESHOLD:
                handler.on_threshold(*payload)
            elif kind == DELIVERY:
                sender, envelope = payload
                self.trace.append(("recv", t, node, sender, type(envelope).__name__))
                handler.on_deliver(sender, envelope)
            else:
                handler.on_action(payload)
        self.now = deadline
