"""Deterministic discrete-event engine.

Reference time is exact (Fraction).  Hardware clocks are piecewise-constant
rate schedules with rates in [1, theta]; threshold scheduling inverts the rate
schedule exactly, so an alarm set for a local clock value fires at the unique
real time where the clock reaches it.

Event times are built from integer coefficients: a message delay is an int
count k of d/DELAY_STEPS, so a delivery time is the integer ratio
(tn*D + k*N*td) / (td*D) for now = tn/td and d/DELAY_STEPS = N/D, and an alarm
at local value u grid units fires at (C*u - B) / A, where (A*t + B) / C is the
clock in grid units on the alarm's rate segment.  Each event's `Fraction` is
built once, when it is queued; a send set given one delay builds one delivery
time for all its receivers, so equal times in the queue compare by identity.

Each node's `HardwareClock` gives its floored grid reading at now's integer
numerator and denominator in exact integer arithmetic: no `Fraction` is read
or built per read, and a segment cursor replaces the search of the rate
schedule.

A send set is one `multicast` call, which names, prices and validates each
distinct envelope object once, however many receivers it goes to; each
delivery carries that validity, so a malformed envelope reaches its
receiver's `on_malformed` instead of `on_deliver`.

Event order is total: (time, kind rank, node, sequence number); the
deterministic tie-break realizes the modeling assumption that no two events
coincide.  Handlers run atomically at zero simulated time.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Optional

from . import messages
from .timebase import frac

THRESHOLD, DELIVERY, ACTION = 0, 1, 2
MAX_ACTIONS_PER_EVENT = 100_000
DELAY_STEPS = 1024      # a message delay is k * d / DELAY_STEPS, 0 < k < DELAY_STEPS


class SimulatorBug(Exception):
    """Internal misuse: events in the past, runaway handlers, bad alarms."""


class HardwareClock:
    """Strictly increasing local clock with drift in [1, theta], read on the
    grid of `unit` in plain integers.

    `value` and `invert` are the exact references in `Fraction`s.  On rate
    segment i the clock over the grid unit is a*t + b with rational a and b,
    so for t = tn/td the floored reading `floor_units` is
    (A*tn + B*td) // (C*td) with integers A, B, C fixed per segment.  The
    segment of the last read is kept as a cursor, since simulated time never
    decreases; a read before the cursor's segment falls back to a search of
    the schedule.

    Inverted, the clock reaches u grid units on segment i at real time
    (C*u - B) / A, from the same integers.  Segment i is the last whose start
    value h_i is at most u units, that is, whose ceil(h_i / unit) is at most u.
    The integers are built on the first grid read, so building a clock costs
    only its schedule.
    """

    def __init__(self, offset: Fraction, schedule, unit: Fraction):
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
        self.unit = unit
        self.bounds = [(s.numerator, s.denominator) for s in self.starts]
        self.last = len(self.bounds) - 1
        self.i = 0
        self.coef = self.h_units = []    # built by the first grid read

    def value(self, t: Fraction) -> Fraction:
        i = bisect_right(self.starts, t) - 1
        return self.h_starts[i] + self.rates[i] * (t - self.starts[i])

    def invert(self, local: Fraction) -> Fraction:
        if local < self.h_starts[0]:
            raise ValueError("local value precedes clock start")
        i = bisect_right(self.h_starts, local) - 1
        return self.starts[i] + (local - self.h_starts[i]) / self.rates[i]

    def _integers(self) -> list:
        """Build `coef`, each segment's (A, B, C), and `h_units`, each
        segment's start value ceil((A*sn + B*sd) / (C*sd)) in units."""
        # a = rate/unit and b = (h - rate*start)/unit over the common
        # denominator C = hd*rd*sd*un, reduced by the gcd of A, B and C.
        un, ud = self.unit.numerator, self.unit.denominator
        self.coef = []
        for (sn, sd), h, rate in zip(self.bounds, self.h_starts, self.rates):
            hn, hd = h.numerator, h.denominator
            rn, rd = rate.numerator, rate.denominator
            a = rn * ud * hd * sd
            b = (hn * rd * sd - rn * sn * hd) * ud
            c = hd * rd * sd * un
            g = gcd(a, b, c)
            self.coef.append((a // g, b // g, c // g))
        self.h_units = [-(-(a * sn + b * sd) // (c * sd))
                        for (a, b, c), (sn, sd) in zip(self.coef, self.bounds)]
        return self.coef

    def floor_units(self, tn: int, td: int) -> int:
        """The floored reading at real time tn/td (td > 0):
        `grid.floor_units(self.value(tn / td))`."""
        i = self.i
        sn, sd = self.bounds[i]
        if tn * sd < sn * td:
            i = bisect_right(self.starts, Fraction(tn, td)) - 1
        else:
            while i < self.last:
                sn, sd = self.bounds[i + 1]
                if tn * sd < sn * td:
                    break
                i += 1
        self.i = i
        a, b, c = (self.coef or self._integers())[i]
        return (a * tn + b * td) // (c * td)

    def invert_units(self, units: int):
        """(numerator, denominator) of the real time at which the clock
        reaches `units` grid units: `self.invert(grid.from_units(units))`."""
        coef = self.coef or self._integers()
        i = bisect_right(self.h_units, units) - 1
        if i < 0:
            raise ValueError("local value precedes clock start")
        a, b, c = coef[i]
        return c * units - b, a


class Simulator:
    """Each node's handler gets `on_threshold(units, tag)`,
    `on_deliver(sender, envelope)` for a well-formed envelope,
    `on_malformed(sender)` for any other, and `on_action(payload)`.
    `multicast` prices and validates the envelopes; each delay, an int count
    of d/DELAY_STEPS, is `delay_policy(receiver, rng)` unless given."""

    def __init__(self, p, clocks, handlers, delay_policy, rng):
        self.p = p
        self.clocks = clocks            # node -> HardwareClock on p.grid
        self.handlers = handlers        # node -> handler object
        self.delay_policy = delay_policy
        self.rng = rng
        step = p.d / DELAY_STEPS
        self._step_n, self._step_d = step.numerator, step.denominator
        self.now: Fraction = Fraction(0)
        self._now_n, self._now_d = 0, 1     # now's numerator and denominator
        self.trace: list = []
        self._queue: list = []
        self._seq = 0
        self._actions_this_event = 0

    # -- scheduling ---------------------------------------------------------

    def _push(self, key: float, t: Fraction, kind: int, node: int,
              payload) -> None:
        """Queue an event at real time t, whose float is `key`.

        The float leads the comparison for speed and the exact Fraction
        settles the rare float ties; for t = num/den, int true division is
        correctly rounded, so num / den is float(t)."""
        self._seq += 1
        self._actions_this_event += 1
        if self._actions_this_event > MAX_ACTIONS_PER_EVENT:
            raise SimulatorBug("per-event action budget exceeded (runaway handler?)")
        heapq.heappush(self._queue, (key, t, kind, node, self._seq, payload))

    def schedule(self, t: Fraction, kind: int, node: int, payload) -> None:
        if t < self.now:
            raise SimulatorBug(f"event at {t} scheduled in the past (now={self.now})")
        self._push(t.numerator / t.denominator, t, kind, node, payload)

    def alarm(self, node: int, local_units: int, tag) -> None:
        """Fire a THRESHOLD event when `node`'s clock reaches local_units."""
        clock = self.clocks[node]
        # A clock value not yet reached lies strictly in the future.
        if local_units <= clock.floor_units(self._now_n, self._now_d):
            raise SimulatorBug(f"alarm for node {node} at local "
                               f"{self.p.grid.from_units(local_units)} already passed")
        num, den = clock.invert_units(local_units)
        self._push(num / den, Fraction(num, den), THRESHOLD, node,
                   (local_units, tag))

    def multicast(self, sender: int, envelopes,
                  delay: Optional[int] = None) -> None:
        """Send `envelopes[w]` to each node w whose entry is not None.

        Each distinct envelope object is priced and checked by
        `messages.well_formed` once.  Then, in receiver order, each send draws
        its delay, unless one is given, appends its `send` record and queues
        its delivery with the envelope's validity.  A given delay's delivery
        time is built once, at the first receiver, and every delivery of the
        send set shares that one float and one `Fraction`."""
        if envelopes[sender] is not None:
            raise SimulatorBug("self-delivery is local state, not a channel send")
        p = self.p
        # id(envelope) -> (kind, frame bits, payload bits, delivery payload)
        facts = {}
        for envelope in envelopes:
            if envelope is not None and id(envelope) not in facts:
                facts[id(envelope)] = (
                    type(envelope).__name__, envelope.frame_bits(p),
                    envelope.payload_bits(),
                    (sender, envelope, messages.well_formed(envelope, p)))
        policy, rng, trace, now = self.delay_policy, self.rng, self.trace, self.now
        # now + k * d / DELAY_STEPS = (base + k * scale) / den, strictly
        # after now for 0 < k.
        td, sd = self._now_d, self._step_d
        base, scale, den = self._now_n * sd, self._step_n * td, td * sd
        t = None
        for receiver, envelope in enumerate(envelopes):
            if envelope is None:
                continue
            if delay is None or t is None:
                k = policy(receiver, rng) if delay is None else delay
                if type(k) is not int or not 0 < k < DELAY_STEPS:
                    raise SimulatorBug(f"delay {k!r} is not an int count of "
                                       f"d/{DELAY_STEPS} in (0, {DELAY_STEPS})")
                num = base + k * scale
                key, t = num / den, Fraction(num, den)
            kind, frame, bits, delivery = facts[id(envelope)]
            trace.append(("send", now, sender, receiver, kind, frame, bits,
                          envelope))
            self._push(key, t, DELIVERY, receiver, delivery)

    def send(self, sender: int, receiver: int, envelope,
             delay: Optional[int] = None) -> None:
        envelopes = [None] * self.p.n
        envelopes[receiver] = envelope
        self.multicast(sender, envelopes, delay)

    def inject_garbage(self, sender: int, receiver: int, envelope, deliver_at) -> None:
        """Queue a pre-existing in-flight envelope; only legal before time d."""
        deliver_at = frac(deliver_at)
        if self.now != 0:
            raise SimulatorBug("initial-state injection only at time 0")
        if not (0 < deliver_at < self.p.d):
            raise ValueError(f"garbage delivery time {deliver_at} outside (0, {self.p.d})")
        self.trace.append(("garbage", deliver_at, sender, receiver,
                           type(envelope).__name__, 0, 0, envelope))
        self.schedule(deliver_at, DELIVERY, receiver,
                      (sender, envelope, messages.well_formed(envelope, self.p)))

    # -- clock access -------------------------------------------------------

    def local_units(self, node: int) -> int:
        """Current local clock, floored to grid units."""
        return self.clocks[node].floor_units(self._now_n, self._now_d)

    def reading(self, node: int) -> int:
        """Current quantized local clock, in grid units: `grid.read` of it."""
        q = self.p.grid.q_units
        return self.clocks[node].floor_units(self._now_n, self._now_d) // q * q

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
            self._now_n, self._now_d = t.numerator, t.denominator
            self._actions_this_event = 0
            handler = self.handlers[node]
            if kind == THRESHOLD:
                handler.on_threshold(*payload)
            elif kind == DELIVERY:
                sender, envelope, valid = payload
                self.trace.append(("recv", t, node, sender, type(envelope).__name__))
                if valid:
                    handler.on_deliver(sender, envelope)
                else:
                    handler.on_malformed(sender)
            else:
                handler.on_action(payload)
        self.now = deadline
        self._now_n, self._now_d = deadline.numerator, deadline.denominator
