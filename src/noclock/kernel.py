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

Each node's `HardwareClock` is built in one integer pass over its rate
schedule and read at now's integer numerator and denominator, with no
`Fraction` built or read; its exact `Fraction` reference is built on first use.

A send set is one `multicast` call, which names, prices and validates each
distinct envelope object once, however many receivers it goes to; each
delivery carries that validity, so a malformed envelope reaches its
receiver's `on_malformed` instead of `on_deliver`.

Event order is total: (time, kind rank, node, sequence number); the
deterministic tie-break realizes the modeling assumption that no two events
coincide.  Handlers run atomically at zero simulated time.

The event loop runs with the cyclic garbage collector paused
(`collector_paused`) and restores its state afterwards.  A run makes no
reference cycles, so the collections that would fire every few hundred
trace records would only re-scan the growing trace; handlers, strategies
and plugins must therefore build no reference cycle per event, which
`tests/test_harness.py` checks.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional

from . import messages
from .timebase import frac

THRESHOLD, DELIVERY, ACTION = 0, 1, 2
MAX_ACTIONS_PER_EVENT = 100_000
DELAY_STEPS = 1024      # a message delay is k * d / DELAY_STEPS, 0 < k < DELAY_STEPS


class SimulatorBug(Exception):
    """Internal misuse: events in the past, runaway handlers, bad alarms."""


@contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector disabled.

    On exit, also when the body raises, one `gc.collect(1)` scans what the
    body left in the young generations, once, and moves the survivors to the
    oldest, so the deferred work neither lands in the caller's next
    allocations nor grows with the caller's heap.  The collector is enabled
    again only if it was enabled on entry."""
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


class HardwareClock:
    """Strictly increasing local clock with drift in [1, theta], read on the
    grid of `unit` in plain integers; `schedule` lists (start, rate) pairs.

    One integer pass over the schedule builds each segment's A, B and C:
    there the clock is (A*t + B) / C units, so the floored reading at
    t = tn/td is (A*tn + B*td) // (C*td), and the clock reaches u units at
    (C*u - B) / A on the last segment whose start value h_i has
    ceil(h_i / unit) <= u.  A cursor keeps the last read's segment, since
    time never decreases; an earlier read scans the segments from the first.
    `value` and `invert`, the exact references, read `starts`, `rates` and
    `h_starts`: `Fraction`s built from the schedule on first use.
    """

    def __init__(self, offset: Fraction, schedule, unit: Fraction):
        if not schedule or _ratio(schedule[0][0])[0]:
            raise ValueError("rate schedule must start at time 0")
        self.offset, self.schedule = offset, schedule
        (un, ud), (hn, hd) = _ratio(unit), _ratio(offset)   # h: start value
        bounds, coef, h_units = [], [], []
        for t, rate in schedule:
            (sn, sd), (rn, rd) = _ratio(t), _ratio(rate)
            if rn <= 0:
                raise ValueError("clock rates must be positive")
            if bounds:      # h += the last rate q * (t - the last start p)
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
            coef.append((a // g, b // g, c // g))
            h_units.append(-(-hn * ud // (hd * un)))    # ceil(h / unit)
            bounds.append((sn, sd))
            pn, pd, qn, qd = sn, sd, rn, rd
        bounds.append((1, 0))       # a start after every real time
        self.bounds, self.coef, self.h_units, self.i = bounds, coef, h_units, 0

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

    def floor_units(self, tn: int, td: int) -> int:
        """The floored reading at real time tn/td (td > 0):
        `grid.floor_units(self.value(tn / td))`."""
        i, bounds = self.i, self.bounds
        sn, sd = bounds[i]
        if tn * sd < sn * td:   # before the cursor's segment: scan from 0
            i = 0
        sn, sd = bounds[i + 1]
        while sn * td <= tn * sd:
            i += 1
            sn, sd = bounds[i + 1]
        self.i = i
        a, b, c = self.coef[i]
        return (a * tn + b * td) // (c * td)

    def invert_units(self, units: int):
        """(numerator, denominator) of the real time at which the clock
        reaches `units` grid units: `self.invert(grid.from_units(units))`."""
        i = bisect_right(self.h_units, units) - 1
        if i < 0:
            raise ValueError("local value precedes clock start")
        a, b, c = self.coef[i]
        return c * units - b, a


class Simulator:
    """Each node's handler gets `on_threshold(units, tag)`,
    `on_deliver(sender, envelope)` for a well-formed envelope,
    `on_malformed(sender)` for any other, and `on_action()`.
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

    def send(self, sender: int, receiver: int, envelope) -> None:
        envelopes = [None] * self.p.n
        envelopes[receiver] = envelope
        self.multicast(sender, envelopes)

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
        """Current local clock, floored to the read quantum, in grid units."""
        q = self.p.grid.q_units
        return self.clocks[node].floor_units(self._now_n, self._now_d) // q * q

    # -- main loop ----------------------------------------------------------

    def run_until(self, deadline) -> None:
        deadline = frac(deadline)
        if deadline < self.now:
            raise SimulatorBug("deadline precedes current time")
        queue = self._queue
        deadline_f = float(deadline)
        with collector_paused():
            while queue and (queue[0][0] < deadline_f
                             or queue[0][1] <= deadline):
                _, t, kind, node, _, payload = heapq.heappop(queue)
                self.now = t
                self._now_n, self._now_d = t.numerator, t.denominator
                self._actions_this_event = 0
                handler = self.handlers[node]
                if kind == THRESHOLD:
                    handler.on_threshold(*payload)
                elif kind == DELIVERY:
                    sender, envelope, valid = payload
                    self.trace.append(("recv", t, node, sender,
                                       type(envelope).__name__))
                    if valid:
                        handler.on_deliver(sender, envelope)
                    else:
                        handler.on_malformed(sender)
                else:
                    handler.on_action()
        self.now = deadline
        self._now_n, self._now_d = deadline.numerator, deadline.denominator
