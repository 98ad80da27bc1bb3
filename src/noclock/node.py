"""Correct-node runtime: event dispatch, and the one port to the kernel.

All protocol state transitions happen inside kernel event handlers; local
computation takes zero simulated time.  The runtime converts the kernel's
exact clock to the integer readings the protocol layer works with, routes
envelopes, and drives the periodic tick (clock-update broadcast plus all
garbage-collection sweeps).

The layers above the clock estimates (`Initiation`, `Rounds`, `Guard`) reach
the kernel only through the runtime they are built with, which is their port:

- `log(kind, *fields)` appends the trace record `(kind, now, node, *fields)`;
- `alarm(units, (handler, *args))` sets a local-clock timer; when it fires
  the runtime calls `handler(*args, units)`, and a layer's handler acts only
  if its register still names that time (no pending-timer record is kept);
- `broadcast(envelope)` sends one envelope to every other node;
- `send_round(envelopes)` sends `envelopes[w]` to each node w whose entry is
  not None, a round's whole send set;
- `wipe()` drops all instance memory after a quarantine.

Each of the two send calls is one kernel `multicast`, which prices and
validates each distinct envelope once; the kernel hands the runtime only
well-formed envelopes (`on_deliver`), and names the sender of any other
(`on_malformed`), which the runtime records as a `drop malformed`.

Timer handlers receive the local time the timer was set for as their last
argument; the tag names the handler, so nothing maps tags back to layers.
The guard reads the rounds layer's instance table through `rt.rounds`.
"""

from __future__ import annotations

from typing import List, Optional

from . import messages as msg
from .clocksync import ClockSync
from .guard import Guard
from .initiation import Initiation
from .rounds import Rounds


class NodeRuntime:
    def __init__(self, sim, node: int, proto, oracle):
        self.sim = sim
        self.node = node
        self.p = sim.p
        self.clocksync = ClockSync(self.p, node)
        self.guard = Guard(self)
        self.rounds = Rounds(self, proto, self.guard)
        self.initiation = Initiation(self, self.clocksync, self.rounds, oracle)

    def start(self) -> None:
        """Schedule the first clock-update tick (strictly after boot)."""
        period = self.p.update_period
        first = (self.sim.local_units(self.node) // period + 1) * period
        self.sim.alarm(self.node, first, (self._tick,))

    # -- the port the layers use ------------------------------------------------

    def log(self, kind: str, *fields) -> None:
        self.sim.trace.append((kind, self.sim.now, self.node) + fields)

    def alarm(self, local_units: int, tag) -> None:
        self.sim.alarm(self.node, local_units, tag)

    def broadcast(self, envelope) -> None:
        envelopes = [envelope] * self.p.n
        envelopes[self.node] = None
        self.sim.multicast(self.node, envelopes)

    def send_round(self, envelopes: List[Optional[msg.RoundMsg]]) -> None:
        self.sim.multicast(self.node, envelopes)

    def wipe(self) -> None:
        """Quarantine wipe: drop every instance and all echo memory, and force
        all gates expired."""
        self.rounds.instances.clear()
        self.initiation.stored.clear()
        self.initiation.gate_deadline.clear()

    # -- kernel handler interface ------------------------------------------------

    def on_threshold(self, units: int, tag) -> None:
        handler, *args = tag
        handler(*args, units)

    def on_deliver(self, sender: int, envelope) -> None:
        now = self.sim.reading(self.node)
        if isinstance(envelope, msg.Update):
            self.clocksync.on_update(sender, envelope.values, now)
        elif isinstance(envelope, msg.Init):
            self.initiation.on_init(sender, envelope.stamp, now)
        elif isinstance(envelope, msg.Echo):
            self.initiation.on_echo(sender, envelope.label, now)
        elif isinstance(envelope, msg.RoundMsg):
            self.rounds.on_round_msg(sender, envelope.label, envelope.round,
                                     envelope.payload, now)

    def on_malformed(self, sender: int) -> None:
        self.log("drop", "malformed", sender)

    def on_action(self) -> None:
        self.initiation.initiate(self.sim.reading(self.node))

    # -- the periodic tick --------------------------------------------------------

    def _tick(self, units: int) -> None:
        self.broadcast(msg.Update(self.clocksync.on_tick(units)))
        self.log("est", self.clocksync.estimates(units))
        self.clocksync.sanitize(units)
        self.initiation.sweep(units)
        self.rounds.sweep(units)
        self.guard.sweep(units)
        self.alarm(units + self.p.update_period, (self._tick,))
