"""Correct-node runtime: event dispatch and wiring between the state machines.

All protocol state transitions happen inside kernel event handlers; local
computation takes zero simulated time.  The runtime converts the kernel's
exact clock to the integer readings the protocol layer works with, routes
envelopes, applies bit accounting, and drives the periodic tick (clock-update
broadcast plus all garbage-collection sweeps).
"""

from __future__ import annotations

from . import messages as msg
from .clocksync import ClockSync
from .guard import Guard
from .initiation import Initiation
from .params import Params
from .rounds import Rounds


class NodeRuntime:
    def __init__(self, sim, node: int, p: Params, proto, oracle):
        self.sim = sim
        self.node = node
        self.p = p
        trace = sim.trace
        self.clocksync = ClockSync(p, node)
        self.guard = Guard(p, node, trace, self._alarm, self._now)
        self.rounds = Rounds(p, node, proto, self.guard, trace,
                             self._send_round, self._alarm, self._now)
        self.initiation = Initiation(p, node, self.clocksync, self.rounds,
                                     oracle, trace, self._broadcast_infra,
                                     self._alarm, self._now)
        self.guard.wipe_cb = self._wipe_instance_memory
        self._pending_alarms = set()

    def start(self) -> None:
        """Schedule the first clock-update tick (strictly after boot)."""
        h0 = self.sim.clocks[self.node].value(self.sim.now)
        units0 = self.p.grid.floor_units(h0)
        period = self.p.update_period
        first = (units0 // period + 1) * period
        self.sim.alarm(self.node, first, ("tick",))

    # -- helpers the state machines use ----------------------------------------

    def _now(self):
        return self.sim.now

    def _alarm(self, local_units: int, tag) -> None:
        key = (local_units, tag)
        if key in self._pending_alarms:
            return
        self._pending_alarms.add(key)
        self.sim.alarm(self.node, local_units, tag)

    def _reading(self) -> int:
        return self.sim.reading(self.node)

    def _broadcast_infra(self, envelope) -> None:
        frame = envelope.frame_bits(self.p)
        for w in range(self.p.n):
            if w != self.node:
                self.guard.charge_infra(frame)
                self.sim.send(self.node, w, envelope, frame, 0)

    def _send_round(self, receiver: int, envelope: msg.RoundMsg) -> None:
        frame = envelope.frame_bits(self.p)
        self.sim.send(self.node, receiver, envelope, frame,
                      envelope.payload_bits())

    def _wipe_instance_memory(self) -> None:
        self.rounds.clear_all()
        self.initiation.clear_all()

    # -- kernel handler interface ------------------------------------------------

    def on_threshold(self, node: int, units: int, tag) -> None:
        self._pending_alarms.discard((units, tag))
        kind = tag[0]
        if kind == "tick":
            self._tick(units)
        elif kind == "gate":
            self.initiation.on_gate(tag[1], units, units)
        elif kind == "round":
            self.rounds.on_alarm(tag[1], tag[2], units, units)
        elif kind == "wipe":
            self.guard.on_wipe(units, units)

    def on_deliver(self, node: int, sender: int, envelope) -> None:
        now = self._reading()
        p = self.p
        if not msg.well_formed(envelope, p):
            self.sim.trace.append(("drop", self.sim.now, self.node,
                                   "malformed", sender))
            return
        if isinstance(envelope, msg.Update):
            self.clocksync.on_update(sender, list(envelope.values), now)
        elif isinstance(envelope, msg.Init):
            self.initiation.on_init(sender, envelope.stamp, now)
        elif isinstance(envelope, msg.Echo):
            self.initiation.on_echo(sender, envelope.label, now)
        elif isinstance(envelope, msg.RoundMsg):
            self.rounds.on_round_msg(sender, envelope.label, envelope.round,
                                     envelope.payload, now)
        else:
            self.sim.trace.append(("drop", self.sim.now, self.node,
                                   "unknown_kind", sender))

    def on_action(self, node: int, payload) -> None:
        if payload[0] == "initiate":
            self.initiation.initiate(self._reading())

    # -- the periodic tick --------------------------------------------------------

    def _tick(self, units: int) -> None:
        vec = self.clocksync.on_tick(units)
        self._broadcast_infra(msg.Update(tuple(vec)))
        ests = tuple(self.clocksync.estimate(w, units) for w in range(self.p.n))
        self.sim.trace.append(("est", self.sim.now, self.node, ests))
        self.clocksync.sanitize(units)
        self.initiation.sweep(units)
        self.rounds.sweep(units)
        self.guard.sweep(units)
        self._alarm(units + self.p.update_period, ("tick",))
