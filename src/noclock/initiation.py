"""Instance initiation: init/echo dissemination with graded confidence.

An initiator broadcasts its clock reading; receivers relay an echo only if
the stamp is close to their trusted estimate of the initiator's clock, and
per-initiator rate limits hold.  Stored echoes for a label arm a short gate
timer once f+1 distinct senders vouch; when the gate expires the node
participates - with its real input if n-f echoes arrived (every correct node
will also participate), and with input 0 otherwise.
"""

from __future__ import annotations

from typing import Dict, Optional

from .messages import Echo, Init, Label
from .timebase import expired, mod_near


class Initiation:
    def __init__(self, rt, clocksync, rounds, oracle):
        self.rt = rt                      # the node's port to the kernel
        self.p = rt.p
        self.node = rt.node
        self.clocksync = clocksync
        self.rounds = rounds
        self.oracle = oracle              # (label, node) -> bit
        # label -> {sender: local reading when its echo was stored}
        self.stored: Dict[Label, Dict[int, int]] = {}
        self.gate_deadline: Dict[Label, int] = {}
        self.last_init_rx: list = [None] * self.p.n
        self.last_own_init: Optional[int] = None

    # -- own initiations ------------------------------------------------------

    def initiate(self, now: int) -> Optional[Label]:
        """Start an instance, unless rate-limited; returns its label."""
        if (self.last_own_init is not None
                and now - self.last_own_init <= self.p.rate_limit):
            self.rt.log("refuse_init")
            return None
        self.last_own_init = now
        stamp = now % self.p.clock_modulus
        label = (self.node, stamp)
        self.rt.log("init", label)
        self.rt.broadcast(Init(stamp))
        self.on_init(self.node, stamp, now)   # own init echoes like any other
        return label

    # -- message handlers -------------------------------------------------------

    def on_init(self, sender: int, stamp: int, now: int) -> None:
        p = self.p
        prev_rx = self.last_init_rx[sender]
        self.last_init_rx[sender] = now
        if prev_rx is not None and now - prev_rx < p.init_accept_gap:
            self.rt.log("drop", "init_rate", sender, stamp)
            return
        est = self.clocksync.estimate(sender, now)
        if est is None or not mod_near(stamp, est, p.init_band, p.clock_modulus):
            self.rt.log("drop", "init_stamp", sender, stamp)
            return
        label = (sender, stamp)
        self.rt.broadcast(Echo(label))
        self.on_echo(self.node, label, now)   # the broadcast includes ourselves

    def on_echo(self, sender: int, label: Label, now: int) -> None:
        p = self.p
        initiator, stamp = label
        est = self.clocksync.estimate(initiator, now)
        if est is None or not mod_near(stamp, est, p.echo_band, p.clock_modulus):
            self.rt.log("drop", "echo_stamp", sender, label)
            return
        seen = self.stored.setdefault(label, {})
        if sender in seen:
            return
        seen[sender] = now
        if len(seen) >= p.f + 1 and expired(self.gate_deadline.get(label), now):
            deadline = now + p.gate_hold
            self.gate_deadline[label] = deadline
            self.rt.alarm(deadline, (self.on_gate, label))

    # -- participation gate -------------------------------------------------------

    def on_gate(self, label: Label, now: int) -> None:
        if self.gate_deadline.get(label) != now:
            return   # a stale alarm, or this gate already fired
        del self.gate_deadline[label]   # passed; `expired` reads both alike
        count = len(self.stored.get(label, ()))
        if count <= self.p.f:
            # Unreachable from a clean boot (the gate is only armed at f+1);
            # a corrupted gate register can get here, and joining would be unsafe.
            self.rt.log("gate_underflow", label)
            return
        oracle_val = self.oracle(label, self.node)
        if count >= self.p.n - self.p.f:
            confidence, input_bit = 2, oracle_val
        else:
            confidence, input_bit = 1, 0
        self.rounds.join(label, input_bit, confidence, oracle_val, now)

    # -- housekeeping -------------------------------------------------------------

    def sweep(self, now: int) -> None:
        p = self.p
        dead = []
        for label, ats in self.stored.items():
            stale = [u for u, at in ats.items()
                     if at > now or now - at > p.echo_ttl]
            for u in stale:
                del ats[u]
            if not ats:
                dead.append(label)
        for label in dead:
            del self.stored[label]
            self.gate_deadline.pop(label, None)
        for w in range(p.n):
            rx = self.last_init_rx[w]
            if rx is not None and rx > now:
                self.last_init_rx[w] = now
        if self.last_own_init is not None and self.last_own_init > now:
            self.last_own_init = now
