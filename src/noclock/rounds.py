"""Simulated synchronous rounds over the semi-synchronous network.

Per joined instance, a node keeps per round one local-time threshold and one
inbox `{sender: payload}`, whose size is the round's quorum count.  The first
threshold is set a fixed lead after joining; threshold i+1 is set one round
gap ahead once n-f distinct round-i messages are stored, and threshold i is
pulled to "now" once f+1 are stored (someone correct already reached round
i, so it is safe to).  Crossing threshold i computes the plugin's round-i
messages from the round-(i-1) inbox and sends one envelope, payload or
explicit non-message, to every peer, as one send set holding one envelope per
distinct payload; crossing threshold R+1 computes the output.  A stalled or
over-budget instance is terminated locally with output 0, which the silent
wrapper makes safe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .messages import Label, Payload, RoundMsg


class Instance:
    __slots__ = ("joined_at", "state", "thresholds", "inbox",
                 "fired", "last_progress", "bits", "nontrivial", "done")

    def __init__(self, input_bit: int, joined_at: int, proto, node: int):
        self.joined_at = joined_at
        self.state = proto.fresh(input_bit, node)
        self.thresholds: List[Optional[int]] = [None] * (proto.rounds + 2)
        self.inbox = [{} for _ in self.thresholds]   # {sender: payload}
        self.fired: Set[int] = set()
        self.last_progress = joined_at
        self.bits = 0
        self.nontrivial = False
        self.done = False


class Rounds:
    def __init__(self, rt, proto, guard):
        self.rt = rt                      # the node's port to the kernel
        self.p = rt.p
        self.node = rt.node
        self.proto = proto
        self.guard = guard
        self.instances: Dict[Label, Instance] = {}

    # -- joining ------------------------------------------------------------

    def join(self, label: Label, input_bit: int, confidence: int,
             oracle_val: int, now: int) -> None:
        if label in self.instances:
            return
        inst = Instance(input_bit, now, self.proto, self.node)
        self.instances[label] = inst
        inst.thresholds[1] = now + self.p.first_round_lead
        self.rt.alarm(inst.thresholds[1], (self.on_alarm, label, 1))
        self.guard.note_join(label[0], now)
        self.rt.log("participate", label, confidence, input_bit, oracle_val)

    # -- message path ---------------------------------------------------------

    def on_round_msg(self, sender: int, label: Label, i: int,
                     payload: Optional[Payload], now: int) -> None:
        inst = self.instances.get(label)
        if inst is None:
            self.rt.log("drop", "round_unjoined", sender, label, i)
            return
        if inst.done:
            return
        if not (1 <= i <= self.proto.rounds):
            self.rt.log("drop", "round_range", sender, label, i)
            return
        inbox = inst.inbox[i]
        if sender in inbox:
            return
        inbox[sender] = payload
        cnt = len(inbox)
        p = self.p
        if cnt >= p.n - p.f and inst.thresholds[i + 1] is None:
            inst.thresholds[i + 1] = now + p.round_gap
            self.rt.alarm(inst.thresholds[i + 1], (self.on_alarm, label, i + 1))
        if cnt >= p.f + 1 and (inst.thresholds[i] is None
                               or inst.thresholds[i] > now):
            inst.thresholds[i] = now
            self._fire(label, inst, i, now)

    def on_alarm(self, label: Label, i: int, now: int) -> None:
        inst = self.instances.get(label)
        # Skip a moved threshold or a stale alarm; `_fire` skips a repeat.
        if inst is not None and inst.thresholds[i] == now:
            self._fire(label, inst, i, now)

    # -- threshold actions ----------------------------------------------------

    def _fire(self, label: Label, inst: Instance, i: int, now: int) -> None:
        if i in inst.fired or inst.done:
            return
        inst.fired.add(i)
        inst.last_progress = now
        p = self.p
        if self.guard.suppressed(now):
            self.rt.log("suppressed", label, i)
            return
        rounds = self.proto.rounds
        received = None
        if i > 1:
            prev = inst.inbox[i - 1]
            received = tuple(map(prev.get, range(p.n)))
            self.rt.log("rrcv", label, i - 1, received)
        if i == rounds + 1:
            output = self.proto.finish(inst.state, received)
            inst.done = True
            self.rt.log("output", label, output, "ok")
            return
        inst.state, sends = self.proto.step(inst.state, i, received)
        self.rt.log("remit", label, i, sends)
        if i >= 3 or any(m is not None for m in sends):
            inst.nontrivial = True
        # One envelope and one price per distinct payload; the receivers in
        # id order that fit the budget get theirs, and a receiver that does
        # not aborts the instance after those sends.
        budget = p.instance_budget[i]
        built = {}                  # payload -> (its RoundMsg, its bits)
        envelopes = [None] * p.n
        bits = inst.bits
        over = False
        for w, payload in enumerate(sends):
            if w == self.node:
                continue
            entry = built.get(payload)
            if entry is None:
                envelope = RoundMsg(label, i, payload)
                entry = built[payload] = (
                    envelope, envelope.frame_bits(p) + envelope.payload_bits())
            envelope, cost = entry
            if bits + cost > budget:
                over = True
                break
            bits += cost
            envelopes[w] = envelope
        inst.bits = bits
        self.rt.send_round(envelopes)
        if over:
            self.abort(label, "bit_budget")
            return
        # Own message is local state, stored through the same quorum path.
        self.on_round_msg(self.node, label, i, sends[self.node], now)

    def abort(self, label: Label, reason: str) -> None:
        inst = self.instances.get(label)
        if inst is None or inst.done:
            return
        inst.done = True
        self.rt.log("output", label, 0, reason)

    # -- housekeeping ---------------------------------------------------------

    def sweep(self, now: int) -> None:
        p = self.p
        dead = []
        for label, inst in self.instances.items():
            if inst.joined_at > now or now - inst.joined_at > p.instance_ttl:
                dead.append(label)
                continue
            if inst.last_progress > now:
                inst.last_progress = now
            if not inst.done and now - inst.last_progress > p.stall_after:
                self.abort(label, "stall")
        for label in dead:
            self.rt.log("gc_instance", label)
            del self.instances[label]
