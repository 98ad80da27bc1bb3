"""Simulated synchronous rounds over the semi-synchronous network.

Per joined instance, a node keeps one local-time threshold per round.  The
first threshold is set a fixed lead after joining; threshold i+1 is set one
round gap ahead once n-f distinct round-i messages are stored, and threshold i
is pulled to "now" once f+1 are stored (someone correct already reached round
i, so it is safe to).  Crossing threshold i computes the plugin's round-i
messages from the stored round-(i-1) tuples and sends one envelope, payload or
explicit non-message, to every peer; crossing threshold R+1 computes the
output.  A stalled or over-budget instance is terminated locally with output
0, which the silent wrapper makes safe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .messages import Label, Payload, RoundMsg
from .params import Params


class Instance:
    __slots__ = ("label", "input", "confidence", "oracle_val", "joined_at",
                 "state", "thresholds", "inbox", "counts", "fired",
                 "output", "out_reason", "last_progress", "bits", "nontrivial",
                 "done")

    def __init__(self, label: Label, input_bit: int, confidence: int,
                 oracle_val: int, joined_at: int, proto, node: int):
        self.label = label
        self.input = input_bit
        self.confidence = confidence
        self.oracle_val = oracle_val
        self.joined_at = joined_at
        self.state = proto.fresh(input_bit, node)
        self.thresholds: List[Optional[int]] = [None] * (proto.rounds + 2)
        self.inbox: Dict[Tuple[int, int], Optional[Payload]] = {}
        self.counts: List[int] = [0] * (proto.rounds + 2)
        self.fired: Set[int] = set()
        self.output: Optional[int] = None
        self.out_reason = ""
        self.last_progress = joined_at
        self.bits = 0
        self.nontrivial = False
        self.done = False


class Rounds:
    def __init__(self, p: Params, node: int, proto, guard, trace: list,
                 send_round, set_alarm, clock):
        self.p = p
        self.node = node
        self.proto = proto
        self.guard = guard
        self.trace = trace
        self.send_round = send_round      # (receiver, RoundMsg) -> None
        self.set_alarm = set_alarm        # (local_units, tag) -> None
        self.clock = clock                # () -> real now, for trace records
        self.instances: Dict[Label, Instance] = {}

    # -- joining ------------------------------------------------------------

    def join(self, label: Label, input_bit: int, confidence: int,
             oracle_val: int, now: int) -> None:
        if label in self.instances:
            return
        inst = Instance(label, input_bit, confidence, oracle_val, now,
                        self.proto, self.node)
        self.instances[label] = inst
        inst.thresholds[1] = now + self.p.first_round_lead
        self.set_alarm(inst.thresholds[1], ("round", label, 1))
        self.guard.note_join(label[0], now)
        self.trace.append(("participate", self.clock(), self.node, label,
                           confidence, input_bit, oracle_val))

    # -- message path ---------------------------------------------------------

    def on_round_msg(self, sender: int, label: Label, i: int,
                     payload: Optional[Payload], now: int) -> None:
        inst = self.instances.get(label)
        if inst is None:
            self.trace.append(("drop", self.clock(), self.node, "round_unjoined",
                               sender, label, i))
            return
        if inst.done:
            return
        if not (1 <= i <= self.proto.rounds):
            self.trace.append(("drop", self.clock(), self.node, "round_range",
                               sender, label, i))
            return
        key = (sender, i)
        if key in inst.inbox:
            return
        inst.inbox[key] = payload
        inst.counts[i] += 1
        cnt = inst.counts[i]
        p = self.p
        if cnt >= p.n - p.f and inst.thresholds[i + 1] is None:
            inst.thresholds[i + 1] = now + p.round_gap
            self.set_alarm(inst.thresholds[i + 1], ("round", label, i + 1))
        if cnt >= p.f + 1 and (inst.thresholds[i] is None
                               or inst.thresholds[i] > now):
            inst.thresholds[i] = now
            self._fire(inst, i, now)

    def on_alarm(self, label: Label, i: int, units: int, now: int) -> None:
        inst = self.instances.get(label)
        if inst is None or inst.done or i in inst.fired:
            return
        if not 1 <= i < len(inst.thresholds) or inst.thresholds[i] != units:
            return   # catch-up moved this threshold, or the alarm is stale
        self._fire(inst, i, now)

    # -- threshold actions ----------------------------------------------------

    def _fire(self, inst: Instance, i: int, now: int) -> None:
        if i in inst.fired or inst.done:
            return
        inst.fired.add(i)
        inst.last_progress = now
        p = self.p
        if self.guard.suppressed(now):
            self.trace.append(("suppressed", self.clock(), self.node,
                               inst.label, i))
            return
        rounds = self.proto.rounds
        received = None
        if i > 1:
            prev = inst.inbox
            received = [prev.get((u, i - 1)) for u in range(p.n)]
            self.trace.append(("rrcv", self.clock(), self.node, inst.label,
                               i - 1, tuple(received)))
        if i == rounds + 1:
            inst.output = self.proto.finish(inst.state, received)
            inst.out_reason = "ok"
            inst.done = True
            self.trace.append(("output", self.clock(), self.node, inst.label,
                               inst.output, "ok"))
            self.guard.note_terminate(inst.label)
            return
        inst.state, sends = self.proto.step(inst.state, i, received)
        self.trace.append(("remit", self.clock(), self.node, inst.label, i,
                           tuple(sends)))
        if i >= 3 or any(m is not None for m in sends):
            if not inst.nontrivial:
                inst.nontrivial = True
                self.guard.note_busy(inst.label)
        frame = p.round_frame_bits()
        for w in range(p.n):
            if w == self.node:
                continue
            payload = sends[w]
            cost = frame + (0 if payload is None else len(payload))
            if inst.bits + cost > p.instance_budget(i):
                self.abort(inst.label, now, "bit_budget")
                return
            inst.bits += cost
            self.send_round(w, RoundMsg(inst.label, i, payload))
        # Own message is local state, stored through the same quorum path.
        self.on_round_msg(self.node, inst.label, i, sends[self.node], now)

    def abort(self, label: Label, now: int, reason: str) -> None:
        inst = self.instances.get(label)
        if inst is None or inst.done:
            return
        inst.output = 0
        inst.out_reason = reason
        inst.done = True
        self.trace.append(("output", self.clock(), self.node, label, 0, reason))
        self.guard.note_terminate(label)

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
                self.abort(label, now, "stall")
        for label in dead:
            self.guard.note_forget(label)
            self.trace.append(("gc_instance", self.clock(), self.node, label))
            del self.instances[label]

    def clear_all(self) -> None:
        for label in self.instances:
            self.guard.note_forget(label)
        self.instances.clear()
