"""Self-stabilization machinery: overload detection and quarantine.

Stored-tuple garbage collection lives with the tables it guards (initiation
and rounds expose `sweep`); this module owns the per-initiator instance
counters, the inconsistency verdicts and the quarantine-and-wipe sequence.
Bits sent are counted from the trace's `send` records, not here.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from .params import Params

OK, INCONSISTENT = "OK", "INCONSISTENT"


class Guard:
    def __init__(self, p: Params, node: int, trace: list, set_alarm, clock):
        self.p = p
        self.node = node
        self.trace = trace
        self.set_alarm = set_alarm
        self.clock = clock
        self.joins: Dict[int, deque] = {v: deque() for v in range(p.n)}
        self.busy: Dict[int, set] = {v: set() for v in range(p.n)}
        self.suppress_until: Optional[int] = None
        self.wipe_cb = None               # set by the runtime
        self.quarantines = 0
        self.instances_joined = 0

    # -- counters -------------------------------------------------------------

    def note_join(self, initiator: int, now: int) -> None:
        q = self.joins[initiator]
        q.append(now)
        self._prune(q, now)
        self.instances_joined += 1
        self._check(initiator, now)

    def note_busy(self, label) -> None:
        self.busy[label[0]].add(label)

    def note_terminate(self, label) -> None:
        self.busy[label[0]].discard(label)

    def note_forget(self, label) -> None:
        self.busy[label[0]].discard(label)

    def _prune(self, q: deque, now: int) -> None:
        floor = now - self.p.overload_window
        while q and (q[0] < floor or q[0] > now):
            q.popleft()

    # -- overload detection -----------------------------------------------------

    def detect_overload(self, initiator: int, now: int) -> str:
        self._prune(self.joins[initiator], now)
        if len(self.busy[initiator]) > self.p.max_busy_instances:
            return INCONSISTENT
        if len(self.joins[initiator]) > self.p.max_total_instances:
            return INCONSISTENT
        return OK

    def _check(self, initiator: int, now: int) -> None:
        if self.suppress_until is not None and now < self.suppress_until:
            return   # already in quarantine
        if self.detect_overload(initiator, now) == INCONSISTENT:
            self.quarantine(now)

    def sweep(self, now: int) -> None:
        if (self.suppress_until is not None
                and self.suppress_until > now + self.p.quarantine_hold):
            self.suppress_until = now + self.p.quarantine_hold   # corrupted register
            self.set_alarm(self.suppress_until, ("wipe",))
        for v in range(self.p.n):
            self._check(v, now)

    # -- quarantine --------------------------------------------------------------

    def quarantine(self, now: int) -> None:
        self.suppress_until = now + self.p.quarantine_hold
        self.quarantines += 1
        self.trace.append(("quarantine", self.clock(), self.node))
        self.set_alarm(self.suppress_until, ("wipe",))

    def suppressed(self, now: int) -> bool:
        return self.suppress_until is not None and now < self.suppress_until

    def on_wipe(self, units: int, now: int) -> None:
        if self.suppress_until != units:
            return
        self.suppress_until = None
        for v in range(self.p.n):
            self.joins[v].clear()
            self.busy[v].clear()
        self.trace.append(("wipe", self.clock(), self.node))
        if self.wipe_cb is not None:
            self.wipe_cb()

    def metrics(self) -> dict:
        return {"node": self.node,
                "instances_joined": self.instances_joined,
                "quarantines": self.quarantines}
