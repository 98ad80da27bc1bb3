"""Self-stabilization machinery: overload detection and quarantine.

Stored-tuple garbage collection lives with the tables it guards (initiation
and rounds expose `sweep`); this module owns the per-initiator instance
counters, the overload check and the quarantine-and-wipe sequence.
Joins, quarantines and bits sent are counted from the trace, not here.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional


class Guard:
    def __init__(self, rt):
        self.rt = rt                      # the node's port to the kernel
        self.p = rt.p
        self.joins: Dict[int, deque] = {v: deque() for v in range(self.p.n)}
        self.busy: Dict[int, set] = {v: set() for v in range(self.p.n)}
        self.suppress_until: Optional[int] = None

    # -- counters -------------------------------------------------------------

    def note_join(self, initiator: int, now: int) -> None:
        q = self.joins[initiator]
        q.append(now)
        self._prune(q, now)
        self._check(initiator, now)

    def note_busy(self, label) -> None:
        self.busy[label[0]].add(label)

    def note_done(self, label) -> None:
        """The instance terminated or was forgotten: it is busy no more."""
        self.busy[label[0]].discard(label)

    def _prune(self, q: deque, now: int) -> None:
        floor = now - self.p.overload_window
        while q and (q[0] < floor or q[0] > now):
            q.popleft()

    # -- overload detection -----------------------------------------------------

    def overloaded(self, initiator: int, now: int) -> bool:
        """Too many busy instances, or too many joins in the window."""
        self._prune(self.joins[initiator], now)
        return (len(self.busy[initiator]) > self.p.max_busy_instances
                or len(self.joins[initiator]) > self.p.max_total_instances)

    def _check(self, initiator: int, now: int) -> None:
        if self.suppress_until is not None and now < self.suppress_until:
            return   # already in quarantine
        if self.overloaded(initiator, now):
            self.quarantine(now)

    def sweep(self, now: int) -> None:
        if (self.suppress_until is not None
                and self.suppress_until > now + self.p.quarantine_hold):
            self.suppress_until = now + self.p.quarantine_hold   # corrupted register
            self.rt.alarm(self.suppress_until, ("wipe",))
        for v in range(self.p.n):
            self._check(v, now)

    # -- quarantine --------------------------------------------------------------

    def quarantine(self, now: int) -> None:
        self.suppress_until = now + self.p.quarantine_hold
        self.rt.log("quarantine")
        self.rt.alarm(self.suppress_until, ("wipe",))

    def suppressed(self, now: int) -> bool:
        return self.suppress_until is not None and now < self.suppress_until

    def on_wipe(self, now: int) -> None:
        if self.suppress_until != now:
            return
        self.suppress_until = None
        for v in range(self.p.n):
            self.joins[v].clear()
            self.busy[v].clear()
        self.rt.log("wipe")
        self.rt.wipe()
