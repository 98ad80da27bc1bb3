"""Self-stabilization machinery: overload detection and quarantine.

Stored-tuple garbage collection lives with the tables it guards (initiation
and rounds expose `sweep`); this module owns the per-initiator join windows,
the overload check and the quarantine-and-wipe sequence.  Overload rule (i)
counts busy instances in the rounds layer's instance table
(`rt.rounds.instances`), the one record of them.  Rule (ii) counts the joins
in each initiator's window, which the table cannot give back: with a large T
the window outlives `instance_ttl`, and corrupted boots append joins out of
time order.  The run's join, quarantine and bit totals are read from the
trace, not kept here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional

from .timebase import expired


class Guard:
    def __init__(self, rt):
        self.rt = rt                      # the node's port to the kernel
        self.p = rt.p
        self.joins: Dict[int, List[int]] = {v: [] for v in range(self.p.n)}
        self.suppress_until: Optional[int] = None

    # -- counters -------------------------------------------------------------

    def note_join(self, initiator: int, now: int) -> None:
        self.joins[initiator].append(now)
        if (not self.suppressed(now)
                and self.overloaded(initiator, now, self.busy_counts())):
            self.quarantine(now)

    def busy_counts(self) -> List[int]:
        """Per initiator, its instances past the trivial rounds, not yet done."""
        busy = [0] * self.p.n
        for label, inst in self.rt.rounds.instances.items():
            if inst.nontrivial and not inst.done:
                busy[label[0]] += 1
        return busy

    def _prune(self, q: List[int], now: int) -> None:
        """Drop every join outside the window.  A corrupted boot appends its
        joins out of time order; once sorted, they sit at the ends.
        `note_join` appends in time order, so the sort is one pass of
        comparisons."""
        q.sort()
        floor = now - self.p.overload_window
        if q and (q[0] < floor or q[-1] > now):
            q[:] = q[bisect_left(q, floor):bisect_right(q, now)]

    # -- overload detection -----------------------------------------------------

    def overloaded(self, initiator: int, now: int, busy: List[int]) -> bool:
        """Too many busy instances, or too many joins in the window."""
        self._prune(self.joins[initiator], now)
        return (busy[initiator] > self.p.max_busy_instances
                or len(self.joins[initiator]) > self.p.max_total_instances)

    def sweep(self, now: int) -> None:
        if (self.suppress_until is not None
                and self.suppress_until > now + self.p.quarantine_hold):
            self.suppress_until = now + self.p.quarantine_hold   # corrupted register
            self.rt.alarm(self.suppress_until, (self.on_wipe,))
        if self.suppressed(now):
            return   # already in quarantine
        busy = self.busy_counts()
        if any(self.overloaded(v, now, busy) for v in range(self.p.n)):
            self.quarantine(now)

    # -- quarantine --------------------------------------------------------------

    def quarantine(self, now: int) -> None:
        self.suppress_until = now + self.p.quarantine_hold
        self.rt.log("quarantine")
        self.rt.alarm(self.suppress_until, (self.on_wipe,))

    def suppressed(self, now: int) -> bool:
        return not expired(self.suppress_until, now)

    def on_wipe(self, now: int) -> None:
        if self.suppress_until != now:
            return
        self.suppress_until = None
        for v in range(self.p.n):
            self.joins[v].clear()
        self.rt.log("wipe")
        self.rt.wipe()
