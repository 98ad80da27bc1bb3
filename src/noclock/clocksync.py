"""Per-node estimates of every other node's hardware clock.

Each node broadcasts, once per update period of its own clock, the clock
values it currently accepts for everyone (its own current reading included),
and cross-checks incoming reports: updates must arrive neither too soon nor
too late, must advance the sender's claim by exactly one update period, and a
claimed value must be corroborated by n-f stored reports.

Inconsistencies start two hold timers: while the report hold runs the value
is relayed as unknown, and while the trust hold runs the node is not trusted.
Consistent behavior therefore regains trust after a fixed quiet period.

All message-borne clock values are modular; registers indexed by local time
are unbounded node memory.
"""

from __future__ import annotations

from typing import List, Optional

from .params import Params
from .timebase import expired, mod_signed


class ClockSync:
    def __init__(self, p: Params, node: int):
        self.p = p
        self.node = node
        n = p.n
        # rows[u][w]: the clock value u most recently relayed for w (mod), or None.
        self.rows: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        self.last_update_at: List[int] = [0] * n     # local time of last update from w
        self.report_hold_until: List[Optional[int]] = [None] * n
        self.trust_hold_until: List[Optional[int]] = [None] * n

    # -- boot states ----------------------------------------------------------

    def boot_clean(self, claims_mod: List[int], now: int) -> None:
        """Idealized warm start: everyone agrees on everyone's claim already."""
        self.rows = [list(claims_mod) for _ in range(self.p.n)]
        self.last_update_at = [now] * self.p.n
        self.report_hold_until = [None] * self.p.n
        self.trust_hold_until = [None] * self.p.n

    # -- transitions ----------------------------------------------------------

    def on_tick(self, now: int) -> list:
        """Periodic broadcast; `now` is the exact tick value (unbounded units).

        Returns the report vector to broadcast.
        """
        p = self.p
        v = self.node
        out: List[Optional[int]] = [None] * p.n
        for w in range(p.n):
            if w == v:
                continue
            if now - self.last_update_at[w] > p.max_update_gap:
                self._flag(w, now)
            out[w] = self.rows[w][w] if expired(self.report_hold_until[w], now) else None
        out[v] = now % p.clock_modulus
        self.rows[v] = list(out)
        return out

    def on_update(self, sender: int, values: list, now: int) -> None:
        p = self.p
        v = self.node
        w = sender
        prev = self.rows[w][w]
        stale = now - self.last_update_at[w]
        step_ok = (prev is not None and values[w] is not None and
                   mod_signed(values[w] - prev, p.clock_modulus) == p.update_period)
        if stale < p.min_update_gap or not step_ok:
            self._flag(w, now)
        self.rows[w] = list(values)
        need = p.n - p.f
        for x in range(p.n):
            if x == v:
                continue
            if self._support(x, need) < need:
                self.trust_hold_until[x] = now + p.trust_regain
        self.last_update_at[w] = now

    def _flag(self, w: int, now: int) -> None:
        self.report_hold_until[w] = now + self.p.report_hold
        self.trust_hold_until[w] = now + self.p.trust_regain

    def _support(self, x: int, enough: Optional[int] = None) -> int:
        claim = self.rows[x][x]
        if claim is None:
            return 0
        band, mod = self.p.relay_band, self.p.clock_modulus
        half = mod // 2
        count = 0
        for row in self.rows:
            val = row[x]
            if val is not None and \
                    abs((claim - val + half - 1) % mod - half + 1) <= band:
                count += 1
                if count == enough:
                    return count
        return count

    # -- queries --------------------------------------------------------------

    def estimate(self, w: int, now: int) -> Optional[int]:
        """Trusted clock estimate of w (modular), or None while distrusted."""
        if w == self.node:
            return now % self.p.clock_modulus
        if expired(self.trust_hold_until[w], now):
            return self.rows[w][w]
        return None

    def sanitize(self, now: int) -> None:
        """Clamp registers a corrupted boot may have left in the future."""
        p = self.p
        for w in range(p.n):
            if self.last_update_at[w] > now:
                self.last_update_at[w] = now
            rh = self.report_hold_until[w]
            if rh is not None and rh > now + p.report_hold:
                self.report_hold_until[w] = now + p.report_hold
            th = self.trust_hold_until[w]
            if th is not None and th > now + p.trust_regain:
                self.trust_hold_until[w] = now + p.trust_regain
