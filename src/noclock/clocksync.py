"""Per-node estimates of every other node's hardware clock.

Each node broadcasts, once per update period of its own clock, the clock
values it currently accepts for everyone (its own current reading included),
and cross-checks incoming reports: updates must arrive neither too soon nor
too late, must advance the sender's claim by exactly one update period, and a
claimed value must be corroborated by n-f stored reports.

Inconsistencies start two hold timers: while the report hold runs the value
is relayed as unknown, and while the trust hold runs the node is not trusted.
Consistent behavior therefore regains trust after a fixed quiet period.

The state comes in two layers.  `ClockRelay` is what the broadcast needs:
each sender's last claim, the time of its last update, the report holds, and
the pace and step checks.  A byzantine node that relays honestly to stay
trusted keeps only this.  `ClockSync` extends it with what the estimates
need: every sender's whole row, the support counts, the trust holds,
`estimate` and `sanitize`.  Both broadcast the same vector from the same
updates and ticks.

The corroboration count is maintained, not recomputed: `support[x]` is the
number of stored rows whose value for x lies within `relay_band` of x's own
claim.  Every whole-row write goes through `load_row`, which adjusts only the
replaced row's contribution to the other columns and recounts the replaced
node's own column, so one update costs O(n) instead of O(n^2).

All message-borne clock values are modular; registers indexed by local time
are unbounded node memory.
"""

from __future__ import annotations

from typing import List, Optional

from .params import Params
from .timebase import expired, mod_signed


class ClockRelay:
    """The relay state: what a node's broadcast vector is computed from."""

    def __init__(self, p: Params, node: int):
        self.p = p
        self.node = node
        n = p.n
        # claims[w]: w's claim, the own entry of the last row stored for w
        # (mod), or None.
        self.claims: List[Optional[int]] = [None] * n
        self.last_update_at: List[int] = [0] * n     # local time of last update from w
        self.report_hold_until: List[Optional[int]] = [None] * n

    # -- boot states ----------------------------------------------------------

    def boot_clean(self, claims_mod: List[int], now: int) -> None:
        """Idealized warm start: everyone agrees on everyone's claim already."""
        for u in range(self.p.n):
            self.load_row(u, claims_mod)
        self.last_update_at = [now] * self.p.n
        self.report_hold_until = [None] * self.p.n

    # -- transitions ----------------------------------------------------------

    def on_tick(self, now: int) -> list:
        """Periodic broadcast; `now` is the exact tick value (unbounded units).

        Returns the report vector to broadcast.
        """
        p = self.p
        v = self.node
        claims = self.claims
        out: List[Optional[int]] = [None] * p.n
        for w in range(p.n):
            if w == v:
                continue
            if now - self.last_update_at[w] > p.max_update_gap:
                self._flag(w, now)
            out[w] = claims[w] if expired(self.report_hold_until[w], now) else None
        out[v] = now % p.clock_modulus
        self.load_row(v, out)
        return out

    def on_update(self, sender: int, values, now: int) -> None:
        """Check an update's pace and step, then store it as the sender's
        row."""
        p = self.p
        w = sender
        prev = self.claims[w]
        stale = now - self.last_update_at[w]
        step_ok = (prev is not None and values[w] is not None and
                   mod_signed(values[w] - prev, p.clock_modulus) == p.update_period)
        if stale < p.min_update_gap or not step_ok:
            self._flag(w, now)
        self.load_row(w, values)
        self.last_update_at[w] = now

    def _flag(self, w: int, now: int) -> None:
        self.report_hold_until[w] = now + self.p.report_hold

    def load_row(self, w: int, values) -> None:
        """Store `values` as row w; the relay keeps only its own entry."""
        self.claims[w] = values[w]


class ClockSync(ClockRelay):
    """The relay state plus every stored row, the support counts and the
    trust holds, from which the clock estimates are read."""

    def __init__(self, p: Params, node: int):
        super().__init__(p, node)
        n = p.n
        # rows[u][w]: the clock value u most recently relayed for w (mod), or
        # None; rows[w][w] is claims[w].
        self.rows: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        # support[x]: how many rows hold a value for x near x's claim.
        self.support: List[int] = [0] * n
        self.trust_hold_until: List[Optional[int]] = [None] * n

    def boot_clean(self, claims_mod: List[int], now: int) -> None:
        super().boot_clean(claims_mod, now)
        self.trust_hold_until = [None] * self.p.n

    def on_update(self, sender: int, values, now: int) -> None:
        """Check and store the update as the relay does, then distrust every
        column left with fewer than n - f supporting rows."""
        # Called directly: building a super() object per update is a
        # measurable share of a correct node's update.
        ClockRelay.on_update(self, sender, values, now)
        v = self.node
        need = self.p.n - self.p.f
        regain = now + self.p.trust_regain
        hold = self.trust_hold_until
        for x, count in enumerate(self.support):
            if count < need and x != v:
                hold[x] = regain

    def _flag(self, w: int, now: int) -> None:
        super()._flag(w, now)
        self.trust_hold_until[w] = now + self.p.trust_regain

    # -- stored rows ------------------------------------------------------------

    def load_row(self, w: int, values) -> None:
        """Store a copy of `values` as row w and keep `support` exact.

        Row w's value for a column x != w counts toward x's support when it
        lies within `relay_band` of x's claim, which row w does not hold; so
        only the entries that changed move a count.  Column w's claim is the
        row's own entry, so that column is recounted in full.
        """
        rows = self.rows
        old = rows[w]
        rows[w] = new = list(values)
        claims = self.claims
        claims[w] = new[w]
        band, width, mod = self._band()
        support = self.support
        for x, (val, was, claim) in enumerate(zip(new, old, claims)):
            if val == was or x == w or claim is None:
                continue
            if was is not None and (claim - was + band) % mod <= width:
                support[x] -= 1
            if val is not None and (claim - val + band) % mod <= width:
                support[x] += 1
        support[w] = self._count(w)

    def _band(self):
        """(band, 2 band, modulus): a value v is near a claim c on the clock
        circle iff (c - v + band) % modulus <= 2 band, as 2 band < modulus."""
        band = self.p.relay_band
        return band, 2 * band, self.p.clock_modulus

    def _count(self, x: int) -> int:
        """From-scratch support of x's claim: rows within `relay_band` of it."""
        claim = self.claims[x]
        if claim is None:
            return 0
        band, width, mod = self._band()
        count = 0
        for row in self.rows:
            val = row[x]
            if val is not None and (claim - val + band) % mod <= width:
                count += 1
        return count

    # -- queries --------------------------------------------------------------

    def estimate(self, w: int, now: int) -> Optional[int]:
        """Trusted clock estimate of w (modular), or None while distrusted."""
        if w == self.node:
            return now % self.p.clock_modulus
        if expired(self.trust_hold_until[w], now):
            return self.claims[w]
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
