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
the pace and step checks (`_check`).  A byzantine node that relays honestly
to stay trusted keeps only this.  `ClockSync` extends it with what the
estimates need: every sender's whole row, the support counts, the set of
under-supported columns, the trust holds, `estimate`, `estimates` and
`sanitize`.  Both broadcast the same vector from the same updates and ticks,
store every update through `load_row`, and read each constant from `self.p`.

The corroboration count is maintained, not recomputed: `support[x]` is the
number of stored rows whose value for x lies within `relay_band` of x's own
claim, and `low` is the set of columns x other than the node's own with
`support[x] < n - f`.  Every whole-row write goes through `load_row`, which
adjusts only the replaced row's changed entries and recounts the replaced
node's own column, moving a column in or out of `low` as its count crosses
n - f.  An update therefore costs the row diff plus one column recount, and
its trust refresh visits only the columns in `low`: O(n), not O(n^2).

Rows are stored as tuples, so an `Update`'s values are kept without a copy,
and a tick's vector is one tuple: the node's own row and what it broadcasts.

All message-borne clock values are modular; registers indexed by local time
are unbounded node memory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .params import Params
from .timebase import expired

Row = Tuple[Optional[int], ...]


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
        row = tuple(claims_mod)
        for u in range(self.p.n):
            self.load_row(u, row)
        self.last_update_at = [now] * self.p.n

    # -- transitions ----------------------------------------------------------

    def on_tick(self, now: int) -> Row:
        """Periodic broadcast; `now` is the exact tick value (unbounded units).

        Returns the report vector to broadcast, which is also stored as this
        node's own row.
        """
        p = self.p
        v = self.node
        claims = self.claims
        last = self.last_update_at
        held = self.report_hold_until
        max_gap = p.max_update_gap
        out: List[Optional[int]] = [None] * p.n
        for w in range(p.n):
            if w == v:
                continue
            if now - last[w] > max_gap:
                self._flag(w, now)
            if expired(held[w], now):
                out[w] = claims[w]
        out[v] = now % p.clock_modulus
        row = tuple(out)
        self.load_row(v, row)
        return row

    def on_update(self, sender: int, values, now: int) -> None:
        """Check an update's pace and step, then store it as the sender's row."""
        self._check(sender, values, now)
        self.load_row(sender, values)

    def _check(self, w: int, values, now: int) -> None:
        """The pace and step checks of an update from w, before it is stored:
        flag w if the update came sooner than `min_update_gap` after the last
        one, or does not advance w's claim by exactly one update period; then
        note the update's time.

        The step test `(claim - prev) % modulus == update_period` is
        `mod_signed(claim - prev) == update_period`, as the period is below
        half the modulus."""
        p = self.p
        prev = self.claims[w]
        claim = values[w]
        if (now - self.last_update_at[w] < p.min_update_gap or prev is None
                or claim is None
                or (claim - prev) % p.clock_modulus != p.update_period):
            self._flag(w, now)
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
        self.rows: List[Row] = [(None,) * n] * n
        # support[x]: how many rows hold a value for x near x's claim.
        self.support: List[int] = [0] * n
        # low: every column x != node with support[x] < n - f.
        self.low = set(range(n)) - {node}
        self.trust_hold_until: List[Optional[int]] = [None] * n

    def on_update(self, sender: int, values, now: int) -> None:
        """Check and store the update as the relay does, then distrust every
        column left with fewer than n - f supporting rows."""
        super().on_update(sender, values, now)
        if self.low:
            regain = now + self.p.trust_regain
            hold = self.trust_hold_until
            for x in self.low:
                hold[x] = regain

    def _flag(self, w: int, now: int) -> None:
        super()._flag(w, now)
        self.trust_hold_until[w] = now + self.p.trust_regain

    # -- stored rows ------------------------------------------------------------

    def load_row(self, w: int, values) -> None:
        """Store `values` as row w (a tuple is kept as it is, anything else is
        copied into one) and keep `support` and `low` exact.

        Row w's value for a column x != w counts toward x's support when it
        lies within `relay_band` of x's claim, which row w does not hold; so
        only the entries that changed move a count.  Column w's claim is the
        row's own entry, so that column is recounted in full.  A value v is
        near a claim c on the clock circle iff (c - v + band) % modulus <=
        2 band, as 2 band < modulus.
        """
        p = self.p
        band, mod, need = p.relay_band, p.clock_modulus, p.n - p.f
        width = 2 * band
        rows = self.rows
        old = rows[w]
        rows[w] = new = tuple(values)
        claims = self.claims
        claims[w] = own = new[w]
        support = self.support
        low = self.low
        v = self.node
        for x, val, was, claim in zip(range(len(new)), new, old, claims):
            if val == was or x == w or claim is None:
                continue
            if was is not None and (claim - was + band) % mod <= width:
                if val is None or (claim - val + band) % mod > width:
                    support[x] -= 1
                    if support[x] < need and x != v:
                        low.add(x)
            elif val is not None and (claim - val + band) % mod <= width:
                support[x] += 1
                if support[x] >= need:
                    low.discard(x)
        count = 0
        if own is not None:
            own += band                   # the claim's side of the test
            for row in rows:
                val = row[w]
                if val is not None and (own - val) % mod <= width:
                    count += 1
        support[w] = count
        if count >= need:
            low.discard(w)
        elif w != v:
            low.add(w)

    # -- queries --------------------------------------------------------------

    def estimate(self, w: int, now: int) -> Optional[int]:
        """Trusted clock estimate of w (modular), or None while distrusted."""
        if w == self.node:
            return now % self.p.clock_modulus
        if expired(self.trust_hold_until[w], now):
            return self.claims[w]
        return None

    def estimates(self, now: int) -> Row:
        """Every node's `estimate` at `now`."""
        return tuple([self.estimate(w, now) for w in range(self.p.n)])

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
