"""Synchronous consensus plugins and the silent-consensus wrapper.

A plugin is an object, one per run, describing a pure state machine over
rounds 1..R:

    fresh(input_bit, index) -> state             # state["self"] is the node index
    step(state, i, received) -> (state, sends)   # received: payloads of round
                                                 # i-1 (None entries allowed),
                                                 # None for i == 1
    finish(state, received) -> output bit        # received: round-R payloads

`received` and `sends` are tuples with one entry per node, in node order.
A plugin keeps no state between calls: all a node knows lives in `state`, so
equal inputs (input bit, index, received tuples) give equal sends and equal
output, whatever other executions ran on the same plugin object in between.
The oracle-equivalence verdict relies on this to replay each distinct
execution once.

Payloads are bit tuples; `None` means "no message", and each plugin decides
what a missing message counts as.  `SilentWrapper` turns any such plugin into
one that sends nothing when every correct input is 0: two extra broadcast
rounds demote insufficiently supported 1-inputs to 0, gate entry into the
inner protocol, and force output 0 unless enough round-2 support was seen;
the inner protocol is additionally policed against its own declared bit bound
and locally aborted on a violation.

`run_lockstep` executes a plugin directly, round by round, with a scriptable
byzantine message matrix.  It is the independent oracle the simulation's
recorded executions are replayed against, and the harness for exhaustive
protocol-level adversarial search.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from .messages import Payload

ONE: Payload = (1,)


class PhaseKing:
    """f+1 phases of three rounds each: value exchange, proposal, king.

    Every participant sends an explicit payload every round (non-kings send an
    empty payload in king rounds), so a missing message always means a missing
    sender.  A missing value-exchange message counts as a 0 vote, and a
    missing king message as the king's value 0; a missing proposal counts
    for neither value.
    """

    def __init__(self, n: int, f: int):
        if 3 * f >= n:
            raise ValueError(f"phase king needs f < n/3, got n={n}, f={f}")
        self.n = n
        self.f = f
        self.rounds = 3 * (f + 1)
        self.bit_bound = 4 * (f + 1) * n

    def fresh(self, input_bit: int, index: int) -> dict:
        return {"self": index, "value": 1 if input_bit else 0,
                "proposal": None, "follow_king": True}

    def _king(self, i: int) -> int:
        return ((i - 1) // 3) % self.n

    def _absorb(self, state: dict, i: int, received: Sequence[Optional[Payload]]) -> None:
        """Fold round-i receipts into the state."""
        sub = (i - 1) % 3
        if sub == 0:
            counts = [0, 0]
            for m in received:
                if m is None:
                    counts[0] += 1
                elif len(m) == 1 and m[0] in (0, 1):
                    counts[m[0]] += 1
            best = 0 if counts[0] >= counts[1] else 1
            state["proposal"] = best if counts[best] >= self.n - self.f else None
        elif sub == 1:
            counts = [0, 0]
            for m in received:
                if m is not None and len(m) == 2 and m[0] == 1 and m[1] in (0, 1):
                    counts[m[1]] += 1
            best = 0 if counts[0] >= counts[1] else 1
            if counts[best] > self.f:
                state["value"] = best
            state["follow_king"] = counts[best] < self.n - self.f
        else:
            if state["follow_king"]:
                m = received[self._king(i)]
                state["value"] = m[0] if (m is not None and len(m) == 1
                                          and m[0] in (0, 1)) else 0

    def step(self, state: dict, i: int,
             received: Optional[Sequence[Optional[Payload]]]) -> tuple:
        if i > 1:
            self._absorb(state, i - 1, received)
        sub = (i - 1) % 3
        if sub == 0:
            out: Optional[Payload] = (state["value"],)
        elif sub == 1:
            p = state["proposal"]
            out = (0, 0) if p is None else (1, p)
        else:
            out = (state["value"],) if self._king(i) == state["self"] else ()
        return state, (out,) * self.n

    def finish(self, state: dict, received: Sequence[Optional[Payload]]) -> int:
        self._absorb(state, self.rounds, received)
        return state["value"]


class SilentWrapper:
    """Silent binary consensus from any synchronous consensus plugin.

    `state["inner"]` holds the inner run: one of the marks below, or the
    inner plugin's own state from round 3 on.
    """

    UNDECIDED = "undecided"    # round 2 has not run
    PENDING = "pending"        # round 2 saw f+1 ones; round 3 has not run
    OFF = "off"                # inactive, or aborted
    MARKS = (UNDECIDED, PENDING, OFF)

    def __init__(self, inner, n: int, f: int):
        if 3 * f >= n:
            raise ValueError(f"silent wrapper needs f < n/3, got n={n}, f={f}")
        self.n = n
        self.f = f
        self.inner = inner
        self.rounds = inner.rounds + 2
        self.bit_bound = inner.bit_bound + 2 * (n - 1)

    def fresh(self, input_bit: int, index: int) -> dict:
        return {"self": index, "input": 1 if input_bit else 0,
                "r2_ones": 0, "inner": self.UNDECIDED, "inner_bits": 0}

    def _ones(self, received: Sequence[Optional[Payload]]) -> int:
        return sum(1 for m in received if m == ONE)

    def step(self, state: dict, i: int,
             received: Optional[Sequence[Optional[Payload]]]) -> tuple:
        n = self.n
        if i == 1:
            out = ONE if state["input"] == 1 else None
            return state, (out,) * n
        if i == 2:
            ones = self._ones(received)
            if ones < n - self.f:
                state["input"] = 0
            state["inner"] = self.PENDING if ones >= self.f + 1 else self.OFF
            out = ONE if state["input"] == 1 else None
            return state, (out,) * n
        # Rounds 3..R+2 carry the inner protocol's rounds 1..R.
        j = i - 2
        if i == 3:
            state["r2_ones"] = self._ones(received)
            if state["r2_ones"] < n - self.f:
                state["input"] = 0
            if state["inner"] == self.PENDING:
                state["inner"] = self.inner.fresh(state["input"], state["self"])
        elif state["inner"] == self.PENDING:
            # Round 3 did not run (possible only from a corrupted boot
            # state); the inner run is undefined, so abort locally.
            state["inner"] = self.OFF
        if state["inner"] in self.MARKS:
            return state, (None,) * n
        state["inner"], sends = self.inner.step(state["inner"], j,
                                                received if j > 1 else None)
        cost = sum(len(m) for u, m in enumerate(sends)
                   if m is not None and u != state["self"])
        state["inner_bits"] += cost
        if state["inner_bits"] > self.inner.bit_bound:
            state["inner"] = self.OFF
            return state, (None,) * n
        return state, tuple(sends)

    def finish(self, state: dict, received: Sequence[Optional[Payload]]) -> int:
        if state["inner"] in self.MARKS or state["r2_ones"] <= self.f:
            return 0
        return self.inner.finish(state["inner"], received)


def phase_king_silent(n: int, f: int) -> SilentWrapper:
    return SilentWrapper(PhaseKing(n, f), n, f)


# Protocol names a scenario may select, each with its constructor (n, f).
PROTOCOLS = {"phase-king-silent": phase_king_silent}


def make_protocol(name: str, n: int, f: int):
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}")
    return PROTOCOLS[name](n, f)


def run_lockstep(proto, inputs: Dict[int, int], n: int,
                 byzantine: Optional[Dict[int, Callable[[int, int], Optional[Payload]]]] = None,
                 participants: Optional[set] = None):
    """Direct synchronous execution; the oracle everything else is checked against.

    byzantine maps node -> fn(round, receiver) -> payload-or-None.
    Returns (outputs, sent, received): per-participant output bit, the send
    matrix sent[i][u][w] and receive matrix received[i][w][u].
    """
    byzantine = byzantine or {}
    correct = [v for v in range(n) if v not in byzantine]
    if participants is None:
        participants = set(correct)
    states = {v: proto.fresh(inputs[v], v) for v in correct
              if v in participants}
    sent: Dict[int, dict] = {}
    received: Dict[int, dict] = {}
    last_received = {v: (None,) * n for v in states}
    for i in range(1, proto.rounds + 1):
        sent[i] = {}
        for v in states:
            prev = None if i == 1 else last_received[v]
            states[v], sent[i][v] = proto.step(states[v], i, prev)
        for u, fn in byzantine.items():
            sent[i][u] = tuple([fn(i, w) for w in range(n)])
        received[i] = {v: tuple([sent[i][u][v] if u in sent[i] else None
                                 for u in range(n)])
                       for v in states}
        last_received = received[i]
    outputs = {v: proto.finish(states[v], last_received[v]) for v in states}
    return outputs, sent, received


def replay(proto, index: int, input_bit: int,
           received_by_round: Sequence[Sequence[Optional[Payload]]]) -> int:
    """Re-run one node's recorded execution through the plugin state machine.

    received_by_round[k] is the payload tuple the node fed to its round-(k+1)
    computation; the last entry feeds the output computation.
    """
    state = proto.fresh(input_bit, index)
    for i in range(1, proto.rounds + 1):
        prev = None if i == 1 else received_by_round[i - 2]
        state, _ = proto.step(state, i, prev)
    return proto.finish(state, received_by_round[proto.rounds - 1])
