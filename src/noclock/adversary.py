"""Adversary machinery: delay policies, byzantine node strategies, clock-rate
schedules, input oracles, and boot states.

Byzantine nodes are ordinary event handlers with full control over what they
send (and, since the adversary also owns the delay policy, when it arrives).
Strategies that need to stay trusted by the clock-estimate layer relay
honestly: `ClockSkewNode` through a relay-only copy of it (`ClockRelay`: what
an honest broadcast is computed from, and no estimates), the strategies that
misbehave one layer up through the whole honest stack (`NodeRuntime`).

Every name a scenario may give is a key of one table here; the scenario
resolves each name to its entry (`Scenario.lookup`), and the constructors
below take entries, not names.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil

from . import messages as msg
from .clocksync import ClockRelay
from .kernel import DELAY_STEPS
from .node import NodeRuntime
from .params import Params
from .rounds import Instance


# -- delay policies -----------------------------------------------------------

# The open band (d/64, d - d/64), in steps of d/DELAY_STEPS.
_LO = DELAY_STEPS // 64 + 1
_HI = DELAY_STEPS - _LO


def _randint(rng, a: int, b: int) -> int:
    """`rng.randint(a, b)`: the same value and the same RNG state after.
    Like `Random.randint`, it draws k-bit words, k the bit length of the
    width b - a + 1, until one is below the width; it skips randint's three
    Python-level calls on the way."""
    width = b - a + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return a + r


def _split(receiver, rng):
    # Fast to the even ids, slow to the odd ones.
    jitter = _randint(rng, 0, 32)
    return _LO + jitter if receiver % 2 == 0 else _HI - jitter


def _boundary(receiver, rng):
    edge = _randint(rng, 1, 4)
    return edge if rng.random() < 0.5 else DELAY_STEPS - edge


# Each policy is a kernel `delay_policy(receiver, rng)`: it draws a message
# delay as an int count of d/DELAY_STEPS.
DELAYS = {
    "uniform": lambda receiver, rng: _randint(rng, _LO, _HI),
    "fast": lambda receiver, rng: _randint(rng, _LO, _LO + 48),
    "slow": lambda receiver, rng: _randint(rng, _HI - 48, _HI),
    "split": _split,
    "boundary": _boundary,
}


# -- clock-rate schedules -------------------------------------------------------


def _random_steps(theta: Fraction, duration: Fraction, rng):
    """Rates 1 + k/8 (theta - 1) for k drawn in 0..8, each held for an int
    span drawn in 2..12, from time 0 until `duration`."""
    if theta == 1:
        return [(0, Fraction(1))]     # one rate: nothing to draw
    rates = [1 + Fraction(k, 8) * (theta - 1) for k in range(9)]
    end = ceil(duration)        # an int t is below duration iff below end
    segs = []
    t = 0
    while t < end:
        segs.append((t, rates[_randint(rng, 0, 8)]))
        t += _randint(rng, 2, 12)
    return segs


# Each schedule is `schedule(theta, duration, rng)`: piecewise-constant rates
# in [1, theta], as (start, rate) segments.
RATE_SCHEDULES = {
    "fixed_min": lambda theta, duration, rng: [(0, Fraction(1))],
    "fixed_max": lambda theta, duration, rng: [(0, theta)],
    "random_steps": _random_steps,
}


# -- byzantine strategies ----------------------------------------------------------


class SilentNode:
    """Sends nothing, ever.  The handlers that do not run the honest node
    stack inherit its no-op event methods."""

    def __init__(self, sim, node, proto=None, oracle=None):
        self.sim = sim
        self.node = node
        self.p = sim.p

    def start(self):
        pass

    def on_threshold(self, units, tag):
        pass

    def on_deliver(self, sender, envelope):
        pass

    def on_malformed(self, sender):
        pass

    def on_action(self):
        pass


def random_envelope(p: Params, rng):
    kind = _randint(rng, 0, 4)
    stamp = _randint(rng, 0, p.clock_modulus - 1)
    if kind == 0:
        vals = tuple(None if rng.random() < 0.3
                     else _randint(rng, 0, p.clock_modulus - 1)
                     for _ in range(p.n))
        return msg.Update(vals)
    if kind == 1:
        return msg.Init(stamp)
    if kind == 2:
        return msg.Echo((_randint(rng, 0, p.n - 1), stamp))
    if kind == 3:
        payload = None if rng.random() < 0.5 else \
            tuple(_randint(rng, 0, 1) for _ in range(_randint(rng, 0, 3)))
        return msg.RoundMsg((_randint(rng, 0, p.n - 1), stamp),
                            _randint(rng, 0, p.rounds + 2), payload)
    return msg.Garbage(tuple(_randint(rng, 0, 255)
                             for _ in range(_randint(rng, 1, 8))))


class NoiseNode(SilentNode):
    """Broadcasts random well-formed and malformed envelopes at tick pace."""

    def start(self):
        self._next_wake()

    def _next_wake(self):
        units = self.sim.local_units(self.node)
        self.sim.alarm(self.node, units + self.p.update_period, ("wake",))

    def on_threshold(self, units, tag):
        rng = self.sim.rng
        for w in range(self.p.n):
            # One send at a time: each envelope's draws precede its delay's.
            if w != self.node and rng.random() < 0.7:
                self.sim.send(self.node, w, random_envelope(self.p, rng))
        self._next_wake()


class SplitEchoNode(NodeRuntime):
    """Byzantine initiator: skewed init stamps to subsets, conflicting echoes.

    Clock and round layers run honestly (inherited), so the node keeps the
    correct nodes' trust while it tries to split instance initiation.
    """

    def on_action(self):
        p = self.p
        base = self.sim.reading(self.node) % p.clock_modulus
        # Half the receivers (the odd ids) see a stamp near the band edge,
        # half see it clean; some instances will assemble only partial echo
        # support.
        inits = [msg.Init((base + skew) % p.clock_modulus)
                 for skew in (0, p.init_band - p.grid.q_units)]
        # Echo a pair of conflicting labels ourselves.
        echoes = [msg.Echo((self.node, (base + skew) % p.clock_modulus))
                  for skew in (0, p.grid.q_units)]
        for pair in (inits, echoes):
            envelopes = [pair[w % 2] for w in range(p.n)]
            envelopes[self.node] = None
            self.sim.multicast(self.node, envelopes)


class EquivocatingRoundsNode(NodeRuntime):
    """Participates like a correct node but equivocates round payloads."""

    def send_round(self, envelopes) -> None:
        out = list(envelopes)
        for w in range(1, len(out), 2):
            envelope = out[w]
            if envelope is None:
                continue
            payload = envelope.payload
            if payload is not None:
                payload = tuple(1 - b for b in payload)
                out[w] = msg.RoundMsg(envelope.label, envelope.round, payload)
            elif envelope.round <= 2:
                out[w] = msg.RoundMsg(envelope.label, envelope.round, (1,))
        super().send_round(out)


class ClockSkewNode(SilentNode):
    """Announces legally-timed clock updates at an adversarial pace.

    Claims advance by exactly one update period per broadcast, but broadcasts
    are spaced at the fastest / slowest legal cadence (or alternate), which
    drags every correct node's estimate of this clock as far as the checks
    allow.  Other nodes' claims are relayed honestly, through a `ClockRelay`,
    to keep everyone's trust.
    """

    # Mode -> the cycle of spacings between broadcasts (True: fastest legal).
    PACES = {"fastest": (True,), "slowest": (False,),
             "alternating": (True, False)}

    def __init__(self, sim, node, proto=None, oracle=None, *, pace):
        super().__init__(sim, node)
        self.pace = itertools.cycle(pace)
        self.clocksync = ClockRelay(self.p, node)
        self.claim_units = 0          # unbounded claim counter, period grid

    def start(self):
        h0 = self.sim.local_units(self.node)
        period = self.p.update_period
        self.claim_units = (h0 // period) * period
        self.sim.alarm(self.node, (h0 // period + 1) * period, ("tick",))

    def on_threshold(self, units, tag):
        p = self.p
        self.claim_units += p.update_period
        vec = list(self.clocksync.on_tick(units))
        vec[self.node] = self.claim_units % p.clock_modulus
        envelopes = [msg.Update(tuple(vec))] * p.n
        envelopes[self.node] = None
        self.sim.multicast(self.node, envelopes, delay=DELAY_STEPS // 2)
        # Next broadcast at an adversarial real-time spacing, expressed as a
        # local alarm through this node's own clock.
        spacing = p.d + 2 * p.grid.quantum if next(self.pace) else 3 * p.d_clk
        target = self.sim.clocks[self.node].value(self.sim.now + spacing)
        self.sim.alarm(self.node, p.grid.ceil_units(target), ("tick",))

    def on_deliver(self, sender, envelope):
        if isinstance(envelope, msg.Update):
            now = self.sim.local_units(self.node)
            self.clocksync.on_update(sender, envelope.values, now)


STRATEGIES = {
    "silent": SilentNode,
    "noise": NoiseNode,
    "split_echo": SplitEchoNode,
    "equivocate_rounds": EquivocatingRoundsNode,
    "clock_skew": ClockSkewNode,
}


def make_byzantine(cls, sim, node: int, proto, oracle, pace):
    """A `STRATEGIES` entry's handler; only `ClockSkewNode` reads `pace`."""
    if cls is ClockSkewNode:
        return cls(sim, node, proto, oracle, pace=pace)
    return cls(sim, node, proto, oracle)


# -- input oracles ------------------------------------------------------------------


def _const_oracle(config: dict, seed: int):
    value = config.get("value", 1)
    return lambda label, node: value


def _mixed_oracle(config: dict, seed: int):
    def oracle(label, node):
        x = (label[0] * 1000003 + label[1] * 7919 + node * 104729 + seed)
        return (x * 2654435761 >> 7) & 1
    return oracle


# Each kind is `kind(config, seed)`, which gives the run's oracle: the input
# bit `oracle(label, node)` of each correct node in each instance it joins.
ORACLES = {"const": _const_oracle, "mixed": _mixed_oracle}


# -- boot states ---------------------------------------------------------------------


def clean_boot(sim, rng, runtimes) -> None:
    """Every handler with a clock layer (a `ClockSync` or a `ClockRelay`),
    byzantine ones included, starts knowing everyone's claim.  At time 0 each clock reads its offset,
    which lies on the update-period grid, so each reading is exact and is
    that clock's claim."""
    units = [sim.local_units(w) for w in range(sim.p.n)]
    claims = [u % sim.p.clock_modulus for u in units]
    for v, handler in sim.handlers.items():
        if hasattr(handler, "clocksync"):
            handler.clocksync.boot_clean(claims, units[v])


def corrupted_boot(sim, rng, runtimes) -> None:
    """Arbitrary correct-node registers and channel contents."""
    horizon = 4 * sim.p.stall_after
    for rt in runtimes.values():
        corrupt_runtime(rt, rng, horizon)
    random_garbage(sim, rng)


# Each boot is `boot(sim, rng, runtimes)`; it runs once, before any handler
# starts.  `runtimes` maps each correct node to its `NodeRuntime`.
BOOTS = {"none": clean_boot, "random": corrupted_boot}


def corrupt_runtime(rt: NodeRuntime, rng, horizon_units: int) -> None:
    """Randomize one correct node's entire protocol state in place.

    Alarm hardware is assumed to survive the corruption: fabricated future
    deadlines within the horizon get their threshold events scheduled, so the
    corrupted registers actually fire instead of sitting inert.
    """
    p = rt.p
    n = p.n
    now = rt.sim.local_units(rt.node)
    span = 2 * p.trust_regain

    def unset_or_near():   # a register: unset, or within `span` of now
        return None if rng.random() < 0.5 else now + rng.randint(-span, span)

    cs = rt.clocksync
    for u in range(n):
        cs.load_row(u, [None if rng.random() < 0.25
                        else rng.randrange(p.clock_modulus) for _ in range(n)])
        cs.last_update_at[u] = now + rng.randint(-span, span)
        cs.report_hold_until[u] = unset_or_near()
        cs.trust_hold_until[u] = unset_or_near()

    ini = rt.initiation
    for _ in range(rng.randint(0, 3 * n)):
        label = (rng.randrange(n), rng.randrange(p.clock_modulus))
        senders = set(rng.sample(range(n), rng.randint(1, n)))
        ini.stored[label] = {u: now + rng.randint(-2 * p.echo_ttl,
                                                  2 * p.echo_ttl)
                             for u in senders}
        if rng.random() < 0.5:
            deadline = now + rng.randint(-p.gate_hold, 4 * p.gate_hold)
            ini.gate_deadline[label] = deadline
            if now < deadline <= now + horizon_units:
                rt.alarm(deadline, (ini.on_gate, label))
    for w in range(n):
        ini.last_init_rx[w] = unset_or_near()
    ini.last_own_init = unset_or_near()

    rounds = rt.rounds
    count = rng.randint(0, 4)
    overload_batch = rng.random() < 0.25
    if overload_batch:
        # Enough fabricated busy instances for one initiator to trip rule (i).
        count = p.max_busy_instances + 1 + rng.randint(0, 3)
    pinned = rng.randrange(n)
    for k in range(count):
        initiator = pinned if overload_batch else rng.randrange(n)
        label = (initiator, rng.randrange(p.clock_modulus))
        if label in rounds.instances:
            continue
        input_bit = rng.randrange(2)
        # A corrupted confidence and oracle value: nothing stores them, but
        # their draws are part of the seeded stream the trace digests fix.
        rng.choice((1, 2))
        rng.randrange(2)
        inst = Instance(input_bit,
                        now + rng.randint(-p.instance_ttl, p.instance_ttl),
                        rounds.proto, rt.node)
        for i in range(1, rounds.proto.rounds + 2):
            if rng.random() < 0.3:
                t = now + rng.randint(-p.stall_after, 2 * p.stall_after)
                inst.thresholds[i] = t
                if now < t <= now + horizon_units:
                    rt.alarm(t, (rounds.on_alarm, label, i))
        for u in range(n):
            for i in range(1, rounds.proto.rounds + 1):
                if rng.random() < 0.1:
                    inst.inbox[i][u] = None if rng.random() < 0.5 else (rng.randrange(2),)
        inst.nontrivial = True if overload_batch else rng.random() < 0.7
        inst.last_progress = now + rng.randint(-2 * p.stall_after, p.stall_after)
        rounds.instances[label] = inst

    guard = rt.guard
    for label, inst in rounds.instances.items():
        guard.joins[label[0]].append(inst.joined_at)
    if rng.random() < 0.1:
        guard.suppress_until = now + rng.randint(0, 4 * p.quarantine_hold)


def random_garbage(sim, rng) -> None:
    """Arbitrary channel contents delivered before time d."""
    p = sim.p
    for s in range(p.n):
        for r in range(p.n):
            if s == r:
                continue
            for _ in range(rng.randint(0, 2)):
                env = random_envelope(p, rng)
                at = Fraction(rng.randint(1, DELAY_STEPS - 1), DELAY_STEPS) * p.d
                sim.inject_garbage(s, r, env, at)
