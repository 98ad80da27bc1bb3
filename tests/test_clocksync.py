"""Unit drive of the clock-estimate state machine.

Values are in grid units of 1/20 (theta=1.1, d=1): the update period 2.2 is
44 units, readings sit on the 0.25 grid (5 units).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from noclock import adversary, harness, protocols
from noclock.clocksync import ClockRelay, ClockSync
from noclock.kernel import Simulator
from noclock.node import NodeRuntime
from noclock.scenario import Scenario
from noclock.timebase import mod_near, mod_signed
from shapes import derive_pk4


@pytest.fixture
def p():
    return derive_pk4(4, 1, "1.1", "1")


def healthy(p, node=0, now=0):
    cs = ClockSync(p, node)
    cs.boot_clean([0, 0, 0, 0], now)
    return cs


def put(cs, u, w, value):
    """Store `value` as u's relayed value for w, through the row API."""
    row = list(cs.rows[u])
    row[w] = value
    cs.load_row(u, row)


def test_tick_keeps_responsive_peer(p):
    # last update 3.0 ago; the too-slow bound (3.52 + one quantum slack,
    # floored to 3.75) is not crossed, so the peer's value is reported.
    cs = healthy(p)
    put(cs, 1, 1, 440)
    cs.last_update_at[1] = 880 - 60          # 3.0 local ago
    vec = cs.on_tick(880)
    assert vec[1] == 440
    assert cs.trust_hold_until[1] is None


def test_tick_flags_too_slow_peer(p):
    cs = healthy(p)
    put(cs, 1, 1, 440)
    cs.last_update_at[1] = 880 - 80          # 4.0 local ago
    vec = cs.on_tick(880)
    assert vec[1] is None                    # report hold active
    assert cs.trust_hold_until[1] == 880 + p.trust_regain
    assert cs.estimate(1, 880) is None


def test_tick_healthy_broadcast_has_no_gaps(p):
    cs = healthy(p)
    for w in range(4):
        put(cs, w, w, 44)
        cs.last_update_at[w] = 40
    vec = cs.on_tick(88)
    assert all(v is not None for v in vec)
    assert vec[0] == 88                      # own entry mirrors own clock


def test_update_with_exact_step_accepted(p):
    cs = healthy(p)
    for u in range(4):
        put(cs, u, 1, 2000)                  # everyone relays the 100.0 claim
    cs.last_update_at[1] = 0
    incoming = [0, 2044, 0, 0]               # 102.2 = +2.2 exactly
    cs.on_update(1, incoming, 40)            # arrives 2.0 local later
    assert cs.trust_hold_until[1] is None
    assert cs.rows[1] == tuple(incoming)
    assert cs.last_update_at[1] == 40


def test_update_with_wrong_step_flags(p):
    cs = healthy(p)
    put(cs, 1, 1, 2000)
    cs.last_update_at[1] = 0
    cs.on_update(1, [2060, 2060, 2060, 2060], 40)   # 103.0: step 3.0 != 2.2
    assert cs.trust_hold_until[1] == 40 + p.trust_regain
    assert cs.rows[1][1] == 2060             # the row is still stored


def test_update_arriving_too_soon_flags(p):
    cs = healthy(p)
    put(cs, 1, 1, 2000)
    cs.last_update_at[1] = 40
    cs.on_update(1, [2044, 2044, 2044, 2044], 55)   # 0.75 local < d
    assert cs.trust_hold_until[1] is not None


def test_support_three_of_four_within_band_keeps_trust(p):
    # Rows for target 2 agree within (2 theta^2 + 4 theta) d = 6.82.
    cs = healthy(p)
    put(cs, 0, 2, 1000)
    put(cs, 2, 2, 1000)
    put(cs, 3, 2, None)
    cs.on_update(1, [0, 0, 1056, 0], 40)     # 1056: 2.8 away, within band
    assert cs.trust_hold_until[2] is None


def test_support_two_of_four_resets_trust(p):
    cs = healthy(p)
    put(cs, 0, 2, None)
    put(cs, 2, 2, 1000)
    put(cs, 3, 2, None)
    cs.on_update(1, [0, 0, 5000, 0], 40)     # far from the claim: no support
    assert cs.trust_hold_until[2] == 40 + p.trust_regain


def test_estimate_definitions(p):
    cs = healthy(p)
    put(cs, 1, 1, 1144)                      # 57.2
    assert cs.estimate(1, 100) == 1144
    cs.trust_hold_until[1] = 100 + p.trust_regain
    assert cs.estimate(1, 120) is None       # held 1 local-time ago
    assert cs.estimate(0, 700) == 700        # own clock


def test_estimate_modular_wraparound(p):
    cs = healthy(p)
    big = p.clock_modulus - p.update_period
    put(cs, 1, 1, big)
    cs.last_update_at[1] = 0
    vec = [0] * 4
    vec[1] = 0                               # wraps around to zero
    cs.on_update(1, vec, 40)
    assert cs.trust_hold_until[1] is None    # step still exactly one period


def _drive_rounds(cs, p, claims, start, count, skip=()):
    """Feed one healthy full-mesh update cadence: every peer every 2.0 local."""
    now = start
    for _ in range(count):
        now += 40
        for w in range(1, 4):
            claims[w] += p.update_period
            if w in skip:
                continue
            vec = list(claims)
            cs.on_update(w, vec, now)
    return now


def test_trust_regained_after_quiet_period(p):
    cs = healthy(p)
    claims = [0, 0, 0, 0]
    now = _drive_rounds(cs, p, claims, 0, 3)
    # node 3 violates once: resend same values immediately (gap < d, step 0)
    cs.on_update(3, list(claims), now + 2)
    flagged_at = now + 2
    assert cs.estimate(3, flagged_at) is None
    # clean cadence resumes; trust returns exactly after the regain hold
    deadline = flagged_at + p.trust_regain
    now = _drive_rounds(cs, p, claims, now, p.trust_regain // 40 + 2)
    assert now > deadline
    assert cs.estimate(3, deadline - 1) is None
    assert cs.estimate(3, deadline) == claims[3] % p.clock_modulus


def test_sanitize_clamps_future_registers(p):
    cs = healthy(p)
    cs.last_update_at[2] = 10_000_000
    cs.trust_hold_until[2] = 10_000_000
    cs.report_hold_until[2] = 10_000_000
    cs.sanitize(1000)
    assert cs.last_update_at[2] == 1000
    assert cs.trust_hold_until[2] == 1000 + p.trust_regain
    assert cs.report_hold_until[2] == 1000 + p.report_hold


# -- maintained support counts -------------------------------------------------


def recount(cs, x):
    """Support of x's claim from scratch, by the circle-distance definition."""
    p = cs.p
    claim = cs.rows[x][x]
    if claim is None:
        return 0
    return sum(1 for row in cs.rows if row[x] is not None and
               mod_near(row[x], claim, p.relay_band, p.clock_modulus))


def claims(p):
    """Clock values that sit on the band's edges around a few shared anchors,
    one of them just below the wrap-around of the modulus."""
    band, mod = p.relay_band, p.clock_modulus
    anchors = st.sampled_from([0, mod - band // 2, mod // 2])
    offsets = st.sampled_from([0, 1, -1, band, -band, band + 1, -band - 1])
    near = st.builds(lambda a, o: (a + o) % mod, anchors, offsets)
    return st.one_of(near, st.integers(0, mod - 1))


def values(p):
    """A claim, or no value."""
    return st.one_of(st.none(), claims(p))


def low_reference(cs):
    """The under-supported columns from scratch: every x but the node's own
    whose claim fewer than n - f rows support."""
    need = cs.p.n - cs.p.f
    return {x for x in range(cs.p.n)
            if x != cs.node and recount(cs, x) < need}


def flagged_by_checks(cs, sender, values, now):
    """Whether an update fails the pace or step check, by their definitions."""
    p = cs.p
    prev, claim = cs.claims[sender], values[sender]
    return (now - cs.last_update_at[sender] < p.min_update_gap
            or prev is None or claim is None
            or mod_signed(claim - prev, p.clock_modulus) != p.update_period)


@settings(max_examples=150)
@given(data=st.data(), n=st.sampled_from([4, 7]))
def test_support_counts_equal_a_recount(data, n):
    """`support` and `low` stay equal to a recount after every write, and an
    update sets exactly the trust holds the rule names."""
    p = derive_pk4(n, (n - 1) // 3, "1.1", "1")
    node = data.draw(st.integers(0, n - 1))
    cs = ClockSync(p, node)
    rows = st.lists(values(p), min_size=n, max_size=n)
    now = 0
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["boot", "tick", "update", "corrupt"]))
        now += data.draw(st.integers(0, 3 * p.update_period))
        if op == "boot":
            cs.boot_clean(data.draw(st.lists(claims(p), min_size=n,
                                             max_size=n)), now)
        elif op == "tick":
            # The tick's own entry is the unbounded local time, so it wraps.
            cs.on_tick(now + data.draw(st.integers(0, 2)) * p.clock_modulus)
        elif op == "update":
            # Any node but this one.
            sender = data.draw(st.integers(0, n - 2).map(
                lambda w: w + (w >= node)))
            row = data.draw(rows)
            prev = cs.claims[sender]
            if prev is not None and data.draw(st.booleans()):
                row[sender] = (prev + p.update_period) % p.clock_modulus
            flagged = flagged_by_checks(cs, sender, row, now)
            before = list(cs.trust_hold_until)
            cs.on_update(sender, row, now)
            low = low_reference(cs)
            assert cs.trust_hold_until == [
                now + p.trust_regain if x in low or (x == sender and flagged)
                else before[x] for x in range(n)]
        else:
            cs.load_row(data.draw(st.integers(0, n - 1)), data.draw(rows))
        assert cs.support == [recount(cs, x) for x in range(n)]
        assert cs.low == low_reference(cs)


@settings(max_examples=100)
@given(data=st.data(), n=st.sampled_from([4, 7]))
def test_estimates_equal_estimate_per_node(data, n):
    """The one-pass `estimates` record is `estimate` for every node, with
    trust holds unset, running, just expiring and long expired."""
    p = derive_pk4(n, (n - 1) // 3, "1.1", "1")
    node = data.draw(st.integers(0, n - 1))
    cs = ClockSync(p, node)
    cs.boot_clean(data.draw(st.lists(claims(p), min_size=n, max_size=n)), 0)
    cs.load_row(data.draw(st.integers(0, n - 1)),
                data.draw(st.lists(values(p), min_size=n, max_size=n)))
    now = data.draw(st.integers(0, 3 * p.trust_regain))
    cs.trust_hold_until = data.draw(st.lists(
        st.sampled_from([None, 0, now - 1, now, now + 1, now + p.trust_regain]),
        min_size=n, max_size=n))
    assert cs.estimates(now) == tuple(cs.estimate(w, now) for w in range(n))


def test_tick_vector_is_the_stored_own_row(p):
    cs = healthy(p, node=2)
    vec = cs.on_tick(88)
    assert type(vec) is tuple
    assert cs.rows[2] is vec


def test_load_row_keeps_no_alias_of_a_list(p):
    cs = healthy(p)
    row = [0, 44, 44, 44]
    cs.load_row(1, row)
    row[2] = 5000
    row[1] = None
    assert cs.rows[1] == (0, 44, 44, 44)
    assert cs.claims[1] == 44
    assert cs.support == [recount(cs, x) for x in range(4)]


@pytest.mark.parametrize("seed", range(6))
def test_corrupted_boot_leaves_exact_support_counts(seed):
    sc = Scenario(n=7, f=2, corruption={"kind": "random"}, seed=seed)
    _, p, _, _, _, clocks = harness.build_env(sc)
    sim = Simulator(p, clocks, {}, lambda receiver, rng: 512,
                    random.Random(seed))
    proto = protocols.make_protocol("phase-king-silent", 7, 2)
    rt = sim.handlers[0] = NodeRuntime(sim, 0, proto, lambda *a: 1)
    adversary.corrupt_runtime(rt, random.Random(seed), 4 * p.stall_after)
    cs = rt.clocksync
    assert any(v is None for row in cs.rows for v in row)
    assert cs.support == [recount(cs, x) for x in range(7)]
    assert cs.low == low_reference(cs)


# -- the relay state -------------------------------------------------------------


@settings(max_examples=150)
@given(data=st.data(), n=st.sampled_from([4, 7]))
def test_relay_broadcasts_what_clock_sync_broadcasts(data, n):
    """A `ClockRelay` and a `ClockSync` fed the same updates and ticks keep
    the same relay registers and broadcast the same vectors."""
    p = derive_pk4(n, (n - 1) // 3, "1.1", "1")
    node = data.draw(st.integers(0, n - 1))
    relay, full = ClockRelay(p, node), ClockSync(p, node)
    now = data.draw(st.integers(0, p.update_period))
    start = data.draw(st.lists(claims(p), min_size=n, max_size=n))
    for cs in (relay, full):
        cs.boot_clean(start, now)
    rows = st.lists(values(p), min_size=n, max_size=n)
    # Gaps below min_update_gap make stale updates; above max_update_gap a
    # tick flags the quiet senders.
    gaps = st.sampled_from([0, 1, p.min_update_gap - 1, p.min_update_gap,
                            p.update_period, p.max_update_gap + 1])
    # One period is a legal step; the others break the step check, and None
    # leaves the sender's own entry empty.
    steps = st.sampled_from([p.update_period, p.update_period, 0,
                             p.update_period + 1, -p.update_period, None])
    for _ in range(data.draw(st.integers(1, 20))):
        now += data.draw(gaps)
        op = data.draw(st.sampled_from(["tick", "update", "update", "load"]))
        if op == "tick":
            # The tick's own entry is the unbounded local time, so it wraps.
            tick = now + data.draw(st.sampled_from([0, 0, 1])) * p.clock_modulus
            sent = relay.on_tick(tick)
            assert type(sent) is tuple
            assert sent == full.on_tick(tick)
        elif op == "update":
            sender = data.draw(st.integers(0, n - 2).map(
                lambda w: w + (w >= node)))
            row = data.draw(rows)
            step, prev = data.draw(steps), relay.claims[sender]
            if step is None or prev is None:
                row[sender] = None
            else:
                row[sender] = (prev + step) % p.clock_modulus
            sent = tuple(row)
            for cs in (relay, full):
                cs.on_update(sender, sent, now)
        else:
            # A corrupted boot writes whole rows, this node's own included.
            w, row = data.draw(st.integers(0, n - 1)), data.draw(rows)
            for cs in (relay, full):
                cs.load_row(w, row)
        assert relay.report_hold_until == full.report_hold_until
        assert relay.last_update_at == full.last_update_at
        assert relay.claims == full.claims == [r[w] for w, r
                                               in enumerate(full.rows)]
