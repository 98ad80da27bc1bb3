import pytest

from noclock.initiation import Initiation
from noclock.messages import Echo, Init


class FakeSync:
    """Controllable estimates: values[w] or None; self reads the clock."""

    def __init__(self, values, node=0, modulus=1):
        self.values = values
        self.node = node
        self.modulus = modulus

    def estimate(self, w, now):
        if w == self.node:
            return now % self.modulus
        return self.values.get(w)


class StubRounds:
    def __init__(self):
        self.joined = []

    def join(self, label, input_bit, confidence, oracle_val, now):
        self.joined.append((label, input_bit, confidence, oracle_val, now))


@pytest.fixture
def ctx(rt):
    sync = FakeSync({}, node=0, modulus=rt.p.clock_modulus)
    rounds = StubRounds()
    ini = Initiation(rt, sync, rounds, lambda label, node: 1)
    return rt.p, ini, sync, rounds, rt


def test_initiate_broadcasts_and_self_echoes(ctx):
    p, ini, sync, rounds, rt = ctx
    label = ini.initiate(10000)
    assert label == (0, 10000 % p.clock_modulus)
    assert Init(label[1]) in rt.sent
    assert Echo(label) in rt.sent            # the broadcast includes ourselves
    assert ini.stored[label] == {0: 10000}


def test_rate_limit_refuses_then_allows(ctx):
    p, ini, sync, rounds, rt = ctx
    assert ini.initiate(10000) is not None
    assert ini.initiate(10000 + p.rate_limit // 2) is None       # 0.5 T later
    assert any(r[0] == "refuse_init" for r in rt.trace)
    assert ini.initiate(10000 + p.rate_limit // 2 + p.rate_limit + 1) is not None


def test_init_within_band_echoes(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[1] = 1980                    # estimate 99.0
    ini.on_init(1, 2000, 5000)               # stamp 100.0, off by 1.0 <= 3.55
    assert Echo((1, 2000)) in rt.sent


def test_init_outside_band_dropped(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[1] = 1980
    ini.on_init(1, 2080, 5000)               # stamp 104.0, off by 5.0 > 3.55
    assert rt.sent == []
    assert any(r[0] == "drop" and r[3] == "init_stamp" for r in rt.trace)


def test_init_without_trust_dropped(ctx):
    p, ini, sync, rounds, rt = ctx
    ini.on_init(1, 2000, 5000)
    assert rt.sent == []


def test_init_rate_limited_per_initiator(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[1] = 2000
    ini.on_init(1, 2000, 5000)
    assert len(rt.sent) == 1
    # A second init arriving 0.3 * (T/theta - d) local later is ignored.
    ini.on_init(1, 2006, 5006)
    assert len(rt.sent) == 1
    assert any(r[0] == "drop" and r[3] == "init_rate" for r in rt.trace)


def test_second_echo_arms_gate(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    label = (2, 5000)
    ini.on_echo(1, label, 6000)
    assert label not in ini.gate_deadline
    ini.on_echo(3, label, 6010)              # f+1 = 2 distinct senders
    assert ini.gate_deadline[label] == 6010 + p.gate_hold
    assert (6010 + p.gate_hold, (ini.on_gate, label)) in rt.alarms


def test_third_echo_does_not_rearm_running_gate(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    label = (2, 5000)
    ini.on_echo(1, label, 6000)
    ini.on_echo(3, label, 6010)
    ini.on_echo(0, label, 6020)
    assert ini.gate_deadline[label] == 6010 + p.gate_hold
    assert len(ini.stored[label]) == 3


def test_echo_outside_band_not_stored(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    ini.on_echo(1, (2, 5000 + p.echo_band + 2), 6000)   # band + 0.1
    assert not ini.stored


def test_duplicate_echo_idempotent(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    ini.on_echo(1, (2, 5000), 6000)
    ini.on_echo(1, (2, 5000), 6001)
    assert ini.stored[(2, 5000)] == {1: 6000}


def test_gate_with_full_quorum_joins_with_oracle_input(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    label = (2, 5000)
    for sender in (1, 3, 0):
        ini.on_echo(sender, label, 6000)
    deadline = ini.gate_deadline[label]
    ini.on_gate(label, deadline)
    assert rounds.joined == [(label, 1, 2, 1, deadline)]


def test_gate_with_partial_quorum_joins_with_zero(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    label = (2, 5000)
    ini.on_echo(1, label, 6000)
    ini.on_echo(3, label, 6000)
    deadline = ini.gate_deadline[label]
    ini.on_gate(label, deadline)
    assert rounds.joined == [(label, 0, 1, 1, deadline)]


def test_corrupt_gate_underflow_never_joins(ctx):
    p, ini, sync, rounds, rt = ctx
    label = (2, 5000)
    ini.stored[label] = {3: 6000}
    ini.gate_deadline[label] = 6100
    ini.on_gate(label, 6100)
    assert rounds.joined == []
    assert any(r[0] == "gate_underflow" for r in rt.trace)


def test_gate_firing_twice_joins_once(ctx):
    # The runtime does not deduplicate timers: a repeated firing at the same
    # deadline must find the gate register already cleared.
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    label = (2, 5000)
    for sender in (1, 3, 0):
        ini.on_echo(sender, label, 6000)
    deadline = ini.gate_deadline[label]
    ini.on_gate(label, deadline)
    ini.on_gate(label, deadline)
    assert rounds.joined == [(label, 1, 2, 1, deadline)]


def test_underflow_gate_firing_twice_logs_once(ctx):
    p, ini, sync, rounds, rt = ctx
    label = (2, 5000)
    ini.stored[label] = {3: 6000}      # f or fewer echoes: a corrupted gate
    ini.gate_deadline[label] = 6100
    ini.on_gate(label, 6100)
    ini.on_gate(label, 6100)
    assert [r[0] for r in rt.trace] == ["gate_underflow"]
    assert rounds.joined == []


def test_stale_gate_alarm_ignored(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    label = (2, 5000)
    ini.on_echo(1, label, 6000)
    ini.on_echo(3, label, 6000)
    ini.on_gate(label, 1234)           # wrong deadline: stale
    assert rounds.joined == []


def test_sweep_expires_and_future_clamps(ctx):
    p, ini, sync, rounds, rt = ctx
    sync.values[2] = 5000
    old, label = (2, 4000), (2, 5000)
    ini.stored[old] = {1: 6000 - 2 * p.echo_ttl}
    ini.stored[label] = {1: 6000 - p.echo_ttl // 2, 3: 99999999}
    ini.gate_deadline[old] = 123
    ini.sweep(6000)
    assert old not in ini.stored and old not in ini.gate_deadline
    assert ini.stored[label] == {1: 6000 - p.echo_ttl // 2}   # future one deleted
