import pytest

from noclock.messages import RoundMsg
from noclock.protocols import phase_king_silent
from noclock.rounds import Rounds


class StubGuard:
    def __init__(self):
        self.joins = []
        self.suppress = False

    def note_join(self, initiator, now):
        self.joins.append((initiator, now))

    def suppressed(self, now):
        return self.suppress


@pytest.fixture
def ctx(rt):
    guard = StubGuard()
    rounds = Rounds(rt, phase_king_silent(4, 1), guard)
    return rt.p, rounds, guard, rt


def outputs(rt):
    return [r[3:] for r in rt.trace if r[0] == "output"]


LABEL = (2, 1000)


def test_join_sets_first_threshold_one_lead_ahead(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)            # local clock 600.0
    inst = rounds.instances[LABEL]
    assert inst.thresholds[1] == 12484            # 600.0 + 22*theta*d = 624.2
    assert rt.alarms == [(12484, (rounds.on_alarm, LABEL, 1))]
    assert guard.joins == [(2, 12000)]


def test_join_is_idempotent(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.join(LABEL, 0, 1, 0, 12100)
    assert len(rounds.instances) == 1
    assert [r[5] for r in rt.trace if r[0] == "participate"] == [1]   # input


def test_first_threshold_with_input_sends_round_one(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484)
    # Input 1: the wrapper's first round broadcasts the one-bit payload.
    assert [w for w, _ in rt.round_sends] == [1, 2, 3]
    assert all(env.payload == (1,) and env.round == 1 for _, env in rt.round_sends)
    # Own copy is stored through the local path and counts toward quorums.
    assert rounds.instances[LABEL].inbox[1][0] == (1,)


def test_threshold_firing_twice_fires_once(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484)
    rounds.on_alarm(LABEL, 1, 12484)
    assert len(rt.round_sends) == 3
    assert [r[4] for r in rt.trace if r[0] == "remit"] == [1]   # round


def test_stale_threshold_alarm_ignored(ctx):
    # After a wipe and a re-join the first instance's alarm still fires, at
    # a time the new instance's threshold does not name.
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.instances.clear()
    rounds.join(LABEL, 1, 2, 1, 12100)
    rounds.on_alarm(LABEL, 1, 12484)
    assert rt.round_sends == []
    assert 1 not in rounds.instances[LABEL].fired


def test_zero_input_sends_explicit_non_messages(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484)
    assert len(rt.round_sends) == 3
    assert all(env.payload is None for _, env in rt.round_sends)


def test_quorum_advances_next_threshold(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    rounds.on_alarm(LABEL, 1, 12484)       # own round-1 stored
    now = 12500
    rounds.on_round_msg(1, LABEL, 1, None, now)
    assert rounds.instances[LABEL].thresholds[2] is None
    rounds.on_round_msg(2, LABEL, 1, None, now)   # third distinct: n-f = 3
    assert rounds.instances[LABEL].thresholds[2] == now + 49   # +2.2 + quantum
    assert (now + 49, (rounds.on_alarm, LABEL, 2)) in rt.alarms


def test_catch_up_pulls_threshold_to_now(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    inst = rounds.instances[LABEL]
    inst.thresholds[2] = 12700                    # now + 5 in the example
    now = 12600
    rounds.on_round_msg(1, LABEL, 2, None, now)
    assert inst.thresholds[2] == 12700
    rounds.on_round_msg(2, LABEL, 2, None, now)   # f+1 = 2 distinct senders
    assert inst.thresholds[2] == now
    assert 2 in inst.fired                        # fired within the same event


def test_duplicate_round_message_ignored(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    inst = rounds.instances[LABEL]
    rounds.on_round_msg(1, LABEL, 2, (1,), 12500)
    rounds.on_round_msg(1, LABEL, 2, (0,), 12510)
    assert inst.inbox[2] == {1: (1,)}


def test_out_of_range_round_dropped(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    rounds.on_round_msg(1, LABEL, 99, None, 12500)
    rounds.on_round_msg(1, LABEL, 0, None, 12500)
    assert rounds.instances[LABEL].inbox == [{}] * 10
    assert any(r[0] == "drop" and r[3] == "round_range" for r in rt.trace)


def test_message_for_unjoined_label_dropped(ctx):
    p, rounds, guard, rt = ctx
    rounds.on_round_msg(1, (3, 777), 1, None, 12000)
    assert not rounds.instances
    assert any(r[0] == "drop" and r[3] == "round_unjoined" for r in rt.trace)


def test_thresholds_never_increase_once_set(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    inst = rounds.instances[LABEL]
    seen = {}
    now = 12500
    for sender, rnd in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
                        (1, 3), (2, 3)]:
        rounds.on_round_msg(sender, LABEL, rnd, None, now)
        for i, val in enumerate(inst.thresholds):
            if i in seen and val is not None:
                assert val <= seen[i]
            if val is not None:
                seen[i] = val
        now += 7


def test_bit_budget_violation_aborts_instance(ctx):
    p, rounds, guard, rt = ctx

    class Flood:
        rounds = 3
        bit_bound = 38

        def fresh(self, b, index):
            return {"self": index}

        def step(self, state, i, received):
            return state, [tuple([1] * 2000)] * 4

        def finish(self, state, received):
            return 1

    rounds.proto = Flood()
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484)
    inst = rounds.instances[LABEL]
    assert inst.done and outputs(rt) == [(LABEL, 0, "bit_budget")]


@pytest.mark.parametrize("k", [1, 2])
def test_bit_budget_running_out_mid_fan_out_sends_to_those_that_fit(ctx, k):
    p, rounds, guard, rt = ctx
    budget = p.instance_budget[1]
    frame = RoundMsg(LABEL, 1, ()).frame_bits(p)
    cost = budget // k            # k sends fit, k + 1 do not
    assert k * cost <= budget < (k + 1) * cost

    class Wide:
        rounds = 3
        bit_bound = 38

        def fresh(self, b, index):
            return {}

        def step(self, state, i, received):
            return state, [(1,) * (cost - frame)] * 4

    rounds.proto = Wide()
    outputs_at_send = []
    send_round = rt.send_round

    def noting(envelopes):
        outputs_at_send.append(len(outputs(rt)))
        send_round(envelopes)
    rt.send_round = noting
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484)
    inst = rounds.instances[LABEL]
    assert [w for w, _ in rt.round_sends] == list(range(1, k + 1))
    assert outputs_at_send == [0]
    assert inst.done and outputs(rt) == [(LABEL, 0, "bit_budget")]
    assert inst.inbox[1] == {}        # the node's own message is not stored
    assert inst.bits == k * cost


def test_stall_terminates_with_zero(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.sweep(12000 + p.stall_after)           # boundary: not yet stalled
    assert not rounds.instances[LABEL].done
    rounds.sweep(12000 + p.stall_after + 1)
    inst = rounds.instances[LABEL]
    assert inst.done and outputs(rt) == [(LABEL, 0, "stall")]


def test_sweep_deletes_expired_and_future_instances(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    rounds.join((3, 500), 0, 1, 0, 99999999)      # future-stamped (corrupt)
    rounds.sweep(12000)
    assert (3, 500) not in rounds.instances
    rounds.sweep(12000 + p.instance_ttl + 1)
    assert LABEL not in rounds.instances


def test_suppressed_crossing_sends_nothing(ctx):
    p, rounds, guard, rt = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    guard.suppress = True
    rounds.on_alarm(LABEL, 1, 12484)
    assert rt.round_sends == []
    assert any(r[0] == "suppressed" for r in rt.trace)


@pytest.mark.parametrize("pattern", ["xxy", "xyx", "yyy"])
def test_equal_payloads_share_one_round_msg_per_run(ctx, pattern):
    # Each payload is a fresh tuple, so equal payloads are distinct objects.
    p, rounds, guard, rt = ctx
    made = {"x": lambda: tuple([1, 0]), "y": lambda: tuple([0, 1, 1])}

    class Fresh:
        rounds = 3
        bit_bound = 38

        def fresh(self, b, index):
            return {}

        def step(self, state, i, received):
            return state, [None] + [made[c]() for c in pattern]

    rounds.proto = Fresh()
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484)
    sent = [env for _, env in rt.round_sends]
    assert [env.payload for env in sent] == [made[c]() for c in pattern]
    for env, nxt, c, d in zip(sent, sent[1:], pattern, pattern[1:]):
        assert (env is nxt) == (c == d)
    runs = 1 + sum(c != d for c, d in zip(pattern, pattern[1:]))
    assert len({id(env) for env in sent}) == runs
    assert rounds.instances[LABEL].bits == sum(
        env.frame_bits(p) + env.payload_bits() for env in sent)


@pytest.mark.parametrize("ending", ["ok", "bit_budget", "stall"])
def test_each_ending_writes_one_output_and_then_nothing_changes(ctx, ending):
    p, rounds, guard, rt = ctx

    class Flood:
        rounds = 3
        bit_bound = 38

        def fresh(self, b, index):
            return {}

        def step(self, state, i, received):
            return state, [tuple([1] * 2000)] * 4

    if ending == "bit_budget":
        rounds.proto = Flood()
    last = rounds.proto.rounds + 1
    rounds.join(LABEL, 1, 2, 1, 12000)
    inst = rounds.instances[LABEL]
    if ending == "stall":
        rounds.sweep(12000 + p.stall_after + 1)
    else:
        rounds.on_alarm(LABEL, 1, 12484)
    if ending == "ok":
        inst.thresholds[last] = 12600
        rounds.on_alarm(LABEL, last, 12600)
    assert inst.done
    assert [out[2] for out in outputs(rt)] == [ending]
    # A finished instance takes in no round message and fires no threshold.
    trace, alarms = list(rt.trace), list(rt.alarms)
    inbox, thresholds = [dict(box) for box in inst.inbox], list(inst.thresholds)
    now = 12700
    for i in range(1, last + 1):
        for sender in (1, 2, 3):
            rounds.on_round_msg(sender, LABEL, i, (1,), now)
        inst.thresholds[i] = now
        rounds.on_alarm(LABEL, i, now)
        inst.thresholds[i] = thresholds[i]
    rounds.sweep(now)
    assert LABEL in rounds.instances
    assert (rt.trace, rt.alarms) == (trace, alarms)
    assert (inst.inbox, inst.thresholds) == (inbox, thresholds)
