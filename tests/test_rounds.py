from fractions import Fraction

import pytest

from noclock.params import derive
from noclock.protocols import phase_king_silent
from noclock.rounds import Rounds


class StubGuard:
    def __init__(self):
        self.joins = []
        self.busy = []
        self.done = []
        self.forgotten = []
        self.suppress = False

    def note_join(self, initiator, now):
        self.joins.append((initiator, now))

    def note_busy(self, label):
        self.busy.append(label)

    def note_terminate(self, label):
        self.done.append(label)

    def note_forget(self, label):
        self.forgotten.append(label)

    def suppressed(self, now):
        return self.suppress


@pytest.fixture
def ctx():
    p = derive(4, 1, "1.1", "1", 8, 38)
    guard = StubGuard()
    sends = []
    alarms = []
    trace = []
    rounds = Rounds(p, 0, phase_king_silent(4, 1), guard, trace,
                    lambda w, env: sends.append((w, env)),
                    lambda units, tag: alarms.append((units, tag)),
                    lambda: Fraction(0))
    return p, rounds, guard, sends, alarms, trace


LABEL = (2, 1000)


def test_join_sets_first_threshold_one_lead_ahead(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)            # local clock 600.0
    inst = rounds.instances[LABEL]
    assert inst.thresholds[1] == 12484            # 600.0 + 22*theta*d = 624.2
    assert alarms == [(12484, ("round", LABEL, 1))]
    assert guard.joins == [(2, 12000)]


def test_join_is_idempotent(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.join(LABEL, 0, 1, 0, 12100)
    assert len(rounds.instances) == 1
    assert rounds.instances[LABEL].input == 1


def test_first_threshold_with_input_sends_round_one(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484, 12484)
    # Input 1: the wrapper's first round broadcasts the one-bit payload.
    assert [w for w, _ in sends] == [1, 2, 3]
    assert all(env.payload == (1,) and env.round == 1 for _, env in sends)
    # Own copy is stored through the local path and counts toward quorums.
    assert rounds.instances[LABEL].inbox[(0, 1)] == (1,)


def test_zero_input_sends_explicit_non_messages(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 0, 1, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484, 12484)
    assert len(sends) == 3
    assert all(env.payload is None for _, env in sends)


def test_quorum_advances_next_threshold(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    rounds.on_alarm(LABEL, 1, 12484, 12484)       # own round-1 stored
    now = 12500
    rounds.on_round_msg(1, LABEL, 1, None, now)
    assert rounds.instances[LABEL].thresholds[2] is None
    rounds.on_round_msg(2, LABEL, 1, None, now)   # third distinct: n-f = 3
    assert rounds.instances[LABEL].thresholds[2] == now + 49   # +2.2 + quantum
    assert (now + 49, ("round", LABEL, 2)) in alarms


def test_catch_up_pulls_threshold_to_now(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
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
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    inst = rounds.instances[LABEL]
    rounds.on_round_msg(1, LABEL, 2, (1,), 12500)
    rounds.on_round_msg(1, LABEL, 2, (0,), 12510)
    assert inst.inbox[(1, 2)] == (1,)
    assert inst.counts[2] == 1


def test_out_of_range_round_dropped(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    rounds.on_round_msg(1, LABEL, 99, None, 12500)
    rounds.on_round_msg(1, LABEL, 0, None, 12500)
    assert rounds.instances[LABEL].counts == [0] * 10
    assert any(r[0] == "drop" and r[3] == "round_range" for r in trace)


def test_message_for_unjoined_label_dropped(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.on_round_msg(1, (3, 777), 1, None, 12000)
    assert not rounds.instances
    assert any(r[0] == "drop" and r[3] == "round_unjoined" for r in trace)


def test_thresholds_never_increase_once_set(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
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
    p, rounds, guard, sends, alarms, trace = ctx

    class Flood:
        rounds = 3
        bit_bound = 38

        def fresh(self, b, index):
            return {"self": index}

        def step(self, state, i, received):
            return state, [tuple([1] * 2000)] * 4

        def finish(self, state, received):
            return 1

        def missing_payload(self, i, sender):
            return ()

    rounds.proto = Flood()
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.on_alarm(LABEL, 1, 12484, 12484)
    inst = rounds.instances[LABEL]
    assert inst.done and inst.output == 0 and inst.out_reason == "bit_budget"
    assert guard.done == [LABEL]


def test_stall_terminates_with_zero(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    rounds.sweep(12000 + p.stall_after)           # boundary: not yet stalled
    assert not rounds.instances[LABEL].done
    rounds.sweep(12000 + p.stall_after + 1)
    inst = rounds.instances[LABEL]
    assert inst.done and inst.output == 0 and inst.out_reason == "stall"


def test_sweep_deletes_expired_and_future_instances(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 0, 1, 0, 12000)
    rounds.join((3, 500), 0, 1, 0, 99999999)      # future-stamped (corrupt)
    rounds.sweep(12000)
    assert (3, 500) not in rounds.instances
    rounds.sweep(12000 + p.instance_ttl + 1)
    assert LABEL not in rounds.instances
    assert set(guard.forgotten) == {(3, 500), LABEL}


def test_suppressed_crossing_sends_nothing(ctx):
    p, rounds, guard, sends, alarms, trace = ctx
    rounds.join(LABEL, 1, 2, 1, 12000)
    guard.suppress = True
    rounds.on_alarm(LABEL, 1, 12484, 12484)
    assert sends == []
    assert any(r[0] == "suppressed" for r in trace)
