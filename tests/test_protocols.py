import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from noclock import harness
from noclock.protocols import (ONE, PROTOCOLS, PhaseKing, SilentWrapper,
                               make_protocol, phase_king_silent, replay,
                               run_lockstep)
from noclock.scenario import Scenario
from shapes import by_name, rejudge


# -- phase king ----------------------------------------------------------------


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
@pytest.mark.parametrize("b", [0, 1])
def test_validity_clean_run(n, f, b):
    outputs, _, _ = run_lockstep(PhaseKing(n, f), {v: b for v in range(n)}, n)
    assert set(outputs.values()) == {b}


def test_round_count_and_bound():
    pk = PhaseKing(4, 1)
    assert pk.rounds == 6            # f+1 phases, three rounds each
    assert pk.bit_bound == 32
    with pytest.raises(ValueError):
        PhaseKing(3, 1)


BYZ_BEHAVIORS = {
    "silent": lambda w: None,
    "zeros": lambda w: (0,),
    "ones": lambda w: (1,),
    "split": lambda w: (w % 2,),
    "tilps": lambda w: (1 - w % 2,),
    "junk": lambda w: (1, 0) if w % 2 else (),
}


def byz_fn(per_round):
    return lambda i, w: BYZ_BEHAVIORS[per_round[(i - 1) % len(per_round)]](w)


def test_single_equivocator_phase_patterns_never_split_agreement():
    # Exhaustive over per-phase byzantine behavior patterns, byzantine
    # position, and correct inputs, at n=4, f=1.
    n, f = 4, 1
    names = list(BYZ_BEHAVIORS)
    checked = 0
    for byz_node in range(n):
        correct = [v for v in range(n) if v != byz_node]
        for pattern in itertools.product(names, repeat=f + 1):
            per_round = [pattern[k // 3] for k in range(3 * (f + 1))]
            for bits in itertools.product((0, 1), repeat=n - 1):
                inputs = dict(zip(correct, bits))
                outputs, _, _ = run_lockstep(
                    PhaseKing(n, f), inputs, n,
                    byzantine={byz_node: byz_fn(per_round)})
                vals = set(outputs.values())
                assert len(vals) == 1, (byz_node, pattern, inputs, outputs)
                if len(set(bits)) == 1:
                    assert vals == {bits[0]}, (byz_node, pattern, inputs)
                checked += 1
    assert checked == 4 * 36 * 8


def test_byzantine_kings_early_phases_still_agree():
    # n=7, f=2: the kings of phases 1 and 2 are byzantine and equivocate;
    # phase 3's honest king settles everyone.
    n, f = 7, 2
    inputs = {v: v % 2 for v in range(2, n)}

    def evil_king(i, w):
        sub = (i - 1) % 3
        if sub == 2:
            return (w % 2,)               # conflicting king values
        if sub == 0:
            return (1 - w % 2,)
        return (1, w % 2)                 # conflicting proposals
    outputs, _, _ = run_lockstep(PhaseKing(n, f), inputs, n,
                                 byzantine={0: evil_king, 1: evil_king})
    assert len(set(outputs.values())) == 1


# -- silent wrapper --------------------------------------------------------------


def test_all_zero_inputs_are_silent_and_output_zero():
    n, f = 4, 1
    outputs, sent, _ = run_lockstep(phase_king_silent(n, f),
                                    {v: 0 for v in range(n)}, n)
    assert set(outputs.values()) == {0}
    for rnd in sent.values():
        for sends in rnd.values():
            assert all(m is None for m in sends)


def test_unanimous_ones_with_silent_byzantine():
    n, f = 4, 1
    inputs = {v: 1 for v in range(n) if v != 3}
    outputs, _, _ = run_lockstep(phase_king_silent(n, f), inputs, n,
                                 byzantine={3: lambda i, w: None})
    assert set(outputs.values()) == {1}


def test_seven_nodes_four_ones_demote_to_zero():
    # 4 ones + 3 zeros among 7 correct nodes: every node tallies exactly 4
    # ones in round 1, below n-f = 5, so all inputs demote to 0; round 2 is
    # silent, every tally is 0 <= f, and everyone outputs 0.
    n, f = 7, 2
    inputs = {v: 1 if v < 4 else 0 for v in range(n)}
    outputs, sent, _ = run_lockstep(phase_king_silent(n, f), inputs, n)
    ones_round1 = sum(1 for sends in sent[1].values() if sends[0] == ONE)
    assert ones_round1 == 4
    assert all(m is None for sends in sent[2].values() for m in sends)
    assert set(outputs.values()) == {0}


def test_partial_participation_outputs_zero():
    n, f = 4, 1
    outputs, _, _ = run_lockstep(phase_king_silent(n, f),
                                 {v: 1 for v in range(n)}, n,
                                 participants={0, 1})
    assert outputs == {0: 0, 1: 0}


def test_wrapper_shape_and_overhead():
    n, f = 4, 1
    ps = phase_king_silent(n, f)
    pk = PhaseKing(n, f)
    assert ps.rounds == pk.rounds + 2
    assert ps.bit_bound == pk.bit_bound + 2 * (n - 1)
    # In the unanimous-ones run the wrapper overhead is exactly two one-bit
    # broadcasts per node.
    _, sent, _ = run_lockstep(ps, {v: 1 for v in range(n)}, n)
    for v in range(n):
        pre_bits = sum(len(m) for rnd in (1, 2) for u, m in enumerate(sent[rnd][v])
                       if m is not None and u != v)
        assert pre_bits == 2 * (n - 1)


def test_scenarios_and_make_protocol_share_one_registry():
    for name in PROTOCOLS:
        Scenario(protocol={"name": name}).validate()
        assert make_protocol(name, 4, 1).rounds > 0
    with pytest.raises(ValueError):
        make_protocol("phase-king", 4, 1)


def test_wrapper_rejects_bad_resilience():
    with pytest.raises(ValueError):
        SilentWrapper(PhaseKing(4, 1), 6, 2)


class LyingPlugin:
    """Declares a one-bit budget, then floods."""

    def __init__(self, n):
        self.n = n
        self.f = 1
        self.rounds = 3
        self.bit_bound = 1
        self.name = "liar"

    def fresh(self, input_bit, index):
        return {"self": index}

    def step(self, state, i, received):
        return state, [(1, 1, 1, 1, 1, 1, 1, 1)] * self.n

    def finish(self, state, received):
        return 1


def test_inner_bit_bound_violation_aborts_with_zero():
    n = 4
    ps = SilentWrapper(LyingPlugin(n), n, 1)
    outputs, sent, _ = run_lockstep(ps, {v: 1 for v in range(n)}, n)
    assert set(outputs.values()) == {0}
    # After the abort the nodes go quiet.
    assert all(m is None for sends in sent[5].values() for m in sends)


@pytest.mark.parametrize("order", [(1, 2, 4, 3, 5), (2, 4, 3, 5),
                                   (1, 3, 2, 4, 5), (3, 4, 5)])
def test_wrapper_runs_no_inner_round_that_its_round_3_did_not_start(order):
    # Rounds fire out of order only from a corrupted boot state.  Each order
    # skips round 3 or runs it before round 2, so the inner run stays off,
    # whatever support the receipts show.
    n, f = 4, 1
    ps = phase_king_silent(n, f)
    ones = (ONE,) * n
    state = ps.fresh(1, 0)
    for i in order:
        state, sends = ps.step(state, i, None if i == 1 else ones)
        if i >= 3:
            assert sends == (None,) * n
    assert ps.finish(state, ones) == 0


def test_replay_reproduces_lockstep_outputs():
    n, f = 4, 1
    inputs = {0: 1, 1: 0, 2: 1}
    ps = phase_king_silent(n, f)
    outputs, _, received = run_lockstep(
        ps, inputs, n,
        byzantine={3: lambda i, w: (1,) if (i + w) % 3 == 0 else None})
    for v, out in outputs.items():
        per_round = [received[i][v] for i in range(1, ps.rounds + 1)]
        assert replay(ps, v, inputs[v], per_round) == out


def test_wrapper_agreement_validity_under_random_byzantine_matrices():
    n, f = 4, 1
    rng = random.Random(42)
    choices = [None, (), (0,), (1,), (1, 1), (0, 1)]
    for trial in range(300):
        byz_node = rng.randrange(n)
        table = {}

        def fn(i, w, table=table):
            key = (i, w)
            if key not in table:
                table[key] = rng.choice(choices)
            return table[key]
        correct = [v for v in range(n) if v != byz_node]
        inputs = {v: rng.randint(0, 1) for v in correct}
        outputs, _, _ = run_lockstep(phase_king_silent(n, f), inputs,
                                     n, byzantine={byz_node: fn})
        vals = set(outputs.values())
        assert len(vals) == 1, (trial, inputs, outputs)
        if len(set(inputs.values())) == 1:
            assert vals == {inputs[correct[0]]}


# -- the plugin contract -------------------------------------------------------


class SpyPlugin:
    """The silent phase king, noting the type of every vector it takes or
    gives."""

    def __init__(self, n, f, seen):
        self.inner = phase_king_silent(n, f)
        self.rounds = self.inner.rounds
        self.bit_bound = self.inner.bit_bound
        self.seen = seen

    def fresh(self, input_bit, index):
        return self.inner.fresh(input_bit, index)

    def step(self, state, i, received):
        if i > 1:
            self.seen.append(("received", type(received)))
        state, sends = self.inner.step(state, i, received)
        self.seen.append(("sends", type(sends)))
        return state, sends

    def finish(self, state, received):
        self.seen.append(("received", type(received)))
        return self.inner.finish(state, received)


def test_the_plugin_takes_and_gives_tuples_in_the_run_and_in_replay(
        monkeypatch):
    seen = []
    monkeypatch.setitem(PROTOCOLS, "spy", lambda n, f: SpyPlugin(n, f, seen))
    sc = Scenario(n=4, f=1, theta="1.1", duration="110", seed=3,
                  protocol={"name": "spy"},
                  adversary={"byzantine": "silent", "byzantine_set": [3]},
                  script=[{"t": "8", "node": 0, "action": "initiate"}])
    res = harness.run(sc, evaluate=False)
    assert set(seen) == {("received", tuple), ("sends", tuple)}
    remits = [rec[5] for rec in res.trace if rec[0] == "remit"]
    assert remits and all(type(vec) is tuple for vec in remits)
    seen.clear()
    replayed = by_name(rejudge(sc, res, res.trace), "oracle-equivalence")
    assert replayed.passed and replayed.measured["instances_replayed"] == 3
    assert set(seen) == {("received", tuple), ("sends", tuple)}


PAYLOADS = st.one_of(
    st.sampled_from([None, (), (0,), (1,), (0, 0), (1, 0), (1, 1)]),
    st.lists(st.integers(0, 1), max_size=3).map(tuple))


@st.composite
def executions(draw, makes=(PhaseKing, phase_king_silent)):
    """A plugin and a few executions of it: (index, input bit, received
    tuples per round).  Each vector mostly repeats one payload, so the
    quorum rules fire as well as fail."""
    n, f = draw(st.sampled_from([(4, 1), (7, 2)]))
    make = draw(st.sampled_from(makes))
    rounds = make(n, f).rounds

    @st.composite
    def vector(draw):
        base = draw(PAYLOADS)
        return tuple(draw(st.one_of(st.just(base), PAYLOADS))
                     for _ in range(n))
    runs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 1),
                  st.lists(vector(), min_size=rounds,
                           max_size=rounds).map(tuple)),
        min_size=1, max_size=4))
    return lambda: make(n, f), runs


def calls(proto, index, input_bit, received):
    """One execution on `proto`, one plugin call per `next`: each round's
    sends, then the output."""
    state = proto.fresh(input_bit, index)
    for i in range(1, proto.rounds + 1):
        state, sends = proto.step(state, i,
                                  None if i == 1 else received[i - 2])
        yield sends
    yield proto.finish(state, received[proto.rounds - 1])


@settings(max_examples=40)
@given(executions(), st.randoms(use_true_random=False))
def test_replay_output_depends_only_on_its_inputs(case, rnd):
    make, runs = case
    alone = [list(calls(make(), *run)) for run in runs]
    # One plugin object, the executions replayed in a shuffled order, twice.
    shared = make()
    order = list(range(len(runs))) * 2
    rnd.shuffle(order)
    for k in order:
        assert replay(shared, *runs[k]) == alone[k][-1]
    # The same object, the executions' calls interleaved one by one.
    running = [calls(shared, *run) for run in runs]
    schedule = [k for k in range(len(runs)) for _ in range(shared.rounds + 1)]
    rnd.shuffle(schedule)
    trails = [[] for _ in runs]
    for k in schedule:
        trails[k].append(next(running[k]))
    assert trails == alone


def spelled_out(pk, i, received):
    """Round-i receipts of phase king `pk` with each missing message replaced
    by what a sender of value 0 and no proposal sends in that round."""
    sub = (i - 1) % 3

    def sent(u):
        if sub == 1:
            return (0, 0)                  # no proposal
        if sub == 2 and u != pk._king(i):
            return ()                      # a non-king in a king round
        return (0,)
    return tuple([sent(u) if m is None else m
                  for u, m in enumerate(received)])


@settings(max_examples=60)
@given(executions(makes=(PhaseKing,)))
def test_phase_king_reads_a_missing_message_as_a_sender_of_0(case):
    # A missing message means a missing sender; the silent wrapper hands
    # its inner phase king the receipts as they came.
    make, runs = case
    pk = make()
    for index, input_bit, received in runs:
        spelled = tuple(spelled_out(pk, k + 1, vec)
                        for k, vec in enumerate(received))
        assert list(calls(pk, index, input_bit, received)) == \
            list(calls(pk, index, input_bit, spelled))
