import dataclasses
import gc
import inspect
import re
from collections import Counter
from fractions import Fraction

import pytest

from noclock import harness, verdicts
from noclock.node import NodeRuntime
from noclock.protocols import make_protocol
from noclock.scenario import Scenario
from shapes import (STRATEGIES, by_name, clean_scenario, rejudge,
                    sweep_scenario)
from test_trace_matrix import MATRIX


def test_clean_run_passes_every_suite():
    res = harness.run(clean_scenario())
    assert res.passed, [v for v in res.verdicts if not v.passed]
    assert res.byzantine == [3]
    outs = [r for r in res.trace if r[0] == "output"]
    assert len(outs) == 3 and all(r[4] == 1 for r in outs)
    assert by_name(res.verdicts, "amortized-bits").measured["windows"] > 0


def test_identical_scenario_and_seed_reproduce_identical_traces():
    sc = clean_scenario()
    a = harness.run(sc, evaluate=False)
    b = harness.run(clean_scenario(), evaluate=False)
    assert verdicts.trace_to_jsonl(a.trace) == verdicts.trace_to_jsonl(b.trace)


def test_different_seed_changes_the_trace():
    a = harness.run(clean_scenario(), evaluate=False)
    b = harness.run(clean_scenario(seed=4), evaluate=False)
    assert verdicts.trace_to_jsonl(a.trace) != verdicts.trace_to_jsonl(b.trace)


def test_trace_evaluation_is_rerunnable():
    sc = clean_scenario()
    res = harness.run(sc)
    again = rejudge(sc, res, res.trace)
    assert [(v.name, v.passed, v.measured) for v in res.verdicts] == \
           [(v.name, v.passed, v.measured) for v in again]


@pytest.mark.parametrize("over", [{}, {"corruption": {"kind": "random"},
                                       "duration": "60"}])
def test_run_judges_its_own_clocks_as_fresh_ones_do(over):
    # The run's own clocks come to the verdicts with their cursors at the
    # end of the run; fresh ones start at time 0.
    sc = clean_scenario(**over)
    trace = harness.run(sc, evaluate=False).trace
    _, p, _, correct, _, clocks = harness.build_env(sc)
    fresh = verdicts.evaluate(trace, sc, p, clocks, correct,
                              lambda: make_protocol("phase-king-silent", 4, 1))
    res = harness.run(sc)
    assert res.trace == trace
    assert [(v.name, v.passed, v.measured, v.counterexample)
            for v in res.verdicts] == \
           [(v.name, v.passed, v.measured, v.counterexample) for v in fresh]


def test_trace_serialization_roundtrip():
    res = harness.run(clean_scenario(), evaluate=False)
    text = verdicts.trace_to_jsonl(res.trace)
    back = verdicts.trace_from_jsonl(text, 4)
    assert back == [tuple(r) for r in res.trace]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_trace_decoding_restores_the_collector(enabled):
    text = verdicts.trace_to_jsonl(
        harness.run(clean_scenario(), evaluate=False).trace)
    (gc.enable if enabled else gc.disable)()
    try:
        verdicts.trace_from_jsonl(text, 4)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="^line 2: "):
            verdicts.trace_from_jsonl(text.split("\n", 1)[0] + "\n5", 4)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["Params", "Label", "well_formed", "Fraction"])
def test_trace_decoding_accepts_only_envelopes(name):
    line = '{"_t": ["send", {"_m": "%s", "v": {"_t": []}}]}' % name
    with pytest.raises(ValueError, match=f"unknown envelope '{name}'"):
        verdicts.trace_from_jsonl(line, 4)


@pytest.mark.parametrize("line", [
    '{"_t": ["init", 5, 0, {"_f": "1/0"}]}', '{"_t": ["est", {"_f": [1]}, 0, []]}',
    # Fractions and envelope names the writer never writes.
    '{"_t": ["init", {"_f": 1.5}, 0, {"_t": [0, 5]}]}',
    '{"_t": ["init", {"_f": true}, 0, {"_t": [0, 5]}]}',
    '{"_t": ["init", {"_f": "x"}, 0, {"_t": [0, 5]}]}',
    '{"_t": ["send", 1, 0, 1, "Init", 24, 0, {"_m": ["Init"], "v": {"_t": [5]}}]}',
    '{"_t": 5}', '5', '"send"', '{"_t": []}', '{"_t": [7, 0, 1]}',
    '{"_t": ["send"]}', '{"_t": ["send", 1, 0, 1, "Init", 3, 0]}',
    '{"_t": ["participate", 1, 0, {"_t": [0, 5]}, 2, 1]}',
    '{"_t": ["output", 1, 0, {"_t": [0, 5]}, 1, "ok", 0]}',
    '{"_t": ["rrcv", 1, 0]}', '{"_t": ["remit", 1, 0, {"_t": [0, 5]}, 1]}',
    '{"_t": ["init", 1, 0]}', '{"_t": ["est", 1, 0]}', '{"_t": ["quarantine", 1]}',
    '{"_t": ["send", 0, [1], 1, "Init", 3, 0, null]}',
    '{"_t": ["participate", {"_f": "1/1"}, [0], {"_t": [0, 5]}, 2, 1, 1]}',
    '{"_t": ["participate", {"_f": "1/1"}, 0, [0, 5], 2, 1, 1]}',
    '{"_t": ["init", "x", 0, {"_t": [0, 5]}]}', '{"_t": ["wipe", 1, true]}',
    '{"_t": ["wipe", 1.5, 0]}', '{"_t": ["wipe", 1]}',
    '{"_t": ["drop", 1, 0, {"reason": "x"}]}',
    # Inner fields of the wrong type.
    '{"_t": ["est", 1, 0, 5]}', '{"_t": ["est", 1, 0, {"_t": [1, null, 3]}]}',
    '{"_t": ["est", 1, 0, {"_t": ["a", "b", "c", "d"]}]}',
    '{"_t": ["est", 1, 0, {"_t": [1, true, 3, 4]}]}',
    '{"_t": ["participate", 1, 0, 5, 2, 1, 1]}',
    '{"_t": ["output", 1, 0, 5, 1, "ok"]}', '{"_t": ["init", 1, 0, 5]}',
    '{"_t": ["init", 1, 0, {"_t": [0, "x"]}]}',
    '{"_t": ["init", 1, 0, {"_t": [0, 1, 2]}]}',
    '{"_t": ["rrcv", 1, 0, 5, 1, {"_t": [null, null, null, null]}]}',
    '{"_t": ["send", 1, 0, 1, "Init", "x", 0, {"_m": "Init", "v": {"_t": [5]}}]}',
    '{"_t": ["send", 1, 0, 1, "Init", 24, null, {"_m": "Init", "v": {"_t": [5]}}]}',
    '{"_t": ["send", 1, 0, 1, "Echo", 24, 0, {"_m": "Init", "v": {"_t": [5]}}]}',
    '{"_t": ["send", 1, 0, 1, "Echo", 24, 0, {"_m": "Echo", "v": {"_t": [5]}}]}',
    # Round vectors and outputs of the wrong type.
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, "1", {"_t": [null, null, null, null]}]}',
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, 1, true]}',
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, 1, "x"]}',
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, 1, {"_t": [null, null, null]}]}',
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, 1, {"_t": [1, null, null, null]}]}',
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, 1, {"_t": [{"_t": [2]}, null, null, null]}]}',
    '{"_t": ["rrcv", 1, 0, {"_t": [0, 5]}, 1, {"_t": [{"_t": [true]}, null, null, null]}]}',
    '{"_t": ["remit", 1, 0, {"_t": [0, 5]}, null, {"_t": [null, null, null, null]}]}',
    '{"_t": ["remit", 1, 0, {"_t": [0, 5]}, 1, {"_t": []}]}',
    '{"_t": ["remit", 1, 0, {"_t": [0, 5]}, 1, true]}',
    '{"_t": ["output", 1, 0, {"_t": [0, 5]}, null, "ok"]}',
    '{"_t": ["output", 1, 0, {"_t": [0, 5]}, 2, "ok"]}',
    '{"_t": ["output", 1, 0, {"_t": [0, 5]}, true, "ok"]}',
    '{"_t": ["output", 1, 0, {"_t": [0, 5]}, 1, 5]}',
    # A time the run never reaches, a node it does not have.
    '{"_t": ["est", {"_f": "-5/1"}, 0, {"_t": [1, null, 3, 4]}]}',
    '{"_t": ["participate", 1, 9, {"_t": [0, 5]}, 2, 1, 1]}',
    '{"_t": ["init", 1, -1, {"_t": [0, 5]}]}'])
def test_trace_decoding_rejects_a_record_evaluate_cannot_read(line):
    with pytest.raises(ValueError, match="trace"):
        verdicts.trace_from_jsonl(line, 4)


@pytest.mark.parametrize("kind", ["send", "est"])
def test_trace_decoding_rejects_a_bisected_kind_out_of_time_order(kind):
    trace = harness.run(clean_scenario(), evaluate=False).trace
    first = next(r for r in trace if r[0] == kind)
    later = next(r for r in trace if r[0] == kind and r[1] > first[1])
    # A record of another kind may come at any time.
    other = next(r for r in trace if r[0] not in ("send", "est"))
    text = verdicts.trace_to_jsonl([later, other, first])
    with pytest.raises(ValueError, match=f"^line 3: trace gives a {kind} "
                                         f"record at .*, before the one at"):
        verdicts.trace_from_jsonl(text, 4)
    assert verdicts.trace_from_jsonl(
        verdicts.trace_to_jsonl([first, later, other]), 4)


@pytest.mark.parametrize("name,fields", [
    ("Init", '{"_t": [1, 2]}'), ("Init", '{"_t": []}'),
    ("RoundMsg", '{"_t": [{"_t": [0, 5]}, 1]}'), ("Update", "7"),
    ("Echo", "null")])
def test_trace_decoding_rejects_a_wrong_field_count(name, fields):
    line = '{"_t": ["send", {"_m": "%s", "v": %s}]}' % (name, fields)
    with pytest.raises(ValueError, match=f"trace gives {name} the fields"):
        verdicts.trace_from_jsonl(line, 4)


def sample(kind, n=4):
    """A value of the field type `kind` of `verdicts._RECORDS`."""
    if isinstance(kind, type):
        return {int: 5, str: "ok"}[kind]
    if isinstance(kind, list):
        return sample(kind[-1], n)
    if isinstance(kind, dict):
        (cls, fields), = kind.items()
        return cls(*sample(fields, n))
    if not isinstance(kind, tuple):
        return kind   # a value
    if kind[1:] in ((...,), ("n",)):
        return (sample(kind[0], n),) * (2 if kind[1] is ... else n)
    return tuple(sample(k, n) for k in kind)


def wrongs(kind, n=4):
    """Values that do not fit the field type `kind`."""
    yield 0 if kind is str else "x"
    if kind is int or isinstance(kind, list):
        yield True
    if isinstance(kind, list):
        if all(type(k) is int for k in kind):
            yield max(kind) + 1
        for k in kind:
            if isinstance(k, tuple):
                yield from (w for w in wrongs(k, n) if isinstance(w, tuple))
    elif isinstance(kind, dict):
        (cls, fields), = kind.items()
        yield from (cls(*w) for w in wrongs(fields, n)
                    if isinstance(w, tuple) and len(w) == len(fields))
    elif isinstance(kind, tuple):
        good = sample(kind, n)
        items = kind
        if kind[1:] in ((...,), ("n",)):
            items = kind[:1]
            if kind[1] == "n":
                yield good[1:]
        for i, k in enumerate(items):
            yield from (good[:i] + (w,) + good[i + 1:] for w in wrongs(k, n))


# (kind, its layout) of each record kind: one send layout per envelope class.
SEND = verdicts._RECORDS["send"]
LAYOUTS = [pytest.param(kind, layout, id=kind)
           for kind, layout in verdicts._RECORDS.items() if kind != "send"] + [
    pytest.param("send", SEND[:4] + ({cls: fields},), id=f"send-{cls.__name__}")
    for cls, fields in SEND[4].items()]


def test_record_table_covers_every_kind_the_index_reads():
    source = inspect.getsource(verdicts._Index)
    assert set(re.findall(r'\bkind == "(\w+)"', source)) == set(verdicts._RECORDS)


@pytest.mark.parametrize("kind, layout", LAYOUTS)
def test_trace_decoding_follows_the_record_table(kind, layout):
    good = sample(layout)
    if kind == "send":
        good = good[:1] + (type(good[4]).__name__,) + good[2:]

    def decode(fields):
        rec = (kind, Fraction(7, 2), 1) + fields
        return rec, verdicts.trace_from_jsonl(verdicts.trace_to_jsonl([rec]), 4)

    rec, back = decode(good)
    assert back == [rec]
    for i, field in enumerate(layout):
        for w in wrongs(field):
            with pytest.raises(ValueError, match="has a wrongly typed field"):
                decode(good[:i] + (w,) + good[i + 1:])


def test_trace_decoding_names_the_line():
    text = (verdicts.trace_to_jsonl([("init", Fraction(1), 0, (0, 5))])
            + '\n{"_t": ["init", 1, 0, 5]}\n')
    with pytest.raises(ValueError, match=r"^line 3: trace record .* has a "
                                         r"wrongly typed field$"):
        verdicts.trace_from_jsonl(text, 4)


@pytest.mark.parametrize("depth", [2_000, 100_000])
def test_trace_decoding_refuses_a_record_nested_too_deep(depth):
    text = '{"_t": ["wipe", 1, 0]}\n' + '{"_t": [' * depth + "]}" * depth
    with pytest.raises(ValueError, match="^line 2: .*recursion"):
        verdicts.trace_from_jsonl(text, 4)


def test_rate_limited_second_initiation_refused():
    sc = clean_scenario(script=[{"t": "8", "node": 0, "action": "initiate"},
                                {"t": "9", "node": 0, "action": "initiate"}])
    res = harness.run(sc)
    assert sum(1 for r in res.trace if r[0] == "refuse_init") == 1
    assert sum(1 for r in res.trace if r[0] == "init") == 1


def test_initiation_in_the_last_d_of_a_run_is_not_judged():
    # No correct node can join an init made 2 d before the end; the run must
    # not count it as an instance with missing participants.
    sc = clean_scenario(script=[{"t": "8", "node": 0, "action": "initiate"},
                                {"t": "108", "node": 1, "action": "initiate"}])
    res = harness.run(sc)
    assert sum(1 for r in res.trace if r[0] == "init") == 2
    assert res.passed, [v for v in res.verdicts if not v.passed]


def test_two_concurrent_instances():
    sc = clean_scenario(script=[{"t": "8", "node": 0, "action": "initiate"},
                                {"t": "9", "node": 1, "action": "initiate"}])
    res = harness.run(sc)
    assert res.passed, [v for v in res.verdicts if not v.passed]
    labels = {r[3] for r in res.trace if r[0] == "participate"}
    assert len(labels) == 2


def test_const_zero_oracle_is_silent():
    res = harness.run(clean_scenario(oracle={"kind": "const", "value": 0}))
    assert res.passed
    v = by_name(res.verdicts, "silence")
    assert v.measured["silent_instances"] == 1
    outs = [r for r in res.trace if r[0] == "output"]
    assert all(r[4] == 0 for r in outs)


@pytest.mark.parametrize("delays", ["fast", "slow", "split", "boundary"])
def test_named_delay_policies(delays):
    res = harness.run(clean_scenario(
        adversary={"byzantine": "silent", "delays": delays,
                   "byzantine_set": [3]}))
    assert res.passed, (delays, [v for v in res.verdicts if not v.passed])


def test_byzantine_initiator_split_echo():
    sc = clean_scenario(
        duration="130",
        adversary={"byzantine": "split_echo", "delays": "uniform",
                   "byzantine_set": [2]},
        script=[{"t": "8", "node": 0, "action": "initiate"},
                {"t": "20", "node": 2, "action": "initiate"}])
    res = harness.run(sc)
    assert res.passed, [v for v in res.verdicts if not v.passed]


def run_metrics(res, trace=None):
    """The metrics of `trace`, by default the run's own, indexed afresh."""
    ix = verdicts._Index(res.trace if trace is None else trace, res.correct)
    return verdicts.run_metrics(ix, res.scenario, res.params)


def test_metrics_exported_per_correct_node():
    res = harness.run(clean_scenario())
    totals = run_metrics(res)["totals"]
    assert [m["node"] for m in totals] == [0, 1, 2]
    assert all(list(m) == ["node", "infra_bits", "instance_bits",
                           "payload_bits", "instances_joined", "quarantines"]
               for m in totals)
    assert all(m["infra_bits"] > 0 for m in totals)
    assert all(m["quarantines"] == 0 for m in totals)


def test_bit_windows_sum_the_send_records_per_window():
    res = harness.run(clean_scenario())
    window = res.params.bits_window
    metrics = run_metrics(res)
    rows = metrics["windows"]
    count = int(110 / window)
    assert [(r["node"], r["window"]) for r in rows] == \
        [(v, k) for v in res.correct for k in range(count)]
    for r in rows:
        lo, hi = r["window"] * window, (r["window"] + 1) * window
        sends = [s for s in res.trace if s[0] == "send"
                 and s[2] == r["node"] and lo <= s[1] < hi]
        assert r["infra_bits"] == sum(s[5] + s[6] for s in sends
                                      if s[4] != "RoundMsg")
        assert r["instance_bits"] == sum(s[5] + s[6] for s in sends
                                         if s[4] == "RoundMsg")
        assert list(r) == ["node", "window", "infra_bits", "instance_bits",
                           "instances_joined", "quarantines"]
        total = metrics["totals"][r["node"]]
        assert r["instances_joined"] == total["instances_joined"]
        assert r["quarantines"] == total["quarantines"]


def test_metrics_bit_totals_are_the_sums_of_the_send_records():
    res = harness.run(clean_scenario())
    for m in run_metrics(res)["totals"]:
        sends = [r for r in res.trace if r[0] == "send" and r[2] == m["node"]]
        rounds = [r for r in sends if r[4] == "RoundMsg"]
        assert m["infra_bits"] == sum(r[5] + r[6] for r in sends
                                      if r[4] != "RoundMsg")
        assert m["instance_bits"] == sum(r[5] + r[6] for r in rounds) > 0
        assert m["payload_bits"] == sum(r[6] for r in rounds) > 0


def test_metrics_count_every_join_of_a_label_rejoined_after_a_wipe():
    # A wipe drops the instance table, so a node may join one label twice;
    # each participate record is one join.
    res = harness.run(clean_scenario(), evaluate=False)
    part = next(r for r in res.trace if r[0] == "participate" and r[2] == 0)
    t = part[1]
    trace = res.trace + [("wipe", t + 1, 0), ("participate", t + 2) + part[2:]]
    joined = run_metrics(res, trace)["totals"][0]["instances_joined"]
    assert joined == run_metrics(res)["totals"][0]["instances_joined"] + 1 == 2


def test_reduced_update_frequency_mode():
    sc = clean_scenario(T="3", clock_update_period="3", duration="260",
                        script=[{"t": "20", "node": 0, "action": "initiate"}])
    res = harness.run(sc)
    assert res.passed, [v for v in res.verdicts if not v.passed]
    outs = [r for r in res.trace if r[0] == "output"]
    assert len(outs) == 3 and all(r[4] == 1 for r in outs)


def corrupted_scenario(seed, byzantine="silent"):
    return Scenario(n=4, f=1, theta="1.1", d="1", duration="1100", seed=seed,
                    adversary={"byzantine": byzantine, "delays": "uniform",
                               "byzantine_set": [3]},
                    corruption={"kind": "random"},
                    script=[{"t": "1000", "node": 0, "action": "initiate"},
                            {"t": "1004", "node": 1, "action": "initiate"}])


def test_corrupted_boot_stabilizes_and_quarantine_path_runs():
    quarantines = 0
    for seed in range(4):
        res = harness.run(corrupted_scenario(seed))
        assert res.passed, (seed, [v for v in res.verdicts if not v.passed])
        sv = by_name(res.verdicts, "self-stabilization")
        assert sv.measured["post_horizon_instances"] >= 1
        quarantines += sv.measured["quarantines"]
    assert quarantines >= 1          # the overload/quarantine path was hit


@pytest.mark.parametrize("seed", [0, 1])   # seed 1: node 3 quarantines
def test_corrupted_boot_metrics_count_the_trace_records(seed):
    # corrupt_runtime makes up instances at boot; only the trace's
    # participate records count as joins.
    sc = Scenario(n=4, f=1, theta="1.1", d="1", duration="1100", seed=seed,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [2]},
                  corruption={"kind": "random"},
                  script=[{"t": "1000", "node": 0, "action": "initiate"},
                          {"t": "1004", "node": 1, "action": "initiate"}])
    res = harness.run(sc, evaluate=False)
    totals = run_metrics(res)["totals"]
    assert [m["node"] for m in totals] == [0, 1, 3]
    joins = Counter(r[2] for r in res.trace if r[0] == "participate")
    quarantines = Counter(r[2] for r in res.trace if r[0] == "quarantine")
    for m in totals:
        assert m["instances_joined"] == joins[m["node"]] > 0
        assert m["quarantines"] == quarantines[m["node"]]


def test_update_cadence_is_exactly_one_period():
    sc = clean_scenario()
    res = harness.run(sc)
    clocks = harness.build_env(sc)[5]
    period = res.params.grid.from_units(res.params.update_period)
    for v in res.correct:
        times = sorted({r[1] for r in res.trace
                        if r[0] == "send" and r[2] == v and r[4] == "Update"})
        locals_ = [clocks[v].value(t) for t in times]
        assert all(b - a == period for a, b in zip(locals_, locals_[1:]))


def test_no_faults_edge():
    # f = 0: single-phase king, every quorum is unanimous, catch-up fires on
    # the first message of a round.
    for n in (2, 4):
        sc = Scenario(n=n, f=0, theta="1.1", duration="110", seed=1,
                      adversary={"byzantine": "silent", "delays": "uniform",
                                 "byzantine_set": []},
                      script=[{"t": "8", "node": 0, "action": "initiate"}])
        res = harness.run(sc, keep_trace=False)
        assert res.passed, (n, [v for v in res.verdicts if not v.passed])
        agreement = by_name(res.verdicts, "agreement-validity-safety")
        assert agreement.measured["instances"] == 1


def test_equivocating_node_boots_clean_and_takes_part():
    # A byzantine node that runs the correct clock-estimate layer boots with
    # everyone's claim, so it is trusted and joins instances from the start.
    sc = clean_scenario(adversary={"byzantine": "equivocate_rounds",
                                   "delays": "uniform", "byzantine_set": [3]})
    res = harness.run(sc)
    assert res.passed, [v for v in res.verdicts if not v.passed]
    assert any(r[0] == "send" and r[2] == 3 and r[4] == "RoundMsg"
               for r in res.trace)


def test_large_drift_bound():
    sc = clean_scenario(theta="1.5", duration="140",
                        adversary={"byzantine": "equivocate_rounds",
                                   "delays": "slow", "byzantine_set": [3]})
    res = harness.run(sc, keep_trace=False)
    assert res.passed, [v for v in res.verdicts if not v.passed]


def test_repeated_instances_over_long_horizon():
    script = [{"t": str(8 + 97 * k), "node": k % 2, "action": "initiate"}
              for k in range(3)]
    sc = clean_scenario(duration="420", oracle={"kind": "mixed"},
                        adversary={"byzantine": "equivocate_rounds",
                                   "delays": "uniform", "byzantine_set": [2]},
                        script=script)
    res = harness.run(sc, keep_trace=False)
    assert res.passed, [v for v in res.verdicts if not v.passed]
    agreement = by_name(res.verdicts, "agreement-validity-safety")
    assert agreement.measured["instances"] == 3


def test_sweep_runs_cross_product():
    base = clean_scenario()
    results = harness.sweep(base, {"seed": [3, 4], "adversary.byzantine":
                                   ["silent", "noise"]})
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert {r.scenario.seed for r in results} == {3, 4}


@pytest.mark.parametrize("name, sc", MATRIX)
def test_build_params_agrees_with_build_env(name, sc):
    alone, in_env = harness.build_params(sc), harness.build_env(sc)[1]
    for field in dataclasses.fields(alone):
        a, b = getattr(alone, field.name), getattr(in_env, field.name)
        if field.name == "grid":    # a LocalGrid compares by identity
            a, b = (a.unit, a.quantum), (b.unit, b.quantum)
        assert a == b, field.name


def test_build_params_builds_no_clock(monkeypatch):
    built = []

    class Counted(harness.HardwareClock):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(harness, "HardwareClock", Counted)
    sc = sweep_scenario(7, "silent", {"kind": "const", "value": 0}, None)
    harness.build_params(sc)
    assert built == []
    harness.build_env(sc)
    assert len(built) == sc.n


@pytest.mark.parametrize("sc", [
    *(sweep_scenario(4, adv, oracle, mode) for adv, oracle, mode in STRATEGIES),
    corrupted_scenario(1, "noise")],
    ids=[adv for adv, _, _ in STRATEGIES] + ["corrupted-noise"])
def test_a_run_leaves_no_cyclic_garbage(sc):
    """Refcounting alone frees the simulator, the handlers and a trace the
    result does not keep: a run leaves almost nothing for the cyclic
    collector."""
    assert leaves_no_cyclic_garbage(sc)


def test_the_garbage_check_catches_a_cycle_made_per_delivery(monkeypatch):
    deliver = NodeRuntime.on_deliver

    def leaky(self, sender, envelope):
        loop = []
        loop.append(loop)
        deliver(self, sender, envelope)
    monkeypatch.setattr(NodeRuntime, "on_deliver", leaky)
    assert not leaves_no_cyclic_garbage(sweep_scenario(4, *STRATEGIES[0]))


def leaves_no_cyclic_garbage(sc) -> bool:
    """Whether the cyclic collector reclaims at most 20 objects, and fewer
    than one per 50 trace records, across `harness.run(sc)` and one full
    collection after it.  Automatic collection is off meanwhile, and every
    collection is counted, the event loop's own closing one too, since that
    one would otherwise reclaim a run's cycles unseen."""
    records = len(harness.run(sc, evaluate=False).trace)
    collected = []

    def count(phase, info):
        if phase == "stop":
            collected.append(info["collected"])
    gc.collect()
    gc.disable()
    gc.callbacks.append(count)
    try:
        harness.run(sc, keep_trace=False)
        gc.collect()
    finally:
        gc.callbacks.remove(count)
        gc.enable()
    left = sum(collected)
    return left <= 20 < records // 50
