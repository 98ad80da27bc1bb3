import pytest

from noclock import harness, verdicts
from noclock.scenario import Scenario


def clean_scenario(**over):
    base = dict(n=4, f=1, theta="1.1", d="1", duration="110", seed=3,
                adversary={"byzantine": "silent", "delays": "uniform",
                           "byzantine_set": [3]},
                script=[{"t": "8", "node": 0, "action": "initiate"}])
    base.update(over)
    return Scenario(**base)


def test_clean_run_passes_every_suite():
    res = harness.run(clean_scenario())
    assert res.passed, [v for v in res.verdicts if not v.passed]
    assert res.byzantine == [3]
    outs = [r for r in res.trace if r[0] == "output"]
    assert len(outs) == 3 and all(r[4] == 1 for r in outs)
    assert res.verdict("amortized-bits").measured["windows"] > 0


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
    again = verdicts.evaluate(res.trace, sc, res.params,
                              harness.build_env(sc)[5], res.correct,
                              lambda: harness.protocols.make_protocol(
                                  "phase-king-silent", 4, 1))
    assert [(v.name, v.passed, v.measured) for v in res.verdicts] == \
           [(v.name, v.passed, v.measured) for v in again]


def test_trace_serialization_roundtrip():
    res = harness.run(clean_scenario(), evaluate=False)
    text = verdicts.trace_to_jsonl(res.trace)
    back = verdicts.trace_from_jsonl(text)
    assert back == [tuple(r) for r in res.trace]


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
    v = res.verdict("silence")
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


def test_metrics_exported_per_correct_node():
    res = harness.run(clean_scenario())
    assert [m["node"] for m in res.metrics] == [0, 1, 2]
    assert all(m["infra_bits"] > 0 for m in res.metrics)
    assert all(m["quarantines"] == 0 for m in res.metrics)


def test_metrics_bit_totals_are_the_sums_of_the_send_records():
    res = harness.run(clean_scenario())
    for m in res.metrics:
        sends = [r for r in res.trace if r[0] == "send" and r[2] == m["node"]]
        rounds = [r for r in sends if r[4] == "RoundMsg"]
        assert m["infra_bits"] == sum(r[5] + r[6] for r in sends
                                      if r[4] != "RoundMsg")
        assert m["instance_bits"] == sum(r[5] + r[6] for r in rounds) > 0
        assert m["payload_bits"] == sum(r[6] for r in rounds) > 0


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
        sv = res.verdict("self-stabilization")
        assert sv.measured["post_horizon_instances"] >= 1
        quarantines += sv.measured["quarantines"]
    assert quarantines >= 1          # the overload/quarantine path was hit


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
        assert res.verdict("agreement-validity-safety").measured["instances"] == 1


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
    assert res.verdict("agreement-validity-safety").measured["instances"] == 3


def test_sweep_runs_cross_product():
    base = clean_scenario()
    results = harness.sweep(base, {"seed": [3, 4], "adversary.byzantine":
                                   ["silent", "noise"]})
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert {r.scenario.seed for r in results} == {3, 4}
