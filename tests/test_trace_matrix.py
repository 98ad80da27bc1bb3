"""Determinism contract over every adversary: committed trace digests.

The matrix holds the acceptance sweep's shape for each byzantine strategy at
n=4 and n=7 (seed 0, 110 d), a shorter n=16 `clock_skew` run (60 d, where
the clock-estimate upkeep does the most work), two corrupted n=4 boots of
1100 d and a corrupted n=7 boot of 300 d in which node 1 quarantines by the
busy-instance rule.  Seven n=4 `clock_skew` variants pin the edges of the
kernel's time arithmetic: the `fast`, `slow` and `boundary` delay policies,
the `fixed_max` and `fixed_min` rate schedules, theta = 1, and a clock update
period of 3 d with T = 3.  A change that keeps the protocol's behaviour keeps
every digest; a digest that moves means some run now produces a different
trace.

Each run also has an outcome digest over every verdict's name, pass/fail and
measured constants and over the `metrics.json` export (key order included),
so a change to the evaluation that moves a number shows up even when the
trace holds.  The JSONL the trace digest hashes must decode back to the
run's trace, and every time in the trace must lie on the run's tick grid.
Each scenario is simulated once for all four checks.
"""

import functools
import hashlib
import json

import pytest

from noclock import harness
from noclock.scenario import Scenario
from noclock.verdicts import run_metrics, trace_from_jsonl, trace_to_jsonl
from shapes import STRATEGIES, corrupted_scenario, sweep_scenario

DIGESTS = {
    "silent-n4": "d90fe9a5d3fe0742eb5bb41563c751ed5491b34d9aa7faa8b6484ccf92165c1f",
    "noise-n4": "3fc4f95b0d5f3b814401dd1c423d20d4cbe20f6243003226b67f5fe80cee344f",
    "split_echo-n4": "5aec650da68fd45debcb81f092ee553f19da3d388fabf8efcdd777f68c209201",
    "equivocate_rounds-n4": "f3138c3693ae8029b38e497cbb48ed99e4ec6b74e6502c7d1ad7b2c8d60f5252",
    "clock_skew-n4": "be005a3f0ece42004dd3e082e9b8407bcfc4e1bb52e97c711466535619cbda27",
    "silent-n7": "0f0fe69d418a495529ba792abf31e03ea183e32b952074ecde269c516d7bf614",
    "noise-n7": "143c345678e918b3654df5428b52b30dbd054f2b1341d5fbd1ab8d6c4f5ab474",
    "split_echo-n7": "e76787c24c41a4b1aa189fb1d710a6d00f7d17d19d2ef65eed3ae6f30dd5b9e5",
    "equivocate_rounds-n7": "db53bf1358c42d3824e670520b59be61202153f719735caaf992796e35e2dede",
    "clock_skew-n7": "2f8ecf3f8eed572d8dc9ec21e0c85489ccdbcef53cd0d8d28b5c50281b1bc558",
    "clock_skew-n16": "f3a3b8e43ca31ff322300167b52a71db644b9210ba9a7bf2413573312bdb6852",
    "corrupted-noise-split": "20111c041d376aefd48c8ef8e36a396def57de976a56e7fd9a0072becbfc78f3",
    "corrupted-equivocate": "db0ee95547005e341eb63f3bd6b116a1e4569aa83a13574dd672cdb6231e4e22",
    "corrupted-n7-noise-split": "3931d41637a82c11145800f860d74e9d3a158a8e1a81cb50179d4756ecda0d87",
    "delays-fast": "27aebe4e2653f6d730c5c88124660e21666e8e7f04a57054fb4e721fce8e4e76",
    "delays-slow": "83bc2a6f05f4445ab07a345740cf9f7b13da723d353e08165954faa394fd26bf",
    "delays-boundary": "4dc3e1222e50e23067292bd72128b8538d45ac3b7180df8ec4d2b2e90129990d",
    "rates-fixed_max": "b4acf74b82814cbb29f68536f158b1938e424792f24ec56d4bc5fd792aa7f889",
    "rates-fixed_min": "b275936eb6f960f8eb0ca3ca435cb642fba54f9046b02945293ffaa689442993",
    "theta-1": "ffd1468d0b4e2f460ec3ba5a0caab0d087705561c66f7830d1d5f41aa286ddc0",
    "update-period-3": "29fb7eafc19cd5db72446061ac16874276ac3186ed0380edee398f2d5ca6b2f8",
}

OUTCOMES = {
    "silent-n4": "a64713814ae62119967fba5e606cb1702fe082463172f6f2d5b8721e2132c825",
    "noise-n4": "8ecbfd2a2c60476ee4638e4d6dbbd25201eac2ccf5d6bb2baea461c4c84b8b26",
    "split_echo-n4": "282666313861ed8998a62df86f15510e677d3e417878b56163b2bf77e6fa7447",
    "equivocate_rounds-n4": "46e51fcec86831ea7e894a3cf282b35db6188bd0ead629ab208fd1f6fa3d9604",
    "clock_skew-n4": "5ce59bae461a04fa7d90dc97514a03612eeaabcf2c75b52a0c1959c02532eea5",
    "silent-n7": "1bc638d2ebd4df2d0e03f7203ff690816cb352ae113e77760faaff91a659bf22",
    "noise-n7": "a6bea1c7a823119511699b99e5d7098142801e0096b8bc43f98c6f06bb45fef1",
    "split_echo-n7": "dc97999a605435a576b9d343d36f950a259d88d23c43fb5c2f5e1ce89069b6e7",
    "equivocate_rounds-n7": "33012f53a192ca90f832361ec4e33be449242aa6a946ac1d0f4e8ec539ae35d0",
    "clock_skew-n7": "f4de186a3ff0646a779f014cac42a8c44cd5aacf959c1abc9c5d13aa8df157b7",
    "clock_skew-n16": "61573a828c89d5e405e041cd4b7bb04717ceeca34e0b3bf09b8bcdc3a99f60e2",
    "corrupted-noise-split": "1d86854071eee4c5b47e55e6e153bc86cd2dbead1a677a626088ef353273f254",
    "corrupted-equivocate": "cdb1545f26bec0f4dcbdd7dea1dd20d14406b927fec720798bd0073422abb88e",
    "corrupted-n7-noise-split": "7e0280c3e9dbc88dc831651a2a7dd3a3b735f4506a00b5b5cb47f0fac3ac5efa",
    "delays-fast": "c4a47a1958d3180a913a82191783b96efc607cbc041ba876fd1ca207c41ea6ea",
    "delays-slow": "454495c0a3270a3b545ad1ccadfeba8456ddea95ec18cd07e363a8d5fc3b526c",
    "delays-boundary": "6271a65aa43c2b0d0df04e421c2862fadbb60aa9d80c7d60726b5f1b6afe5467",
    "rates-fixed_max": "cdfbb404b5b299cb7127b9014e76e67d457709db5116a0ce6e1f3dda2478a3d0",
    "rates-fixed_min": "8688e7d1846dfb05c4a67893213c05a956229d56f28e92a8684451ee15c801dc",
    "theta-1": "bcb606ed2d71c37a043945f6561c62c2543f4c333ae6143c549cb0fb0af5ff17",
    "update-period-3": "9749c32ab1d50322315a301b8512e4509e5e6019d5177bc5a5a15c3cce932d58",
}


def edge_scenario(duration="110", delays="uniform", **fields) -> Scenario:
    """The n=4 `clock_skew` sweep run with some fields changed."""
    data = sweep_scenario(4, "clock_skew", {"kind": "mixed"}, "alternating",
                          duration=duration).to_dict()
    data["adversary"]["delays"] = delays
    data.update(fields)
    return Scenario.from_dict(data)


MATRIX = (
    [(f"{adv}-n{n}", sweep_scenario(n, adv, oracle, mode))
     for n in (4, 7) for adv, oracle, mode in STRATEGIES]
    + [("clock_skew-n16", sweep_scenario(16, "clock_skew", {"kind": "mixed"},
                                         "alternating", duration="60"))]
    + [("corrupted-noise-split", corrupted_scenario(1, "noise", "split")),
       ("corrupted-equivocate",
        corrupted_scenario(2, "equivocate_rounds", "uniform")),
       # The seed draws byzantine nodes [3, 4].
       ("corrupted-n7-noise-split",
        Scenario(n=7, f=2, theta="1.1", duration="300", seed=11,
                 adversary={"byzantine": "noise", "delays": "split"},
                 corruption={"kind": "random"},
                 script=[{"t": "250", "node": 0, "action": "initiate"}]))]
    + [(f"delays-{delays}", edge_scenario(delays=delays))
       for delays in ("fast", "slow", "boundary")]
    + [(f"rates-{rates}", edge_scenario(clocks={"rates": rates}))
       for rates in ("fixed_max", "fixed_min")]
    + [("theta-1", edge_scenario(theta="1")),
       ("update-period-3",
        edge_scenario(duration="160", clock_update_period="3", T="3"))])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def digests(name: str):
    """(trace digest, outcome digest, whether the stored trace decodes to
    the run's trace, whether every trace time is a whole number of ticks of
    the run's grid) of one matrix run."""
    sc = dict(MATRIX)[name]
    res = harness.run(sc)
    ticks = harness.build_env(sc)[5][0].ticks
    on_grid = all(rec[1] * ticks % 1 == 0 for rec in res.trace)
    outcome = {"verdicts": [[v.name, v.passed, v.measured] for v in res.verdicts],
               "metrics": run_metrics(res.index, res.scenario, res.params)}
    text = trace_to_jsonl(res.trace)
    decodes = trace_from_jsonl(text, res.scenario.n) == res.trace
    return sha256(text), sha256(json.dumps(outcome)), decodes, on_grid


NAMES = [name for name, _ in MATRIX]


@pytest.mark.parametrize("name", NAMES)
def test_trace_digest_is_unchanged(name):
    assert digests(name)[0] == DIGESTS[name]


@pytest.mark.parametrize("name", NAMES)
def test_outcome_digest_is_unchanged(name):
    assert digests(name)[1] == OUTCOMES[name]


@pytest.mark.parametrize("name", NAMES)
def test_stored_trace_decodes_to_the_run(name):
    assert digests(name)[2]


@pytest.mark.parametrize("name", NAMES)
def test_every_trace_time_lies_on_the_tick_grid(name):
    assert digests(name)[3]
