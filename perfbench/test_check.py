"""Tests of the benchmark's own checker and bookkeeping.

    python3 -m pytest perfbench -q

Each planted fault edits one record of a real trace from a small run, and
the checker must name it; an unmodified trace of each workload must pass.
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from noclock import harness, messages, verdicts  # noqa: E402
from noclock.scenario import Scenario  # noqa: E402


def _examine(sc, trace):
    _, p, _, correct, _, clocks = harness.build_env(sc)
    return check.examine(trace, sc, p, clocks, correct)


def _small(value: int) -> Scenario:
    return Scenario(n=4, f=1, theta="1.1", duration="110", seed=3,
                    adversary={"byzantine": "silent", "delays": "uniform",
                               "byzantine_set": [3]},
                    oracle={"kind": "const", "value": value},
                    script=[{"t": "8", "node": 0, "action": "initiate"}])


@pytest.fixture(scope="module")
def ones():
    sc = _small(1)
    return sc, harness.run(sc, evaluate=False).trace


@pytest.fixture(scope="module")
def zeros():
    sc = _small(0)
    return sc, harness.run(sc, evaluate=False).trace


def _kinds(problems):
    return {p[0] for p in problems}


def _index(trace, pred):
    return next(i for i, rec in enumerate(trace) if pred(rec))


def test_small_traces_pass(ones, zeros):
    for sc, trace in (ones, zeros):
        chk = _examine(sc, trace)
        assert chk.ok, chk.problems
        assert chk.decided == 1 and len(chk.latencies_d) == 1


def test_disagreement_is_caught(ones):
    sc, trace = ones
    trace = list(trace)
    i = _index(trace, lambda r: r[0] == "output" and r[2] == 1)
    rec = trace[i]
    trace[i] = rec[:4] + (1 - rec[4],) + rec[5:]
    assert "agreement" in _kinds(_examine(sc, trace).problems)


def test_wrong_value_breaks_validity(ones):
    sc, trace = ones
    trace = [rec[:4] + (0,) + rec[5:] if rec[0] == "output" else rec
             for rec in trace]
    assert _kinds(_examine(sc, trace).problems) == {"validity"}


def test_missing_output_is_caught(ones):
    sc, trace = ones
    trace = list(trace)
    del trace[_index(trace, lambda r: r[0] == "output" and r[2] == 2)]
    chk = _examine(sc, trace)
    assert _kinds(chk.problems) == {"termination"}
    assert chk.decided == 0


def test_leaked_payload_bit_is_caught(zeros):
    sc, trace = zeros
    trace = list(trace)
    i = _index(trace, lambda r: r[0] == "send" and r[4] == "RoundMsg"
               and r[2] == 0)
    rec = trace[i]
    leaked = messages.RoundMsg(rec[7].label, rec[7].round, (1,))
    trace[i] = rec[:6] + (1, leaked)
    assert _kinds(_examine(sc, trace).problems) == {"silence"}


def test_drifted_estimate_is_caught(ones):
    sc, trace = ones
    p = harness.build_params(sc)
    trace = list(trace)
    i = _index(trace, lambda r: r[0] == "est" and r[2] == 0
               and r[1] > 50)
    rec = trace[i]
    ests = list(rec[3])
    ests[1] = (ests[1] + p.update_period) % p.clock_modulus   # ahead of H
    trace[i] = rec[:3] + (tuple(ests),)
    assert _kinds(_examine(sc, trace).problems) == {"estimate"}


def test_lost_trust_after_recovery_is_caught():
    sc = workloads.recover_n7(0)[0]
    trace = harness.run(sc, evaluate=False).trace
    _, p, _, correct, _, _ = harness.build_env(sc)
    # Distrust a correct peer in every sample after the cap: recovery then
    # never completes in time.
    v, w = correct[0], correct[1]
    cap = check.stabilization_cap(p)
    trace = [rec[:3] + (rec[3][:w] + (None,) + rec[3][w + 1:],)
             if rec[0] == "est" and rec[2] == v and rec[1] < cap + 10 else rec
             for rec in trace]
    assert "stabilization" in _kinds(_examine(sc, trace).problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unmodified_workload_trace_passes(name):
    sc = workloads.WORKLOADS[name](0)[0]
    chk = _examine(sc, harness.run(sc, evaluate=False).trace)
    assert chk.ok, chk.problems[:5]
    assert chk.latencies_d


def test_chunked_digest_equals_whole_trace_digest(ones, monkeypatch):
    _, trace = ones
    whole = hashlib.sha256(verdicts.trace_to_jsonl(trace).encode()).hexdigest()
    monkeypatch.setattr(run, "DIGEST_CHUNK", 100)
    assert len(trace) % 100
    assert run.trace_digest(verdicts, trace) == whole


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOAD_NAMES
