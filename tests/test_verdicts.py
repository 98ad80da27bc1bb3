"""The trace checkers must actually catch violations, not just pass clean runs.

Each test takes a known-good run, tampers with one aspect of its trace, and
expects the corresponding suite to fail.
"""

from fractions import Fraction

import pytest

from noclock import harness, verdicts
from noclock.protocols import make_protocol
from noclock.scenario import Scenario


@pytest.fixture(scope="module")
def good_run():
    sc = Scenario(n=4, f=1, theta="1.1", duration="110", seed=3,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [3]},
                  script=[{"t": "8", "node": 0, "action": "initiate"}])
    res = harness.run(sc)
    assert res.passed
    return sc, res


def reevaluate(sc, res, trace):
    return verdicts.evaluate(trace, sc, res.params, harness.build_env(sc)[5],
                             res.correct,
                             lambda: make_protocol("phase-king-silent", 4, 1))


def by_name(vds, name):
    return next(v for v in vds if v.name == name)


def test_flipped_output_breaks_agreement_and_replay(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace) if r[0] == "output")
    r = trace[idx]
    trace[idx] = (r[0], r[1], r[2], r[3], 1 - r[4], r[5])
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "agreement-validity-safety").passed
    assert not by_name(vds, "oracle-equivalence").passed


def test_tampered_receipt_breaks_replay_coherence(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace) if r[0] == "rrcv" and r[4] == 3)
    r = trace[idx]
    vec = list(r[5])
    vec[0] = (1, 0, 1)
    trace[idx] = (r[0], r[1], r[2], r[3], r[4], tuple(vec))
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "oracle-equivalence").passed


def test_missing_participant_breaks_timing(good_run):
    sc, res = good_run
    trace = [r for r in res.trace
             if not (r[0] == "participate" and r[2] == 1)]
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "timing-windows").passed


def test_init_without_any_participant_breaks_timing(good_run):
    # The init is well before the end of the run, so no correct node joining
    # it is a violation, not an instance still starting up.
    sc, res = good_run
    trace = [r for r in res.trace if r[0] != "participate"]
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "timing-windows").passed


def test_missing_output_is_unterminated(good_run):
    sc, res = good_run
    trace = [r for r in res.trace if not (r[0] == "output" and r[2] == 1)]
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "agreement-validity-safety").passed


def test_early_participation_flagged(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace) if r[0] == "participate")
    r = trace[idx]
    t0 = next(r2[1] for r2 in trace if r2[0] == "init")
    trace[idx] = (r[0], t0 + Fraction(1, 2), r[2], r[3], r[4], r[5], r[6])
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "timing-windows").passed


def test_payload_leak_breaks_silence():
    sc = Scenario(n=4, f=1, theta="1.1", duration="110", seed=3,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [3]},
                  oracle={"kind": "const", "value": 0},
                  script=[{"t": "8", "node": 0, "action": "initiate"}])
    res = harness.run(sc)
    assert res.passed
    trace = list(res.trace)
    idx, r = next((i, r) for i, r in enumerate(trace)
                  if r[0] == "send" and r[4] == "RoundMsg")
    trace[idx] = (r[0], r[1], r[2], r[3], r[4], r[5], 2, r[7])
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "silence").passed


def test_distrusted_estimate_moves_t0(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = max(i for i, r in enumerate(trace) if r[0] == "est" and r[2] == 0)
    r = trace[idx]
    ests = list(r[3])
    ests[1] = None
    trace[idx] = (r[0], r[1], r[2], tuple(ests))
    vds = reevaluate(sc, res, trace)
    v = by_name(vds, "clock-estimate-accuracy")
    assert v.measured["t0"] == float(r[1])
    assert not v.passed          # no passing tail after the last failure


def test_quarantine_record_breaks_clean_hygiene(good_run):
    sc, res = good_run
    trace = list(res.trace) + [("quarantine", Fraction(50), 0)]
    vds = reevaluate(sc, res, trace)
    assert not by_name(vds, "non-interference").passed
