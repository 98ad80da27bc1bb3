"""The trace checkers must actually catch violations, not just pass clean runs.

Each test takes a known-good run, tampers with one aspect of its trace, and
expects the corresponding suite to fail.
"""

from fractions import Fraction

import pytest

from noclock import harness, verdicts
from noclock.protocols import make_protocol
from noclock.scenario import Scenario
from noclock.timebase import mod_signed


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


# -- byzantine-clock-envelope ---------------------------------------------------


def clock_skew_run(n, mode, duration="110"):
    f = (n - 1) // 3
    sc = Scenario(n=n, f=f, theta="1.1", duration=duration, seed=1,
                  adversary={"byzantine": "clock_skew", "mode": mode,
                             "delays": "uniform",
                             "byzantine_set": list(range(n - f, n))})
    return sc, harness.run(sc)


def byzantine_series(res, u):
    """(t, node, estimate) samples of byzantine clock u, in time order."""
    return sorted((float(r[1]), r[2], r[3][u]) for r in res.trace
                  if r[0] == "est" and r[2] in res.correct
                  and r[3][u] is not None)


def envelope_reference(res):
    """K1 and pair count from the plain loop over every pair within cap."""
    p = res.params
    theta, d, unit = float(p.theta), float(p.d), float(p.grid.unit)
    cap = float(p.grid.from_units(p.trust_regain)) / theta - (2 * theta + 1) * d
    rate_hi, rate_lo = 2 * theta, 2 / (2 * theta + 3)
    k1, pairs = 0.0, 0
    for u in res.byzantine:
        series = byzantine_series(res, u)
        for a, (t_v, _, e_v) in enumerate(series):
            for t_w, _, e_w in series[a:]:
                dt = t_w - t_v
                if dt > cap:
                    break
                pairs += 1
                diff = mod_signed(e_w - e_v, p.clock_modulus) * unit
                k1 = max(k1, (diff - rate_hi * dt) / d,
                         (rate_lo * dt - diff) / d)
    return round(k1, 4), pairs


# The 1000 d run outlasts `cap`, so the window's front moves and expires
# queue entries; the 110 d runs keep every pair.
@pytest.mark.parametrize("mode,n,duration", [
    pytest.param(mode, n, "110", id=f"{mode}-{n}")
    for n in (4, 7) for mode in ("fastest", "slowest", "alternating")]
    + [pytest.param("alternating", 4, "1000", id="alternating-4-1000d")])
def test_envelope_matches_every_pair_reference(mode, n, duration):
    sc, res = clock_skew_run(n, mode, duration)
    v = res.verdict("byzantine-clock-envelope")
    k1, pairs = envelope_reference(res)
    assert v.passed and v.measured["pairs"] == pairs > 0
    lengths = [len(byzantine_series(res, u)) for u in res.byzantine]
    every_pair = sum(k * (k + 1) // 2 for k in lengths)
    assert (pairs < every_pair) == (duration == "1000")
    # Same pairs, float sums taken in another order: equal to the rounding.
    assert v.measured["K1"] == pytest.approx(k1, abs=1e-4)


def test_envelope_catches_one_estimate_between_thinned_samples():
    # Over 220 d each byzantine series holds more than 420 samples, so a
    # 420-point thinning keeps every second one; the planted estimate sits at
    # an odd sorted position.
    sc, res = clock_skew_run(7, "alternating", duration="220")
    assert res.verdict("byzantine-clock-envelope").passed
    u = res.byzantine[0]
    series = byzantine_series(res, u)
    assert len(series) > 420
    t, node, e = series[len(series) // 2 | 1]
    p = res.params
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace)
               if r[0] == "est" and r[2] == node and float(r[1]) == t)
    r = trace[idx]
    ests = list(r[3])
    ests[u] = (e + 40 * p.grid.to_units(p.d)) % p.clock_modulus
    trace[idx] = (r[0], r[1], r[2], tuple(ests))
    vds = verdicts.evaluate(trace, sc, p, harness.build_env(sc)[5],
                            res.correct,
                            lambda: make_protocol("phase-king-silent", 7, 2))
    v = by_name(vds, "byzantine-clock-envelope")
    assert not v.passed and v.measured["K1"] > 30


# -- judging scope ----------------------------------------------------------------


def test_corrupted_boot_suites_judge_one_scope():
    sc = Scenario(n=4, f=1, theta="1.1", duration="1100", seed=0,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [2]},
                  corruption={"kind": "random"},
                  script=[{"t": "1000", "node": 0, "action": "initiate"},
                          {"t": "1004", "node": 1, "action": "initiate"}])
    res = harness.run(sc)
    stab = res.verdict("self-stabilization").measured
    judged = res.verdict("agreement-validity-safety").measured["instances"]
    assert judged == stab["post_horizon_instances"] > 0
    assert stab["cutoff"] == float(res.params.judging_horizon)


def test_self_stabilization_takes_every_per_instance_verdict(monkeypatch):
    sc = Scenario(n=4, f=1, theta="1.1", duration="1100", seed=0,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [2]},
                  corruption={"kind": "random"},
                  script=[{"t": "1000", "node": 0, "action": "initiate"},
                          {"t": "1004", "node": 1, "action": "initiate"}])
    res = harness.run(sc, evaluate=False)
    assert by_name(reevaluate(sc, res, res.trace), "self-stabilization").passed
    monkeypatch.setattr(verdicts, "_silence_suite",
                        lambda judged: verdicts.Verdict("quiet", False))
    vds = reevaluate(sc, res, res.trace)
    assert not by_name(vds, "self-stabilization").passed
