"""Acceptance gate: property-based checks at desk scale.

Sweep: n in {4, 7, 10} with f = (n-1)//3, theta in {1.0, 1.1}, d = 1, the
silent-wrapped phase-king protocol (R = 3(f+1) inner rounds), 20 seeds x 5
adversary strategies per configuration, plus 100 corrupted-boot runs and
dedicated byzantine-clock and bit-accounting runs.  Each criterion prints one
PASS/FAIL line.
"""

import itertools

import pytest

from noclock import harness
from noclock.protocols import PhaseKing, run_lockstep
from noclock.scenario import Scenario
from shapes import (STRATEGIES, by_name, byzantine_set, corrupted_scenario,
                    sweep_scenario)

CONFIGS = [(n, (n - 1) // 3, theta)
           for n in (4, 7, 10) for theta in ("1.0", "1.1")]
SEEDS = range(20)
CORRUPTED_RUNS = 100


@pytest.fixture(scope="module")
def sweep_results():
    results = []
    for (n, _, theta), seed, (adv, oracle, mode) in itertools.product(
            CONFIGS, SEEDS, STRATEGIES):
        sc = sweep_scenario(n, adv, oracle, mode, theta=theta, seed=seed)
        results.append(harness.run(sc, keep_trace=False))
    return results


@pytest.fixture(scope="module")
def corrupted_results():
    results = []
    advs = ["silent", "noise", "equivocate_rounds"]
    for k in range(CORRUPTED_RUNS):
        sc = corrupted_scenario(k, advs[k % 3], ["uniform", "split"][k % 2])
        results.append(harness.run(sc, keep_trace=False))
    return results


def _report(num, name, passed, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


def _collect(results, verdict_name):
    bad = [(r.scenario.n, r.scenario.theta, r.scenario.seed,
            r.scenario.adversary["byzantine"], v.measured,
            v.counterexample)
           for r in results for v in r.verdicts
           if v.name == verdict_name and not v.passed]
    return bad


def test_criterion_1_oracle_equivalence(sweep_results):
    bad = _collect(sweep_results, "oracle-equivalence")
    replayed = sum(by_name(r.verdicts, "oracle-equivalence")
                   .measured["instances_replayed"] for r in sweep_results)
    _report(1, "oracle equivalence", not bad and replayed >= 500,
            f"{replayed} node-executions replayed, {len(bad)} failing runs"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_2_agreement_validity_safety(sweep_results):
    bad = _collect(sweep_results, "agreement-validity-safety")
    ms = [by_name(r.verdicts, "agreement-validity-safety").measured
          for r in sweep_results]
    instances = sum(m["instances"] for m in ms)
    nonzero = sum(m["nonzero_outputs"] for m in ms)
    _report(2, "agreement/validity/safety",
            not bad and instances >= 1000 and nonzero >= 200,
            f"{instances} instances, {nonzero} nonzero outputs, "
            f"{len(bad)} failing runs" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_3_timing_windows(sweep_results):
    bad = _collect(sweep_results, "timing-windows")
    ms = [by_name(r.verdicts, "timing-windows").measured for r in sweep_results]
    k2 = max(m["K2"] for m in ms)
    k5 = max(m["K5"] for m in ms)
    hi = max(m["dur_hi_rounds"] for m in ms)
    lo = min(m["dur_lo_rounds"] for m in ms if m["dur_lo_rounds"] is not None)
    _report(3, "timing windows",
            not bad and k2 <= 8 and k5 <= 8 and 1 <= lo and hi <= 12,
            f"K2={k2:.2f}<=8, K5={k5:.2f}<=8, duration/round in "
            f"[{lo:.2f}, {hi:.2f}] within [1, 12], {len(bad)} failing runs"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_4_silence(sweep_results):
    bad = _collect(sweep_results, "silence")
    silent = sum(by_name(r.verdicts, "silence").measured["silent_instances"]
                 for r in sweep_results)
    _report(4, "silence", not bad and silent >= 200,
            f"{silent} all-zero-input instances with zero payload bits, "
            f"{len(bad)} failing runs" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_5_clock_estimate_accuracy(sweep_results):
    bad = _collect(sweep_results, "clock-estimate-accuracy")
    ms = [by_name(r.verdicts, "clock-estimate-accuracy").measured
          for r in sweep_results]
    t0 = max(m["t0"] for m in ms)
    samples = sum(m["samples"] for m in ms)
    _report(5, "clock-estimate accuracy", not bad and samples > 10**5,
            f"worst t0={t0}, {samples} samples within one quantum of "
            f"[H_w - 3*theta*d, H_w], {len(bad)} failing runs"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_6_self_stabilization(corrupted_results):
    bad = [(r.scenario.seed, [(v.name, v.measured) for v in r.verdicts
                              if not v.passed])
           for r in corrupted_results if not r.passed]
    ms = [by_name(r.verdicts, "self-stabilization").measured
          for r in corrupted_results]
    posts = sum(m["post_horizon_instances"] for m in ms)
    quarantines = sum(m["quarantines"] for m in ms)
    _report(6, "self-stabilization from arbitrary states",
            not bad and len(corrupted_results) >= 100 and posts >= 100
            and quarantines >= 5,
            f"{len(corrupted_results)} corrupted-boot runs, {posts} "
            f"post-horizon instances, {quarantines} quarantines exercised, "
            f"{len(bad)} failing" + (f"; first: {bad[0]}" if bad else ""))


@pytest.fixture(scope="module")
def bits_results():
    results = []
    for n, f, theta in CONFIGS:
        sc_probe = Scenario(n=n, f=f, theta=theta, duration="10")
        p = harness.build_params(sc_probe)
        t_val = p.T
        s_real = p.judging_horizon
        duration = s_real + 20 * t_val + 10
        for seed, script in [(0, [{"t": str(s_real + 2), "node": 0,
                                   "action": "initiate"},
                                  {"t": str(s_real + 3 + t_val), "node": 1,
                                   "action": "initiate"}]),
                             (1, [])]:
            sc = Scenario(n=n, f=f, theta=theta, duration=str(duration),
                          seed=seed,
                          adversary={"byzantine": "noise", "delays": "uniform",
                                     "byzantine_set": byzantine_set(n, f, seed)},
                          script=script)
            results.append(harness.run(sc, keep_trace=False))
    return results


def test_criterion_7_amortized_bits(bits_results):
    bad = _collect(bits_results, "amortized-bits")
    ms = [by_name(r.verdicts, "amortized-bits").measured for r in bits_results]
    c_bits = max(m["c_bits"] for m in ms)
    c_infra = max(m["c_infra"] for m in ms)
    windows = sum(m["windows"] for m in ms)
    _report(7, "amortized bits",
            not bad and 0 < c_bits <= 64 and 0 < c_infra <= 64 and windows >= 12,
            f"c_bits={c_bits}<=64 and c_infra={c_infra}<=64 over {windows} "
            f"windows across all configurations, {len(bad)} failing runs")


@pytest.fixture(scope="module")
def skew_results():
    results = []
    for mode in ("fastest", "slowest", "alternating"):
        for theta in ("1.0", "1.1"):
            for seed in (0, 1):
                sc = Scenario(n=4, f=1, theta=theta, duration="80", seed=seed,
                              adversary={"byzantine": "clock_skew",
                                         "mode": mode, "byzantine_set": [3],
                                         "delays": "uniform"},
                              script=[{"t": "8", "node": 0,
                                       "action": "initiate"}])
                results.append(harness.run(sc, keep_trace=False))
    return results


def test_criterion_8_byzantine_clock_envelope(sweep_results, skew_results):
    runs = sweep_results + skew_results
    bad = _collect(runs, "byzantine-clock-envelope")
    ms = [by_name(r.verdicts, "byzantine-clock-envelope").measured
          for r in runs]
    k1 = max(m["K1"] for m in ms if m.get("pairs"))
    pairs = sum(m.get("pairs", 0) for m in ms)
    _report(8, "byzantine clock envelope",
            not bad and k1 <= 16 and pairs >= 10**5,
            f"K1={k1:.2f}<=16 over {pairs} estimate pairs "
            f"(fastest/slowest/alternating legal strategies), "
            f"{len(bad)} failing runs" + (f"; first: {bad[0]}" if bad else ""))


BRUTE_BEHAVIORS = {
    "silent": lambda w: None,
    "zeros": lambda w: (0,),
    "ones": lambda w: (1,),
    "split": lambda w: (w % 2,),
}


def test_criterion_9_phase_king_exhaustive():
    # Exhaustive over the restricted per-round byzantine alphabet
    # {silence, 0-to-all, 1-to-all, equivocating split}, every byzantine
    # position and every correct-input combination, at n=4, f=1.
    n, f = 4, 1
    names = list(BRUTE_BEHAVIORS)
    checked = violations = 0
    for byz in range(n):
        correct = [v for v in range(n) if v != byz]
        for pattern in itertools.product(names, repeat=3 * (f + 1)):
            fns = [BRUTE_BEHAVIORS[name] for name in pattern]

            def fn(i, w):
                return fns[i - 1](w)
            for bits in itertools.product((0, 1), repeat=n - 1):
                inputs = dict(zip(correct, bits))
                outputs, _, _ = run_lockstep(PhaseKing(n, f), inputs,
                                             n, byzantine={byz: fn})
                checked += 1
                vals = set(outputs.values())
                if len(vals) != 1:
                    violations += 1
                elif len(set(bits)) == 1 and vals != {bits[0]}:
                    violations += 1
    _report(9, "phase-king exhaustive brute force",
            violations == 0 and checked == 4 * (4 ** 6) * 8,
            f"{checked} executions, {violations} agreement/validity violations")
