"""Acceptance gate: property-based checks at desk scale.

Sweep: n in {4, 7, 10} with f = (n-1)//3, theta in {1.0, 1.1}, d = 1, the
silent-wrapped phase-king protocol (R = 3(f+1) inner rounds), 20 seeds x 5
adversary strategies per configuration, plus 100 corrupted-boot runs and
dedicated byzantine-clock and bit-accounting runs.  Each criterion prints one
PASS/FAIL line.
"""

import itertools
import random

import pytest

from noclock import harness
from noclock.protocols import PhaseKing, run_lockstep
from noclock.scenario import Scenario

CONFIGS = [(n, (n - 1) // 3, theta)
           for n in (4, 7, 10) for theta in ("1.0", "1.1")]
SEEDS = range(20)
STRATEGIES = [
    ("silent", {"kind": "const", "value": 0}, None),
    ("noise", {"kind": "const", "value": 1}, None),
    ("split_echo", {"kind": "mixed"}, None),
    ("equivocate_rounds", {"kind": "const", "value": 1}, None),
    ("clock_skew", {"kind": "mixed"}, "alternating"),
]
CORRUPTED_RUNS = 100


def _byzantine_set(n, f, seed):
    # Nodes 0 and 1 stay correct so the scripted initiators are correct.
    return sorted(random.Random(9000 + seed).sample(range(2, n), f))


def sweep_scenario(n, f, theta, adv, oracle, mode, seed) -> Scenario:
    byz = _byzantine_set(n, f, seed)
    script = [{"t": "6", "node": 0, "action": "initiate"},
              {"t": "13", "node": 1, "action": "initiate"}]
    if adv == "split_echo":
        script.append({"t": "10", "node": byz[0], "action": "initiate"})
    advd = {"byzantine": adv, "delays": "uniform", "byzantine_set": byz}
    if mode:
        advd["mode"] = mode
    return Scenario(n=n, f=f, theta=theta, duration="110", seed=seed,
                    adversary=advd, oracle=oracle, script=script)


@pytest.fixture(scope="module")
def sweep_results():
    results = []
    for (n, f, theta), seed, (adv, oracle, mode) in itertools.product(
            CONFIGS, SEEDS, STRATEGIES):
        sc = sweep_scenario(n, f, theta, adv, oracle, mode, seed)
        results.append(harness.run(sc, keep_trace=False))
    return results


@pytest.fixture(scope="module")
def corrupted_results():
    results = []
    advs = ["silent", "noise", "equivocate_rounds"]
    for k in range(CORRUPTED_RUNS):
        sc = Scenario(n=4, f=1, theta="1.1", duration="1100", seed=k,
                      adversary={"byzantine": advs[k % 3],
                                 "delays": ["uniform", "split"][k % 2],
                                 "byzantine_set": [2 + k % 2]},
                      corruption={"kind": "random"},
                      script=[{"t": "1000", "node": 0, "action": "initiate"},
                              {"t": "1004", "node": 1, "action": "initiate"}])
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
    replayed = sum(r.verdict("oracle-equivalence").measured["instances_replayed"]
                   for r in sweep_results)
    _report(1, "oracle equivalence", not bad and replayed >= 500,
            f"{replayed} node-executions replayed, {len(bad)} failing runs"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_2_agreement_validity_safety(sweep_results):
    bad = _collect(sweep_results, "agreement-validity-safety")
    instances = sum(r.verdict("agreement-validity-safety").measured["instances"]
                    for r in sweep_results)
    nonzero = sum(r.verdict("agreement-validity-safety").measured["nonzero_outputs"]
                  for r in sweep_results)
    _report(2, "agreement/validity/safety",
            not bad and instances >= 1000 and nonzero >= 200,
            f"{instances} instances, {nonzero} nonzero outputs, "
            f"{len(bad)} failing runs" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_3_timing_windows(sweep_results):
    bad = _collect(sweep_results, "timing-windows")
    k2 = max(r.verdict("timing-windows").measured["K2"] for r in sweep_results)
    k5 = max(r.verdict("timing-windows").measured["K5"] for r in sweep_results)
    hi = max(r.verdict("timing-windows").measured["dur_hi_rounds"]
             for r in sweep_results)
    lo = min(r.verdict("timing-windows").measured["dur_lo_rounds"]
             for r in sweep_results
             if r.verdict("timing-windows").measured["dur_lo_rounds"] is not None)
    _report(3, "timing windows",
            not bad and k2 <= 8 and k5 <= 8 and 1 <= lo and hi <= 12,
            f"K2={k2:.2f}<=8, K5={k5:.2f}<=8, duration/round in "
            f"[{lo:.2f}, {hi:.2f}] within [1, 12], {len(bad)} failing runs"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_4_silence(sweep_results):
    bad = _collect(sweep_results, "silence")
    silent = sum(r.verdict("silence").measured["silent_instances"]
                 for r in sweep_results)
    _report(4, "silence", not bad and silent >= 200,
            f"{silent} all-zero-input instances with zero payload bits, "
            f"{len(bad)} failing runs" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_5_clock_estimate_accuracy(sweep_results):
    bad = _collect(sweep_results, "clock-estimate-accuracy")
    t0 = max(r.verdict("clock-estimate-accuracy").measured["t0"]
             for r in sweep_results)
    samples = sum(r.verdict("clock-estimate-accuracy").measured["samples"]
                  for r in sweep_results)
    _report(5, "clock-estimate accuracy", not bad and samples > 10**5,
            f"worst t0={t0}, {samples} samples within one quantum of "
            f"[H_w - 3*theta*d, H_w], {len(bad)} failing runs"
            + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_6_self_stabilization(corrupted_results):
    bad = [(r.scenario.seed, [(v.name, v.measured) for v in r.verdicts
                              if not v.passed])
           for r in corrupted_results if not r.passed]
    posts = sum(r.verdict("self-stabilization").measured["post_horizon_instances"]
                for r in corrupted_results)
    quarantines = sum(r.verdict("self-stabilization").measured["quarantines"]
                      for r in corrupted_results)
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
                                     "byzantine_set": _byzantine_set(n, f, seed)},
                          script=script)
            results.append(harness.run(sc, keep_trace=False))
    return results


def test_criterion_7_amortized_bits(bits_results):
    bad = _collect(bits_results, "amortized-bits")
    c_bits = max(r.verdict("amortized-bits").measured["c_bits"]
                 for r in bits_results)
    c_infra = max(r.verdict("amortized-bits").measured["c_infra"]
                  for r in bits_results)
    windows = sum(r.verdict("amortized-bits").measured["windows"]
                  for r in bits_results)
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
    k1 = max(r.verdict("byzantine-clock-envelope").measured["K1"]
             for r in runs if r.verdict("byzantine-clock-envelope")
             .measured.get("pairs"))
    pairs = sum(r.verdict("byzantine-clock-envelope").measured.get("pairs", 0)
                for r in runs)
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
