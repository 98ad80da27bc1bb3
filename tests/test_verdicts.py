"""The trace checkers must actually catch violations, not just pass clean runs.

Each test takes a known-good run, tampers with one aspect of its trace, and
expects the corresponding suite to fail.
"""

from dataclasses import replace
from fractions import Fraction
from math import log2

import pytest
from hypothesis import example, given, settings, strategies as st

from noclock import harness, verdicts
from noclock.scenario import Scenario
from noclock.timebase import mod_signed
from shapes import by_name, clean_scenario, rejudge


@pytest.fixture(scope="module")
def good_run():
    sc = clean_scenario()
    res = harness.run(sc)
    assert res.passed
    return sc, res


def test_flipped_output_breaks_agreement_and_replay(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace) if r[0] == "output")
    r = trace[idx]
    trace[idx] = (r[0], r[1], r[2], r[3], 1 - r[4], r[5])
    vds = rejudge(sc, res, trace)
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
    vds = rejudge(sc, res, trace)
    assert not by_name(vds, "oracle-equivalence").passed


@pytest.fixture(scope="module")
def repeated_run():
    """Three instances whose executions repeat: every node joins each with
    input 1 and hears the same vectors, so each node has one distinct
    execution."""
    sc = Scenario(n=4, f=1, theta="1.1", duration="110", seed=3,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [3]},
                  oracle={"kind": "const", "value": 1},
                  script=[{"t": str(t), "node": v, "action": "initiate"}
                          for t, v in [(8, 0), (30, 1), (52, 2)]])
    res = harness.run(sc)
    assert res.passed
    return sc, res


def test_replay_runs_once_per_distinct_execution(repeated_run, monkeypatch):
    sc, res = repeated_run
    calls = []
    real = verdicts.replay

    def counted(proto, index, input_bit, received):
        calls.append((index, input_bit, received))
        return real(proto, index, input_bit, received)
    monkeypatch.setattr(verdicts, "replay", counted)
    oracle = by_name(rejudge(sc, res, res.trace), "oracle-equivalence")
    assert oracle.passed and oracle.measured["instances_replayed"] == 9
    assert len(calls) == len(set(calls)) == 3


def last_judged_output(trace):
    """The index of the first output record of the instance judged last, so
    its execution repeats one replayed before it."""
    label = max(r[3] for r in trace if r[0] == "output")
    return next(i for i, r in enumerate(trace)
                if r[0] == "output" and r[3] == label)


def test_a_repeated_execution_with_a_flipped_output_still_mismatches(
        repeated_run):
    sc, res = repeated_run
    trace = list(res.trace)
    idx = last_judged_output(trace)
    r = trace[idx]
    trace[idx] = (r[0], r[1], r[2], r[3], 1 - r[4], r[5])
    untampered = by_name(res.verdicts, "oracle-equivalence")
    oracle = by_name(rejudge(sc, res, trace), "oracle-equivalence")
    assert not oracle.passed
    assert ("replay_mismatch", r[3], r[2], r[4], 1 - r[4]) in \
        oracle.counterexample
    assert oracle.measured["instances_replayed"] == \
        untampered.measured["instances_replayed"]


def test_a_repeated_execution_with_a_tampered_receipt_fails(repeated_run):
    sc, res = repeated_run
    trace = list(res.trace)
    out = trace[last_judged_output(trace)]
    idx = next(i for i, r in enumerate(trace)
               if r[0] == "rrcv" and r[2:5] == (out[2], out[3], 1))
    r = trace[idx]
    vec = list(r[5])
    vec[(r[2] + 1) % 3] = None
    trace[idx] = (r[0], r[1], r[2], r[3], r[4], tuple(vec))
    oracle = by_name(rejudge(sc, res, trace), "oracle-equivalence")
    assert not oracle.passed
    assert any(cex[1] == out[3] for cex in oracle.counterexample)


def per_triple_incoherence(judged):
    """The coherence check one (receiver, round, sender) triple at a time."""
    bad = []
    for label, rec in judged:
        if not rec.nonzero:
            continue
        for v in sorted(rec.parts):
            for i, vec in rec.received.get(v, {}).items():
                for u in sorted(rec.parts):
                    sent = rec.emitted.get(u, {}).get(i)
                    expect = sent[1][v] if sent is not None else None
                    if vec[u] != expect:
                        bad.append(("incoherent", label, v, u, i, vec[u],
                                    expect))
    return bad




def retold(trace, nodes, rounds, change):
    """`trace` with the remit records of `nodes` in `rounds` changed:
    `change` maps each to the records that replace it."""
    out = []
    for r in trace:
        hit = r[0] == "remit" and r[2] in nodes and r[4] in rounds
        out += change(r) if hit else [r]
    return out


def flipped(r):
    """The remit record `r` with every entry of its vector changed."""
    return [r[:5] + (tuple((9,) if x is None else None for x in r[5]),)]


# Remit records are what a correct node sent, which no replay reads, so
# each of these makes incoherence the only violation.
TAMPERS = {
    "one-entry": lambda trace: retold(trace, {0}, {2}, flipped),
    "two-senders": lambda trace: retold(trace, {0, 1}, {2, 3}, flipped),
    "every-round": lambda trace: retold(trace, {2}, range(99), flipped),
    "dropped-round": lambda trace: retold(trace, {1}, {3}, lambda r: []),
    "renamed-round": lambda trace: retold(trace, {0}, {3}, lambda r: [
        r[:4] + (99, r[5])]),
    "round-never-received": lambda trace: retold(trace, {0}, {1}, lambda r: [
        r, r[:4] + (99, r[5])]),
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_coherence_names_what_a_per_triple_check_names(repeated_run,
                                                        monkeypatch, tamper):
    sc, res = repeated_run
    judged = []
    real = verdicts._replay_suite

    def kept(js, p, proto):
        judged.extend(js)
        return real(js, p, proto)
    monkeypatch.setattr(verdicts, "_replay_suite", kept)
    trace = TAMPERS[tamper](res.trace)
    oracle = by_name(rejudge(sc, res, trace), "oracle-equivalence")
    want = per_triple_incoherence(judged)
    assert oracle.measured["violations"] == len(want)
    assert oracle.counterexample == (want[:12] or None)
    assert oracle.passed == (tamper == "round-never-received")
    assert len(want) > 12 or tamper != "every-round"


def test_missing_receipt_is_named_not_replayed(good_run):
    sc, res = good_run
    trace = list(res.trace)
    r = next(r for r in trace if r[0] == "rrcv" and r[4] == 4)
    trace.remove(r)
    oracle = by_name(rejudge(sc, res, trace), "oracle-equivalence")
    assert not oracle.passed
    assert ("missing_round_record", r[3], r[2], 4) in oracle.counterexample
    assert oracle.measured["instances_replayed"] == \
        by_name(res.verdicts, "oracle-equivalence").measured[
            "instances_replayed"] - 1


def test_missing_participant_breaks_timing(good_run):
    sc, res = good_run
    trace = [r for r in res.trace
             if not (r[0] == "participate" and r[2] == 1)]
    vds = rejudge(sc, res, trace)
    assert not by_name(vds, "timing-windows").passed


def test_init_without_any_participant_breaks_timing(good_run):
    # The init is well before the end of the run, so no correct node joining
    # it is a violation, not an instance still starting up.
    sc, res = good_run
    trace = [r for r in res.trace if r[0] != "participate"]
    vds = rejudge(sc, res, trace)
    assert not by_name(vds, "timing-windows").passed


def test_missing_output_is_unterminated(good_run):
    sc, res = good_run
    trace = [r for r in res.trace if not (r[0] == "output" and r[2] == 1)]
    vds = rejudge(sc, res, trace)
    assert not by_name(vds, "agreement-validity-safety").passed


def test_early_participation_flagged(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace) if r[0] == "participate")
    r = trace[idx]
    t0 = next(r2[1] for r2 in trace if r2[0] == "init")
    trace[idx] = (r[0], t0 + Fraction(1, 2), r[2], r[3], r[4], r[5], r[6])
    vds = rejudge(sc, res, trace)
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
    vds = rejudge(sc, res, trace)
    assert not by_name(vds, "silence").passed


def test_distrusted_estimate_moves_t0(good_run):
    sc, res = good_run
    trace = list(res.trace)
    idx = max(i for i, r in enumerate(trace) if r[0] == "est" and r[2] == 0)
    r = trace[idx]
    ests = list(r[3])
    ests[1] = None
    trace[idx] = (r[0], r[1], r[2], tuple(ests))
    vds = rejudge(sc, res, trace)
    v = by_name(vds, "clock-estimate-accuracy")
    assert v.measured["t0"] == float(r[1])
    assert not v.passed          # no passing tail after the last failure


def test_quarantine_record_breaks_clean_hygiene(good_run):
    sc, res = good_run
    trace = list(res.trace) + [("quarantine", Fraction(50), 0)]
    vds = rejudge(sc, res, trace)
    assert not by_name(vds, "non-interference").passed


def test_estimate_out_of_band_moves_t0_to_its_record(good_run):
    sc, res = good_run
    p = res.params
    trace = list(res.trace)
    idx = max(i for i, r in enumerate(trace) if r[0] == "est" and r[2] == 0)
    r = trace[idx]
    ests = list(r[3])
    ests[1] = (ests[1] + p.estimate_band + 1) % p.clock_modulus
    trace[idx] = (r[0], r[1], r[2], tuple(ests))
    v = by_name(rejudge(sc, res, trace), "clock-estimate-accuracy")
    assert not v.passed and v.measured["t0"] == float(r[1])
    assert v.counterexample[0][:4] == ("band", r[1], 0, 1)


def test_inflated_window_breaks_amortized_bits(good_run):
    sc, res = good_run
    p = res.params
    assert by_name(res.verdicts, "amortized-bits").measured["windows"] > 0
    trace = list(res.trace)
    idx = next(i for i, r in enumerate(trace) if r[0] == "send" and r[2] == 0
               and r[1] >= p.bits_window)
    r = trace[idx]
    frame = int(p.max_c_bits * float(p.bits_window) * p.bits_denom) + 1
    trace[idx] = r[:5] + (frame,) + r[6:]
    v = by_name(rejudge(sc, res, trace), "amortized-bits")
    assert not v.passed and v.measured["c_bits"] > p.max_c_bits


# -- one planted fault per violation kind ----------------------------------------


def with_field(trace, kind, pos, value, where=lambda r: True):
    """`trace` with field `pos` of each `kind` record `where` accepts set to
    `value`, and the first such record as it was."""
    hits = [i for i, r in enumerate(trace) if r[0] == kind and where(r)]
    assert hits
    out = list(trace)
    for i in hits:
        out[i] = trace[i][:pos] + (value,) + trace[i][pos + 1:]
    return out, trace[hits[0]]


def test_forced_termination_is_named_not_replayed(good_run):
    sc, res = good_run
    trace, r = with_field(res.trace, "output", 5, "stall",
                          lambda r: r[2] == 1)
    oracle = by_name(rejudge(sc, res, trace), "oracle-equivalence")
    assert not oracle.passed
    assert ("forced_termination", r[3], 1, "stall") in oracle.counterexample


def test_a_nonzero_output_no_oracle_gave_breaks_safety(good_run):
    sc, res = good_run
    trace, r = with_field(res.trace, "participate", 6, 0)
    v = by_name(rejudge(sc, res, trace), "agreement-validity-safety")
    assert not v.passed
    assert ("safety_input_origin", r[3], 1) in v.counterexample


def test_a_join_without_full_confidence_breaks_timing(good_run):
    sc, res = good_run
    trace, r = with_field(res.trace, "participate", 4, 1,
                          lambda r: r[2] == 1)
    v = by_name(rejudge(sc, res, trace), "timing-windows")
    assert not v.passed and v.counterexample == [("confidence", r[3], 1, 1)]


def test_an_input_other_than_the_oracle_breaks_timing(good_run):
    sc, res = good_run
    trace, r = with_field(res.trace, "participate", 5, 0,
                          lambda r: r[2] == 1)
    v = by_name(rejudge(sc, res, trace), "timing-windows")
    assert not v.passed
    assert v.counterexample == [("input_not_oracle", r[3], 1)]


def test_a_nonzero_output_of_a_silent_instance_breaks_silence():
    sc = clean_scenario(oracle={"kind": "const", "value": 0})
    res = harness.run(sc)
    assert res.passed
    trace, r = with_field(res.trace, "output", 4, 1, lambda r: r[2] == 1)
    v = by_name(rejudge(sc, res, trace), "silence")
    assert not v.passed
    assert v.counterexample == [("nonzero_output", r[3], 1, 1)]


def test_two_nonzero_instances_of_one_initiator_inside_the_window_crowd(
        good_run):
    # A second instance of initiator 0 whose joins come half a rarity
    # window after the first one's.
    sc, res = good_run
    later = res.params.rarity_window / 2
    joins = [r for r in res.trace if r[0] == "participate"]
    (label,) = {r[3] for r in joins}
    twin = (label[0], label[1] + 1)
    trace = list(res.trace) + [(r[0], r[1] + later, r[2], twin) + r[4:]
                               for r in joins]
    trace.sort(key=lambda r: r[1])
    v = by_name(rejudge(sc, res, trace), "nontrivial-instance-rarity")
    first = min(r[1] for r in joins)
    assert not v.passed
    assert v.counterexample == [("crowded", 0, float(first),
                                 float(first + later))]


# -- amortized-bits windows ------------------------------------------------------


class CountingFraction(Fraction):
    """A time that counts the order comparisons made on it."""
    compared = 0

    def _count(op):
        def compare(self, other):
            CountingFraction.compared += 1
            return op(self, other)
        return compare

    __lt__, __le__ = _count(Fraction.__lt__), _count(Fraction.__le__)
    __gt__, __ge__ = _count(Fraction.__gt__), _count(Fraction.__ge__)


def sends_at(times, kinds):
    return [("send", t, 0, 1, kind, 3 + i % 5, i % 3, None)
            for i, (t, kind) in enumerate(zip(times, kinds))]


def window_bits_reference(sends, start, window, count):
    """The per-record definition: record at t goes to window floor((t -
    start) / window) when that lies in [0, count)."""
    totals = [[0, 0] for _ in range(count)]
    for _, t, _, _, kind, frame, payload, _ in sends:
        if t >= start:
            k = (t - start) // window
            if k < count:
                totals[k][kind == "RoundMsg"] += frame + payload
    return totals


# Times, start and window on one grid of quarters, so window edges fall on
# record times; records lie before start and after the last window.
@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 80),
                                  st.sampled_from(["RoundMsg", "Update"])),
                        max_size=60).map(sorted),
       start=st.integers(0, 40), width=st.integers(1, 12),
       count=st.integers(0, 10))
@example(records=[], start=0, width=4, count=3)
@example(records=[(0, "Update"), (4, "RoundMsg"), (8, "Update")], start=4,
         width=4, count=0)
def test_window_bits_matches_the_per_record_reference(records, start, width,
                                                      count):
    sends = sends_at([CountingFraction(k, 4) for k, _ in records],
                     [kind for _, kind in records])
    start, window = Fraction(start, 4), Fraction(width, 4)
    CountingFraction.compared = 0
    got = verdicts._window_bits(sends, start, window, count)
    # count + 1 bisections of at most bit_length(N) comparisons each, and
    # none at all for no window.
    searches = count + 1 if count else 0
    assert CountingFraction.compared <= searches * len(sends).bit_length()
    assert got == window_bits_reference(sends, start, window, count)


@pytest.mark.parametrize("start, count", [(Fraction(0), 16),
                                          (Fraction(671, 5), 93)])
def test_window_bits_compares_per_window_not_per_record(start, count):
    # Run-sized: 12,000 sends over 2,400 d in windows of 121/5 d.
    n = 12_000
    times = [CountingFraction(2400 * k, n) for k in range(n)]
    sends = sends_at(times, ["Update", "RoundMsg", "Echo"] * (n // 3))
    window = Fraction(121, 5)
    CountingFraction.compared = 0
    got = verdicts._window_bits(sends, start, window, count)
    assert CountingFraction.compared <= count * (log2(n) + 2)
    assert got == window_bits_reference(sends, start, window, count)


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
    v = by_name(res.verdicts, "byzantine-clock-envelope")
    k1, pairs = envelope_reference(res)
    assert v.passed and v.measured["pairs"] == pairs > 0
    lengths = [len(byzantine_series(res, u)) for u in res.byzantine]
    every_pair = sum(k * (k + 1) // 2 for k in lengths)
    assert (pairs < every_pair) == (duration == "1000")
    # Same pairs, float sums taken in another order: equal to the rounding.
    assert v.measured["K1"] == pytest.approx(k1, abs=1e-4)


@pytest.fixture(scope="module")
def long_skew_run():
    return clock_skew_run(4, "alternating", duration="1000")


@pytest.mark.parametrize("sign", [1, -1], ids=["ahead", "behind"])
def test_envelope_matches_the_reference_when_a_queue_head_expires(
        long_skew_run, sign):
    # An early estimate runs so far ahead of (or behind) its clock that every
    # later key of one min-queue stays above its own for more than `cap`, so
    # it heads that queue until it leaves the window; the last estimate then
    # falls as far the other way, which only a pair with the expired head
    # would make worse than every pair in the window.
    sc, res = long_skew_run
    p = res.params
    u = res.byzantine[0]
    series = byzantine_series(res, u)
    first, last = series[len(series) // 20], series[-1]
    assert first[0] + p.envelope_cap < last[0]
    spread = p.envelope_rate_hi - p.envelope_rate_lo
    jump = int(spread * p.envelope_cap / float(p.grid.unit)) + 1
    trace = list(res.trace)
    for (t, node, e), shift in ((first, sign * jump), (last, -sign * jump)):
        idx = next(i for i, r in enumerate(trace)
                   if r[0] == "est" and r[2] == node and float(r[1]) == t)
        r = trace[idx]
        ests = list(r[3])
        ests[u] = (e + shift) % p.clock_modulus
        trace[idx] = (r[0], r[1], r[2], tuple(ests))
    v = by_name(rejudge(sc, res, trace), "byzantine-clock-envelope")
    k1, pairs = envelope_reference(replace(res, trace=trace))
    assert not v.passed and v.measured["pairs"] == pairs
    assert v.measured["K1"] == pytest.approx(k1, abs=1e-4)


def test_envelope_catches_one_estimate_between_thinned_samples():
    # Over 220 d each byzantine series holds more than 420 samples, so a
    # 420-point thinning keeps every second one; the planted estimate sits at
    # an odd sorted position.
    sc, res = clock_skew_run(7, "alternating", duration="220")
    assert by_name(res.verdicts, "byzantine-clock-envelope").passed
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
    v = by_name(rejudge(sc, res, trace), "byzantine-clock-envelope")
    assert not v.passed and v.measured["K1"] > max(30, p.max_k1)


# -- judging scope ----------------------------------------------------------------


def test_corrupted_boot_suites_judge_one_scope():
    sc = Scenario(n=4, f=1, theta="1.1", duration="1100", seed=0,
                  adversary={"byzantine": "silent", "delays": "uniform",
                             "byzantine_set": [2]},
                  corruption={"kind": "random"},
                  script=[{"t": "1000", "node": 0, "action": "initiate"},
                          {"t": "1004", "node": 1, "action": "initiate"}])
    res = harness.run(sc)
    stab = by_name(res.verdicts, "self-stabilization").measured
    judged = by_name(res.verdicts,
                     "agreement-validity-safety").measured["instances"]
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
    assert by_name(rejudge(sc, res, res.trace), "self-stabilization").passed
    monkeypatch.setattr(verdicts, "_silence_suite",
                        lambda judged: verdicts.Verdict("quiet", False))
    vds = rejudge(sc, res, res.trace)
    assert not by_name(vds, "self-stabilization").passed
