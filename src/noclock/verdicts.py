"""Post-hoc trace evaluation: one checker per analysis property.

Evaluation is side-effect-free and re-runnable: the same trace yields the
same verdicts.  Each verdict carries measured constants and, on failure, a
pointer into the trace (the offending records).

`_Index` reads the trace once into one record per instance label, and
`evaluate` decides once which instances the per-instance suites judge.  On a
corrupted boot they judge only instances whose correct outputs exist and all
come at or after the horizon S = 10*(R*d + T) (`Params.judging_horizon`);
earlier instances may do anything.  Unfinished instances still active within
`Params.unfinished_tail` of the end of the run are not judged either.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import messages as msg
from .params import Params
from .protocols import replay
from .timebase import frac, mod_signed

CEILINGS = {"K1": 16, "K2": 8, "K3": 6, "K4": 10, "K5": 8,
            "dur_lo": 1, "dur_hi": 12, "c_bits": 64}
INFRA_KINDS = ("Update", "Init", "Echo")


@dataclass
class Verdict:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    counterexample: Optional[list] = None

    def __repr__(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"<{self.name}: {flag} {self.measured}>"


@dataclass(eq=False, slots=True)
class _Instance:
    """What the correct nodes recorded about one instance label."""
    init: Optional[tuple] = None     # (t, initiator) of the first init
    parts: Dict = field(default_factory=dict)     # node -> (t, conf, input, oracle)
    outs: Dict = field(default_factory=dict)      # node -> first (t, value, reason)
    received: Dict = field(default_factory=dict)  # node -> {round: vector}
    emitted: Dict = field(default_factory=dict)   # node -> {round: (t, vector)}
    echo_times: List = field(default_factory=list)
    round_payload: int = 0           # payload bits of the correct RoundMsg sends
    nonzero: bool = False            # some correct node joined with input != 0


class _Index:
    """Single-pass trace index: one `_Instance` per label, plus per-node data."""

    def __init__(self, trace, correct):
        cset = set(correct)
        self.instances = inst = defaultdict(_Instance)   # label -> _Instance
        self.sends: Dict = {}
        self.est: Dict = {}
        self.quarantines: List = []
        self.underflows: List = []
        self.suppressed: List = []
        for rec in trace:
            kind = rec[0]
            if kind == "send":
                _, t, sender, receiver, mkind, frame, payload, m = rec
                if sender in cset:
                    self.sends.setdefault(sender, []).append(
                        (t, mkind, frame + payload))
                    if mkind == "Echo":
                        inst[m.label].echo_times.append(t)
                    elif mkind == "RoundMsg" and payload:
                        inst[m.label].round_payload += payload
            elif kind == "participate":
                _, t, node, label, conf, input_bit, oracle_val = rec
                if node in cset:
                    inst[label].parts[node] = (t, conf, input_bit, oracle_val)
            elif kind == "output":
                _, t, node, label, value, reason = rec
                if node in cset:
                    inst[label].outs.setdefault(node, (t, value, reason))
            elif kind == "rrcv":
                _, t, node, label, rnd, vec = rec
                if node in cset:
                    inst[label].received.setdefault(node, {})[rnd] = vec
            elif kind == "remit":
                _, t, node, label, rnd, vec = rec
                if node in cset:
                    inst[label].emitted.setdefault(node, {})[rnd] = (t, vec)
            elif kind == "init":
                _, t, node, label = rec
                if node in cset and inst[label].init is None:
                    inst[label].init = (t, node)
            elif kind == "est":
                _, t, node, ests = rec
                if node in cset:
                    self.est.setdefault(node, []).append((t, ests))
            elif kind == "quarantine":
                self.quarantines.append(rec)
            elif kind == "gate_underflow":
                self.underflows.append(rec)
            elif kind == "suppressed":
                self.suppressed.append(rec)
        for rec in self.instances.values():
            rec.nonzero = any(part[2] != 0 for part in rec.parts.values())


def evaluate(trace, sc, p: Params, clocks, correct, proto_factory) -> List[Verdict]:
    ix = _Index(trace, correct)
    duration = frac(sc.duration)
    corrupted = sc.corruption.get("kind", "none") != "none"
    cutoff = p.judging_horizon if corrupted else Fraction(0)
    tail = p.grid.from_units(p.unfinished_tail)
    judged = []   # (label, record) of every instance the suites judge
    for label, rec in sorted(ix.instances.items()):
        parts, outs = rec.parts, rec.outs
        if rec.init is None and not parts:
            continue   # no correct node initiated or joined it
        if cutoff > 0:
            if not outs or min(t for t, _, _ in outs.values()) < cutoff:
                continue   # pre-stabilization instance
        if not parts or any(node not in outs for node in parts):
            acts = [t for t, *_ in parts.values()]
            acts += [t for t, _, _ in outs.values()]
            if rec.init is not None:
                acts.append(rec.init[0])
            for node in parts:
                acts += [t for t, _ in rec.emitted.get(node, {}).values()]
            if acts and duration - max(acts) <= tail:
                continue   # still running into the end of the trace
        judged.append((label, rec))
    verdicts = [
        _replay_suite(judged, p, proto_factory()),
        _agreement_suite(judged, correct),
        _timing_suite(judged, p, correct),
        _silence_suite(judged),
        _estimates_suite(ix, p, clocks, correct),
        _bits_suite(ix, p, correct, cutoff, duration),
        _envelope_suite(ix, p, correct, cutoff),
        _rarity_suite(ix, p, cutoff),
    ]
    if corrupted:
        verdicts.append(_stabilization_suite(ix, judged, cutoff, verdicts))
    else:
        verdicts.append(_hygiene_suite(ix))
    return verdicts


def _replay_suite(judged, p, proto) -> Verdict:
    bad = []
    checked = 0
    for label, rec in judged:
        if not rec.nonzero:
            continue
        parts = rec.parts
        for node, (t, conf, input_bit, _oracle) in sorted(parts.items()):
            out = rec.outs.get(node)
            if out is None:
                bad.append(("unterminated", label, node))
                continue
            t_out, value, reason = out
            if reason != "ok":
                bad.append(("forced_termination", label, node, reason))
                continue
            rounds_seen = rec.received.get(node, {})
            received = []
            for i in range(1, p.rounds + 1):
                if i not in rounds_seen:
                    received = None
                    bad.append(("missing_round_record", label, node, i))
                    break
                received.append(rounds_seen[i])
            if received is None:
                continue
            got = replay(proto, node, input_bit, received)
            checked += 1
            if got != value:
                bad.append(("replay_mismatch", label, node, got, value))
        # Cross-node coherence: what a node consumed must be what the correct
        # sender (itself included) emitted for it in that round, or nothing.
        for v in sorted(parts):
            for i, vec in rec.received.get(v, {}).items():
                for u in sorted(parts):
                    sent = rec.emitted.get(u, {}).get(i)
                    expect = sent[1][v] if sent is not None else None
                    if vec[u] != expect:
                        bad.append(("incoherent", label, v, u, i, vec[u], expect))
    return Verdict("oracle-equivalence", not bad,
                   {"instances_replayed": checked, "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _agreement_suite(judged, correct) -> Verdict:
    bad = []
    checked = nonzero = 0
    call = set(correct)
    for label, rec in judged:
        parts, outs = rec.parts, rec.outs
        if not parts:
            continue
        checked += 1
        vals = {}
        for node in parts:
            if node not in outs:
                bad.append(("unterminated", label, node))
            else:
                vals[node] = outs[node][1]
        if not vals:
            continue
        distinct = set(vals.values())
        if len(distinct) > 1:
            bad.append(("agreement", label, sorted(vals.items())))
        inputs = {part[2] for part in parts.values()}
        if set(parts) == call and len(inputs) == 1:
            b = inputs.pop()
            if distinct != {b}:
                bad.append(("validity", label, b, sorted(distinct)))
        out_val = max(distinct) if distinct else 0
        if out_val != 0:
            nonzero += 1
            if set(parts) != call:
                bad.append(("safety_participation", label, sorted(parts)))
            if not any(part[3] == out_val for part in parts.values()):
                bad.append(("safety_input_origin", label, out_val))
    return Verdict("agreement-validity-safety", not bad,
                   {"instances": checked, "nonzero_outputs": nonzero,
                    "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _timing_suite(judged, p, correct) -> Verdict:
    bad = []
    d = p.d
    # The initiation machinery paces at d_clk (= d unless the reduced-update-
    # frequency knob stretches it); the round runner always paces at d.
    dc = p.d_clk
    dur_cap = CEILINGS["dur_hi"] * p.rounds + 22 * p.theta * (dc - d) / d
    k2 = k3 = k4 = k5 = Fraction(0)
    dur_lo = None
    dur_hi = Fraction(0)
    call = set(correct)
    for label, rec in judged:
        parts = rec.parts
        everyone = set(parts) == call
        if rec.nonzero:
            if everyone:
                ts = [part[0] for part in parts.values()]
                k4 = max(k4, (max(ts) - min(ts)) / dc)
            else:
                bad.append(("join_missing", label, sorted(parts)))
        if rec.init is None:
            continue
        if not everyone:
            bad.append(("missing_participant", label, sorted(parts)))
            continue
        t0 = rec.init[0]
        for node, (t, conf, input_bit, oracle_val) in parts.items():
            dt = (t - t0) / dc
            k2 = max(k2, dt)
            if t - t0 < 2 * d:
                bad.append(("too_early", label, node, float(dt)))
            if conf != 2:
                bad.append(("confidence", label, node, conf))
            if input_bit != oracle_val:
                bad.append(("input_not_oracle", label, node))
        if set(rec.outs) == call:
            times = [t for t, _, _ in rec.outs.values()]
            k5 = max(k5, (max(times) - min(times)) / d)
            dur = (max(times) - t0) / d
            dur_hi = max(dur_hi, dur)
            dur_lo = dur if dur_lo is None else min(dur_lo, dur)
        if rec.echo_times:
            k3 = max(k3, (max(rec.echo_times) - min(rec.echo_times)) / dc)
    lo_ok = dur_lo is None or dur_lo >= CEILINGS["dur_lo"] * p.rounds
    hi_ok = dur_hi <= dur_cap
    passed = (not bad and k2 <= CEILINGS["K2"] and k3 <= CEILINGS["K3"]
              and k4 <= CEILINGS["K4"] and k5 <= CEILINGS["K5"]
              and lo_ok and hi_ok)
    return Verdict("timing-windows", passed,
                   {"K2": float(k2), "K3": float(k3), "K4": float(k4),
                    "K5": float(k5),
                    "dur_lo_rounds": None if dur_lo is None else float(dur_lo / p.rounds),
                    "dur_hi_rounds": float(dur_hi / p.rounds),
                    "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _silence_suite(judged) -> Verdict:
    bad = []
    checked = 0
    for label, rec in judged:
        if not rec.parts or rec.nonzero:
            continue
        checked += 1
        if rec.round_payload:
            bad.append(("payload_bits", label, rec.round_payload))
        for node, (t, value, reason) in rec.outs.items():
            if value != 0:
                bad.append(("nonzero_output", label, node, value))
    return Verdict("silence", not bad,
                   {"silent_instances": checked, "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _estimates_suite(ix, p, clocks, correct) -> Verdict:
    grid = p.grid
    mod = p.clock_modulus
    low = grid.ceil_units(3 * p.theta * p.d_clk) + grid.q_units
    t0 = Fraction(0)
    samples = tail = 0
    worst = None
    for v in correct:
        for t, ests in ix.est.get(v, []):
            for w in correct:
                if w == v:
                    continue
                samples += 1
                val = ests[w]
                if val is None:
                    t0 = max(t0, t)
                    worst = ("bot", t, v, w)
                    continue
                true_units = grid.floor_units(clocks[w].value(t))
                diff = mod_signed(val - true_units % mod, mod)
                if not (-low <= diff <= 0):
                    t0 = max(t0, t)
                    worst = ("band", t, v, w, diff)
    for v in correct:
        tail += sum(1 for t, _ in ix.est.get(v, []) if t > t0)
    bound = 3 * (grid.from_units(p.trust_regain) + p.d)
    # A passing tail is required so an unstabilized run cannot pass vacuously.
    passed = t0 <= bound and samples > 0 and tail >= 2 * max(1, len(correct))
    return Verdict("clock-estimate-accuracy", passed,
                   {"t0": float(t0), "t0_bound": float(bound),
                    "samples": samples, "tail_samples": tail},
                   counterexample=[worst] if worst and not passed else None)


def _window_bits(sends, start, window, count) -> List[List[int]]:
    """[infra, instance] bit totals of one node's time-ordered (t, kind, bits)
    sends in the windows [start + k*window, start + (k+1)*window), k < count.
    """
    totals = [[0, 0] for _ in range(count)]
    k, edge = -1, start
    for t, kind, bits in sends:
        while t >= edge:
            k += 1
            if k == count:
                return totals
            edge += window
        if k >= 0:
            totals[k][kind not in INFRA_KINDS] += bits
    return totals


def _bits_suite(ix, p, correct, cutoff, duration) -> Verdict:
    from math import log2
    window = 10 * p.T
    denom_all = (p.n ** 2 * max(1.0, log2(p.n))
                 + p.n * p.bit_bound * p.rounds / float(p.T))
    denom_infra = p.n ** 2 * max(1.0, log2(p.n))
    c_all = c_infra = 0.0
    windows = max(0, int((duration - cutoff) / window))
    for node in correct:
        for infra, inst in _window_bits(ix.sends.get(node, []), cutoff,
                                        window, windows):
            c_all = max(c_all, (infra + inst) / float(window) / denom_all)
            c_infra = max(c_infra, infra / float(window) / denom_infra)
    passed = windows == 0 or (c_all <= CEILINGS["c_bits"]
                              and c_infra <= CEILINGS["c_bits"])
    return Verdict("amortized-bits", passed,
                   {"c_bits": round(c_all, 3), "c_infra": round(c_infra, 3),
                    "windows": windows})


def _envelope_suite(ix, p, correct, cutoff) -> Verdict:
    """K1 over every pair of estimates of one byzantine clock, by any correct
    nodes, taken at most `cap` apart.

    One pass over each time-ordered series unwrapped off the clock circle:
    for a pair a <= b, diff - rate_hi*dt = x_b - x_a with x = e - rate_hi*t,
    and rate_lo*dt - diff = y_b - y_a with y = rate_lo*t - e, so a monotone
    min-queue of each over the window gives the worst pair ending at b.
    Unwrapping is exact unless some pair within `cap` differs by a quarter of
    the modulus, which fails the check either way.  Float arithmetic is ample
    for a <= 16 check.
    """
    cset = set(correct)
    byz = [u for u in range(p.n) if u not in cset]
    if not byz:
        return Verdict("byzantine-clock-envelope", True, {"pairs": 0})
    grid, mod = p.grid, p.clock_modulus
    theta, d = float(p.theta), float(p.d)
    unit = float(grid.unit)
    horizon = float(cutoff)
    cap = float(grid.from_units(p.trust_regain)) / theta - (2 * theta + 1) * d
    rate_hi, rate_lo = 2 * theta, 2 / (2 * theta + 3)
    k1 = 0.0
    pairs = 0
    for u in byz:
        series = sorted((float(t), v, ests[u]) for v in correct
                        for t, ests in ix.est.get(v, [])
                        if ests[u] is not None and t >= horizon)
        queues = (deque(), deque())   # (index, key), keys increasing
        lo = 0
        e = series[0][2] if series else 0
        for b, (t, _, e_b) in enumerate(series):
            e += mod_signed(e_b - e, mod)   # unwrapped estimate
            while t - series[lo][0] > cap:
                lo += 1
            pairs += b - lo + 1
            for q, key in zip(queues, (e * unit - rate_hi * t,
                                       rate_lo * t - e * unit)):
                while q and q[-1][1] >= key:
                    q.pop()
                q.append((b, key))
                while q[0][0] < lo:
                    q.popleft()
                k1 = max(k1, (key - q[0][1]) / d)
    passed = pairs == 0 or k1 <= CEILINGS["K1"]
    return Verdict("byzantine-clock-envelope", passed,
                   {"K1": round(k1, 4), "pairs": pairs})


def _rarity_suite(ix, p, cutoff) -> Verdict:
    """Per initiator, nonzero-input instances are at least one window apart."""
    window = p.grid.from_units(p.overload_window) / p.theta
    firsts: Dict[int, list] = {}
    for label, rec in ix.instances.items():
        if rec.nonzero:
            first = min(part[0] for part in rec.parts.values())
            if first >= cutoff:
                firsts.setdefault(label[0], []).append(first)
    bad = []
    for initiator, times in sorted(firsts.items()):
        times.sort()
        for a, b in zip(times, times[1:]):
            if b - a < window:
                bad.append(("crowded", initiator, float(a), float(b)))
    return Verdict("nontrivial-instance-rarity", not bad,
                   {"initiators": len(firsts), "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _hygiene_suite(ix) -> Verdict:
    bad = []
    if ix.quarantines:
        bad.append(("quarantine_on_clean_boot", len(ix.quarantines)))
    if ix.underflows:
        bad.append(("gate_underflow_on_clean_boot", len(ix.underflows)))
    if ix.suppressed:
        bad.append(("suppressed_sends_on_clean_boot", len(ix.suppressed)))
    return Verdict("non-interference", not bad,
                   {"violations": len(bad)}, counterexample=bad or None)


def _stabilization_suite(ix, judged, cutoff, suite_verdicts) -> Verdict:
    post = sum(1 for _, rec in judged if rec.parts)
    per_instance = {v.name: v.passed for v in suite_verdicts
                    if v.name in ("oracle-equivalence",
                                  "agreement-validity-safety",
                                  "timing-windows", "silence")}
    ok = all(per_instance.values())
    # A node must quarantine at most once per run (post-wipe re-detection is
    # unreachable) and fabricated gates may never admit an underflow join.
    nodes_q = [rec[2] for rec in ix.quarantines]
    repeat = len(nodes_q) != len(set(nodes_q))
    passed = ok and post > 0 and not repeat
    return Verdict("self-stabilization", passed,
                   {"post_horizon_instances": post,
                    "cutoff": float(cutoff),
                    "quarantines": len(nodes_q),
                    "repeat_quarantine": repeat})


def bit_windows(trace, sc, p: Params, correct, metrics) -> List[dict]:
    """Per-node, per-window bit totals for the metrics export."""
    window = 10 * p.T
    count = max(1, int(frac(sc.duration) / window))
    sends = _Index(trace, correct).sends
    by_node = {m["node"]: m for m in metrics}
    rows = []
    for v in correct:
        totals = _window_bits(sends.get(v, []), Fraction(0), window, count)
        for k, (infra, inst) in enumerate(totals):
            rows.append({"node": v, "window": k, "infra_bits": infra,
                         "instance_bits": inst,
                         "instances_joined": by_node[v]["instances_joined"],
                         "quarantines": by_node[v]["quarantines"]})
    return rows


# -- trace serialization -------------------------------------------------------


def trace_lines(trace) -> List[str]:
    """Flat log format: time | node | kind | payload-digest | bits."""
    lines = []
    for rec in trace:
        kind = rec[0]
        t = rec[1]
        node = rec[2] if len(rec) > 2 and isinstance(rec[2], int) else -1
        bits = 0
        if kind == "send":
            bits = rec[5] + rec[6]
        digest = hashlib.sha1(repr(rec[3:]).encode()).hexdigest()[:12]
        lines.append(f"{t} | {node} | {kind} | {digest} | {bits}")
    return lines


def _enc(obj):
    if isinstance(obj, Fraction):
        return {"_f": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, tuple):
        return {"_t": [_enc(x) for x in obj]}
    if isinstance(obj, list):
        return [_enc(x) for x in obj]
    if isinstance(obj, (msg.Update, msg.Init, msg.Echo, msg.RoundMsg, msg.Garbage)):
        return {"_m": type(obj).__name__,
                "v": _enc(tuple(getattr(obj, f) for f in obj.__dataclass_fields__))}
    return obj


def _dec(obj):
    if isinstance(obj, dict):
        if "_f" in obj:
            return Fraction(obj["_f"])
        if "_t" in obj:
            return tuple(_dec(x) for x in obj["_t"])
        if "_m" in obj:
            cls = getattr(msg, obj["_m"])
            return cls(*_dec(obj["v"]))
    if isinstance(obj, list):
        return [_dec(x) for x in obj]
    return obj


def trace_to_jsonl(trace) -> str:
    return "\n".join(json.dumps(_enc(tuple(rec))) for rec in trace) + "\n"


def trace_from_jsonl(text: str) -> list:
    return [_dec(json.loads(line)) for line in text.splitlines() if line.strip()]
