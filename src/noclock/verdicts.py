"""Post-hoc trace evaluation: one checker per analysis property.

Evaluation is side-effect-free and re-runnable: the same trace yields the
same verdicts.  Each verdict carries measured constants and, on failure, a
pointer into the trace (the offending records).

For corrupted-boot scenarios every per-instance suite is scoped to instances
whose correct terminations all happen after the stabilization horizon
S = 10*(R + T)*d; earlier instances may do anything.
"""

from __future__ import annotations

import hashlib
import json
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
    detail: str = ""
    counterexample: Optional[list] = None

    def __repr__(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"<{self.name}: {flag} {self.measured} {self.detail}>"


class _Index:
    """Single-pass trace index."""

    def __init__(self, trace, correct):
        cset = set(correct)
        self.participates: Dict = {}
        self.outputs: Dict = {}
        self.rrcv: Dict = {}
        self.remit: Dict = {}
        self.inits: Dict = {}
        self.echo_sends: Dict = {}
        self.sends: Dict = {}
        self.round_payload: Dict = {}
        self.est: Dict = {}
        self.quarantines: List = []
        self.underflows: List = []
        self.suppressed: List = []
        self.gc_instances: List = []
        for rec in trace:
            kind = rec[0]
            if kind == "send":
                _, t, sender, receiver, mkind, frame, payload, m = rec
                if sender in cset:
                    self.sends.setdefault(sender, []).append(
                        (t, mkind, frame + payload))
                    if mkind == "Echo":
                        self.echo_sends.setdefault(m.label, []).append((t, sender))
                    elif mkind == "RoundMsg" and payload:
                        self.round_payload[m.label] = \
                            self.round_payload.get(m.label, 0) + payload
            elif kind == "participate":
                _, t, node, label, conf, input_bit, oracle_val = rec
                if node in cset:
                    self.participates.setdefault(label, {})[node] = \
                        (t, conf, input_bit, oracle_val)
            elif kind == "output":
                _, t, node, label, value, reason = rec
                if node in cset:
                    self.outputs.setdefault(label, {}).setdefault(
                        node, (t, value, reason))
            elif kind == "rrcv":
                _, t, node, label, rnd, vec = rec
                if node in cset:
                    self.rrcv.setdefault((label, node), {})[rnd] = vec
            elif kind == "remit":
                _, t, node, label, rnd, vec = rec
                if node in cset:
                    self.remit.setdefault((label, node), {})[rnd] = (t, vec)
            elif kind == "init":
                _, t, node, label = rec
                if node in cset:
                    self.inits.setdefault(label, (t, node))
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
            elif kind == "gc_instance":
                self.gc_instances.append(rec)


def evaluate(trace, sc, p: Params, clocks, correct, proto_factory) -> List[Verdict]:
    ix = _Index(trace, correct)
    duration = frac(sc.duration)
    corrupted = sc.corruption.get("kind", "none") != "none"
    cutoff = 10 * (p.rounds * p.d + p.T) if corrupted else Fraction(0)
    # An instance without progress terminates within the stall window plus a
    # couple of sweep ticks, so only instances still active that close to the
    # end of the run may legitimately lack outputs.
    tail = p.grid.from_units(p.stall_after + 5 * p.update_period)

    def eligible(label) -> bool:
        """Scope per-instance suites to instances this run can judge."""
        parts = ix.participates.get(label, {})
        outs = ix.outputs.get(label, {})
        if cutoff > 0:
            term_times = [t for t, _, _ in outs.values()]
            if not term_times or min(term_times) < cutoff:
                return False   # pre-stabilization instance
        if not parts or any(node not in outs for node in parts):
            # Unfinished, or not joined by any correct node yet.
            acts = [t for t, *_ in parts.values()]
            acts += [t for t, _, _ in outs.values()]
            if label in ix.inits:
                acts.append(ix.inits[label][0])
            for node in parts:
                acts += [t for t, _ in
                         ix.remit.get((label, node), {}).values()]
            if acts and duration - max(acts) <= tail:
                return False   # still running into the end of the trace
        return True

    verdicts = [
        _replay_suite(ix, p, proto_factory(), eligible),
        _agreement_suite(ix, correct, eligible),
        _timing_suite(ix, p, correct, eligible),
        _silence_suite(ix, correct, eligible),
        _estimates_suite(ix, p, clocks, correct),
        _bits_suite(ix, p, correct, cutoff, duration),
        _envelope_suite(ix, p, correct, cutoff),
        _rarity_suite(ix, p, correct, cutoff),
    ]
    if corrupted:
        verdicts.append(_stabilization_suite(ix, correct, eligible, cutoff,
                                             verdicts))
    else:
        verdicts.append(_hygiene_suite(ix))
    return verdicts


def _nonzero_labels(ix):
    out = []
    for label, parts in ix.participates.items():
        if any(rec[2] != 0 for rec in parts.values()):
            out.append(label)
    return out


def _replay_suite(ix, p, proto, eligible) -> Verdict:
    bad = []
    checked = 0
    for label in _nonzero_labels(ix):
        if not eligible(label):
            continue
        parts = ix.participates[label]
        outs = ix.outputs.get(label, {})
        for node, (t, conf, input_bit, _oracle) in sorted(parts.items()):
            out = outs.get(node)
            if out is None:
                bad.append(("unterminated", label, node))
                continue
            t_out, value, reason = out
            if reason != "ok":
                bad.append(("forced_termination", label, node, reason))
                continue
            rounds_seen = ix.rrcv.get((label, node), {})
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
            mine = ix.rrcv.get((label, v), {})
            for i, vec in mine.items():
                for u in sorted(parts):
                    sent = ix.remit.get((label, u), {}).get(i)
                    expect = sent[1][v] if sent is not None else None
                    if vec[u] != expect:
                        bad.append(("incoherent", label, v, u, i, vec[u], expect))
    return Verdict("oracle-equivalence", not bad,
                   {"instances_replayed": checked, "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _agreement_suite(ix, correct, eligible) -> Verdict:
    bad = []
    checked = nonzero = 0
    call = set(correct)
    for label, parts in sorted(ix.participates.items()):
        if not parts or not eligible(label):
            continue
        checked += 1
        outs = ix.outputs.get(label, {})
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
        inputs = {rec[2] for rec in parts.values()}
        if set(parts) == call and len(inputs) == 1:
            b = inputs.pop()
            if distinct != {b}:
                bad.append(("validity", label, b, sorted(distinct)))
        out_val = max(distinct) if distinct else 0
        if out_val != 0:
            nonzero += 1
            if set(parts) != call:
                bad.append(("safety_participation", label, sorted(parts)))
            if not any(rec[3] == out_val for rec in parts.values()):
                bad.append(("safety_input_origin", label, out_val))
    return Verdict("agreement-validity-safety", not bad,
                   {"instances": checked, "nonzero_outputs": nonzero,
                    "violations": len(bad)},
                   counterexample=bad[:12] or None)


def _timing_suite(ix, p, correct, eligible) -> Verdict:
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
    for label, (t0, initiator) in sorted(ix.inits.items()):
        if initiator not in call or not eligible(label):
            continue
        parts = ix.participates.get(label, {})
        if set(parts) != call:
            bad.append(("missing_participant", label, sorted(parts)))
            continue
        for node, (t, conf, input_bit, oracle_val) in parts.items():
            dt = (t - t0) / dc
            k2 = max(k2, dt)
            if t - t0 < 2 * d:
                bad.append(("too_early", label, node, float(dt)))
            if conf != 2:
                bad.append(("confidence", label, node, conf))
            if input_bit != oracle_val:
                bad.append(("input_not_oracle", label, node))
        outs = ix.outputs.get(label, {})
        if set(outs) == call:
            times = [t for t, _, _ in outs.values()]
            k5 = max(k5, (max(times) - min(times)) / d)
            dur = (max(times) - t0) / d
            dur_hi = max(dur_hi, dur)
            dur_lo = dur if dur_lo is None else min(dur_lo, dur)
        echoes = ix.echo_sends.get(label, [])
        if echoes:
            ts = [t for t, _ in echoes]
            k3 = max(k3, (max(ts) - min(ts)) / dc)
    for label in _nonzero_labels(ix):
        if not eligible(label):
            continue
        parts = ix.participates[label]
        if set(parts) != call:
            bad.append(("join_missing", label, sorted(parts)))
            continue
        ts = [rec[0] for rec in parts.values()]
        k4 = max(k4, (max(ts) - min(ts)) / dc)
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


def _silence_suite(ix, correct, eligible) -> Verdict:
    bad = []
    checked = 0
    for label, parts in sorted(ix.participates.items()):
        if not parts or not eligible(label):
            continue
        if any(rec[2] != 0 for rec in parts.values()):
            continue
        checked += 1
        leaked = ix.round_payload.get(label, 0)
        if leaked:
            bad.append(("payload_bits", label, leaked))
        for node, (t, value, reason) in ix.outputs.get(label, {}).items():
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
    """Measured envelope constant; float arithmetic is ample for a <= 16 check."""
    byz = [u for u in range(p.n) if u not in set(correct)]
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
        series = []
        for v in correct:
            for t, ests in ix.est.get(v, []):
                if ests[u] is not None and t >= horizon:
                    series.append((float(t), v, ests[u]))
        series.sort()
        if len(series) > 420:
            series = series[:: len(series) // 420 + 1]
        for a in range(len(series)):
            t_v, _, e_v = series[a]
            for b in range(a, len(series)):
                t_w, _, e_w = series[b]
                dt = t_w - t_v
                if dt > cap:
                    break
                pairs += 1
                diff = mod_signed(e_w - e_v, mod) * unit
                k1 = max(k1, (diff - rate_hi * dt) / d,
                         (rate_lo * dt - diff) / d)
    passed = pairs == 0 or k1 <= CEILINGS["K1"]
    return Verdict("byzantine-clock-envelope", passed,
                   {"K1": round(k1, 4), "pairs": pairs})


def _rarity_suite(ix, p, correct, cutoff) -> Verdict:
    """Per initiator, nonzero-input instances are at least one window apart."""
    window = p.grid.from_units(p.overload_window) / p.theta
    firsts: Dict[int, list] = {}
    for label in _nonzero_labels(ix):
        times = [t for t, *_ in ix.participates[label].values()]
        if min(times) >= cutoff:
            firsts.setdefault(label[0], []).append(min(times))
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


def _stabilization_suite(ix, correct, eligible, cutoff, suite_verdicts) -> Verdict:
    post = [label for label, parts in ix.participates.items()
            if parts and eligible(label)]
    per_instance = {v.name: v.passed for v in suite_verdicts
                    if v.name in ("oracle-equivalence",
                                  "agreement-validity-safety",
                                  "timing-windows", "silence")}
    ok = all(per_instance.values())
    # A node must quarantine at most once per run (post-wipe re-detection is
    # unreachable) and fabricated gates may never admit an underflow join.
    nodes_q = [rec[2] for rec in ix.quarantines]
    repeat = len(nodes_q) != len(set(nodes_q))
    passed = ok and bool(post) and not repeat
    return Verdict("self-stabilization", passed,
                   {"post_horizon_instances": len(post),
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
