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
Every limit and window a verdict applies is a `Params` field; the suites only
measure and compare.

Cost model: one index pass does a few cheap operations per record and no
exact-time arithmetic; it keeps the `send` and `est` records in trace order,
which is time order.  After it, exact times are compared per window (a
bisection for each edge of an amortized-bits window), per instance (the
timing constants, each divided by its pace once) and per sample (one integer
clock reading per estimate, each clock's cursor walking forward, and one
float time per envelope sample).  The oracle-equivalence suite runs the
plugin once per distinct execution, not once per judged one: executions with
equal (node, input bit, received tuples) share one replay within an
`evaluate` call, and a run that starts many instances from the same inputs
repeats few distinct ones.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional

from . import messages as msg
from .adversary import clean_boot
from .kernel import collector_paused
from .params import Params
from .protocols import replay
from .timebase import frac, mod_signed

_TIME = itemgetter(1)   # the time of a trace record


@dataclass(repr=False)
class Verdict:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    counterexample: Optional[list] = None

    def __repr__(self):
        """The verdict's one printed line, also its `str`."""
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}  {self.measured}"


def _verdict(name: str, bad: list, measured: dict,
             passed: bool = True) -> Verdict:
    """The verdict of a suite that collects violations: it passes iff
    `passed` and `bad` is empty, counts them last in `measured` and shows
    the first 12."""
    measured["violations"] = len(bad)
    return Verdict(name, passed and not bad, measured,
                   counterexample=bad[:12] or None)


@dataclass(eq=False, slots=True)
class _Instance:
    """What the correct nodes recorded about one instance label."""
    init: Optional[Fraction] = None  # time of the first correct init
    parts: Dict = field(default_factory=dict)     # node -> (t, conf, input, oracle)
    outs: Dict = field(default_factory=dict)      # node -> first (t, value, reason)
    received: Dict = field(default_factory=dict)  # node -> {round: vector}
    emitted: Dict = field(default_factory=dict)   # node -> {round: (t, vector)}
    echoes: Optional[list] = None    # [first, last] time of the correct Echo sends
    round_payload: int = 0           # payload bits of the correct RoundMsg sends
    nonzero: bool = False            # some correct node joined with input != 0


class _Index:
    """Single-pass trace index: one `_Instance` per label, plus per-node data.

    The `send` test comes first and the `recv` test second: the two kinds
    make up nearly all of a trace, and no suite reads a `recv` record."""

    def __init__(self, trace, correct):
        cset = set(correct)
        self.instances = inst = defaultdict(_Instance)   # label -> _Instance
        self.sends = sends = {v: [] for v in correct}   # node -> its send records
        self.joins = Counter()        # correct node -> its participate records
        self.est: List = []           # the est records of correct nodes
        self.quarantines: List = []   # the node of each quarantine record
        self.underflows = 0           # gate_underflow records
        self.suppressed = 0           # suppressed records
        for rec in trace:
            kind = rec[0]
            if kind == "send":
                out = sends.get(rec[2])
                if out is not None:
                    out.append(rec)
                    mkind = rec[4]
                    if mkind == "Echo":
                        echo = inst[rec[7].label]
                        if echo.echoes is None:
                            echo.echoes = [rec[1], rec[1]]
                        else:
                            echo.echoes[1] = rec[1]
                    elif mkind == "RoundMsg" and rec[6]:
                        inst[rec[7].label].round_payload += rec[6]
            elif kind != "recv":
                if kind == "remit":
                    _, t, node, label, rnd, vec = rec
                    if node in cset:
                        inst[label].emitted.setdefault(node, {})[rnd] = (t, vec)
                elif kind == "rrcv":
                    _, t, node, label, rnd, vec = rec
                    if node in cset:
                        inst[label].received.setdefault(node, {})[rnd] = vec
                elif kind == "est":
                    if rec[2] in cset:
                        self.est.append(rec)
                elif kind == "participate":
                    _, t, node, label, conf, input_bit, oracle_val = rec
                    if node in cset:
                        inst[label].parts[node] = (t, conf, input_bit, oracle_val)
                        self.joins[node] += 1
                elif kind == "output":
                    _, t, node, label, value, reason = rec
                    if node in cset:
                        inst[label].outs.setdefault(node, (t, value, reason))
                elif kind == "init":
                    _, t, node, label = rec
                    if node in cset and inst[label].init is None:
                        inst[label].init = t
                elif kind == "quarantine":
                    self.quarantines.append(rec[2])
                elif kind == "gate_underflow":
                    self.underflows += 1
                elif kind == "suppressed":
                    self.suppressed += 1
        for rec in self.instances.values():
            rec.nonzero = any(part[2] != 0 for part in rec.parts.values())


def evaluate(trace, sc, p: Params, clocks, correct, proto_factory,
             ix: Optional[_Index] = None) -> List[Verdict]:
    """The verdicts on one run's trace; `clocks` are the run's
    `HardwareClock`s by node, the run's own or fresh ones.  `ix` is the
    trace's `_Index` over the same `correct`, if the caller already built
    it."""
    if ix is None:
        ix = _Index(trace, correct)
    duration = frac(sc.duration)
    corrupted = sc.lookup("corruption", "kind") is not clean_boot
    cutoff = p.judging_horizon if corrupted else Fraction(0)
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
                acts.append(rec.init)
            for node in parts:
                acts += [t for t, _ in rec.emitted.get(node, {}).values()]
            if acts and duration - max(acts) <= p.unfinished_tail:
                continue   # still running into the end of the trace
        judged.append((label, rec))
    per_instance = [
        _replay_suite(judged, p, proto_factory()),
        _agreement_suite(judged, correct),
        _timing_suite(judged, p, correct),
        _silence_suite(judged),
    ]
    verdicts = per_instance + [
        _estimates_suite(ix, p, clocks, correct),
        _bits_suite(ix, p, correct, cutoff, duration),
        _envelope_suite(ix, p, correct, cutoff),
        _rarity_suite(ix, p, cutoff),
    ]
    if corrupted:
        verdicts.append(_stabilization_suite(ix, judged, cutoff, per_instance))
    else:
        verdicts.append(_hygiene_suite(ix))
    return verdicts


def _replay_suite(judged, p, proto) -> Verdict:
    """Replay every judged execution of a correct node and compare outputs.
    The plugin is a pure state machine, so equal executions share one
    replay."""
    bad = []
    checked = 0
    rounds = range(1, p.rounds + 1)
    replayed = {}   # (node, input bit, received tuples) -> replayed output
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
            try:
                key = (node, input_bit, tuple([rounds_seen[i] for i in rounds]))
            except KeyError as missing:
                bad.append(("missing_round_record", label, node,
                            missing.args[0]))
                continue
            got = replayed.get(key)
            if got is None:
                got = replayed[key] = replay(proto, node, input_bit, key[2])
            checked += 1
            if got != value:
                bad.append(("replay_mismatch", label, node, got, value))
        # Cross-node coherence: what a node consumed must be what the correct
        # sender (itself included) emitted for it in that round, or nothing.
        # A receiver that got the rounds each sender emitted, and from each
        # sender its values over them, is coherent; any other is compared
        # round by round.
        nodes = sorted(parts)
        sent = [rec.emitted.get(u, {}) for u in nodes]
        # per sender: its rounds, and per receiver its values over them
        spans = [(tuple(e), list(zip(*[vec for _, vec in e.values()])))
                 for e in sent]
        for v in nodes:
            inbox = rec.received.get(v)
            if not inbox:
                continue
            heard, columns = tuple(inbox), list(zip(*inbox.values()))
            if all(r == heard and to[v] == columns[u]
                   for u, (r, to) in zip(nodes, spans)):
                continue
            for i, vec in inbox.items():
                for u, e in zip(nodes, sent):
                    s = e.get(i)
                    expect = s[1][v] if s is not None else None
                    if vec[u] != expect:
                        bad.append(("incoherent", label, v, u, i, vec[u],
                                    expect))
    return _verdict("oracle-equivalence", bad, {"instances_replayed": checked})


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
    return _verdict("agreement-validity-safety", bad,
                    {"instances": checked, "nonzero_outputs": nonzero})


def _timing_suite(judged, p, correct) -> Verdict:
    """Each K constant and duration is the widest raw time difference of its
    kind, divided by its pace once."""
    bad = []
    d = p.d
    # The initiation machinery paces at d_clk (= d unless the reduced-update-
    # frequency knob stretches it); the round runner always paces at d.
    dc = p.d_clk
    join_spread = join_lag = echo_spread = out_spread = dur_hi = Fraction(0)
    dur_lo = None
    call = set(correct)
    for label, rec in judged:
        parts = rec.parts
        everyone = set(parts) == call
        if rec.nonzero:
            if everyone:
                ts = [part[0] for part in parts.values()]
                join_spread = max(join_spread, max(ts) - min(ts))
            else:
                bad.append(("join_missing", label, sorted(parts)))
        if rec.init is None:
            continue
        if not everyone:
            bad.append(("missing_participant", label, sorted(parts)))
            continue
        t0 = rec.init
        for node, (t, conf, input_bit, oracle_val) in parts.items():
            lag = t - t0
            join_lag = max(join_lag, lag)
            if lag < p.min_join_delay:
                bad.append(("too_early", label, node, float(lag / dc)))
            if conf != 2:
                bad.append(("confidence", label, node, conf))
            if input_bit != oracle_val:
                bad.append(("input_not_oracle", label, node))
        if set(rec.outs) == call:
            times = [t for t, _, _ in rec.outs.values()]
            last = max(times)
            out_spread = max(out_spread, last - min(times))
            dur_hi = max(dur_hi, last - t0)
            dur_lo = last - t0 if dur_lo is None else min(dur_lo, last - t0)
        if rec.echoes is not None:
            echo_spread = max(echo_spread, rec.echoes[1] - rec.echoes[0])
    k2, k3, k4 = join_lag / dc, echo_spread / dc, join_spread / dc
    k5, dur_hi = out_spread / d, dur_hi / d
    dur_lo = None if dur_lo is None else dur_lo / d
    lo_ok = dur_lo is None or dur_lo >= p.min_duration
    return _verdict("timing-windows", bad,
                    {"K2": float(k2), "K3": float(k3), "K4": float(k4),
                     "K5": float(k5),
                     "dur_lo_rounds": None if dur_lo is None else float(dur_lo / p.rounds),
                     "dur_hi_rounds": float(dur_hi / p.rounds)},
                    k2 <= p.max_k2 and k3 <= p.max_k3 and k4 <= p.max_k4
                    and k5 <= p.max_k5 and lo_ok and dur_hi <= p.max_duration)


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
    return _verdict("silence", bad, {"silent_instances": checked})


def _estimates_suite(ix, p, clocks, correct) -> Verdict:
    """Every correct node's estimate of every other correct clock, against
    that clock's floored reading at the sample's time.  The samples come in
    time order, so each clock's cursor only walks forward; an estimate is in
    band when mod_signed(estimate - reading) lies in [-band, 0]."""
    mod = p.clock_modulus
    off = mod // 2 - 1             # mod_signed(x, mod) = (x + off) % mod - off
    lo = off - p.estimate_band
    t0 = Fraction(0)
    worst, worst_v = None, -1      # the last failure in (v, t, w) order
    floors = [(w, clocks[w].units_at) for w in correct]
    ticks = clocks[0].ticks
    for _, t, v, ests in ix.est:
        # A reading changes only at a tick, so the tick at or before t reads
        # as t does.
        tick = t.numerator * ticks // t.denominator
        for w, floor in floors:
            if w == v:
                continue
            val = ests[w]
            if val is None:
                fail = ("bot", t, v, w)
            else:
                r = (val - floor(tick) + off) % mod
                if lo <= r <= off:
                    continue
                fail = ("band", t, v, w, r - off)
            t0 = t                 # the samples come in time order
            if v >= worst_v:
                worst, worst_v = fail, v
    samples = len(ix.est) * (len(correct) - 1)
    tail = len(ix.est) - bisect_right(ix.est, t0, key=_TIME)
    # A passing tail is required so an unstabilized run cannot pass vacuously.
    passed = (t0 <= p.estimate_t0_bound and samples > 0
              and tail >= p.min_tail_samples * max(1, len(correct)))
    return Verdict("clock-estimate-accuracy", passed,
                   {"t0": float(t0), "t0_bound": float(p.estimate_t0_bound),
                    "samples": samples, "tail_samples": tail},
                   counterexample=[worst] if worst and not passed else None)


def _split_bits(sends) -> List[int]:
    """[infra, instance] bit totals of `send` records: `RoundMsg` sends are
    instance traffic; every other kind is infrastructure."""
    bits = [0, 0]
    for rec in sends:
        bits[rec[4] == "RoundMsg"] += rec[5] + rec[6]
    return bits


def _window_bits(sends, start, window, count) -> List[List[int]]:
    """`_split_bits` of one node's time-ordered `send` records in each of the
    windows [start + k*window, start + (k+1)*window), k < count.

    Each window edge is found by bisection, so the cost is count+1 searches
    of the records plus one addition per record inside the windows.
    """
    if not count:
        return []
    edges = [bisect_left(sends, start + k * window, key=_TIME)
             for k in range(count + 1)]
    return [_split_bits(sends[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _bits_suite(ix, p, correct, cutoff, duration) -> Verdict:
    window = p.bits_window
    c_all = c_infra = 0.0
    windows = max(0, int((duration - cutoff) / window))
    for node in correct:
        for infra, inst in _window_bits(ix.sends[node], cutoff,
                                        window, windows):
            c_all = max(c_all, (infra + inst) / float(window) / p.bits_denom)
            c_infra = max(c_infra,
                          infra / float(window) / p.infra_bits_denom)
    passed = windows == 0 or (c_all <= p.max_c_bits
                              and c_infra <= p.max_c_bits)
    return Verdict("amortized-bits", passed,
                   {"c_bits": round(c_all, 3), "c_infra": round(c_infra, 3),
                    "windows": windows})


def _envelope_suite(ix, p, correct, cutoff) -> Verdict:
    """K1 over every pair of estimates of one byzantine clock, by any correct
    nodes, taken at most `cap` (`Params.envelope_cap`) apart.

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
    mod = p.clock_modulus
    d, unit = float(p.d), float(p.grid.unit)
    cap, rate_hi, rate_lo = p.envelope_cap, p.envelope_rate_hi, p.envelope_rate_lo
    # The samples from the horizon on, in time order, ties by node; each
    # one's float time is taken once, when a series first needs it.
    recs = ix.est[bisect_left(ix.est, cutoff, key=_TIME):]
    times = [None] * len(recs)
    k1 = 0.0
    pairs = 0
    for u in byz:
        series = []
        for i in [i for i, rec in enumerate(recs) if rec[3][u] is not None]:
            if times[i] is None:
                times[i] = float(recs[i][1])
            series.append((times[i], recs[i][3][u]))
        queues = (deque(), deque())   # (index, key), keys increasing
        lo = 0
        e = series[0][1] if series else 0
        for b, (t, e_b) in enumerate(series):
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
    passed = pairs == 0 or k1 <= p.max_k1
    return Verdict("byzantine-clock-envelope", passed,
                   {"K1": round(k1, 4), "pairs": pairs})


def _rarity_suite(ix, p, cutoff) -> Verdict:
    """Per initiator, nonzero-input instances are at least one window apart."""
    window = p.rarity_window
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
    return _verdict("nontrivial-instance-rarity", bad,
                    {"initiators": len(firsts)})


def _hygiene_suite(ix) -> Verdict:
    bad = [(what + "_on_clean_boot", count) for what, count in (
        ("quarantine", len(ix.quarantines)), ("gate_underflow", ix.underflows),
        ("suppressed_sends", ix.suppressed)) if count]
    return _verdict("non-interference", bad, {})


def _stabilization_suite(ix, judged, cutoff, per_instance) -> Verdict:
    post = sum(1 for _, rec in judged if rec.parts)
    # A node must quarantine at most once per run (post-wipe re-detection is
    # unreachable) and fabricated gates may never admit an underflow join.
    repeat = len(ix.quarantines) != len(set(ix.quarantines))
    passed = all(v.passed for v in per_instance) and post > 0 and not repeat
    return Verdict("self-stabilization", passed,
                   {"post_horizon_instances": post,
                    "cutoff": float(cutoff),
                    "quarantines": len(ix.quarantines),
                    "repeat_quarantine": repeat})


def run_metrics(ix: _Index, sc, p: Params) -> dict:
    """Every number of the metrics export, read from the run's trace index.

    Per correct node, in `ix.sends` order: bits sent by layer (`send`
    records), instances joined (`participate` records) and quarantines
    (`quarantine` records); then the same node's bits per `bits_window`,
    each row carrying the node's counts.
    """
    quarantines = Counter(ix.quarantines)
    window = p.bits_window
    count = max(1, int(frac(sc.duration) / window))
    totals, windows = [], []
    for v, sends in ix.sends.items():
        infra, inst = _split_bits(sends)
        counts = {"instances_joined": ix.joins[v], "quarantines": quarantines[v]}
        totals.append({"node": v, "infra_bits": infra, "instance_bits": inst,
                       "payload_bits": sum(rec[6] for rec in sends), **counts})
        for k, (infra, inst) in enumerate(
                _window_bits(sends, Fraction(0), window, count)):
            windows.append({"node": v, "window": k, "infra_bits": infra,
                            "instance_bits": inst, **counts})
    return {"totals": totals, "windows": windows}


# -- trace serialization -------------------------------------------------------


def _fields(envelope) -> tuple:
    return tuple(getattr(envelope, f) for f in envelope.__dataclass_fields__)


def _enc(obj):
    if isinstance(obj, Fraction):
        return {"_f": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, tuple):
        return {"_t": [_enc(x) for x in obj]}
    if isinstance(obj, msg.ENVELOPES):
        return {"_m": type(obj).__name__, "v": _enc(_fields(obj))}
    return obj


_ENVELOPES = {cls.__name__: cls for cls in msg.ENVELOPES}


def _dec(obj):
    if isinstance(obj, dict):
        if "_f" in obj:
            try:
                return frac(obj["_f"])
            except (TypeError, ValueError):
                raise ValueError(f"trace gives the fraction {obj['_f']!r}") \
                    from None
        if "_t" in obj:
            if not isinstance(obj["_t"], list):
                raise ValueError(f"trace gives the tuple {obj['_t']!r}")
            return tuple(_dec(x) for x in obj["_t"])
        if "_m" in obj:
            name = obj["_m"]
            cls = _ENVELOPES.get(name) if type(name) is str else None
            if cls is None:
                raise ValueError(f"trace names an unknown envelope {name!r}")
            fields = _dec(obj.get("v"))
            if not (isinstance(fields, tuple) and
                    len(fields) == len(cls.__dataclass_fields__)):
                raise ValueError(f"trace gives {cls.__name__} the "
                                 f"fields {fields!r}")
            return cls(*fields)
        raise ValueError(f"trace gives the unmarked object {obj!r}")
    if isinstance(obj, list):
        raise ValueError(f"trace gives the list {obj!r}, not a tuple")
    return obj


def trace_to_jsonl(trace) -> str:
    return "\n".join(json.dumps(_enc(tuple(rec))) for rec in trace) + "\n"


# The type of each field after (kind, t, node) of every record `_Index` reads.
# A field type is a class (a bool is not an int); a list of the types or
# values it may be; a tuple of field types, for a tuple of that length;
# `(T, ...)` or `(T, "n")`, for a tuple of any number of T's or of one per
# node; or a dict from each envelope class to the types of its fields.
_BIT, _LABEL = [0, 1], (int, int)
_VALUE, _PAYLOAD = [None, int], [None, (_BIT, ...)]
_ROUND = (_LABEL, int, (_PAYLOAD, "n"))
_RECORDS = {
    "send": (int, str, int, int, {
        msg.Update: ((_VALUE, ...),), msg.Init: (int,), msg.Echo: (_LABEL,),
        msg.RoundMsg: (_LABEL, int, _PAYLOAD), msg.Garbage: ((int, ...),)}),
    "participate": (_LABEL, [1, 2], _BIT, _BIT),
    "output": (_LABEL, _BIT, str),
    "rrcv": _ROUND, "remit": _ROUND, "init": (_LABEL,),
    "est": ((_VALUE, "n"),),
    "quarantine": (), "gate_underflow": (_LABEL,), "suppressed": (_LABEL, int)}
_WHEN = ([Fraction, int], int)   # (t, node), the fields every record leads with


def _fits(x, kind, n: int) -> bool:
    """Whether the decoded value `x` has the field type `kind`."""
    if isinstance(kind, type):
        return type(x) is kind
    if isinstance(kind, list):
        return any(_fits(x, k, n) for k in kind)
    if isinstance(kind, tuple):
        if kind[1:] in ((...,), ("n",)):
            return (type(x) is tuple and (kind[1] is ... or len(x) == n)
                    and all(_fits(y, kind[0], n) for y in x))
        return (type(x) is tuple and len(x) == len(kind)
                and all(_fits(y, k, n) for y, k in zip(x, kind)))
    if isinstance(kind, dict):
        return type(x) in kind and _fits(_fields(x), kind[type(x)], n)
    return type(x) is type(kind) and x == kind


def trace_from_jsonl(text: str, n: int) -> list:
    """The records of a stored trace of an n-node run; `ValueError`, naming
    the 1-based line, if `evaluate` could not read one.  The suites bisect
    the `send` and `est` records by time, so each of those kinds must come
    in time order, as the simulator writes them.  The records are decoded
    with the cyclic collector paused (`kernel.collector_paused`)."""
    trace = []
    last = {"send": 0, "est": 0}   # the time of the last record of each
    with collector_paused():
        for k, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    rec = _record(json.loads(line), n)
                    if rec[0] in last:
                        if rec[1] < last[rec[0]]:
                            raise ValueError(f"trace gives a {rec[0]} record "
                                             f"at {rec[1]}, before the one at "
                                             f"{last[rec[0]]}")
                        last[rec[0]] = rec[1]
                    trace.append(rec)
                except (ValueError, RecursionError) as exc:   # too deep a nest
                    raise ValueError(f"line {k}: {exc}") from None
    return trace


def _record(obj, n: int) -> tuple:
    """The decoded record `obj` if it fits its kind's layout in `_RECORDS`."""
    rec = _dec(obj)
    if not (isinstance(rec, tuple) and rec and isinstance(rec[0], str)):
        raise ValueError(f"trace record {rec!r} is not a tuple led by its kind")
    kind, layout = rec[0], _RECORDS.get(rec[0])
    if layout is not None and len(rec) != 3 + len(layout):
        raise ValueError(f"trace gives a {kind} record {len(rec)} fields, "
                         f"not {3 + len(layout)}")
    if not (len(rec) >= 3 and _fits(rec[1:3], _WHEN, n)):
        raise ValueError(f"trace record {rec!r} does not give a time and a node")
    if rec[1] < 0 or not 0 <= rec[2] < n:
        raise ValueError(f"trace record {rec!r} gives a time below 0 or a node "
                         f"outside range({n})")
    if layout is not None and not (
            _fits(rec[3:], layout, n)
            and (kind != "send" or rec[4] == type(rec[7]).__name__)):
        raise ValueError(f"trace record {rec!r} has a wrongly typed field")
    return rec
