"""Output checks and modelled metrics, computed apart from ``noclock.verdicts``.

``examine`` reads one run's trace record by record and recomputes the
properties below on its own.  It shares no code with the verdict suites, so
a fault that slips past them (or a change that weakens them) still shows.

* agreement: all correct outputs of one label are equal;
* validity: under a const-b oracle, an instance in which every correct node
  participated at confidence 2 outputs b;
* termination: an instance a correct node initiated early enough has an
  ``ok`` output at every correct node;
* silence: an instance whose correct inputs are all 0 carries no payload bit
  from a correct node;
* clock-estimate accuracy: from the stabilization time on, every correct
  node's estimate of every correct peer lies in ``[H - 3*theta*d_clk - q, H]``,
  where ``H`` is the peer's true clock from its ``HardwareClock``.

After a corrupted boot, the per-instance properties are checked for
instances initiated from the stabilization time on; earlier instances may do
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

# Each correct node must keep at least this many accurate samples after the
# stabilization time, so a run that never recovers cannot pass vacuously.
MIN_TAIL_SAMPLES = 2


@dataclass
class RunCheck:
    problems: List[tuple] = field(default_factory=list)
    latencies_d: List[float] = field(default_factory=list)
    decided: int = 0
    correct_bits: int = 0
    node_d: Fraction = Fraction(0)   # correct nodes x simulated d
    stabilize_d: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def completion_window(p) -> Fraction:
    """Real time within which a correct initiation ends at every correct node.

    Echoes reach everyone within 2d of the init, the participation gate holds
    for ``gate_hold``, a stall is declared after ``stall_after`` without
    progress, and each of the R rounds after the first threshold takes at most
    one round gap plus one delay.  Local durations bound real ones, since
    clock rates are at least 1.
    """
    local = p.gate_hold + p.stall_after + p.rounds * p.round_gap
    return p.grid.from_units(local) + (2 + p.rounds) * p.d


def stabilization_cap(p) -> Fraction:
    """Latest stabilization time accepted after a corrupted boot.

    Corrupted hold registers are clamped at a node's first tick, and every
    corrupted row is replaced by its owner's next update, so the last
    inconsistency a corrupted boot causes falls within a few update periods.
    Trust returns ``trust_regain`` of local time after it, and the next
    sample shows it.  Eight periods and 2d of slack cover those steps.
    """
    return p.grid.from_units(p.trust_regain + 8 * p.update_period) + 2 * p.d


def examine(trace, sc, p, clocks, correct) -> RunCheck:
    """Check one run and compute its modelled metrics."""
    out = RunCheck()
    cset = set(correct)
    d = p.d
    duration = Fraction(sc.duration)
    corrupted = sc.corruption.get("kind", "none") != "none"

    inits: Dict[tuple, Fraction] = {}
    parts: Dict[tuple, Dict[int, tuple]] = {}
    outs: Dict[tuple, Dict[int, tuple]] = {}
    payload: Dict[tuple, int] = {}
    samples: List[tuple] = []
    for rec in trace:
        kind = rec[0]
        if kind == "send":
            if rec[2] in cset:
                out.correct_bits += rec[5] + rec[6]
                if rec[4] == "RoundMsg" and rec[6]:
                    label = rec[7].label
                    payload[label] = payload.get(label, 0) + rec[6]
        elif kind == "est":
            if rec[2] in cset:
                samples.append((rec[1], rec[2], rec[3]))
        elif kind == "participate":
            if rec[2] in cset:
                # (time, confidence, input)
                parts.setdefault(rec[3], {})[rec[2]] = (rec[1], rec[4], rec[5])
        elif kind == "output":
            if rec[2] in cset:
                # (time, value, reason); a node's first output is its output
                outs.setdefault(rec[3], {}).setdefault(rec[2], (rec[1], rec[4],
                                                                rec[5]))
        elif kind == "init":
            if rec[2] in cset:
                inits.setdefault(rec[3], rec[1])
    out.node_d = len(correct) * duration / d

    stab = _stabilization(samples, sc, p, clocks, correct, corrupted, out)
    out.stabilize_d = float(stab / d)
    scope = stab if corrupted else Fraction(0)

    oracle = sc.oracle
    const = (int(oracle.get("value", 1))
             if oracle.get("kind", "const") == "const" else None)
    window = completion_window(p)
    labels = set(parts) | set(outs)
    for label in sorted(labels):
        who = parts.get(label, {})
        got = outs.get(label, {})
        t_init = inits.get(label)
        if corrupted and (t_init is None or t_init < scope):
            continue
        values = {v for _, v, _ in got.values()}
        if len(values) > 1:
            out.problems.append(("agreement", label, sorted(got.items())))
        if who and set(who) == cset and all(c == 2 for _, c, _ in who.values()):
            if const is not None and values - {const}:
                out.problems.append(("validity", label, const,
                                     sorted(values)))
        if who and all(b == 0 for _, _, b in who.values()) \
                and payload.get(label, 0):
            out.problems.append(("silence", label, payload[label]))
        if t_init is not None and t_init + window <= duration:
            missing = [v for v in correct
                       if v not in got or got[v][2] != "ok"]
            if missing:
                out.problems.append(("termination", label, missing))
        if who and all(v in got and got[v][2] == "ok" for v in who):
            out.decided += 1
            if t_init is not None:
                last = max(got[v][0] for v in who)
                out.latencies_d.append(float((last - t_init) / d))
    return out


def _stabilization(samples, sc, p, clocks, correct, corrupted,
                   out: RunCheck) -> Fraction:
    """Earliest time from which every correct node's samples stay accurate.

    Per node, that is its first sample after its last inaccurate one; the run's
    stabilization time is the latest of these.  A clean boot must have no
    inaccurate sample at all.
    """
    unit = p.grid.unit
    mod = p.clock_modulus
    half = Fraction(mod, 2)
    lag = (3 * p.theta * p.d_clk + p.grid.quantum) / unit
    last_bad: Dict[int, Optional[Fraction]] = {v: None for v in correct}
    for t, v, ests in samples:
        for w in correct:
            if w == v:
                continue
            est = ests[w]
            if est is None:
                bad = True
            else:
                diff = (est - clocks[w].value(t) / unit + half) % mod - half
                bad = not (-lag <= diff <= 0)
            if bad:
                last_bad[v] = t
                if not corrupted:
                    out.problems.append(("estimate", t, v, w, est))
                break
    first_good: Dict[int, Optional[Fraction]] = {v: None for v in correct}
    tail = {v: 0 for v in correct}
    for t, v, _ in samples:
        if last_bad[v] is None or t > last_bad[v]:
            tail[v] += 1
            if first_good[v] is None:
                first_good[v] = t
    short = sorted(v for v in correct if tail[v] < MIN_TAIL_SAMPLES)
    if short:
        out.problems.append(("estimate_tail", short))
        return Fraction(sc.duration)
    stab = max(first_good.values())
    if corrupted and stab > stabilization_cap(p):
        out.problems.append(("stabilization", float(stab),
                             float(stabilization_cap(p))))
    return stab
