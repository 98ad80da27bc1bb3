"""Per-layer tracing: span wrappers around noclock's functions, and counts.

``instrument`` replaces the listed functions and methods of the imported
noclock modules by wrappers that record one span per call: a name, the
parent span, and start and end times, kept in flat arrays in memory.  When a
round ends, ``Tracer.collect`` turns the spans into per-name call counts and
self times (a span's duration minus the durations of its direct children) and
clears them.  Everything the benchmark does outside a wrapped call falls in
the root span ``bench``, so the self times of all names add up to the wall
time of the round.

Counts the program already records (drops by reason, outputs, round messages)
are read from the trace by ``trace_counts``.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

ROOT = "bench"

# (module, owner attribute or None for the module, attribute, span name)
SPANS = [
    ("kernel", "HardwareClock", "value", "timebase.clock_value"),
    ("kernel", "HardwareClock", "invert", "timebase.clock_invert"),
    ("kernel", "Simulator", "run_until", "kernel.dispatch"),
    ("kernel", "Simulator", "send", "kernel.send"),
    ("kernel", "Simulator", "alarm", "kernel.alarm"),
    ("node", "NodeRuntime", "on_deliver", "node.on_deliver"),
    ("node", "NodeRuntime", "on_threshold", "node.on_threshold"),
    ("node", "NodeRuntime", "on_action", "node.on_action"),
    ("messages", None, "well_formed", "messages.well_formed"),
    ("clocksync", "ClockSync", "on_update", "clocksync.on_update"),
    ("clocksync", "ClockSync", "on_tick", "clocksync.on_tick"),
    ("clocksync", "ClockSync", "estimate", "clocksync.estimate"),
    ("clocksync", "ClockSync", "sanitize", "clocksync.sanitize"),
    ("initiation", "Initiation", "on_init", "initiation.on_init"),
    ("initiation", "Initiation", "on_gate", "initiation.on_gate"),
    ("initiation", "Initiation", "sweep", "initiation.sweep"),
    ("rounds", "Rounds", "join", "rounds.join"),
    ("rounds", "Rounds", "on_round_msg", "rounds.on_round_msg"),
    ("rounds", "Rounds", "on_alarm", "rounds.on_alarm"),
    ("rounds", "Rounds", "sweep", "rounds.sweep"),
    ("protocols", "SilentWrapper", "step", "protocols.step"),
    ("protocols", "PhaseKing", "step", "protocols.step"),
    ("protocols", "SilentWrapper", "finish", "protocols.finish"),
    ("protocols", "PhaseKing", "finish", "protocols.finish"),
    ("protocols", None, "replay", "protocols.replay"),
    ("guard", "Guard", "note_join", "guard.note_join"),
    ("guard", "Guard", "sweep", "guard.sweep"),
    ("adversary", None, "corrupt_runtime", "adversary.corrupt"),
    ("adversary", None, "random_garbage", "adversary.corrupt"),
    ("harness", None, "run", "harness.run"),
    ("harness", None, "build_env", "harness.build_env"),
    ("params", None, "derive", "params.derive"),
    ("scenario", "Scenario", "validate", "scenario.validate"),
    ("verdicts", None, "evaluate", "verdicts.evaluate"),
    ("verdicts", "_Index", "__init__", "verdicts.index"),
    ("verdicts", None, "_replay_suite", "verdicts.oracle-equivalence"),
    ("verdicts", None, "_agreement_suite", "verdicts.agreement-validity-safety"),
    ("verdicts", None, "_timing_suite", "verdicts.timing-windows"),
    ("verdicts", None, "_silence_suite", "verdicts.silence"),
    ("verdicts", None, "_estimates_suite", "verdicts.clock-estimate-accuracy"),
    ("verdicts", None, "_bits_suite", "verdicts.amortized-bits"),
    ("verdicts", None, "_envelope_suite", "verdicts.byzantine-clock-envelope"),
    ("verdicts", None, "_rarity_suite", "verdicts.nontrivial-instance-rarity"),
    ("verdicts", None, "_hygiene_suite", "verdicts.non-interference"),
    ("verdicts", None, "_stabilization_suite", "verdicts.self-stabilization"),
]
# Functions another module imported by name: the wrapper replaces that
# binding too, so calls through either name record a span.
ALIASES = [("harness", "derive", "params", "derive"),
           ("verdicts", "replay", "protocols", "replay")]
ECHO = "initiation.on_echo"
HANDLERS = "adversary.handlers"
EVENT_SPANS = ("node.on_deliver", "node.on_threshold", "node.on_action",
               HANDLERS)

# Metrics of the traced run: (name, unit, better).  Every span name has a
# self time, so the self times and trace.outside_s add up to trace.wall_s.
_CALLS = ["timebase.clock_value", "timebase.clock_invert", "kernel.send",
          "kernel.alarm", "messages.well_formed", "clocksync.on_update",
          "clocksync.estimate", "initiation.on_init", ECHO,
          "initiation.on_gate", "rounds.join", "rounds.on_round_msg",
          "rounds.on_alarm", "protocols.step", "protocols.finish",
          "protocols.replay", "guard.note_join", "params.derive"]
_COUNTS = [("kernel.events", "lower"), ("kernel.trace_records", "lower"),
           ("clocksync.distrusted_samples", "lower"),
           ("initiation.echoes_stored", "higher"),
           ("initiation.echoes_delivered", "lower"),
           ("initiation.drops.init_stamp", "lower"),
           ("initiation.drops.echo_stamp", "lower"),
           ("initiation.drops.init_rate", "lower"),
           ("rounds.outputs_ok", "higher"), ("rounds.outputs", "higher"),
           ("rounds.drops.round_unjoined", "lower"),
           ("guard.quarantines", "lower"), ("guard.wipes", "lower"),
           ("adversary.byz_round_msgs", "higher"),
           ("verdicts.envelope.pairs", "higher")]
SPAN_NAMES = sorted({name for *_, name in SPANS} | {ECHO, HANDLERS})
PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [(f"{name}.self_s", "s", "lower") for name in SPAN_NAMES]
    + [(name, "count", better) for name, better in _COUNTS]
    + [("initiation.echo_accept_ratio", "ratio", "higher"),
       ("rounds.ok_ratio", "ratio", "higher"),
       ("verdicts.evaluate.s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.outside_s", "s", "lower"),
       ("trace.run_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")])


class Tracer:
    """Records spans in memory while ``on`` is set."""

    def __init__(self):
        self.on = False
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.echoes_stored = 0
        self.byzantine_parts = set()   # Initiation objects of byzantine nodes

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
        return span

    def open_root(self) -> int:
        self.on = True
        idx = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close_root(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.on = False

    def collect(self):
        """Per-name calls and self times of the recorded spans; then clear."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        dur = [e - s for s, e in zip(self.start, self.end)]
        for nid, parent, t in zip(self.name, self.parent, dur):
            calls[nid] += 1
            own[nid] += t
            if parent >= 0:
                own[self.name[parent]] -= t
        wall = sum(t for nid, p, t in zip(self.name, self.parent, dur)
                   if p < 0)
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        counts = dict(zip(self.names, calls))
        counts["initiation.echoes_stored"] = self.echoes_stored
        self.echoes_stored = 0
        self.byzantine_parts.clear()
        return counts, dict(zip(self.names, own)), wall


def instrument(tracer: Tracer, modules: dict) -> None:
    """Wrap the functions in SPANS; ``modules`` maps short names to modules."""
    wrapped = {}
    for mod, owner, attr, name in SPANS:
        target = modules[mod] if owner is None else getattr(modules[mod], owner)
        fn = tracer.wrap(name, getattr(target, attr))
        setattr(target, attr, fn)
        wrapped[(mod, attr)] = fn
    for mod, attr, src, src_attr in ALIASES:
        setattr(modules[mod], attr, wrapped[(src, src_attr)])

    initiation = modules["initiation"].Initiation
    on_echo = initiation.on_echo

    def count_echo(self, sender, label, now):
        # Echoes a correct node stores from others; on_echo keeps them in
        # ``stored`` and ignores duplicates and out-of-band stamps.
        seen = self.stored.get(label)
        before = len(seen) if seen is not None else 0
        on_echo(self, sender, label, now)
        if sender != self.node and self not in tracer.byzantine_parts:
            tracer.echoes_stored += len(self.stored.get(label, ())) - before
    initiation.on_echo = tracer.wrap(ECHO, count_echo)

    adversary = modules["adversary"]
    make_byzantine = adversary.make_byzantine

    def make_traced_byzantine(*args, **kwargs):
        # Byzantine handlers are traced apart from correct nodes: each event
        # entry point is replaced on the instance by a span around the
        # class's own (unwrapped) method.
        handler = make_byzantine(*args, **kwargs)
        for attr in ("on_threshold", "on_deliver", "on_action"):
            fn = getattr(type(handler), attr)
            fn = getattr(fn, "__wrapped__", fn)
            setattr(handler, attr, tracer.wrap(HANDLERS, fn.__get__(handler)))
        if hasattr(handler, "initiation"):
            tracer.byzantine_parts.add(handler.initiation)
        return handler
    adversary.make_byzantine = make_traced_byzantine


def trace_counts(trace, correct, byzantine) -> dict:
    """Counts one run's trace holds, for the per-layer metrics."""
    cset = set(correct)
    bset = set(byzantine)
    drops = {"init_stamp": 0, "echo_stamp": 0, "init_rate": 0,
             "round_unjoined": 0}
    c = {"distrusted": 0, "echoes_delivered": 0, "outputs_ok": 0,
         "outputs": 0, "quarantines": 0, "wipes": 0, "byz_round_msgs": 0}
    for rec in trace:
        kind = rec[0]
        if kind == "est":
            if rec[2] in cset:
                c["distrusted"] += sum(1 for w in correct
                                       if w != rec[2] and rec[3][w] is None)
        elif kind == "recv":
            if rec[4] == "Echo" and rec[2] in cset:
                c["echoes_delivered"] += 1
        elif kind == "drop":
            if rec[3] in drops and rec[2] in cset:
                drops[rec[3]] += 1
        elif kind == "output":
            if rec[2] in cset:
                c["outputs"] += 1
                c["outputs_ok"] += rec[5] == "ok"
        elif kind == "send":
            if rec[4] == "RoundMsg" and rec[2] in bset:
                c["byz_round_msgs"] += 1
        elif kind == "quarantine":
            c["quarantines"] += 1
        elif kind == "wipe":
            c["wipes"] += 1
    return {
        "kernel.trace_records": len(trace),
        "clocksync.distrusted_samples": c["distrusted"],
        "initiation.echoes_delivered": c["echoes_delivered"],
        "initiation.drops.init_stamp": drops["init_stamp"],
        "initiation.drops.echo_stamp": drops["echo_stamp"],
        "initiation.drops.init_rate": drops["init_rate"],
        "rounds.outputs_ok": c["outputs_ok"],
        "rounds.outputs": c["outputs"],
        "rounds.drops.round_unjoined": drops["round_unjoined"],
        "guard.quarantines": c["quarantines"],
        "guard.wipes": c["wipes"],
        "adversary.byz_round_msgs": c["byz_round_msgs"],
    }
