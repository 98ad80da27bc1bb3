"""Benchmark of the noclock simulator: host cost and modelled behaviour per run.

    python3 perfbench/run.py --workload steady-n16 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --check-digests
    python3 perfbench/run.py --write-digests

One run is one scenario taken through ``noclock.harness.run`` (simulation)
and ``noclock.verdicts.evaluate`` (evaluation).  A workload is a fixed list of
scenarios made from ``--seed`` (see ``workloads.py``); the benchmark runs
whole rounds of that list for ``--seconds``.  Untraced, host times are
reported at reference speed: a timer samples the host's speed throughout,
and each timed section is rescaled by the samples taken in it (``HostSpeed``).
Every run must pass every noclock verdict and the checks of ``check.py``; a
run that does not counts as failed.  The scenarios' traces are deterministic, so every round repeats the
modelled metrics exactly, and the first scenario's trace digest must be the
same in two runs of one process.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the first round runs untraced and
the later rounds record spans (``layers.py``), and the object holds the
per-layer metrics.  ``--workload all`` runs every workload in turn, each in
its own process.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import check  # noqa: E402
import layers  # noqa: E402

WORKLOAD_NAMES = ["steady-n16", "busy-n7", "recover-n7", "sweep-accept"]
DIGESTS = os.path.join(HERE, "digests.json")
# Set-ups timed per round, spread evenly over its runs; setup_s is their
# median together with the first, which counts from process start.
SETUPS_PER_ROUND = 5
# Host-speed sampling.  The shared host runs this process up to 1.7 times
# slower for stretches of a fraction of a second to minutes, and slows a fixed
# piece of pure-Python work with the program.  Every SAMPLE_EVERY_S of wall
# time a timer signal has the reference work timed; a timed section's host
# time, less the samples taken in it, is rescaled to the speed at which the
# sample takes PROBE_S, about the quicker speed of the 2-core reference box.
# Over 36 back-to-back simulations of steady-n16, the spread of their time
# fell from 0.245 of the median to 0.046 so; sampling costs 6% of host time.
SAMPLE_EVERY_S = 0.02
PROBE_ITERS = 300
PROBE_S = 0.001
# Trace records per trace_to_jsonl call when hashing; the chunks concatenate
# to exactly the text one call on the whole trace returns.
DIGEST_CHUNK = 4096
END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("eval_s", "s"), ("sim_rate", "d/s"),
    ("runs_per_s", "1/s"), ("peak_rss_mb", "MiB"),
    ("consensus_latency_d", "d"), ("bits_per_node_d", "bit/d"),
    ("decided", "count"), ("stabilize_d", "d"),
]
NOCLOCK = ["adversary", "clocksync", "guard", "harness", "initiation",
           "kernel", "messages", "node", "params", "protocols", "rounds",
           "scenario", "timebase", "verdicts"]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def setup(workload: str, seed: int):
    """Import noclock afresh, make and validate the scenarios, build run 1."""
    for name in [m for m in sys.modules
                 if m in ("noclock", "workloads") or m.startswith("noclock.")]:
        del sys.modules[name]
    try:
        mods = {m: importlib.import_module(f"noclock.{m}") for m in NOCLOCK}
    except ImportError as exc:
        raise BenchError(f"cannot import noclock from {SRC}: {exc}") from None
    if not os.path.abspath(mods["harness"].__file__).startswith(SRC + os.sep):
        raise BenchError(f"noclock was not imported from {SRC}")
    import workloads   # binds the freshly imported Scenario class
    scenarios = workloads.WORKLOADS[workload](seed)
    for sc in scenarios:
        sc.validate()
    mods["harness"].build_env(scenarios[0])
    return mods, scenarios


def _reference_work() -> Fraction:
    heap, table, x = [], {}, Fraction(0)
    for i in range(PROBE_ITERS):
        x += Fraction(i % 7 + 1, 11)
        heapq.heappush(heap, (i * 7919 % 1000, i))
        table[i % 500] = table.get(i % 500, 0) + i
        if len(heap) > 200:
            heapq.heappop(heap)
    return x


class HostSpeed:
    """Samples the host's speed while the workload runs (see PROBE_S).

    ``since(mark)`` returns the host seconds since ``mark`` less the samples
    taken meanwhile, and those seconds rescaled to reference speed.  Until
    ``start`` no samples are taken, and rescaling leaves a time as it is.
    """

    def __init__(self):
        self.count, self.spent, self.last = 0, 0.0, PROBE_S
        self.busy = False

    def _sample(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        collecting = gc.isenabled()
        gc.disable()
        t = perf_counter()
        _reference_work()
        self.last = perf_counter() - t
        if collecting:
            gc.enable()
        self.count += 1
        self.spent += self.last
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self, t=None):
        return self.count, self.spent, perf_counter() if t is None else t

    def since(self, mark):
        end = perf_counter()
        count, spent, t = mark
        count, spent = self.count - count, self.spent - spent
        raw = end - t - spent
        return raw, raw * PROBE_S / (spent / count if count else self.last)


def trace_digest(verdicts, trace) -> str:
    h = hashlib.sha256()
    for i in range(0, len(trace), DIGEST_CHUNK):
        h.update(verdicts.trace_to_jsonl(trace[i:i + DIGEST_CHUNK]).encode())
    return h.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.tracer = layers.Tracer() if traced else None
        self.speed = HostSpeed()

    def run_once(self, sc, counts: bool) -> dict:
        """One run: simulate, evaluate, check.  Returns its record.

        ``sim_s`` and ``eval_s`` are host seconds, ``sim_n`` and ``eval_n``
        the same at reference speed.
        """
        harness, verdicts = self.mods["harness"], self.mods["verdicts"]
        protocols = self.mods["protocols"]
        # Every run starts from an empty young generation, so the cyclic
        # collector's schedule inside it does not depend on earlier work.
        gc.collect()
        mark = self.speed.mark()
        res = harness.run(sc, evaluate=False)
        sim_s, sim_n = self.speed.since(mark)
        _, p, _, correct, _, clocks = harness.build_env(sc)
        mark = self.speed.mark()
        vds = verdicts.evaluate(res.trace, sc, p, clocks, correct,
                                lambda: protocols.make_protocol(
                                    sc.protocol["name"], sc.n, sc.f))
        eval_s, eval_n = self.speed.since(mark)
        tracing = self.tracer is not None and self.tracer.on
        if tracing:
            self.tracer.on = False
        chk = check.examine(res.trace, sc, p, clocks, correct)
        rec = {"sim_s": sim_s, "eval_s": eval_s,
               "sim_n": sim_n, "eval_n": eval_n,
               "duration_d": float(Fraction(sc.duration) / p.d),
               "failed_verdicts": [v.name for v in vds if not v.passed],
               "check": chk, "trace": res.trace}
        if counts:
            rec["counts"] = layers.trace_counts(res.trace, correct,
                                                res.byzantine)
            rec["counts"]["verdicts.envelope.pairs"] = next(
                v.measured.get("pairs", 0) for v in vds
                if v.name == "byzantine-clock-envelope")
        if tracing:
            self.tracer.on = True
        return rec

    def round(self, traced: bool, hash_first: bool, setups: list):
        """Run every scenario once; returns (records, span summary, digest).

        Untraced, set-up is repeated between the runs and timed into
        ``setups`` at reference speed, so its median is taken across the
        whole measurement like the other timings.  The digest of the first scenario's trace is taken
        after the round's spans close, and only when ``hash_first`` asks.
        """
        records = []
        root = self.tracer.open_root() if traced else None
        n = len(self.scenarios)
        repeat = 0 if self.traced else -(-SETUPS_PER_ROUND // n)
        every = max(1, n // SETUPS_PER_ROUND)
        for k in range(n):
            for _ in range(repeat if k % every == 0 else 0):
                gc.collect()
                mark = self.speed.mark()
                self.mods, self.scenarios = setup(self.workload, self.seed)
                setups.append(self.speed.since(mark)[1])
            if not k:
                verdicts = self.mods["verdicts"]   # encodes its own trace
            rec = self.run_once(self.scenarios[k], counts=traced)
            if k or not hash_first:
                rec["trace"] = None
            records.append(rec)
        spans = None
        if traced:
            self.tracer.close_root(root)
            spans = self.tracer.collect()
        first = records[0]["trace"]
        for rec in records:
            del rec["trace"]
        digest = trace_digest(verdicts, first) if hash_first else None
        return records, spans, digest

    def run(self, seconds: float) -> dict:
        """Measure for ``seconds``; untraced, with the host speed sampled."""
        if not self.traced:
            self.speed.start()
        try:
            return self.measure(seconds)
        finally:
            self.speed.stop()

    def measure(self, seconds: float) -> dict:
        mark = self.speed.mark(START)
        self.mods, self.scenarios = setup(self.workload, self.seed)
        setups = [self.speed.since(mark)[1]]
        rounds, span_rounds, digests = [], [], []
        loop_start = perf_counter()
        while True:
            round_start = perf_counter()
            traced = self.traced and len(rounds) > 0
            if traced and not span_rounds:
                layers.instrument(self.tracer, self.mods)
            records, spans, digest = self.round(traced, len(digests) < 2,
                                                setups)
            rounds.append(records)
            if spans is not None:
                span_rounds.append(spans)
            if digest is not None:
                digests.append(digest)
            now = perf_counter()
            last = now - round_start
            if (now - loop_start + last > seconds
                    and (not self.traced or span_rounds)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(digests) < 2:
            harness = self.mods["harness"]
            rerun = harness.run(self.scenarios[0], evaluate=False)
            digests.append(trace_digest(self.mods["verdicts"], rerun.trace))
        return self.report(setups, rounds, span_rounds, digests, peak_rss_mb)

    def report(self, setups, rounds, span_rounds, digests, peak_rss_mb):
        runs = [rec for records in rounds for rec in records]
        failed = sum(1 for rec in runs
                     if rec["failed_verdicts"] or not rec["check"].ok)
        for rec in runs:
            if rec["failed_verdicts"] or not rec["check"].ok:
                print(f"failed run: verdicts {rec['failed_verdicts']}, "
                      f"checks {rec['check'].problems[:4]}", file=sys.stderr)
        problems = []
        if digests[0] != digests[1]:
            problems.append("the first scenario's trace differs between two "
                            "runs in one process")
        first = [_model(rec["check"]) for rec in rounds[0]]
        if any([_model(rec["check"]) for rec in records] != first
               for records in rounds[1:]):
            problems.append("modelled results differ between rounds")
        checks = [rec["check"] for rec in rounds[0]]
        latencies = [x for c in checks for x in c.latencies_d]
        if not latencies:
            problems.append("no decided instance with a correct initiator")
        summary = {
            "workload": self.workload, "seed": self.seed,
            "rounds": len(rounds), "scenarios": len(self.scenarios),
            "digest": digests[0], "problems": problems,
        }
        if span_rounds:
            metrics = self.per_layer(rounds, span_rounds, problems)
        else:
            summary["unscaled"] = {
                "run_s": _median_of_round_means(rounds, ("sim_s", "eval_s")),
                "eval_s": _median_of_round_means(rounds, ("eval_s",)),
            }
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": _median_of_round_means(rounds, ("sim_n", "eval_n")),
                "eval_s": _median_of_round_means(rounds, ("eval_n",)),
                "sim_rate": statistics.median(
                    sum(rec["duration_d"] for rec in records)
                    / sum(rec["sim_n"] for rec in records)
                    for records in rounds),
                "runs_per_s": statistics.median(
                    len(records) / sum(rec["sim_n"] + rec["eval_n"]
                                       for rec in records)
                    for records in rounds),
                "peak_rss_mb": peak_rss_mb,
                "consensus_latency_d": statistics.median(latencies or [0.0]),
                "bits_per_node_d": float(sum(c.correct_bits for c in checks)
                                         / sum(c.node_d for c in checks)),
                "decided": sum(c.decided for c in checks),
                "stabilize_d": max(c.stabilize_d for c in checks),
            }
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
        return {"summary": summary,
                "result": {"correct": not problems, "attempted": len(runs),
                           "failed": failed, "metrics": metrics}}

    def per_layer(self, rounds, span_rounds, problems) -> dict:
        counts0 = span_rounds[0][0]
        if any(spans[0] != counts0 for spans in span_rounds[1:]):
            problems.append("per-layer counts differ between traced rounds")
        n = len(span_rounds)
        own = {name: sum(spans[1].get(name, 0.0) for spans in span_rounds) / n
               for name in set(layers.SPAN_NAMES) | {layers.ROOT}}
        wall = sum(spans[2] for spans in span_rounds) / n
        if abs(sum(own.values()) - wall) > 1e-6 * max(wall, 1.0):
            problems.append("self times do not add up to the traced wall time")
        values = {}
        for name, unit, _ in layers.PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = counts0.get(base, 0)
            elif kind == "self_s":
                values[name] = own[base]
        values["kernel.events"] = sum(counts0.get(name, 0)
                                      for name in layers.EVENT_SPANS)
        values["initiation.echoes_stored"] = counts0["initiation.echoes_stored"]
        traced = rounds[1]
        for key in traced[0]["counts"]:
            values[key] = sum(rec["counts"][key] for rec in traced)
        values["initiation.echo_accept_ratio"] = (
            values["initiation.echoes_stored"]
            / max(1, values["initiation.echoes_delivered"]))
        values["rounds.ok_ratio"] = (values["rounds.outputs_ok"]
                                     / max(1, values["rounds.outputs"]))
        values["verdicts.evaluate.s"] = sum(rec["eval_s"] for rec in traced)
        values["trace.wall_s"] = wall
        values["trace.outside_s"] = own[layers.ROOT]
        run_keys = ("sim_s", "eval_s")
        values["trace.run_s"] = _median_of_round_means(rounds[1:], run_keys)
        values["trace.overhead_s"] = (values["trace.run_s"]
                                      - _median_of_round_means(rounds[:1],
                                                               run_keys))
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in layers.PER_LAYER}


def _median_of_round_means(rounds, keys) -> float:
    """Median over rounds of the mean time of one run in the round.

    A round of a one-scenario workload is one run; in the sweep, runs of very
    different sizes make the median run fall between size classes, while the
    mean over the fixed mix is steady.
    """
    return statistics.median(
        sum(rec[k] for rec in records for k in keys) / len(records)
        for records in rounds)


def _model(chk):
    return (chk.latencies_d, chk.decided, chk.correct_bits, chk.stabilize_d,
            chk.problems)


def print_result(out: dict) -> None:
    s = out["summary"]
    r = out["result"]
    print(f"workload {s['workload']} seed {s['seed']}: {s['rounds']} rounds "
          f"x {s['scenarios']} scenarios, {r['attempted']} runs attempted, "
          f"{r['failed']} failed")
    print(f"digest {s['workload']} seed={s['seed']} sha256={s['digest']}")
    for problem in s["problems"]:
        print(f"problem: {problem}")
    if "unscaled" in s:
        raw, m = s["unscaled"], r["metrics"]
        print(f"host times below are at reference speed; unscaled, run_s "
              f"{raw['run_s']:.6g} s and eval_s {raw['eval_s']:.6g} s (the "
              f"host ran at {m['run_s']['value'] / raw['run_s']:.3g} times "
              f"reference speed)")
    for name, m in r["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(r))


def first_digest(workload: str, seed: int) -> str:
    mods, scenarios = setup(workload, seed)
    res = mods["harness"].run(scenarios[0], evaluate=False)
    return trace_digest(mods["verdicts"], res.trace)


def digests_command(write: bool, seed: int) -> int:
    """Write or compare the first scenario's trace digest of each workload."""
    found = {w: {"seed": seed, "sha256": first_digest(w, seed)}
             for w in WORKLOAD_NAMES}
    if write:
        with open(DIGESTS, "w") as fh:
            json.dump(found, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {DIGESTS}")
        return 0
    with open(DIGESTS) as fh:
        stored = json.load(fh)
    bad = 0
    for w in WORKLOAD_NAMES:
        ok = stored.get(w) == found[w]
        bad += not ok
        print(f"{'same' if ok else 'DIFFERENT'} {w} "
              f"sha256={found[w]['sha256']}")
    return 1 if bad else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {w} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    ok = all(r["correct"] and not r["failed"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed base of the workload's scenarios")
    parser.add_argument("--seconds", type=float, default=28,
                        help="how long to run whole rounds of the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    parser.add_argument("--write-digests", action="store_true",
                        help="rewrite digests.json from this code")
    parser.add_argument("--check-digests", action="store_true",
                        help="compare trace digests against digests.json")
    args = parser.parse_args(argv)
    try:
        if args.write_digests or args.check_digests:
            return digests_command(args.write_digests, args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        out = Bench(args.workload, args.seed, bool(args.trace)).run(args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(out)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
