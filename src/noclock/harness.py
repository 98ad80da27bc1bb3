"""Scenario runner: build, execute, evaluate.

A run is fully determined by (Scenario, seed): one RNG drives everything
random (byzantine set, delays, rate schedules, offsets, corruption), events
are totally ordered, and trace evaluation is read-only, so equal inputs give
byte-identical traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from . import adversary, protocols, verdicts
from .kernel import ACTION, HardwareClock, Simulator
from .node import NodeRuntime
from .params import Params, derive
from .scenario import Scenario
from .timebase import frac


@dataclass
class RunResult:
    scenario: Scenario
    params: Params
    trace: list
    metrics: List[dict]
    verdicts: list
    correct: List[int]
    byzantine: List[int]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, name: str):
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def make_oracle(config: dict, seed: int):
    kind = config.get("kind", "const")
    if kind == "const":
        value = int(config.get("value", 1))

        def oracle(label, node, now):
            return value
    elif kind == "mixed":
        def oracle(label, node, now):
            x = (label[0] * 1000003 + label[1] * 7919 + node * 104729 + seed)
            return (x * 2654435761 >> 7) & 1
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    return oracle


def build_params(sc: Scenario) -> Params:
    proto = protocols.make_protocol(sc.protocol["name"], sc.n, sc.f)
    return derive(sc.n, sc.f, sc.theta, sc.d, proto.rounds, proto.bit_bound,
                  T=sc.T, clock_update_period=sc.clock_update_period)


def build_env(sc: Scenario):
    """Deterministic run environment: params, node roles, hardware clocks.

    The RNG draw order here is part of the reproducibility contract; the same
    RNG continues into the run itself (delays, adversary choices).
    """
    rng = random.Random(sc.seed)
    p = build_params(sc)
    duration = frac(sc.duration)
    byz = sc.adversary.get("byzantine_set")
    if byz is None:
        byz = sorted(rng.sample(range(sc.n), sc.f)) if sc.f else []
    byz = list(byz)
    correct = [v for v in range(sc.n) if v not in byz]
    # Hardware clocks: offsets on the update-period grid, rates per schedule.
    period_frac = p.grid.from_units(p.update_period)
    offsets = [rng.randint(0, 4 * sc.n) * period_frac for _ in range(sc.n)]
    clocks = {}
    for v in range(sc.n):
        kind = sc.clocks.get("rates", "random_steps")
        clocks[v] = HardwareClock(offsets[v],
                                  adversary.make_rate_schedule(kind, p.theta,
                                                               duration, rng))
    return rng, p, byz, correct, offsets, clocks


def run(sc: Scenario, evaluate: bool = True, keep_trace: bool = True) -> RunResult:
    sc.validate()
    rng, p, byz, correct, offsets, clocks = build_env(sc)
    duration = frac(sc.duration)

    delay_policy = adversary.make_delay_policy(
        sc.adversary.get("delays", "uniform"), p.d)
    handlers: Dict[int, object] = {}
    sim = Simulator(sc.n, clocks, handlers, delay_policy, p.grid, rng, p.d)

    proto = protocols.make_protocol(sc.protocol["name"], sc.n, sc.f)
    oracle = make_oracle(sc.oracle, sc.seed)
    runtimes = {}
    for v in range(sc.n):
        if v in byz:
            handlers[v] = adversary.make_byzantine(
                sc.adversary.get("byzantine", "silent"), sim, v, p,
                proto, oracle, mode=sc.adversary.get("mode"))
        else:
            handlers[v] = runtimes[v] = NodeRuntime(sim, v, p, proto, oracle)

    corruption = sc.corruption.get("kind", "none")
    if corruption == "none":
        # Every handler that keeps clock estimates, byzantine ones included,
        # boots knowing everyone's claim.
        claims = [(p.grid.to_units(offsets[w]) // p.update_period)
                  * p.update_period % p.clock_modulus for w in range(sc.n)]
        for v, handler in handlers.items():
            if hasattr(handler, "clocksync"):
                handler.clocksync.boot_clean(claims,
                                             p.grid.to_units(offsets[v]))
    elif corruption == "random":
        horizon = 4 * p.stall_after
        for v, rt in runtimes.items():
            adversary.corrupt_runtime(rt, rng, horizon)
        adversary.random_garbage(sim, p, rng)
    else:
        raise ValueError(f"unknown corruption kind {corruption!r}")

    for handler in handlers.values():
        handler.start()

    for entry in sc.script:
        sim.schedule(frac(entry["t"]), ACTION, entry["node"],
                     (entry.get("action", "initiate"),))

    sim.run_until(duration)

    metrics = [runtimes[v].guard.metrics() for v in sorted(runtimes)]
    vds = verdicts.evaluate(sim.trace, sc, p, clocks, correct,
                            lambda: proto) if evaluate else []
    return RunResult(sc, p, sim.trace if keep_trace else [], metrics, vds,
                     correct, byz)


def sweep(base: Scenario, axes: Dict[str, list], evaluate: bool = True):
    """Cross-product of scenario overrides; returns the list of RunResults."""
    combos: List[dict] = [{}]
    for key, values in axes.items():
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    results = []
    for combo in combos:
        data = base.to_dict()
        for key, value in combo.items():
            if "." in key:
                outer, inner = key.split(".", 1)
                data[outer] = dict(data[outer], **{inner: value})
            else:
                data[key] = value
        results.append(run(Scenario.from_dict(data), evaluate=evaluate,
                           keep_trace=False))
    return results
