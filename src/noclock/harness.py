"""Scenario runner: build, execute, evaluate.

A run is fully determined by (Scenario, seed): one RNG drives everything
random (byzantine set, delays, rate schedules, offsets, corruption), events
are totally ordered, and trace evaluation is read-only, so equal inputs give
byte-identical traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import adversary, verdicts
from .kernel import ACTION, DELAY_STEPS, HardwareClock, Simulator, tick_grid
from .node import NodeRuntime
from .params import Params, derive
from .scenario import Scenario, ScenarioError
from .timebase import frac


@dataclass
class RunResult:
    scenario: Scenario
    params: Params
    trace: list
    verdicts: list
    correct: List[int]
    byzantine: List[int]
    index: Optional[verdicts._Index] = None   # the verdicts' index of `trace`

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _plugin_params(sc: Scenario):
    """The run's protocol plugin and the `Params` derived from its round
    count and bit bound; neither draws from the RNG.  A model `derive`
    refuses is a `ScenarioError`."""
    proto = sc.lookup("protocol", "name")(sc.n, sc.f)
    try:
        return proto, derive(sc.n, sc.f, sc.theta, sc.d, proto.rounds,
                             proto.bit_bound, T=sc.T,
                             clock_update_period=sc.clock_update_period)
    except ValueError as exc:
        raise ScenarioError([str(exc)]) from None


def build_params(sc: Scenario) -> Params:
    return _plugin_params(sc)[1]


def build_env(sc: Scenario):
    """Deterministic run environment: RNG, params, node roles, the run's
    protocol plugin, hardware clocks.  The clocks share the run's tick grid
    (`kernel.tick_grid`), which holds d/DELAY_STEPS, the script's times and
    the duration, so every time of the run's trace lies on it.

    The RNG draw order here is part of the reproducibility contract; the same
    RNG continues into the run itself (delays, adversary choices).
    """
    rng = random.Random(sc.seed)
    proto, p = _plugin_params(sc)
    byz = sc.adversary.get("byzantine_set")
    if byz is None:
        byz = sorted(rng.sample(range(sc.n), sc.f)) if sc.f else []
    byz = list(byz)
    correct = [v for v in range(sc.n) if v not in byz]
    # Hardware clocks: offsets on the update-period grid, rates per schedule.
    period_frac = p.grid.from_units(p.update_period)
    offsets = [rng.randint(0, 4 * sc.n) * period_frac for _ in range(sc.n)]
    rates = sc.lookup("clocks", "rates")
    duration = frac(sc.duration)
    clocks = {v: HardwareClock(offsets[v], rates(p.theta, duration, rng),
                               p.grid.unit)
              for v in range(sc.n)}
    tick_grid(clocks.values(), [p.d / DELAY_STEPS, duration,
                                *(entry["t"] for entry in sc.script)])
    return rng, p, byz, correct, proto, clocks


def run(sc: Scenario, evaluate: bool = True, keep_trace: bool = True) -> RunResult:
    sc.validate()
    rng, p, byz, correct, proto, clocks = build_env(sc)

    handlers: Dict[int, object] = {}
    sim = Simulator(p, clocks, handlers, sc.lookup("adversary", "delays"), rng)

    oracle = sc.lookup("oracle", "kind")(sc.oracle, sc.seed)
    strategy = sc.lookup("adversary", "byzantine")
    pace = sc.lookup("adversary", "mode")
    runtimes = {}
    for v in range(sc.n):
        if v in byz:
            handlers[v] = adversary.make_byzantine(strategy, sim, v, proto,
                                                   oracle, pace)
        else:
            handlers[v] = runtimes[v] = NodeRuntime(sim, v, proto, oracle)

    sc.lookup("corruption", "kind")(sim, rng, runtimes)

    for handler in handlers.values():
        handler.start()

    for entry in sc.script:
        sim.schedule(frac(entry["t"]), ACTION, entry["node"], None)
    sim.run_until(sc.duration)

    # The handlers and their layers refer to each other and to the simulator,
    # so they, the simulator and its trace would outlive the run until the
    # next full collection.  Drop the handlers' state now, before the
    # verdicts allocate, so that refcounting frees all the result does not
    # keep.
    for handler in handlers.values():
        vars(handler).clear()
    vds, ix = [], None
    if evaluate:
        ix = verdicts._Index(sim.trace, correct)
        vds = verdicts.evaluate(sim.trace, sc, p, clocks, correct,
                                lambda: proto, ix)
    if not keep_trace:
        return RunResult(sc, p, [], vds, correct, byz)
    return RunResult(sc, p, sim.trace, vds, correct, byz, ix)


def sweep(base: Scenario, axes: Dict[str, list]):
    """RunResults of a cross-product of overrides, all validated before any run."""
    combos: List[dict] = [{}]
    for key, values in axes.items():
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    scenarios = []
    for combo in combos:
        data = base.to_dict()
        for key, value in combo.items():
            outer, dot, inner = key.partition(".")
            if not dot:
                data[key] = value
            elif isinstance(data.get(outer), dict):
                data[outer] = dict(data[outer], **{inner: value})
            else:
                raise ScenarioError([f"sweep axis {key!r}: the scenario has "
                                     f"no section {outer!r}"])
        sc = Scenario.from_dict(data)
        build_params(sc)    # what only `derive` checks, before any run
        scenarios.append(sc)
    return [run(sc, keep_trace=False) for sc in scenarios]
