"""The benchmark's workloads: each is a fixed list of scenarios made from a seed.

A workload function takes the seed base and returns the scenarios of one
round.  The program under test receives only these scenarios, so a gain can be
re-checked on a seed that was not used while the change was written.  Byzantine
sets are drawn from the seed but never contain the scripted initiators, so
every scripted initiation comes from a correct node.
"""

from __future__ import annotations

import random

from noclock.scenario import Scenario


def _byzantine_set(n: int, f: int, seed: int, initiators) -> list:
    pool = [v for v in range(n) if v not in initiators]
    return sorted(random.Random(7919 * seed + n).sample(pool, f))


def _round_robin(nodes, start: int, stop: int, every: int) -> list:
    return [{"t": str(t), "node": nodes[k % len(nodes)], "action": "initiate"}
            for k, t in enumerate(range(start, stop, every))]


def steady_n16(seed: int) -> list:
    n, f = 16, 5
    byz = _byzantine_set(n, f, seed, (0, 1))
    return [Scenario(
        n=n, f=f, theta="1.1", duration="220", seed=seed,
        adversary={"byzantine": "clock_skew", "mode": "alternating",
                   "delays": "uniform", "byzantine_set": byz},
        oracle={"kind": "const", "value": 1},
        script=[{"t": "20", "node": 0, "action": "initiate"},
                {"t": "60", "node": 1, "action": "initiate"}])]


def busy_n7(seed: int) -> list:
    n, f = 7, 2
    byz = _byzantine_set(n, f, seed, ())
    correct = [v for v in range(n) if v not in byz]
    return [Scenario(
        n=n, f=f, theta="1.1", duration="400", seed=seed,
        adversary={"byzantine": "noise", "delays": "uniform",
                   "byzantine_set": byz},
        oracle={"kind": "const", "value": 1},
        # Initiations stop 10 d before the end: timing-windows counts an
        # init that no node could join yet as a missing participant.
        script=_round_robin(correct, 6, 390, 3))]


def recover_n7(seed: int) -> list:
    # Estimates converge near 1485 d at n=7 (trust_regain is 1551 local
    # units), so initiations start at 1700 d, after recovery on every seed.
    n, f = 7, 2
    byz = _byzantine_set(n, f, seed, ())
    correct = [v for v in range(n) if v not in byz]
    return [Scenario(
        n=n, f=f, theta="1.1", duration="2400", seed=seed,
        adversary={"byzantine": "noise", "delays": "split",
                   "byzantine_set": byz},
        corruption={"kind": "random"},
        script=_round_robin(correct, 1700, 2400, 20))]


# Strategy, oracle and mode, as in the acceptance sweep.
SWEEP_STRATEGIES = [
    ("silent", {"kind": "const", "value": 0}, None),
    ("noise", {"kind": "const", "value": 1}, None),
    ("split_echo", {"kind": "mixed"}, None),
    ("equivocate_rounds", {"kind": "const", "value": 1}, None),
    ("clock_skew", {"kind": "mixed"}, "alternating"),
]
SWEEP_SEEDS_PER_CONFIG = 2


def sweep_accept(seed: int) -> list:
    scenarios = []
    for n in (4, 7, 10):
        f = (n - 1) // 3
        for theta in ("1.0", "1.1"):
            for adv, oracle, mode in SWEEP_STRATEGIES:
                for k in range(SWEEP_SEEDS_PER_CONFIG):
                    s = seed + k
                    byz = _byzantine_set(n, f, s, (0, 1))
                    script = [{"t": "6", "node": 0, "action": "initiate"},
                              {"t": "13", "node": 1, "action": "initiate"}]
                    if adv == "split_echo":
                        script.append({"t": "10", "node": byz[0],
                                       "action": "initiate"})
                    advd = {"byzantine": adv, "delays": "uniform",
                            "byzantine_set": byz}
                    if mode:
                        advd["mode"] = mode
                    scenarios.append(Scenario(
                        n=n, f=f, theta=theta, duration="110", seed=s,
                        adversary=advd, oracle=dict(oracle), script=script))
    return scenarios


WORKLOADS = {
    "steady-n16": steady_n16,
    "busy-n7": busy_n7,
    "recover-n7": recover_n7,
    "sweep-accept": sweep_accept,
}
