"""Scenario shapes and helpers the test modules share.

The clean shape: n=4, seed 3, node 3 silent, one initiation by node 0 at
8 d, 110 d.  The sweep shape: f = (n-1)//3, two correct initiators (nodes 0
and 1) at 6 d and 13 d, plus a byzantine one at 10 d for `split_echo`, 110 d
by default.  The corrupted shape: an n=4 random boot of 1100 d with two
correct initiations after the judging horizon.
"""

import random

from noclock import harness, verdicts
from noclock.params import Params, derive
from noclock.scenario import Scenario


def derive_pk4(n, f, theta, d, **kw) -> Params:
    """`derive` with the n=4 phase king's round count (8) and bit bound
    (38), which the unit tests use at every n."""
    return derive(n, f, theta, d, 8, 38, **kw)


def by_name(vds, name):
    """The verdict called `name` among `vds`."""
    return next(v for v in vds if v.name == name)


def rejudge(sc, res, trace):
    """The verdicts on `trace`, a possibly tampered trace of the run `res`
    of `sc`, judged with the scenario's plugin and fresh clocks."""
    _rng, _p, _byz, _correct, proto, clocks = harness.build_env(sc)
    return verdicts.evaluate(trace, sc, res.params, clocks, res.correct,
                             lambda: proto)


def clean_scenario(**over) -> Scenario:
    base = dict(n=4, f=1, theta="1.1", d="1", duration="110", seed=3,
                adversary={"byzantine": "silent", "delays": "uniform",
                           "byzantine_set": [3]},
                script=[{"t": "8", "node": 0, "action": "initiate"}])
    base.update(over)
    return Scenario(**base)

# (byzantine strategy, oracle, clock_skew mode) of each sweep adversary.
STRATEGIES = [
    ("silent", {"kind": "const", "value": 0}, None),
    ("noise", {"kind": "const", "value": 1}, None),
    ("split_echo", {"kind": "mixed"}, None),
    ("equivocate_rounds", {"kind": "const", "value": 1}, None),
    ("clock_skew", {"kind": "mixed"}, "alternating"),
]


def byzantine_set(n, f, seed):
    # Nodes 0 and 1 stay correct so the scripted initiators are correct.
    return sorted(random.Random(9000 + seed).sample(range(2, n), f))


def sweep_scenario(n, adv, oracle, mode, theta="1.1", seed=0,
                   duration="110") -> Scenario:
    f = (n - 1) // 3
    byz = byzantine_set(n, f, seed)
    script = [{"t": "6", "node": 0, "action": "initiate"},
              {"t": "13", "node": 1, "action": "initiate"}]
    if adv == "split_echo":
        script.append({"t": "10", "node": byz[0], "action": "initiate"})
    advd = {"byzantine": adv, "delays": "uniform", "byzantine_set": byz}
    if mode:
        advd["mode"] = mode
    return Scenario(n=n, f=f, theta=theta, duration=duration, seed=seed,
                    adversary=advd, oracle=dict(oracle), script=script)


def corrupted_scenario(seed, adv, delays) -> Scenario:
    return Scenario(n=4, f=1, theta="1.1", duration="1100", seed=seed,
                    adversary={"byzantine": adv, "delays": delays,
                               "byzantine_set": [2 + seed % 2]},
                    corruption={"kind": "random"},
                    script=[{"t": "1000", "node": 0, "action": "initiate"},
                            {"t": "1004", "node": 1, "action": "initiate"}])
