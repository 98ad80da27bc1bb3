"""The adversary's delay draws must be `Random.randint`'s draws exactly: the
seeded RNG stream is part of every pinned trace."""

import random
from fractions import Fraction

import pytest

from noclock import adversary, harness
from noclock.node import NodeRuntime
from noclock.scenario import Scenario

# Every (a, b) range a delay policy draws from.
RANGES = [(adversary._LO, adversary._HI),
          (adversary._LO, adversary._LO + 48),
          (adversary._HI - 48, adversary._HI),
          (0, 32), (1, 4)]


def test_randint_helper_matches_random_randint_value_and_state():
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        for k in range(300):
            a, b = RANGES[(seed + k * k) % len(RANGES)]
            assert adversary._randint(ours, a, b) == ref.randint(a, b)
        assert ours.getstate() == ref.getstate()



def fraction_random_steps(theta, duration, rng):
    """The `random_steps` schedule drawn in `Fraction` arithmetic
    throughout: the reference its table-driven draw must match."""
    if theta == 1:
        return [(0, Fraction(1))]
    segs = []
    t = Fraction(0)
    while t < duration:
        step = Fraction(rng.randint(0, 8), 8)
        segs.append((t, 1 + step * (theta - 1)))
        t += rng.randint(2, 12)
    return segs


@pytest.mark.parametrize("theta", ["1", "1.1", "1.25", "2", "4"])
@pytest.mark.parametrize("duration", ["1", "110", "2400", "221/2"])
def test_random_steps_draws_the_fraction_schedule_and_rng_state(
        theta, duration):
    theta, duration = Fraction(theta), Fraction(duration)
    for seed in range(6):
        ours, ref = random.Random(seed), random.Random(seed)
        got = adversary.RATE_SCHEDULES["random_steps"](theta, duration, ours)
        want = fraction_random_steps(theta, duration, ref)
        assert [(Fraction(t), Fraction(r)) for t, r in got] == want
        assert ours.getstate() == ref.getstate()


def test_every_rate_schedule_at_theta_one_is_one_rate_and_draws_nothing():
    for schedule in adversary.RATE_SCHEDULES.values():
        rng = random.Random(3)
        state = rng.getstate()
        assert schedule(Fraction(1), Fraction(50), rng) == [(0, 1)]
        assert rng.getstate() == state


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("seed", range(30))
def test_corrupted_registers_are_in_bounds_after_the_first_tick(
        monkeypatch, n, seed):
    """Each correct node's first tick brings every register a corrupted boot
    wrote back within its bound of the node's local time."""
    tick = NodeRuntime._tick
    checked = set()

    def checked_tick(rt, now):
        tick(rt, now)
        if rt.node in checked:
            return
        checked.add(rt.node)
        p = rt.p
        cs, ini, guard = rt.clocksync, rt.initiation, rt.guard
        assert max(cs.last_update_at) <= now
        assert all(at <= now for ats in ini.stored.values()
                   for at in ats.values())
        assert all(h <= now + p.report_hold
                   for h in cs.report_hold_until if h is not None)
        assert all(h <= now + p.trust_regain
                   for h in cs.trust_hold_until if h is not None)
        assert all(rx <= now for rx in ini.last_init_rx if rx is not None)
        assert ini.last_own_init is None or ini.last_own_init <= now
        for inst in rt.rounds.instances.values():
            assert now - p.instance_ttl <= inst.joined_at <= now
            assert inst.last_progress <= now
        assert (guard.suppress_until is None
                or guard.suppress_until <= now + p.quarantine_hold)
        if not guard.suppressed(now):
            assert all(t <= now for q in guard.joins.values() for t in q)

    monkeypatch.setattr(NodeRuntime, "_tick", checked_tick)
    res = harness.run(Scenario(
        n=n, f=(n - 1) // 3, duration="3", seed=seed,
        adversary={"byzantine": ("noise", "silent")[seed % 2],
                   "delays": "split"},
        corruption={"kind": "random"}), evaluate=False)
    assert checked == set(res.correct)
