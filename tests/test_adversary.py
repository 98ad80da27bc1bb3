"""The adversary's delay draws must be `Random.randint`'s draws exactly: the
seeded RNG stream is part of every pinned trace."""

import random

from noclock import adversary

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

