import hashlib
from fractions import Fraction
from math import log2

import pytest

from noclock.messages import Echo, Init, RoundMsg, Update, well_formed
from noclock.params import derive
from noclock.protocols import make_protocol
from noclock.scenario import Scenario, ScenarioError
from shapes import derive_pk4


@pytest.fixture(scope="module")
def p():
    # n=4, f=1, theta=1.1, d=1, silent phase king: 8 rounds, 38 payload bits.
    return derive_pk4(4, 1, "1.1", "1")


def test_grid_unit_and_quantum(p):
    assert p.grid.unit == Fraction(1, 20)
    assert p.grid.q_units == 5
    assert p.grid.to_units(p.d) == 20


def test_update_period_is_exact(p):
    # 2*theta*d = 2.2, carried exactly on the grid.
    assert p.grid.from_units(p.update_period) == Fraction(11, 5)


def test_consistency_check_bounds(p):
    # (2 theta^2 + theta) d = 3.52 and (2 theta^2 + 4 theta) d = 6.82, each
    # widened by at most one read quantum and floored onto the grid.
    assert p.grid.from_units(p.max_update_gap) == Fraction(15, 4)    # 3.75
    assert Fraction(15, 4) <= Fraction("3.52") + Fraction(1, 4)
    assert p.grid.from_units(p.relay_band) == Fraction(141, 20)      # 7.05
    assert Fraction(141, 20) <= Fraction("6.82") + Fraction(1, 4)
    assert p.grid.from_units(p.min_update_gap) == 1                  # d itself


def test_initiation_bands(p):
    assert p.grid.from_units(p.init_band) == Fraction("3.55")   # 3 theta d + q
    assert p.grid.from_units(p.echo_band) == Fraction("8.8")    # 8 theta d


def test_round_timing_constants(p):
    assert p.grid.from_units(p.first_round_lead) == Fraction("24.2")  # 22 theta d
    # 2 theta d plus the one-quantum reset-stamp slack
    assert p.grid.from_units(p.round_gap) == Fraction("2.45")
    assert p.grid.from_units(p.gate_hold) == Fraction("2.45")


def test_gc_window_ordering(p):
    assert p.trust_regain > p.instance_ttl > p.echo_ttl
    assert p.instance_ttl > p.stall_after > p.first_round_lead


def test_modulus_alignment(p):
    assert p.clock_modulus % p.update_period == 0
    assert p.clock_modulus % 2 == 0
    assert p.clock_modulus > 8 * p.trust_regain


def test_default_T_is_theorem_minimum(p):
    assert p.T == 2 * Fraction("1.1") ** 2 * 1


def test_rejects_bad_resilience():
    with pytest.raises(ValueError):
        derive_pk4(4, 2, "1.1", "1")
    with pytest.raises(ValueError):
        derive_pk4(3, 1, "1.1", "1")


def test_rejects_small_T():
    with pytest.raises(ValueError):
        derive_pk4(4, 1, "1.1", "1", T="2")


@pytest.mark.parametrize("model", [
    {"n": 1, "f": 0}, {"n": 6, "f": 2}, {"f": -1}, {"theta": "0.9"},
    {"theta": "x"}, {"d": "0"}, {"clock_update_period": "1/2"},
    {"clock_update_period": "x"}, {"T": "2.41"},
    {"theta": "0.5", "d": "-1", "T": "-3"}])
def test_derive_rejects_what_validate_reports(model):
    sc = Scenario(**model)
    with pytest.raises(ScenarioError) as reported:
        sc.validate()
    with pytest.raises(ValueError) as raised:
        derive_pk4(sc.n, sc.f, sc.theta, sc.d, T=sc.T,
               clock_update_period=sc.clock_update_period)
    assert str(raised.value) == "; ".join(reported.value.problems)


def test_theta_one_keeps_strict_gc_ordering():
    p1 = derive_pk4(4, 1, "1", "1")
    assert p1.trust_regain > p1.instance_ttl


def test_reduced_update_frequency_scales_clock_side_only():
    slow = derive_pk4(4, 1, "1.1", "1", T="3", clock_update_period="3")
    fast = derive_pk4(4, 1, "1.1", "1", T="3")
    assert slow.update_period == 3 * fast.update_period
    assert slow.round_gap == fast.round_gap  # round pacing stays with d


def test_instance_budget_covers_healthy_traffic(p):
    # A full healthy instance sends one frame per peer per round.
    per_round = (p.n - 1) * (RoundMsg((0, 0), 1, None).frame_bits(p) + 2)
    for r in range(1, p.rounds + 1):
        assert r * per_round < p.instance_budget[r]


@pytest.mark.parametrize("period", [None, "3"])
def test_verdict_windows_derive_from_the_params(period):
    q = derive_pk4(4, 1, "1.1", "1", T="3", clock_update_period=period)
    assert q.bits_window == 10 * q.T


def test_none_is_no_clock_value_but_an_update_may_carry_it(p):
    assert not p.clock_value_ok(None)
    assert p.clock_value_ok(0) and p.clock_value_ok(p.clock_modulus - 1)
    assert not p.clock_value_ok(p.clock_modulus)
    assert not well_formed(Init(None), p)
    assert not well_formed(Echo((0, None)), p)
    assert not well_formed(RoundMsg((0, None), 1, None), p)
    assert well_formed(Init(5), p) and well_formed(Echo((0, 5)), p)
    assert well_formed(RoundMsg((0, 5), 1, None), p)
    assert well_formed(Update((None,) * p.n), p)
    assert well_formed(Update((None, 5) + (None,) * (p.n - 2)), p)


# Each limit and window a verdict applies, keyed by the `Params` field that
# holds it, written as `verdicts.py` computed it before `params.derive` did.
# The floats keep their float expressions: converting the exact value instead
# moves the last bit (cap 876.8 against 876.7999999999998 at n=4, theta=1.1).
def verdict_bounds(p):
    g, d, dc = p.grid, p.d, p.d_clk
    theta, fd = float(p.theta), float(p.d)
    lead = g.from_units(p.first_round_lead)
    return {
        "unfinished_tail": g.from_units(p.stall_after + 5 * p.update_period),
        "min_join_delay": 2 * d,
        "max_k1": 16, "max_k2": 8, "max_k3": 6, "max_k4": 10, "max_k5": 8,
        "min_duration": 1 * p.rounds,
        "max_duration": 12 * p.rounds + lead * (dc - d) / (dc * d),
        "estimate_band": g.ceil_units(3 * p.theta * dc) + g.q_units,
        "estimate_t0_bound": 3 * (g.from_units(p.trust_regain) + p.d),
        "bits_denom": (p.n ** 2 * max(1.0, log2(p.n))
                       + p.n * p.bit_bound * p.rounds / float(p.T)),
        "infra_bits_denom": p.n ** 2 * max(1.0, log2(p.n)),
        "max_c_bits": 64,
        "envelope_cap": (float(g.from_units(p.trust_regain)) / theta
                         - (2 * theta + 1) * fd),
        "envelope_rate_hi": 2 * theta,
        "envelope_rate_lo": 2 / (2 * theta + 3),
        "rarity_window": g.from_units(p.overload_window) / p.theta,
    }


BOUND_CASES = [(n, theta, d, d_clk)
               for n in (4, 7, 10, 16)
               for theta in ("1", "1.1", "1.125", "1.5")
               for d in (Fraction(1), Fraction(3, 2))
               for d_clk in (d, 3 * d)]
# sha256 of every bound of every case, as the reference computes it.
BOUNDS_DIGEST = "da65a3902dadf92943d786830947891b2d79f70860be98ae910ba02913ce35e3"


def test_verdict_bounds_keep_their_formulas():
    # Each `Params` bound equals, to the last bit and in type, the formula it
    # replaced; the digest keeps those formulas as they were.
    lines = []
    for n, theta, d, d_clk in BOUND_CASES:
        f = (n - 1) // 3
        proto = make_protocol("phase-king-silent", n, f)
        q = derive(n, f, theta, d, proto.rounds, proto.bit_bound,
                   clock_update_period=d_clk)
        for name, value in verdict_bounds(q).items():
            lines.append(f"{n} {theta} {d} {d_clk} {name} {value!r}")
            assert repr(getattr(q, name)) == repr(value), lines[-1]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDS_DIGEST, text
