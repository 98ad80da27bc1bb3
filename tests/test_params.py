from fractions import Fraction

import pytest

from noclock.messages import Echo, Init, RoundMsg, Update, well_formed
from noclock.params import derive


@pytest.fixture(scope="module")
def p():
    # n=4, f=1, theta=1.1, d=1, silent phase king: 8 rounds, 38 payload bits.
    return derive(4, 1, "1.1", "1", 8, 38)


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
        derive(4, 2, "1.1", "1", 8, 38)
    with pytest.raises(ValueError):
        derive(3, 1, "1.1", "1", 8, 38)


def test_rejects_small_T():
    with pytest.raises(ValueError):
        derive(4, 1, "1.1", "1", 8, 38, T="2")


def test_theta_one_keeps_strict_gc_ordering():
    p1 = derive(4, 1, "1", "1", 8, 38)
    assert p1.trust_regain > p1.instance_ttl


def test_reduced_update_frequency_scales_clock_side_only():
    slow = derive(4, 1, "1.1", "1", 8, 38, T="3", clock_update_period="3")
    fast = derive(4, 1, "1.1", "1", 8, 38, T="3")
    assert slow.update_period == 3 * fast.update_period
    assert slow.round_gap == fast.round_gap  # round pacing stays with d


def test_instance_budget_covers_healthy_traffic(p):
    # A full healthy instance sends one frame per peer per round.
    per_round = (p.n - 1) * (RoundMsg((0, 0), 1, None).frame_bits(p) + 2)
    for r in range(1, p.rounds + 1):
        assert r * per_round < p.instance_budget(r)


@pytest.mark.parametrize("period", [None, "3"])
def test_verdict_windows_derive_from_the_params(period):
    q = derive(4, 1, "1.1", "1", 8, 38, T="3", clock_update_period=period)
    assert q.bits_window == 10 * q.T
    # timing-windows stretches its duration cap by the lead's extra length.
    lead = q.grid.from_units(q.first_round_lead)
    assert lead * (q.d_clk - q.d) / (q.d_clk * q.d) \
        == 22 * q.theta * (q.d_clk - q.d) / q.d


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
