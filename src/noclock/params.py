"""Derived protocol constants.

Every timing bound, timeout duration, garbage-collection window, overload
threshold and bit budget used anywhere in the library is computed here, once,
from the scenario-level quantities (n, f, theta, d, T, round count, clock
update period).  Modules never hard-code a bound.

Conventions:
  * d is the message-delay bound; d_clk is the (possibly reduced-frequency)
    base interval of the clock-update machinery, default d.
  * Local-time state is integer multiples of `grid.unit`; readings are floored
    to the read quantum d/4 before protocol logic sees them.  Inequality
    bounds taken from the drift analysis are widened by one read quantum so
    quantized readings of legal behavior can never trip a consistency check.
  * Clock values carried in messages live modulo `clock_modulus`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log2

from .timebase import LocalGrid, frac, frac_gcd

# Slack multiplier used in the stall/overload formulas; the analysis only
# fixes these up to a constant.
RUN_SLACK = 4
# Per-round, per-receiver carrier-frame allowance multiplier in the instance
# bit budget (covers tag + label + round index + presence framing).
HDR_BUDGET = 32
MSG_TAG_BITS = 3


@dataclass(frozen=True)
class Params:
    n: int
    f: int
    theta: Fraction
    d: Fraction
    rounds: int                  # rounds of the wrapped (silent) protocol
    bit_bound: int               # declared per-node payload bits of that protocol
    T: Fraction                  # min local time between own initiations
    d_clk: Fraction              # base interval of clock-update machinery
    judging_horizon: Fraction    # S: corrupted-boot instances judged after it

    grid: LocalGrid

    # All fields below are ints in grid units unless noted otherwise.
    quantum: int
    update_period: int           # local time between clock-update broadcasts
    max_update_gap: int          # reading gap above which a sender is too slow
    min_update_gap: int          # reading gap below which a sender is too fast
    relay_band: int              # admissible spread between direct and relayed claims
    init_band: int               # |stamp - estimate| bound for echoing an init
    echo_band: int               # |stamp - estimate| bound for storing an echo
    gate_hold: int               # participation-gate timeout (per-label echo timer)
    report_hold: int             # relay-withhold duration after an inconsistency
    trust_regain: int            # trust-withhold duration after an inconsistency
    first_round_lead: int        # local lead from joining to the first round threshold
    round_gap: int               # threshold bump after a full-quorum round
    stall_after: int             # no-progress window before forced 0-output
    echo_ttl: int                # stored-echo lifetime
    instance_ttl: int            # stored-instance lifetime
    clock_modulus: int
    init_accept_gap: int         # min reading gap between accepted inits per initiator
    rate_limit: int              # T in units (own-initiation spacing)
    overload_window: int         # sliding window for per-initiator instance counts
    max_busy_instances: int      # overload rule (i) threshold
    max_total_instances: int     # overload rule (ii) threshold
    quarantine_hold: int         # send-suppression time before the wipe
    unfinished_tail: int         # end-of-run stretch unfinished instances may end in

    value_bits: int              # wire bits per clock value / stamp
    id_bits: int
    round_bits: int

    def clock_value_ok(self, v: object) -> bool:
        return v is None or (isinstance(v, int) and 0 <= v < self.clock_modulus)

    def update_msg_bits(self) -> int:
        return MSG_TAG_BITS + self.n * (1 + self.value_bits)

    def init_msg_bits(self) -> int:
        return MSG_TAG_BITS + self.value_bits

    def echo_msg_bits(self) -> int:
        return MSG_TAG_BITS + self.id_bits + self.value_bits

    def round_frame_bits(self) -> int:
        return MSG_TAG_BITS + self.id_bits + self.value_bits + self.round_bits + 1

    def instance_budget(self, r: int) -> int:
        """Cumulative per-node bit allowance for one instance through round r."""
        return self.bit_bound + HDR_BUDGET * r * self.n * max(1, ceil(log2(self.n)))


def derive(n: int, f: int, theta, d, rounds: int, bit_bound: int, T=None,
           clock_update_period=None) -> Params:
    """Build the full constants set for one scenario."""
    theta = frac(theta)
    d = frac(d)
    d_clk = d if clock_update_period is None else frac(clock_update_period)
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if not (0 <= f) or not (f * 3 < n):
        raise ValueError(f"need 0 <= f < n/3, got n={n}, f={f}")
    if d <= 0 or d_clk < d:
        raise ValueError("need 0 < d <= clock_update_period")
    if T is None:
        T = 2 * theta * theta * d
    T = frac(T)
    if T < 2 * theta * theta * d:
        raise ValueError(f"T must be at least 2*theta^2*d = {2*theta*theta*d}")

    quantum = d / 4
    period = 2 * theta * d_clk
    lead = 22 * theta * d_clk
    unit = frac_gcd(frac_gcd(quantum, period), frac_gcd(lead, 2 * theta * d))
    grid = LocalGrid(unit, quantum)
    q = quantum

    round_window = (2 * theta + 4) * d
    instance_window = lead + (rounds + 1) * round_window
    inst_ttl = theta * instance_window * (rounds + 2)
    # Trust must return strictly after instance memory is wiped; at theta = 1
    # the two formulas coincide, so push the regain out by one update period.
    regain = max(theta * inst_ttl, inst_ttl + period)
    echo_window = 2 * theta * d_clk + 4 * d_clk

    modulus_raw = 64 * (lead + period * (rounds + 3) + regain)
    period_u = grid.to_units(period)
    stall = grid.ceil_units(lead + theta * round_window + q)
    modulus = -(-grid.ceil_units(modulus_raw) // period_u) * period_u
    if modulus % 2:
        modulus += period_u

    t_tilde = (T / theta - d) / theta
    k1 = ceil(RUN_SLACK * rounds * d / t_tilde) + 1
    k2 = ceil((n - f) * d * RUN_SLACK * rounds / t_tilde) + n

    # Claim values advance on the update-period grid, which the read quantum
    # does not subdivide, so wire values are encoded at grid-unit granularity.
    value_bits = max(1, ceil(log2(modulus)))
    p = Params(
        n=n, f=f, theta=theta, d=d, rounds=rounds, bit_bound=bit_bound, T=T,
        d_clk=d_clk, judging_horizon=10 * (rounds * d + T), grid=grid,
        quantum=grid.q_units,
        update_period=period_u,
        max_update_gap=grid.floor_units((2 * theta * theta + theta) * d_clk + q),
        min_update_gap=grid.floor_units(d),
        relay_band=grid.floor_units((2 * theta * theta + 4 * theta) * d_clk + q),
        init_band=grid.floor_units(3 * theta * d_clk + q),
        echo_band=grid.floor_units(8 * theta * d_clk),
        # Timer resets are stamped with the floor-quantized reading, which can
        # predate the triggering event by up to one quantum; one quantum of
        # inflation keeps the gate and the round gap at >= 2d of real time.
        gate_hold=grid.to_units(2 * theta * d_clk + q),
        report_hold=grid.to_units(period),
        trust_regain=grid.ceil_units(regain),
        first_round_lead=grid.to_units(lead),
        round_gap=grid.to_units(2 * theta * d + q),
        stall_after=stall,
        echo_ttl=grid.ceil_units(theta * echo_window),
        instance_ttl=grid.ceil_units(inst_ttl),
        clock_modulus=modulus,
        init_accept_gap=grid.floor_units(T / theta - d - q),
        rate_limit=grid.ceil_units(T),
        overload_window=grid.ceil_units(theta * t_tilde),
        max_busy_instances=k1,
        max_total_instances=k2,
        quarantine_hold=grid.ceil_units(theta * d),
        # An instance without progress terminates within the stall window plus
        # a couple of sweep ticks, so only instances still active that close
        # to the end of a run may lack outputs.
        unfinished_tail=stall + 5 * period_u,
        value_bits=value_bits,
        id_bits=max(1, ceil(log2(n))),
        round_bits=max(1, ceil(log2(rounds + 2))),
    )
    _check(p)
    return p


def _check(p: Params) -> None:
    # One-quantum inflation contract for the consistency checks, and the
    # GC-window ordering the self-stabilization argument needs.
    g = p.grid
    assert g.from_units(p.update_period) == 2 * p.theta * p.d_clk
    assert p.trust_regain > p.instance_ttl > p.echo_ttl
    assert p.instance_ttl > p.stall_after
    assert p.clock_modulus % p.update_period == 0
    assert p.clock_modulus > 8 * p.trust_regain
    assert g.from_units(p.max_update_gap) <= (2 * p.theta**2 + p.theta) * p.d_clk + g.quantum
    assert g.from_units(p.relay_band) <= (2 * p.theta**2 + 4 * p.theta) * p.d_clk + g.quantum
