"""Derived protocol constants.

Every timing bound, timeout duration, garbage-collection window, overload
threshold, bit budget and verdict bound used anywhere in the library is
computed here, once, from the scenario-level quantities (n, f, theta, d, T,
round count, clock update period), and `parse_model` is the one check of
those quantities; `derive` adds only the check of a bound it derives from
them with the round count.  Modules never hard-code a bound.

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

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2

from .timebase import LocalGrid, frac, frac_gcd

# Slack multiplier used in the stall/overload formulas; the analysis only
# fixes these up to a constant.
RUN_SLACK = 4
# Per-round, per-receiver carrier-frame allowance multiplier in the instance
# bit budget (covers tag + label + round index + presence framing).
HDR_BUDGET = 32


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
    bits_window: Fraction        # real-time window of the amortized-bits totals

    grid: LocalGrid

    # All fields below are ints in grid units unless noted otherwise.
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

    value_bits: int              # wire bits per clock value / stamp
    id_bits: int
    round_bits: int
    instance_budget: tuple       # by round r: one instance's bits through r

    # Verdict bounds: every limit and window a verdict applies.  Times are
    # real time; each K is in units of d or d_clk, as its verdict measures it.
    unfinished_tail: Fraction    # end-of-run stretch unfinished instances may end in
    min_join_delay: Fraction     # earliest join after the init
    max_k1: int                  # Byzantine estimate outside its envelope, in d
    max_k2: int                  # init to a join, in d_clk
    max_k3: int                  # spread of one instance's echoes, in d_clk
    max_k4: int                  # spread of one instance's joins, in d_clk
    max_k5: int                  # spread of one instance's outputs, in d
    min_duration: int            # least time from init to last output, in d
    max_duration: Fraction       # most time from init to last output, in d
    estimate_band: int           # lag of an accurate clock estimate, in units
    estimate_t0_bound: Fraction  # latest time of an inaccurate clock estimate
    bits_denom: float            # bits per node and time that make c_bits 1
    infra_bits_denom: float      # the same for c_infra, infrastructure alone
    max_c_bits: int              # amortized bits, in either denominator
    envelope_cap: float          # widest pair of estimates the envelope judges
    envelope_rate_hi: float      # fastest legal progress of an estimate
    envelope_rate_lo: float      # slowest legal progress of an estimate
    rarity_window: Fraction      # least gap between one initiator's nonzero instances

    def clock_value_ok(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self.clock_modulus


def parse_number(key: str, x, problems: list):
    """The exact value of the scenario number `key`, or None, with a problem
    that names the key, if `x` does not parse or is too large for a float:
    some verdict bounds and measured constants are floats."""
    try:
        value = frac(x)
    except (TypeError, ValueError) as exc:
        problems.append(f"{key}: {exc}")
        return None
    if not _fits_float(value):
        problems.append(f"{key}: {x} is too large for a float")
        return None
    return value


def _fits_float(x: Fraction) -> bool:
    try:
        float(x)
    except OverflowError:
        return False
    return True


def parse_model(n: int, f: int, theta, d, T=None, clock_update_period=None):
    """The model's exact (theta, d, T, d_clk), and the constraints it breaks:
    n >= 2, 0 <= f < n/3, theta >= 1, 0 < d <= d_clk and T >= 2*theta^2*d,
    each number and 2*theta^2*d, the default T, fitting a float.

    The problems read as `Scenario.validate` reports them, in its order.  A
    number that does not parse, or that is not given, is None; only T and
    the clock update period may be left out.
    """
    problems = []
    x_theta = parse_number("theta", theta, problems)
    x_d = parse_number("d", d, problems)
    x_T = None if T is None else parse_number("T", T, problems)
    x_clk = (None if clock_update_period is None
             else parse_number("clock_update_period", clock_update_period,
                               problems))
    if n < 2:
        problems.append(f"n={n} too small")
    if not (0 <= f and 3 * f < n):
        problems.append(f"resilience bound violated: need f < n/3, "
                        f"got n={n}, f={f}")
    if x_theta is not None and x_theta < 1:
        problems.append(f"theta={x_theta} below 1")
    if x_d is not None and x_d <= 0:
        problems.append(f"d={d} must be positive")
    if x_clk is not None and x_d is not None and x_clk < x_d:
        problems.append(f"clock_update_period={clock_update_period} "
                        f"below d={d}")
    least_T = None if None in (x_theta, x_d) else 2 * x_theta * x_theta * x_d
    if least_T is not None and not _fits_float(least_T):
        problems.append(f"theta={theta}, d={d}: 2*theta^2*d, the least T, "
                        f"is too large for a float")
    elif None not in (least_T, x_T) and x_T < least_T:
        problems.append(f"T={T} below 2*theta^2*d={least_T}")
    return (x_theta, x_d, x_T, x_clk), problems


def derive(n: int, f: int, theta, d, rounds: int, bit_bound: int, T=None,
           clock_update_period=None) -> Params:
    """Build the full constants set for one scenario.  A ValueError names
    what is wrong with the model: a `parse_model` problem, or the latest time
    a clock estimate may be off, which grows with theta, d, the clock update
    period and the round count, too large for a float."""
    given = (("theta", theta), ("d", d),
             ("clock_update_period", clock_update_period))
    (theta, d, T, d_clk), problems = parse_model(n, f, theta, d, T,
                                                 clock_update_period)
    if problems:
        raise ValueError("; ".join(problems))
    d_clk = d if d_clk is None else d_clk
    T = 2 * theta * theta * d if T is None else T

    q = d / 4
    period = 2 * theta * d_clk
    lead = 22 * theta * d_clk
    unit = frac_gcd(frac_gcd(q, period), frac_gcd(lead, 2 * theta * d))
    grid = LocalGrid(unit, q)

    round_window = (2 * theta + 4) * d
    instance_window = lead + (rounds + 1) * round_window
    inst_ttl = theta * instance_window * (rounds + 2)
    # Trust must return strictly after instance memory is wiped; at theta = 1
    # the two formulas coincide, so push the regain out by one update period.
    regain = max(theta * inst_ttl, inst_ttl + period)
    echo_window = 2 * theta * d_clk + 4 * d_clk

    modulus_raw = 64 * (lead + period * (rounds + 3) + regain)
    period_u = grid.to_units(period)
    regain_u = grid.ceil_units(regain)
    t0_bound = 3 * (grid.from_units(regain_u) + d)
    if not _fits_float(t0_bound):
        model = ", ".join(f"{key}={x}" for key, x in given if x is not None)
        raise ValueError(f"{model}: 3*(trust regain + d), the latest time a "
                         f"clock estimate may be off, is too large for a float")
    stall = grid.ceil_units(lead + theta * round_window + q)
    modulus = -(-grid.ceil_units(modulus_raw) // period_u) * period_u
    if modulus % 2:
        modulus += period_u

    t_tilde = (T / theta - d) / theta
    k1 = ceil(RUN_SLACK * rounds * d / t_tilde) + 1
    k2 = ceil((n - f) * d * RUN_SLACK * rounds / t_tilde) + n
    overload_u = grid.ceil_units(theta * t_tilde)

    # Claim values advance on the update-period grid, which the read quantum
    # does not subdivide, so wire values are encoded at grid-unit granularity.
    value_bits = max(1, ceil(log2(modulus)))
    hdr_bits = n ** 2 * max(1.0, log2(n))
    ftheta = float(theta)
    id_bits = max(1, ceil(log2(n)))
    p = Params(
        n=n, f=f, theta=theta, d=d, rounds=rounds, bit_bound=bit_bound, T=T,
        d_clk=d_clk, judging_horizon=10 * (rounds * d + T), bits_window=10 * T,
        grid=grid,
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
        trust_regain=regain_u,
        first_round_lead=grid.to_units(lead),
        round_gap=grid.to_units(2 * theta * d + q),
        stall_after=stall,
        echo_ttl=grid.ceil_units(theta * echo_window),
        instance_ttl=grid.ceil_units(inst_ttl),
        clock_modulus=modulus,
        init_accept_gap=grid.floor_units(T / theta - d - q),
        rate_limit=grid.ceil_units(T),
        overload_window=overload_u,
        max_busy_instances=k1,
        max_total_instances=k2,
        quarantine_hold=grid.ceil_units(theta * d),
        value_bits=value_bits,
        id_bits=id_bits,
        round_bits=max(1, ceil(log2(rounds + 2))),
        instance_budget=tuple(bit_bound + HDR_BUDGET * r * n * id_bits
                              for r in range(rounds + 1)),
        # An instance without progress terminates within the stall window plus
        # a couple of sweep ticks, so only instances still active that close
        # to the end of a run may lack outputs.
        unfinished_tail=grid.from_units(stall + 5 * period_u),
        # A correct node joins only after its gate has held for 2d.
        min_join_delay=2 * d,
        # Fixed ceilings, not yet derived from the analysis; with d_clk > d
        # the duration cap also covers the lead's extra 22*theta*(d_clk - d).
        max_k1=16, max_k2=8, max_k3=6, max_k4=10, max_k5=8, max_c_bits=64,
        min_duration=rounds,
        max_duration=12 * rounds + 22 * theta * (d_clk - d) / d,
        estimate_band=grid.ceil_units(3 * theta * d_clk) + grid.q_units,
        estimate_t0_bound=t0_bound,
        # The float bounds keep their float expressions: converting the exact
        # values instead moves some last bits.
        bits_denom=hdr_bits + n * bit_bound * rounds / float(T),
        infra_bits_denom=hdr_bits,
        envelope_cap=(float(grid.from_units(regain_u)) / ftheta
                      - (2 * ftheta + 1) * float(d)),
        envelope_rate_hi=2 * ftheta,
        envelope_rate_lo=2 / (2 * ftheta + 3),
        # The overload window is local time; a clock up to theta fast runs
        # through it in overload_window/theta of real time.
        rarity_window=grid.from_units(overload_u) / theta,
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
    assert p.clock_modulus > 2 * p.relay_band     # ClockSync's band test
    assert p.clock_modulus > 2 * p.update_period  # ClockRelay's step test
    assert g.from_units(p.max_update_gap) <= (2 * p.theta**2 + p.theta) * p.d_clk + g.quantum
    assert g.from_units(p.relay_band) <= (2 * p.theta**2 + 4 * p.theta) * p.d_clk + g.quantum
