import pytest

from noclock.guard import Guard
from noclock.protocols import phase_king_silent
from noclock.rounds import Instance, Rounds


@pytest.fixture
def ctx(rt):
    guard = Guard(rt)
    rt.rounds = Rounds(rt, phase_king_silent(4, 1), guard)
    return rt.p, guard, rt


def busy(rt, label):
    """Store a live instance past its trivial rounds in the rounds table."""
    inst = Instance(1, 100, rt.rounds.proto, rt.node)
    inst.nontrivial = True
    rt.rounds.instances[label] = inst


def test_clean_steady_state_is_ok(ctx):
    p, guard, rt = ctx
    for v in range(4):
        guard.note_join(v, 100)
        busy(rt, (v, 7))
    guard.sweep(100)
    assert rt.trace == []


def test_busy_overflow_is_inconsistent(ctx):
    # Observation (i): more than k1 live instances of one initiator past
    # round 2 or with payload sends.
    p, guard, rt = ctx
    for k in range(p.max_busy_instances + 1):
        busy(rt, (2, k))
    counts = guard.busy_counts()
    assert guard.overloaded(2, 100, counts)
    assert not guard.overloaded(1, 100, counts)


def test_total_overflow_is_inconsistent(ctx):
    # Observation (ii): more than k2 instances of one initiator in the window.
    p, guard, rt = ctx
    for k in range(p.max_total_instances):
        guard.joins[3].append(100)
    assert not guard.overloaded(3, 100, guard.busy_counts())
    guard.note_join(3, 100)
    assert guard.overloaded(3, 100, guard.busy_counts())


def test_join_window_slides(ctx):
    p, guard, rt = ctx
    for k in range(p.max_total_instances + 5):
        guard.joins[3].append(0)
    guard.note_join(3, p.overload_window + 1)    # old joins fall out
    assert not guard.overloaded(3, p.overload_window + 1, guard.busy_counts())


def test_window_drops_every_join_outside_it(ctx):
    # A corrupted boot appends joins in instance-table order, so a future or
    # an expired join can sit behind one inside the window; neither counts.
    p, guard, rt = ctx
    now = p.overload_window + 1000
    guard.joins[3].extend([now - 1, now + 50, now - p.overload_window - 1])
    guard.overloaded(3, now, guard.busy_counts())
    assert len(guard.joins[3]) == 1


def test_quarantine_timing_and_wipe(ctx):
    # Trigger at local 50.0: sends suppressed until 51.1 (theta * d), then
    # the wipe clears counters and instance memory.
    p, guard, rt = ctx
    guard.quarantine(1000)
    assert guard.suppress_until == 1022
    assert guard.suppressed(1010) and guard.suppressed(1021)
    assert not guard.suppressed(1022)
    assert (1022, (guard.on_wipe,)) in rt.alarms
    guard.note_join(2, 1010)
    guard.on_wipe(1022)
    assert rt.wipes == 1
    assert not guard.joins[2]
    assert [r[0] for r in rt.trace] == ["quarantine", "wipe"]


def test_overflow_detected_on_sweep_triggers_quarantine(ctx):
    p, guard, rt = ctx
    for k in range(p.max_busy_instances + 1):
        busy(rt, (1, k))
    guard.sweep(500)
    assert [r[0] for r in rt.trace] == ["quarantine"]
    assert guard.suppress_until == 500 + p.quarantine_hold


def test_one_sweep_over_two_overloaded_initiators_quarantines_once(ctx):
    p, guard, rt = ctx
    for k in range(p.max_busy_instances + 1):
        busy(rt, (1, k))
        busy(rt, (3, k))
    guard.sweep(500)
    assert [r[0] for r in rt.trace] == ["quarantine"]
    assert rt.alarms == [(500 + p.quarantine_hold, (guard.on_wipe,))]


def test_corrupted_suppress_register_is_clamped(ctx):
    p, guard, rt = ctx
    guard.suppress_until = 10_000_000
    guard.sweep(100)
    assert guard.suppress_until == 100 + p.quarantine_hold
    assert (100 + p.quarantine_hold, (guard.on_wipe,)) in rt.alarms


def test_stale_wipe_alarm_ignored(ctx):
    p, guard, rt = ctx
    guard.quarantine(1000)
    guard.on_wipe(999)
    assert rt.wipes == 0


def test_wipe_firing_twice_wipes_once(ctx):
    p, guard, rt = ctx
    guard.quarantine(1000)
    guard.on_wipe(1022)
    guard.on_wipe(1022)
    assert rt.wipes == 1
    assert [r[0] for r in rt.trace] == ["quarantine", "wipe"]


def test_metrics_shape(ctx):
    p, guard, rt = ctx
    assert not any(guard.overloaded(v, 0, guard.busy_counts())
                   for v in range(p.n))
    assert rt.trace == []


@pytest.mark.parametrize("end", [None, "finish", "stall", "gc"])
def test_busy_count_follows_the_instance_table(ctx, end):
    # k1+1 instances of initiator 1 send round-1 payloads, so all are busy:
    # the sweep quarantines, unless one of them has finished, stalled or
    # been garbage-collected first.
    p, guard, rt = ctx
    rounds = rt.rounds
    first = 1000
    later = first + p.instance_ttl + 1 - p.first_round_lead - p.stall_after
    for k in range(p.max_busy_instances + 1):
        joined = first if k == 0 else later
        rounds.join((1, k), 1, 2, 1, joined)
        rounds.on_alarm((1, k), 1, joined + p.first_round_lead)
    assert all(inst.nontrivial for inst in rounds.instances.values())
    now = first + p.instance_ttl + 1
    inst = rounds.instances[(1, 0)]
    if end == "finish":
        last = rounds.proto.rounds + 1
        inst.thresholds[last] = now
        rounds.on_alarm((1, 0), last, now)
        assert inst.done and rt.trace[-1][5] == "ok"
    elif end == "stall":
        rounds.end((1, 0), inst, 0, "stall")
        assert inst.done
    elif end == "gc":
        rounds.sweep(now)
        assert (1, 0) not in rounds.instances
    assert not any(i.done for i in rounds.instances.values() if i is not inst)
    guard.sweep(now)
    quarantines = [r for r in rt.trace if r[0] == "quarantine"]
    assert len(quarantines) == (1 if end is None else 0)
