import pytest

from noclock.guard import Guard


@pytest.fixture
def ctx(rt):
    return rt.p, Guard(rt), rt


def test_clean_steady_state_is_ok(ctx):
    p, guard, rt = ctx
    for v in range(4):
        guard.note_join(v, 100)
        guard.note_busy((v, 7))
    assert not any(guard.overloaded(v, 100) for v in range(4))


def test_busy_overflow_is_inconsistent(ctx):
    # Observation (i): more than k1 live instances of one initiator past
    # round 2 or with payload sends.
    p, guard, rt = ctx
    for k in range(p.max_busy_instances + 1):
        guard.busy[2].add((2, k))
    assert guard.overloaded(2, 100)
    assert not guard.overloaded(1, 100)


def test_total_overflow_is_inconsistent(ctx):
    # Observation (ii): more than k2 instances of one initiator in the window.
    p, guard, rt = ctx
    for k in range(p.max_total_instances):
        guard.joins[3].append(100)
    assert not guard.overloaded(3, 100)
    guard.note_join(3, 100)
    assert guard.overloaded(3, 100)


def test_join_window_slides(ctx):
    p, guard, rt = ctx
    for k in range(p.max_total_instances + 5):
        guard.joins[3].append(0)
    guard.note_join(3, p.overload_window + 1)    # old joins fall out
    assert not guard.overloaded(3, p.overload_window + 1)


def test_quarantine_timing_and_wipe(ctx):
    # Trigger at local 50.0: sends suppressed until 51.1 (theta * d), then
    # the wipe clears counters and instance memory.
    p, guard, rt = ctx
    guard.quarantine(1000)
    assert guard.suppress_until == 1022
    assert guard.suppressed(1010) and guard.suppressed(1021)
    assert not guard.suppressed(1022)
    assert (1022, ("wipe",)) in rt.alarms
    guard.busy[2].add((2, 9))
    guard.on_wipe(1022)
    assert rt.wipes == 1
    assert not guard.busy[2]
    assert not guard.overloaded(2, 1022)
    assert [r[0] for r in rt.trace] == ["quarantine", "wipe"]


def test_overflow_detected_on_sweep_triggers_quarantine(ctx):
    p, guard, rt = ctx
    for k in range(p.max_busy_instances + 1):
        guard.busy[1].add((1, k))
    guard.sweep(500)
    assert [r[0] for r in rt.trace] == ["quarantine"]
    assert guard.suppress_until == 500 + p.quarantine_hold


def test_corrupted_suppress_register_is_clamped(ctx):
    p, guard, rt = ctx
    guard.suppress_until = 10_000_000
    guard.sweep(100)
    assert guard.suppress_until == 100 + p.quarantine_hold
    assert (100 + p.quarantine_hold, ("wipe",)) in rt.alarms


def test_stale_wipe_alarm_ignored(ctx):
    p, guard, rt = ctx
    guard.quarantine(1000)
    guard.on_wipe(999)
    assert rt.wipes == 0


def test_metrics_shape(ctx):
    p, guard, rt = ctx
    assert not any(guard.overloaded(v, 0) for v in range(p.n))
    assert rt.trace == []
