from fractions import Fraction

import pytest

from noclock.guard import INCONSISTENT, OK, Guard
from noclock.params import derive


@pytest.fixture
def ctx():
    p = derive(4, 1, "1.1", "1", 8, 38)
    alarms = []
    trace = []
    guard = Guard(p, 0, trace, lambda units, tag: alarms.append((units, tag)),
                  lambda: Fraction(0))
    wiped = []
    guard.wipe_cb = lambda: wiped.append(True)
    return p, guard, alarms, trace, wiped


def test_clean_steady_state_is_ok(ctx):
    p, guard, alarms, trace, wiped = ctx
    for v in range(4):
        guard.note_join(v, 100)
        guard.note_busy((v, 7))
    assert all(guard.detect_overload(v, 100) == OK for v in range(4))


def test_busy_overflow_is_inconsistent(ctx):
    # Observation (i): more than k1 live instances of one initiator past
    # round 2 or with payload sends.
    p, guard, alarms, trace, wiped = ctx
    for k in range(p.max_busy_instances + 1):
        guard.busy[2].add((2, k))
    assert guard.detect_overload(2, 100) == INCONSISTENT
    assert guard.detect_overload(1, 100) == OK


def test_total_overflow_is_inconsistent(ctx):
    # Observation (ii): more than k2 instances of one initiator in the window.
    p, guard, alarms, trace, wiped = ctx
    for k in range(p.max_total_instances):
        guard.joins[3].append(100)
    assert guard.detect_overload(3, 100) == OK
    guard.note_join(3, 100)
    assert guard.detect_overload(3, 100) == INCONSISTENT


def test_join_window_slides(ctx):
    p, guard, alarms, trace, wiped = ctx
    for k in range(p.max_total_instances + 5):
        guard.joins[3].append(0)
    guard.note_join(3, p.overload_window + 1)    # old joins fall out
    assert guard.detect_overload(3, p.overload_window + 1) == OK


def test_quarantine_timing_and_wipe(ctx):
    # Trigger at local 50.0: sends suppressed until 51.1 (theta * d), then
    # the wipe clears counters and instance memory.
    p, guard, alarms, trace, wiped = ctx
    guard.quarantine(1000)
    assert guard.suppress_until == 1022
    assert guard.suppressed(1010) and guard.suppressed(1021)
    assert not guard.suppressed(1022)
    assert (1022, ("wipe",)) in alarms
    guard.busy[2].add((2, 9))
    guard.on_wipe(1022, 1022)
    assert wiped == [True]
    assert not guard.busy[2]
    assert guard.detect_overload(2, 1022) == OK
    assert [r[0] for r in trace] == ["quarantine", "wipe"]


def test_overflow_detected_on_sweep_triggers_quarantine(ctx):
    p, guard, alarms, trace, wiped = ctx
    for k in range(p.max_busy_instances + 1):
        guard.busy[1].add((1, k))
    guard.sweep(500)
    assert guard.quarantines == 1
    assert guard.suppress_until == 500 + p.quarantine_hold


def test_corrupted_suppress_register_is_clamped(ctx):
    p, guard, alarms, trace, wiped = ctx
    guard.suppress_until = 10_000_000
    guard.sweep(100)
    assert guard.suppress_until == 100 + p.quarantine_hold
    assert (100 + p.quarantine_hold, ("wipe",)) in alarms


def test_stale_wipe_alarm_ignored(ctx):
    p, guard, alarms, trace, wiped = ctx
    guard.quarantine(1000)
    guard.on_wipe(999, 999)
    assert wiped == []


def test_metrics_shape(ctx):
    p, guard, alarms, trace, wiped = ctx
    m = guard.metrics()
    assert m == {"node": 0, "instances_joined": 0, "quarantines": 0}
