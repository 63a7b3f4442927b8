"""The L_timer chain walk against a stepping reference.

``_walk_ticks`` jumps every window a float binade holds in one step;
the reference below steps the chain one window at a time with the same
float operations the live tick path performs, so the two must agree
bit for bit — window count, next tick, last tick and max gap — on every
start, bound and interval, including a non-dyadic interval whose
constants are not multiples of the tick's ulp.
"""

import math
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gm import constants as C
from repro.gm.mcp import _walk_ticks

INTERVALS = (400.0, 320.0, 500.0, 800.0, 400.1)


def reference_walk(tick, bound, last, max_gap, interval):
    """The chain stepped one window at a time."""
    count = 0
    while tick + 1.5 <= bound:
        gap = tick - last
        if gap > max_gap:
            max_gap = gap
        last = tick
        count += 1
        tick = (tick + 1.5) + interval
    return count, tick, last, max_gap


def walk(tick, bound, last, max_gap, interval):
    with mock.patch.object(C, "L_TIMER_INTERVAL_US", interval):
        return _walk_ticks(tick, bound, last, max_gap)


starts = st.one_of(
    st.integers(0, 7 * 10 ** 9).map(lambda n: n / 7),
    st.tuples(st.integers(8, 26), st.floats(0.0, 2_000.0)).map(
        lambda kd: max(0.0, math.nextafter(2.0 ** kd[0], 0.0) - kd[1])),
    st.just(0.0),
)


@settings(max_examples=300, deadline=None)
@given(start=starts, interval=st.sampled_from(INTERVALS),
       windows=st.integers(0, 10 ** 5),
       bound_kind=st.sampled_from(("end", "below-end", "past-end")),
       past=st.floats(0.0, 1.0, exclude_max=True),
       before=st.one_of(st.just(0.0), st.floats(0.0, 1_000.0)),
       max_gap=st.one_of(st.just(0.0), st.floats(0.0, 900.0)))
def test_walk_matches_stepping_reference(start, interval, windows,
                                         bound_kind, past, before, max_gap):
    # Place the bound on the end of the ``windows``-th window as the
    # chain computes it, one float below it (the idle fold's strict
    # horizon), or anywhere before the next window ends.
    tick = start
    for _ in range(max(windows - 1, 0)):
        tick = (tick + 1.5) + interval
    end = tick + 1.5
    bound = {"end": end,
             "below-end": math.nextafter(end, -math.inf),
             "past-end": end + past * interval}[bound_kind]
    last = start - before
    assert walk(start, bound, last, max_gap, interval) == \
        reference_walk(start, bound, last, max_gap, interval)


def test_a_billion_windows_walk_in_binades_not_windows():
    # The stepping walk needs minutes for this; the binade jump crosses
    # ~30 binades.  The ceiling is generous for a loaded machine.
    started = time.perf_counter()
    count, tick, last, max_gap = _walk_ticks(
        0.0, 10 ** 9 * (C.L_TIMER_INTERVAL_US + 1.5), 0.0, 0.0)
    took = time.perf_counter() - started
    assert count == 10 ** 9
    assert tick == 10 ** 9 * (C.L_TIMER_INTERVAL_US + 1.5)
    assert last == tick - (C.L_TIMER_INTERVAL_US + 1.5)
    assert max_gap == C.L_TIMER_INTERVAL_US + 1.5
    assert took < 5.0, "a 10^9-window walk took %.1f s" % took
