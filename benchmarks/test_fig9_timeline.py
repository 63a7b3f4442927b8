"""Figure 9 — the timeline of the fault recovery process.

Reconstructs the paper's timeline: fault, detection (watchdog), FTD
phases (confirm, reset, MCP reload, table restore, event posting), then
the per-process FAULT_DETECTED handling.
"""

import pytest

from repro.analysis import recovery_timeline, render_timeline
from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment


def test_fig9_recovery_timeline(benchmark, report):
    def run():
        spec = get_experiment("fig9").build_spec({})   # hang at 620 us
        outcome, = run_experiment(spec).outcomes
        return outcome

    exp = benchmark.pedantic(run, rounds=1, iterations=1)
    port_done_at = exp.record.events_posted_at + exp.per_port_us
    segments = recovery_timeline(exp.fault_at, exp.record, port_done_at)
    report("fig9_timeline", render_timeline(segments))

    # Segment ordering is strictly causal.
    for (_, start, end), (_, next_start, _) in zip(segments, segments[1:]):
        assert end >= start
        assert next_start == pytest.approx(end)
    # The three paper components dominate in the right proportions:
    # detection << FTD; MCP reload is the largest FTD phase; the
    # per-process handler is the single largest segment.
    durations = {name: end - start for name, start, end in segments}
    assert durations["fault -> FATAL interrupt (detection)"] < 1_100.0
    assert durations["MCP reload"] == pytest.approx(500_000.0, rel=0.02)
    assert durations["per-process FAULT_DETECTED handling"] \
        == max(durations.values())
    total = segments[-1][2] - segments[0][1]
    assert total < 2_000_000.0  # "complete fault recovery in under 2 sec"
