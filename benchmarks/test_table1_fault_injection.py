"""Table 1 — fault-injection outcome distribution.

Paper: 1000 single-bit flips in ``send_chunk`` while handling traffic;
categories Local Hang / Corrupted / Remote Hang / MCP Restart / Host
Crash / Other / No Impact, compared against Stott et al. (FTCS'97).

Shape expectations (absolute percentages depend on the ISA): No Impact
is the largest bucket; hangs + corrupted messages dominate the failures
(>90% of them); remote hangs, restarts and host crashes are rare.
"""

from conftest import env_int

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment
from repro.faults import Category


def test_table1_fault_injection(benchmark, report):
    runs = env_int("REPRO_T1_RUNS", 150)

    def campaign():
        experiment = get_experiment("table1")
        spec = experiment.build_spec(
            {"runs": runs, "seed": 2003, "messages": 12})
        return experiment.aggregate(spec, run_experiment(spec).outcomes)

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    report("table1_fault_injection", result.render())

    counts = result.counts
    assert sum(counts.values()) == runs
    # Shape assertions from the paper.
    assert counts[Category.NO_IMPACT] == max(counts.values())
    failures = runs - counts[Category.NO_IMPACT]
    if failures:
        dominant = counts[Category.LOCAL_HANG] + counts[Category.CORRUPTED]
        assert dominant / failures >= 0.85
    rare = (counts[Category.REMOTE_HANG] + counts[Category.MCP_RESTART]
            + counts[Category.HOST_CRASH] + counts[Category.OTHER])
    assert rare / runs < 0.10
