"""The refactor guarantee: engine output == pre-engine campaign loops.

Each test reconstructs what the historic code path did — a plain serial
loop over the per-run function with ``seed + run_id`` derivation — and
asserts the engine produces identical outcomes and identical rendered
text, serial and with ``workers=4`` alike.
"""

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment
from repro.exp.spec import ClusterSpec
from repro.faults.campaign import CampaignResult
from repro.faults.injector import SWIFI_CLUSTER, InjectionConfig
from repro.netfaults.campaign import (
    NET_SCENARIOS,
    NetFaultCampaignResult,
    NetFaultConfig,
)

RUNS = 6
SEED = 2003


def historic_table1():
    run_one = get_experiment("table1").run_one
    outcomes = [run_one(InjectionConfig(run_id=i, seed=SEED + i,
                                        cluster=SWIFI_CLUSTER, messages=16))
                for i in range(RUNS)]
    return outcomes, CampaignResult(RUNS, outcomes).render()


def historic_netfaults(runs_per_scenario=1):
    configs = []
    run_id = 0
    for scenario in NET_SCENARIOS:
        for _ in range(runs_per_scenario):
            configs.append(NetFaultConfig(
                run_id=run_id, seed=SEED + run_id, scenario=scenario,
                cluster=ClusterSpec(n_nodes=4, flavor="ftgm",
                                    topology="ring", n_switches=2),
                messages=12))
            run_id += 1
    outcomes = [get_experiment("netfaults").run_one(c) for c in configs]
    return outcomes, NetFaultCampaignResult(SEED, outcomes).render()


class TestTable1Regression:
    def test_engine_matches_historic_loop(self):
        old_outcomes, old_render = historic_table1()
        spec = get_experiment("table1").build_spec(
            {"runs": RUNS, "seed": SEED})
        serial = run_experiment(spec)
        assert serial.outcomes == old_outcomes
        assert serial.rendered == old_render

    def test_parallel_matches_serial(self):
        spec = get_experiment("table1").build_spec(
            {"runs": RUNS, "seed": SEED})
        serial = run_experiment(spec)
        parallel = run_experiment(spec, workers=4)
        assert parallel.outcomes == serial.outcomes
        assert parallel.rendered == serial.rendered


class TestNetfaultsRegression:
    def test_engine_matches_historic_loop(self):
        old_outcomes, old_render = historic_netfaults()
        spec = get_experiment("netfaults").build_spec(
            {"runs_per_scenario": 1, "seed": SEED})
        serial = run_experiment(spec)
        assert serial.outcomes == old_outcomes
        assert serial.rendered == old_render

    def test_parallel_matches_serial(self):
        spec = get_experiment("netfaults").build_spec(
            {"runs_per_scenario": 1, "seed": SEED})
        serial = run_experiment(spec)
        parallel = run_experiment(spec, workers=4)
        assert parallel.outcomes == serial.outcomes
        assert parallel.rendered == serial.rendered


class TestEffectivenessRegression:
    def test_engine_serial_and_parallel_agree(self):
        spec = get_experiment("effectiveness").build_spec({"runs": 4})
        serial = run_experiment(spec)
        parallel = run_experiment(spec, workers=4)
        assert parallel.outcomes == serial.outcomes
        assert parallel.rendered == serial.rendered
        assert "Recovery effectiveness" in serial.rendered
