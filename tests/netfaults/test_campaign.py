"""Netfault campaign aggregation, rendering and determinism."""

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment
from repro.netfaults import NetCategory, NetFaultConfig

run_one = get_experiment("netfaults").run_one


def netfaults_campaign(workers=1, **params):
    """The ``netfaults`` campaign's aggregate, in-process at 1 worker."""
    experiment = get_experiment("netfaults")
    spec = experiment.build_spec(params)
    result = run_experiment(spec, workers=workers, forkserver=False)
    return experiment.aggregate(spec, result.outcomes)


class TestScenarioOutcomes:
    def test_flap_below_suspicion_recovers_by_retransmit(self):
        # Down for 12 ms, below the 15 ms stall threshold: Go-Back-N
        # rides it out and no reroute ever triggers.
        out = run_one(NetFaultConfig(
            run_id=0, seed=21, scenario="link-flap", fault_at_us=8_000.0))
        assert out.category == NetCategory.RETRANSMIT
        assert out.reroutes == 0
        assert out.nic_resets == 0

    def test_corruption_absorbed_by_retransmit(self):
        out = run_one(NetFaultConfig(
            run_id=0, seed=22, scenario="corrupt", fault_at_us=5_000.0))
        assert out.category == NetCategory.RETRANSMIT
        assert out.duplicates == 0          # exactly-once despite dup mode

    def test_switch_port_kill_recovers_by_reroute(self):
        out = run_one(NetFaultConfig(
            run_id=0, seed=23, scenario="switch-port-kill",
            fault_at_us=9_000.0))
        assert out.category == NetCategory.REROUTE
        assert out.nic_resets == 0


class TestCampaign:
    def test_render_is_reproducible_byte_for_byte(self):
        kwargs = dict(runs_per_scenario=1, seed=77,
                      scenarios=["link-cut", "link-flap"])
        r1 = netfaults_campaign(**kwargs)
        r2 = netfaults_campaign(**kwargs)
        assert r1.render() == r2.render()
        assert [(o.run_id, o.category) for o in r1.outcomes] \
            == [(o.run_id, o.category) for o in r2.outcomes]

    def test_render_contains_table_and_breakdown(self):
        result = netfaults_campaign(runs_per_scenario=1, seed=77,
                                    scenarios=["link-cut"])
        text = result.render()
        assert "link-cut" in text
        assert "deadlocked" in text
        assert "mapper discovery" in text   # latency breakdown present
        row = result.counts["link-cut"]
        assert row[NetCategory.REROUTE] == 1

    def test_parallel_equals_serial(self):
        kwargs = dict(runs_per_scenario=1, seed=99,
                      scenarios=["link-cut", "corrupt"])
        serial = netfaults_campaign(**kwargs)
        pooled = netfaults_campaign(workers=2, **kwargs)
        assert serial.render() == pooled.render()
