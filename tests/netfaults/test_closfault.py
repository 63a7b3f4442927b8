"""Correlated-fault campaigns on multi-tier fabrics (``closfault``)."""

import pytest

from repro.exp.registry import get_experiment
from repro.exp.spec import ClusterSpec
from repro.netfaults.campaign import NetCategory
from repro.netfaults.clos import ClosFaultConfig, cross_fabric_pairs
from repro.netfaults.detector import Verdict, arm_detectors

run_one = get_experiment("closfault").run_one


class TestCrossFabricPairs:
    def test_fat_tree_pairs_cross_pods(self):
        pairs = cross_fabric_pairs(16, "fat-tree", radix=4, n_pairs=2)
        for src, dst in pairs:
            assert src // 4 != dst // 4, \
                "(%d, %d) stays inside one pod" % (src, dst)

    def test_endpoints_are_disjoint(self):
        pairs = cross_fabric_pairs(64, "fat-tree", radix=8, n_pairs=6)
        flat = [n for pair in pairs for n in pair]
        assert len(flat) == len(set(flat)) == 12

    def test_clos_pairs_cross_racks(self):
        pairs = cross_fabric_pairs(12, "clos", radix=8, n_spines=2,
                                   n_pairs=2)
        for src, dst in pairs:
            assert src // 6 != dst // 6

    def test_small_fabric_falls_back_to_rack_stride(self):
        pairs = cross_fabric_pairs(8, "fat-tree", radix=4, n_pairs=2)
        assert len(pairs) == 2

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ValueError):
            cross_fabric_pairs(8, "fat-tree", radix=4, n_pairs=5)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            cross_fabric_pairs(8, "ring", n_pairs=1)


def _config(scenario, flavor, **overrides):
    pairs = cross_fabric_pairs(16, "fat-tree", radix=4, n_pairs=2)
    defaults = dict(scenario="%s/%s" % (scenario, flavor), run_id=0,
                    seed=2003,
                    cluster=ClusterSpec(n_nodes=16, flavor=flavor,
                                        topology="fat-tree", n_switches=2,
                                        radix=4),
                    pairs=pairs, messages=6)
    defaults.update(overrides)
    return ClosFaultConfig(**defaults)


class TestCompoundRecovery:
    def test_spine_loss_ftgm_reroutes(self):
        # Killing the mid-route core switch severs every path through
        # it at once; FTGM's detector + remap must converge on one of
        # the surviving equal-cost paths and finish the stream.
        outcome = run_one(_config("spine-loss", "ftgm"))
        assert outcome.category == NetCategory.REROUTE
        assert outcome.delivered_once == outcome.messages_expected
        assert Verdict.PATH_DEAD in {v for _t, _d, v in outcome.verdicts}

    def test_spine_loss_gm_deadlocks(self):
        # Plain GM has no path detector — nothing would act on its
        # verdicts — so the same fault leaves a stuck stream and no
        # verdict at all.
        outcome = run_one(_config("spine-loss", "gm"))
        assert outcome.category == NetCategory.DEADLOCKED
        assert outcome.verdicts == []

    def test_plain_gm_arms_no_detector(self):
        config = _config("spine-loss", "gm")
        cluster = get_experiment("closfault").boot(config)
        assert arm_detectors(cluster) == []

    def test_rack_loss_recovers_by_retransmission(self):
        # A dead edge switch partitions its rack — no reroute exists.
        # After the revival, Go-Back-N drains the backlog.
        outcome = run_one(_config("rack-loss", "ftgm"))
        assert outcome.category == NetCategory.RETRANSMIT
        assert outcome.delivered_once == outcome.messages_expected

    def test_cascade_ftgm_converges_across_staged_cuts(self):
        outcome = run_one(_config("cascade", "ftgm"))
        assert outcome.category in (NetCategory.REROUTE,
                                    NetCategory.RETRANSMIT)
        assert outcome.delivered_once == outcome.messages_expected

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_one(_config("bathtub", "ftgm"))


class TestExperimentRegistration:
    def test_small_scale_grid_is_one_cell(self):
        spec = get_experiment("closfault").build_spec({"scale": "small"})
        assert [s.name for s in spec.scenarios] == ["rack-loss/ftgm"]

    def test_full_grid_covers_scenarios_and_flavors(self):
        spec = get_experiment("closfault").build_spec({})
        names = [s.name for s in spec.scenarios]
        assert len(names) == 8
        assert "spine-loss/gm" in names and "repair-flap/ftgm" in names

    def test_spec_round_trips_with_radix(self):
        from repro.exp.spec import ExperimentSpec

        spec = get_experiment("closfault").build_spec(
            {"nodes": 64, "radix": 8})
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.scenarios[0].cluster.radix == 8
        assert clone.spec_hash == spec.spec_hash

    def test_expand_builds_cross_fabric_configs(self):
        experiment = get_experiment("closfault")
        spec = experiment.build_spec({"scale": "small"})
        configs = experiment.expand(spec)
        assert len(configs) == 1
        config = configs[0]
        assert isinstance(config, ClosFaultConfig)
        assert config.kind == "rack-loss"
        assert list(config.pairs) == cross_fabric_pairs(
            16, "fat-tree", radix=4, n_pairs=2)
