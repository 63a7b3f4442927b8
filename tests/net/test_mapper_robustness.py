"""Mapper robustness: lost CONFIG retries, malformed control, re-mapping."""

import pytest

from repro.cluster import build_cluster
from repro.net import Mapper, Packet, PacketType
from repro.netfaults import NetworkFaultPlane
from repro.sim import SeededRng


def _run_mapper(cluster, **kwargs):
    mapper = Mapper(cluster[0].mcp.mapper_agent, **kwargs)
    done = []

    def runner():
        found = yield from mapper.run()
        done.append(found)

    cluster.sim.spawn(runner(), name="test-mapper")
    deadline = cluster.sim.now + 10_000_000.0
    while not done and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert done, "mapper did not finish"
    return mapper, done[0]


class TestConfigRetry:
    def test_dropped_config_is_retried(self):
        cluster = build_cluster(2, boot=False, seed=5)
        link = cluster.fabric.nic_ports[1].link
        dropped = {"n": 0}

        def drop_first_config(pkt):
            if pkt.ptype == PacketType.MAPPER_CONFIG and dropped["n"] == 0:
                dropped["n"] += 1
                return True
            return False

        link.fault_filter = drop_first_config
        mapper, found = _run_mapper(cluster, expected_nodes=2)
        assert dropped["n"] == 1
        assert mapper.config_retries >= 1
        assert mapper.unreached == []
        assert sorted(found) == [0, 1]
        assert 0 in cluster[1].mcp.routing_table

    def test_persistently_dead_node_nonstrict(self):
        """strict=False records the unreachable node and keeps going."""
        cluster = build_cluster(3, boot=False, seed=5)

        def drop_all_configs(pkt):
            return pkt.ptype == PacketType.MAPPER_CONFIG

        cluster.fabric.nic_ports[2].link.fault_filter = drop_all_configs
        mapper, found = _run_mapper(cluster, strict=False)
        assert 2 in mapper.unreached
        assert 2 not in found
        assert sorted(found) == [0, 1]


class TestMalformedControl:
    """A bit-flipped header can dress a data packet as a mapper message."""

    @pytest.mark.parametrize("ptype,control", [
        (PacketType.MAPPER_REPLY, None),
        (PacketType.MAPPER_DONE, None),
        (PacketType.MAPPER_PORTINFO, ["ports"]),
        (PacketType.MAPPER_CONFIG, None),
        (PacketType.MAPPER_CONFIG, {"routes": None}),
    ])
    def test_is_a_counted_drop(self, ptype, control):
        cluster = build_cluster(2, boot=False, seed=5)
        agent = cluster[1].mcp.mapper_agent
        table = dict(cluster[1].mcp.routing_table)
        packet = Packet(ptype=ptype, src_node=0, dest_node=1,
                        control=control)
        assert agent.handle(packet) is True      # consumed, not re-dispatched
        assert agent.malformed_drops == 1
        assert agent.configs_installed == 0
        assert cluster[1].mcp.routing_table == table
        assert not agent.replies.items and not agent.dones.items \
            and not agent.portinfos.items

    def test_table1_campaign_that_used_to_abort_completes(self):
        # Campaign seed 15: run 149's flipped send_chunk emits a packet
        # that reaches the peer's agent as MAPPER_CONFIG with no control,
        # and the one raised run used to fail the whole campaign.
        from repro.exp.registry import get_experiment
        from repro.exp.runner import run_experiment

        spec = get_experiment("table1").build_spec({"runs": 200, "seed": 15})
        result = run_experiment(spec, workers=1)
        assert len(result.outcomes) == 200
        assert all(outcome is not None for outcome in result.outcomes)


class TestRemapAfterSeveredLink:
    def test_rerun_converges_on_surviving_uplink(self):
        cluster = build_cluster(4, flavor="gm", topology="ring", seed=3)
        plane = NetworkFaultPlane(cluster.sim, cluster.fabric,
                                  SeededRng(0, "test"))
        uplinks = cluster.fabric.inter_switch_links()
        route = cluster[0].mcp.routing_table[2]
        on_path = [link for link in plane.links_on_route(0, route)
                   if link in uplinks]
        assert len(on_path) == 1
        victim = on_path[0]
        survivor = next(l2 for l2 in uplinks if l2 is not victim)

        victim.cut()
        mapper, found = _run_mapper(cluster, strict=False)
        assert sorted(found) == [0, 1, 2, 3]
        assert mapper.unreached == []
        # The fresh route 0 -> 2 avoids the severed uplink.
        new_route = cluster[0].mcp.routing_table[2]
        new_links = plane.links_on_route(0, new_route)
        assert victim not in new_links
        assert survivor in new_links
        assert mapper.phase_times["discovered"] \
            <= mapper.phase_times["distributed"]
