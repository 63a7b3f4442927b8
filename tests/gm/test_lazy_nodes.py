"""Lazy node parking: idle MCPs leave the wheel, exactly.

The tickless fold (PR 4) made idle ticks cheap; lazy parking makes idle
*nodes* free — and like the fold it must be invisible: every counter a
parked node would have accumulated live is replayed arithmetically on
wake-up (or at settle), so a lazy run is indistinguishable from an
eager one.
"""

import pytest

from repro.cluster import LAZY_AUTO_THRESHOLD, build_cluster
from repro.payload import Payload

IDLE_US = 20_000.0


def _cluster(flavor, lazy, n=16):
    return build_cluster(n, flavor=flavor, seed=9, topology="fat-tree",
                         radix=4, lazy=lazy)


def _parked(cluster):
    return [node.node_id for node in cluster.nodes
            if getattr(node.driver.mcp, "_parked", False)]


def _snapshot(cluster):
    """Every per-MCP counter lazy parking must reproduce, post-settle."""
    out = {}
    for node in cluster.nodes:
        mcp = node.driver.mcp
        mcp.settle_idle()
        entry = {
            "invocations": mcp.l_timer_invocations,
            "busy": mcp.busy_time,
            "last": mcp.l_timer_last,
            "max_gap": mcp.l_timer_max_gap,
            "stats": dict(mcp.stats),
        }
        if hasattr(mcp, "watchdog_arms"):
            entry["watchdog_arms"] = mcp.watchdog_arms
        out[node.node_id] = entry
    return out


class TestParkUnpark:
    def test_idle_fabric_parks_whole_nodes(self):
        cluster = _cluster("ftgm", lazy=True)
        cluster.sim.run(until=cluster.sim.now + IDLE_US)
        assert len(_parked(cluster)) == 16

    def test_eager_fabric_never_parks(self):
        cluster = _cluster("ftgm", lazy=False)
        cluster.sim.run(until=cluster.sim.now + IDLE_US)
        assert _parked(cluster) == []

    def test_first_message_wakes_both_ends(self):
        cluster = _cluster("gm", lazy=True)
        sim = cluster.sim
        sim.run(until=sim.now + IDLE_US)
        assert 0 in _parked(cluster) and 9 in _parked(cluster)
        got = {}

        def traffic():
            sport = yield from cluster[0].driver.open_port(2)
            dport = yield from cluster[9].driver.open_port(2)
            data = b"doorbell" * 8
            yield from dport.provide_receive_buffer(len(data))
            yield from sport.send_and_wait(Payload(len(data), data=data),
                                           9, 2)
            event = yield from dport.receive_message(timeout=30_000.0)
            got["fp"] = event.payload.fingerprint if event else None

        cluster[0].host.spawn(traffic(), "traffic")
        sim.run(until=sim.now + 50_000.0)
        assert got.get("fp") is not None
        # Idle again: the woken endpoints re-park.
        sim.run(until=sim.now + IDLE_US)
        assert 0 in _parked(cluster) and 9 in _parked(cluster)

    def test_parked_ticks_are_accounted(self):
        cluster = _cluster("ftgm", lazy=True)
        cluster.sim.run(until=cluster.sim.now + IDLE_US)
        for node in cluster.nodes:
            node.driver.mcp.settle_idle()
        assert sum(node.driver.mcp.ticks_parked
                   for node in cluster.nodes) > 0


class TestExactness:
    @pytest.mark.parametrize("flavor", ["gm", "ftgm"])
    def test_lazy_and_eager_runs_are_identical(self, flavor):
        snapshots = {}
        deliveries = {}
        for lazy in (True, False):
            cluster = _cluster(flavor, lazy=lazy)
            sim = cluster.sim
            sim.run(until=sim.now + IDLE_US)
            got = {}

            def traffic():
                sport = yield from cluster[0].driver.open_port(2)
                dport = yield from cluster[9].driver.open_port(2)
                data = b"identical?" * 5
                yield from dport.provide_receive_buffer(len(data))
                yield from sport.send_and_wait(
                    Payload(len(data), data=data), 9, 2)
                event = yield from dport.receive_message(timeout=30_000.0)
                got["fp"] = event.payload.fingerprint if event else None

            cluster[0].host.spawn(traffic(), "traffic")
            sim.run(until=sim.now + 50_000.0)
            sim.run(until=sim.now + IDLE_US)
            snapshots[lazy] = _snapshot(cluster)
            deliveries[lazy] = got.get("fp")
            if flavor == "ftgm":
                assert sum(len(f.recoveries)
                           for f in cluster.ftds()) == 0, \
                    "parking must not trip the watchdog/FTD"
        assert deliveries[True] == deliveries[False] is not None
        assert snapshots[True] == snapshots[False]


class TestDefaults:
    def test_auto_threshold_gates_parking(self):
        below = build_cluster(LAZY_AUTO_THRESHOLD - 8, flavor="gm",
                              seed=9, topology="fat-tree", radix=4)
        at = build_cluster(LAZY_AUTO_THRESHOLD, flavor="gm", seed=9,
                           topology="fat-tree", radix=4)
        for cluster, expect in ((below, False), (at, True)):
            cluster.sim.run(until=cluster.sim.now + IDLE_US)
            assert bool(_parked(cluster)) is expect
