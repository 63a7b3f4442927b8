"""Tests for the cluster facade, the top-level API and the CLI."""

import pytest

import repro
from repro.cluster import build_cluster
from repro.gm.driver import GmDriver
from repro.ftgm.driver import FtgmDriver


class TestBuildCluster:
    def test_gm_flavor(self):
        cluster = build_cluster(2, flavor="gm")
        assert len(cluster) == 2
        assert isinstance(cluster[0].driver, GmDriver)
        assert not isinstance(cluster[0].driver, FtgmDriver)

    def test_ftgm_flavor_starts_ftds(self):
        cluster = build_cluster(2, flavor="ftgm")
        assert isinstance(cluster[0].driver, FtgmDriver)
        assert all(node.driver.ftd.running for node in cluster.nodes)
        assert len(cluster.ftds()) == 2

    def test_driver_class_flavor(self):
        cluster = build_cluster(2, flavor=FtgmDriver)
        assert isinstance(cluster[1].driver, FtgmDriver)

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(2, flavor="tcp")

    def test_minimum_two_nodes(self):
        with pytest.raises(ValueError):
            build_cluster(1)

    def test_boot_installs_routes_everywhere(self):
        cluster = build_cluster(4, flavor="gm")
        for node in cluster.nodes:
            others = {n.node_id for n in cluster.nodes} - {node.node_id}
            assert set(node.mcp.routing_table) == others
            assert set(node.driver.host_routes) == others

    def test_boot_is_deterministic(self):
        a = build_cluster(3, flavor="gm", seed=5)
        b = build_cluster(3, flavor="gm", seed=5)
        assert a.sim.now == b.sim.now
        assert a[1].mcp.routing_table == b[1].mcp.routing_table

    def test_interpreted_nodes_selectable(self):
        cluster = build_cluster(2, flavor="gm", interpreted_nodes=[1])
        assert cluster[1].mcp.interpreted
        assert cluster[1].mcp.cpu is not None
        assert not cluster[0].mcp.interpreted
        assert cluster[0].mcp.cpu is None

    def test_no_boot_leaves_routes_empty(self):
        cluster = build_cluster(2, flavor="gm", boot=False)
        assert cluster[0].mcp.routing_table == {}

    def test_eight_node_star(self):
        cluster = build_cluster(8, flavor="gm")
        assert set(cluster[7].mcp.routing_table) == set(range(7))


class TestTopLevelApi:
    def test_public_names(self):
        assert callable(repro.build_cluster)
        assert repro.Payload is not None
        assert issubclass(repro.GmSendError, repro.ReproError)
        assert repro.__version__

    def test_build_via_package_root(self):
        cluster = repro.build_cluster(2)
        assert isinstance(cluster, repro.MyrinetCluster)


class TestCli:
    def test_fig45(self, capsys):
        from repro.cli import main
        assert main(["run", "fig45"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4 duplicate, naive GM" in out
        assert "YES" in out

    def test_table1_small(self, capsys):
        from repro.cli import main
        assert main(["run", "table1", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Failure Category" in out

    def test_effectiveness_small(self, capsys):
        from repro.cli import main
        assert main(["run", "effectiveness", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Recovery effectiveness" in out

    def test_requires_command(self, capsys):
        from repro.cli import main
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("usage: repro <command>")
