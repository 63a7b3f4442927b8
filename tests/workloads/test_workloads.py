"""Tests for measurement workloads and analysis rendering."""

import pytest

from repro.analysis import Series, render_ascii, to_csv
from repro.cluster import build_cluster
from repro.exp.registry import get_experiment
from repro.exp.spec import ClusterSpec
from repro.workloads import PairConfig, run_allsize, run_pingpong


def _utilization(flavor, messages):
    """A Table 2 utilization run through the registry's protocol."""
    config = PairConfig(0, ClusterSpec(flavor=flavor), "util", 64, messages)
    return get_experiment("table2").run_one(config)


class TestPingPong:
    def test_basic_measurement(self):
        cluster = build_cluster(2, flavor="gm")
        result = run_pingpong(cluster, 64, iterations=10)
        assert len(result.rtts) == 10
        assert 5.0 < result.half_rtt_us < 30.0

    def test_latency_grows_with_size(self):
        small = run_pingpong(build_cluster(2, flavor="gm"), 64,
                             iterations=5)
        large = run_pingpong(build_cluster(2, flavor="gm"), 32_768,
                             iterations=5)
        assert large.half_rtt_us > small.half_rtt_us

    def test_ftgm_slower_than_gm_small_messages(self):
        gm = run_pingpong(build_cluster(2, flavor="gm"), 64, iterations=10)
        ftgm = run_pingpong(build_cluster(2, flavor="ftgm"), 64,
                            iterations=10)
        delta = ftgm.half_rtt_us - gm.half_rtt_us
        # Paper: ~1.5us overhead.
        assert 0.5 < delta < 3.0


class TestAllsize:
    def test_bandwidth_positive_and_bounded(self):
        cluster = build_cluster(2, flavor="gm")
        result = run_allsize(cluster, 65_536, messages=6)
        assert 10.0 < result.bandwidth_mb_s < 250.0  # under link rate

    def test_bandwidth_grows_with_message_size(self):
        small = run_allsize(build_cluster(2, flavor="gm"), 1_024,
                            messages=10)
        large = run_allsize(build_cluster(2, flavor="gm"), 262_144,
                            messages=4)
        assert large.bandwidth_mb_s > small.bandwidth_mb_s

    def test_asymptote_near_paper_value(self):
        result = run_allsize(build_cluster(2, flavor="gm"), 1 << 20,
                             messages=4)
        # Paper: ~92 MB/s; accept a band.
        assert 80.0 < result.bandwidth_mb_s < 105.0


class TestUtilization:
    def test_gm_matches_paper_costs(self):
        u = _utilization("gm", messages=40)
        assert u.host_send_us == pytest.approx(0.30, abs=0.05)
        assert u.host_recv_us == pytest.approx(0.75, abs=0.05)
        assert u.lanai_total_us == pytest.approx(6.0, abs=0.4)

    def test_ftgm_overheads_emerge(self):
        u = _utilization("ftgm", messages=40)
        assert u.host_send_us == pytest.approx(0.55, abs=0.05)
        assert u.host_recv_us == pytest.approx(1.15, abs=0.05)
        assert u.lanai_total_us == pytest.approx(6.8, abs=0.4)


class TestAnalysis:
    def test_series_and_csv(self):
        a = Series("gm", [(1, 10.0), (2, 20.0)])
        b = Series("ftgm", [(1, 11.0), (2, 21.0)])
        csv = to_csv([a, b], x_name="size")
        lines = csv.strip().splitlines()
        assert lines[0] == "size,gm,ftgm"
        assert lines[1].startswith("1,10")

    def test_csv_handles_missing_points(self):
        a = Series("gm", [(1, 10.0)])
        b = Series("ftgm", [(2, 21.0)])
        csv = to_csv([a, b])
        assert ",," not in csv.splitlines()[0]

    def test_ascii_render_contains_series_labels(self):
        a = Series("gm", [(1, 10.0), (1024, 90.0)])
        text = render_ascii([a], "Bandwidth", "bytes", "MB/s")
        assert "Bandwidth" in text
        assert "gm" in text

    def test_ascii_render_empty(self):
        assert "(no data)" in render_ascii([], "t", "x", "y")
