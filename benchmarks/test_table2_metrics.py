"""Table 2 — GM vs FTGM on bandwidth, latency, host and LANai util.

Paper values: 92.4/92.0 MB/s, 11.5/13.0 us, 0.30/0.55 us, 0.75/1.15 us,
6.0/6.8 us.  The reproduction must preserve the *relations*: FTGM within
~1% of GM bandwidth, ~1.5 us slower on small messages, with the host and
LANai per-message overheads the paper measures.
"""

import pytest
from conftest import env_int

from repro.analysis import Table2
from repro.cluster import build_cluster
from repro.workloads import measure_utilization, run_allsize, run_pingpong


def test_table2_metrics(benchmark, report):
    pp_iters = env_int("REPRO_PP_ITERS", 20)
    bw_msgs = env_int("REPRO_BW_MSGS", 20)

    def measure():
        return Table2(
            gm_bandwidth=run_allsize(build_cluster(2, flavor="gm"),
                                     1 << 20, messages=max(bw_msgs // 4, 3)),
            ftgm_bandwidth=run_allsize(build_cluster(2, flavor="ftgm"),
                                       1 << 20,
                                       messages=max(bw_msgs // 4, 3)),
            gm_latency=run_pingpong(build_cluster(2, flavor="gm"), 64,
                                    iterations=pp_iters),
            ftgm_latency=run_pingpong(build_cluster(2, flavor="ftgm"), 64,
                                      iterations=pp_iters),
            gm_util=measure_utilization(build_cluster(2, flavor="gm"),
                                        messages=60),
            ftgm_util=measure_utilization(build_cluster(2, flavor="ftgm"),
                                          messages=60),
        )

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("table2_metrics", table.render())

    rows = {metric: (gm, ftgm) for metric, gm, ftgm, _, _ in table.rows()}
    gm_bw, ftgm_bw = rows["Bandwidth (MB/s)"]
    assert gm_bw == pytest.approx(92.4, rel=0.08)
    assert 0.95 <= ftgm_bw / gm_bw <= 1.001  # "no appreciable degradation"
    gm_lat, ftgm_lat = rows["Latency (us)"]
    assert gm_lat == pytest.approx(11.5, rel=0.10)
    assert ftgm_lat - gm_lat == pytest.approx(1.5, abs=0.6)
    assert rows["Host util. send (us)"] == (
        pytest.approx(0.30, abs=0.05), pytest.approx(0.55, abs=0.05))
    assert rows["Host util. recv (us)"] == (
        pytest.approx(0.75, abs=0.05), pytest.approx(1.15, abs=0.05))
    gm_lanai, ftgm_lanai = rows["LANai util. (us)"]
    assert gm_lanai == pytest.approx(6.0, abs=0.4)
    assert ftgm_lanai == pytest.approx(6.8, abs=0.4)
