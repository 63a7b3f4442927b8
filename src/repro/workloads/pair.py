"""What the pair workloads share: node validation and the run config.

The measurement workloads historically assumed the paper's 2-node
testbed; with multi-switch topologies they take explicit ``a``/``b``
node ids — and the load plane takes arbitrary fan-in target sets — so a
bad node id should fail loudly up front instead of deep in the port
machinery.

:class:`PairConfig` is one Table 2 / Fig. 7 / Fig. 8 measurement on a
booted pair; :func:`resume_pair` runs it (the registered ``resume`` of
``table2``) and :func:`resume_point` turns it into a figure point (that
of ``fig7`` and ``fig8``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..ckpt.pause import map_outcome
from ..exp.spec import ClusterSpec
from ..obs.harvest import harvest_cluster

__all__ = ["SLICE_US", "PairConfig", "resume_pair", "resume_point",
           "check_nodes", "check_pair"]

#: Drive slice of the pair workloads: how far past completion a run may
#: simulate before its ``done`` poll ends it (every result is frozen by
#: then, so only wall time depends on it).
SLICE_US = 100.0


@dataclass(frozen=True)
class PairConfig:
    """One measurement on a booted pair.

    ``kind`` picks the workload: ``bandwidth`` (:func:`run_allsize`,
    ``count`` messages each way), ``latency`` (:func:`run_pingpong`,
    ``count`` iterations) or ``util`` (:func:`measure_utilization`,
    ``count`` messages one way); ``size`` is the message length.
    """

    run_id: int
    cluster: ClusterSpec
    kind: str
    size: int
    count: int
    seed: int = 0


def resume_pair(cluster, config: PairConfig, pause_at=None):
    """Run ``config`` on the ``boot_run`` cluster; its raw result, with
    the cluster harvested once the result is computed."""
    from .allsize import run_allsize
    from .pingpong import run_pingpong
    from .utilization import measure_utilization

    if config.kind == "bandwidth":
        run = run_allsize(cluster, config.size, messages=config.count,
                          pause_at=pause_at)
    elif config.kind == "latency":
        run = run_pingpong(cluster, config.size, iterations=config.count,
                           pause_at=pause_at)
    else:
        run = measure_utilization(cluster, messages=config.count,
                                  size=config.size, pause_at=pause_at)

    def harvested(result):
        harvest_cluster(cluster)
        return result

    return map_outcome(run, harvested)


def resume_point(cluster, config: PairConfig, pause_at=None):
    """One sweep point, ``{"series": flavor, "x": bytes, "y": value}``:
    MB/s for ``bandwidth``, half round trip (us) for ``latency``."""
    def point(result):
        y = result.bandwidth_mb_s if config.kind == "bandwidth" \
            else result.half_rtt_us
        return {"series": config.cluster.flavor, "x": config.size, "y": y}

    return map_outcome(resume_pair(cluster, config, pause_at), point)


def check_nodes(cluster, nodes: Iterable[int],
                names: Optional[Sequence[str]] = None,
                distinct: bool = False) -> None:
    """Raise ValueError unless every id in ``nodes`` is a cluster node.

    ``names`` optionally labels each position for the error message
    (``a``/``b`` for the classic pair workloads); ``distinct`` also
    rejects repeated ids, which pairwise workloads require but fan-in
    target sets (several clients aiming at one hotspot) do not.
    """
    nodes = list(nodes)
    n = len(cluster)
    for position, node in enumerate(nodes):
        name = names[position] if names else "#%d" % position
        if not 0 <= node < n:
            raise ValueError(
                "workload node %s=%d outside cluster of %d nodes"
                % (name, node, n))
    if distinct and len(set(nodes)) != len(nodes):
        raise ValueError(
            "workload needs distinct nodes, got %s" % (nodes,))


def check_pair(cluster, a: int, b: int) -> None:
    """Raise ValueError unless ``a`` and ``b`` are two distinct nodes."""
    check_nodes(cluster, (a, b), names=("a", "b"))
    if a == b:
        raise ValueError(
            "workload needs two distinct nodes, got a == b == %d" % a)

