"""Ping-pong latency workload (Figure 8, Table 2 "Latency").

"The measurement was performed as a repetitive ping-pong exchange of
messages between processes in the two machines, with the one-way latency
for each message length plotted as half of the average round-trip time."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ckpt.pause import drive_run
from ..cluster import MyrinetCluster
from ..payload import Payload
from .pair import SLICE_US, check_pair

__all__ = ["PingPongResult", "run_pingpong"]


@dataclass
class PingPongResult:
    size: int
    iterations: int
    rtts: List[float] = field(default_factory=list)

    @property
    def half_rtt_us(self) -> float:
        return (sum(self.rtts) / len(self.rtts)) / 2.0 if self.rtts else 0.0

    @property
    def min_half_rtt_us(self) -> float:
        return min(self.rtts) / 2.0 if self.rtts else 0.0


def run_pingpong(cluster: MyrinetCluster, size: int, iterations: int = 50,
                 warmup: int = 3, a: int = 0, b: int = 1,
                 pause_at: Optional[float] = None):
    """Run one ping-pong series on an already-booted cluster.

    ``a``/``b`` may be any two distinct nodes — on a multi-switch
    topology, picking nodes on different switches measures cross-fabric
    latency.  Returns a :class:`PingPongResult`, or with ``pause_at`` a
    :class:`~repro.ckpt.pause.PausedRun` that finishes into one.
    """
    check_pair(cluster, a, b)
    sim = cluster.sim
    result = PingPongResult(size, iterations)
    state = {"done": False}
    ping = Payload.phantom(size, tag=0xA)
    pong = Payload.phantom(size, tag=0xB)

    def initiator():
        port = yield from cluster[a].driver.open_port()
        for i in range(warmup + iterations):
            yield from port.provide_receive_buffer(max(size, 1))
            start = sim.now
            yield from port.send(ping, b, _PONG_PORT, context=i)
            event = yield from port.receive_message()
            assert event is not None
            if i >= warmup:
                result.rtts.append(sim.now - start)
        state["done"] = True

    def responder():
        port = yield from cluster[b].driver.open_port(_PONG_PORT)
        for _ in range(warmup + iterations):
            yield from port.provide_receive_buffer(max(size, 1))
            event = yield from port.receive_message()
            assert event is not None
            yield from port.send(pong, a, event.sender_port)

    _PONG_PORT = 5
    cluster[b].host.spawn(responder(), "pong")
    cluster[a].host.spawn(initiator(), "ping")

    def finish() -> PingPongResult:
        if not state["done"]:
            raise RuntimeError("ping-pong did not finish (size=%d)" % size)
        return result

    return drive_run(cluster, finish, horizon=sim.now + 60_000_000.0,
                     slice_us=SLICE_US, done=lambda: state["done"],
                     pause_at=pause_at)
