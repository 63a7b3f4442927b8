"""Bidirectional streaming bandwidth (Figure 7, Table 2 "Bandwidth").

"The workload for these experiments involved both the hosts sending and
receiving messages at the maximum rate possible (as in gm_allsize).  For
each message length, a large number of messages were sent repeatedly and
results averaged."

Each side keeps as many sends outstanding as its token pool allows and
recycles receive buffers as messages land; sustained bandwidth is the
per-direction goodput over the measurement interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ckpt.pause import drive_run
from ..cluster import MyrinetCluster
from ..gm import constants as C
from ..payload import Payload
from .pair import SLICE_US, check_pair

__all__ = ["BandwidthResult", "run_allsize"]


@dataclass
class BandwidthResult:
    size: int
    messages_per_side: int
    elapsed_us: float
    delivered_bytes_per_side: int

    @property
    def bandwidth_mb_s(self) -> float:
        """Sustained per-direction data rate (bytes/us == MB/s)."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.delivered_bytes_per_side / self.elapsed_us


def run_allsize(cluster: MyrinetCluster, size: int, messages: int = 50,
                a: int = 0, b: int = 1, pause_at: Optional[float] = None):
    """Bidirectional stream of ``messages`` x ``size`` bytes each way.

    ``a``/``b`` may be any two distinct nodes of the cluster.  Returns a
    :class:`BandwidthResult`, or with ``pause_at`` a
    :class:`~repro.ckpt.pause.PausedRun` that finishes into one.
    """
    check_pair(cluster, a, b)
    sim = cluster.sim
    state = {"recv": {a: 0, b: 0}, "start": None, "end": None, "done": 0}
    payload = Payload.phantom(size, tag=0xF10)
    outstanding_limit = C.SEND_TOKENS_PER_PORT
    buffers_target = min(messages, C.RECV_TOKENS_PER_PORT)

    def side(me: int, peer: int, port_id: int):
        port = yield from cluster[me].driver.open_port(port_id)
        for _ in range(buffers_target):
            yield from port.provide_receive_buffer(max(size, 1))
        if state["start"] is None:
            state["start"] = sim.now
        sent = {"posted": 0, "done": 0}

        def on_sent(outcome):
            sent["done"] += 1

        received = 0
        provided = buffers_target
        # Keep the pipe full: post sends while tokens allow, consume
        # receive events as they arrive.
        while sent["done"] < messages or received < messages:
            while (sent["posted"] < messages
                   and sent["posted"] - sent["done"] < outstanding_limit
                   and port.send_tokens > 0):
                yield from port.send(payload, peer, port_id,
                                     callback=on_sent)
                sent["posted"] += 1
            event = yield from port.receive()
            if event is not None and event.etype == "received":
                received += 1
                state["recv"][me] += event.size
                if provided < messages:
                    yield from port.provide_receive_buffer(max(size, 1))
                    provided += 1
        state["done"] += 1
        state["end"] = sim.now

    cluster[a].host.spawn(side(a, b, 3), "allsize-a")
    cluster[b].host.spawn(side(b, a, 3), "allsize-b")

    def finish() -> BandwidthResult:
        if state["done"] < 2:
            raise RuntimeError("allsize did not finish (size=%d)" % size)
        return BandwidthResult(size, messages, state["end"] - state["start"],
                               messages * size)

    return drive_run(cluster, finish, horizon=sim.now + 600_000_000.0,
                     slice_us=SLICE_US, done=lambda: state["done"] >= 2,
                     pause_at=pause_at)
