"""Host-CPU and LANai utilization probes (Table 2 rows 3-5).

* **Host util. (send/recv)** — CPU time the host burns per message in
  the library's send and receive paths; measured from the host's
  per-category CPU accounting over a one-way stream.
* **LANai util.** — LANai occupancy per small message, split into
  send-side and receive-side busy time (the paper reports the sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ckpt.pause import drive_run
from ..payload import Payload
from .pair import SLICE_US

__all__ = ["UtilizationResult", "measure_utilization"]


@dataclass
class UtilizationResult:
    messages: int
    size: int
    host_send_us: float      # per message
    host_recv_us: float
    lanai_send_us: float
    lanai_recv_us: float

    @property
    def lanai_total_us(self) -> float:
        return self.lanai_send_us + self.lanai_recv_us


def measure_utilization(cluster, messages: int = 100, size: int = 64,
                        pause_at: Optional[float] = None):
    """One-way stream of small messages on a booted pair; read the cost
    meters.  Returns a :class:`UtilizationResult`, or with ``pause_at`` a
    :class:`~repro.ckpt.pause.PausedRun` that finishes into one."""
    sim = cluster.sim
    state = {"recv": 0, "sent": 0, "result": None}

    def read_meters() -> None:
        """Freeze the meters the instant the stream completes: trailing
        ACK work would keep moving them."""
        if state["sent"] < messages or state["recv"] < messages:
            return
        mcp_tx = cluster[0].mcp
        mcp_rx = cluster[1].mcp
        state["result"] = UtilizationResult(
            messages=messages,
            size=size,
            host_send_us=cluster[0].host.cpu_time.get("send", 0.0)
            / messages,
            host_recv_us=cluster[1].host.cpu_time.get("recv", 0.0)
            / messages,
            lanai_send_us=mcp_tx.send_busy_time
            / max(mcp_tx.stats["packets_sent"], 1),
            lanai_recv_us=mcp_rx.recv_busy_time
            / max(mcp_rx.stats["packets_received"], 1),
        )

    def sender():
        port = yield from cluster[0].driver.open_port(1)
        payload = Payload.phantom(size, tag=0x11)
        for _ in range(messages):
            yield from port.send_and_wait(payload, 1, 2)
            state["sent"] += 1
        read_meters()

    def receiver():
        port = yield from cluster[1].driver.open_port(2)
        for _ in range(8):
            yield from port.provide_receive_buffer(max(size, 1))
        while state["recv"] < messages:
            event = yield from port.receive_message()
            state["recv"] += 1
            if state["recv"] <= messages - 8:
                yield from port.provide_receive_buffer(max(size, 1))
        read_meters()

    # Zero the meters that boot-time activity already touched.
    cluster[0].host.cpu_time.clear()
    cluster[1].host.cpu_time.clear()

    cluster[1].host.spawn(receiver(), "util-r")
    cluster[0].host.spawn(sender(), "util-s")

    def finish() -> UtilizationResult:
        if state["result"] is None:
            raise RuntimeError("utilization stream did not finish")
        return state["result"]

    return drive_run(cluster, finish,
                     horizon=sim.now + 120_000_000.0, slice_us=SLICE_US,
                     done=lambda: state["result"] is not None,
                     pause_at=pause_at)
