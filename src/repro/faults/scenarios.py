"""The paper's Figure 4 and Figure 5 scenarios as runnable experiments.

Figure 4 (duplicate messages): the sender's NIC crashes with an ACK in
transit; after recovery the resent message must not be accepted twice.
Figure 5 (lost messages): plain GM ACKs before the receive DMA; a crash
in that window loses the message while the sender believes it arrived.

Each runner returns a small result object; the tests assert the bugs
REPRODUCE under plain GM + naive reload and are ABSENT under FTGM, and
the Fig. 4/5 benchmark prints both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import build_cluster
from ..errors import GmError
from ..payload import Payload
from .naive import naive_reload

__all__ = ["Fig4Result", "Fig5Result", "run_figure4", "run_figure5"]


def _run_until(cluster, predicate, limit=120_000_000.0):
    sim = cluster.sim
    deadline = sim.now + limit
    while not predicate() and sim.peek() <= deadline:
        sim.step()
    return predicate()


def _open(cluster, node, port_id):
    box = {}

    def opener():
        box["port"] = yield from cluster[node].driver.open_port(port_id)

    cluster[node].host.spawn(opener(), "open")
    assert _run_until(cluster, lambda: "port" in box)
    return box["port"]


@dataclass
class Fig4Result:
    flavor: str
    deliveries_of_msg5: int
    sender_completed: bool

    @property
    def duplicate(self) -> bool:
        return self.deliveries_of_msg5 > 1


def run_figure4(flavor: str) -> Fig4Result:
    """Sender crash with ACK in transit, then recovery + resend."""
    cluster = build_cluster(2, flavor=flavor)
    sim = cluster.sim
    sport = _open(cluster, 0, 1)
    rport = _open(cluster, 1, 2)
    state = {"recv": [], "cb": []}

    def receiver():
        for _ in range(10):
            yield from rport.provide_receive_buffer(256)
        while True:
            event = yield from rport.receive_message()
            state["recv"].append(event.payload.data)

    def sender():
        for i in range(5):
            yield from sport.send_and_wait(
                Payload.from_bytes(b"msg-%d" % i), 1, 2)
        cluster[0].mcp.hang_before_ack_processing = True
        yield from sport.send(Payload.from_bytes(b"msg-5"), 1, 2,
                              callback=lambda o: state["cb"].append(o))
        while not state["cb"]:
            if flavor == "gm" and cluster[0].mcp.hung:
                return
            yield from sport.receive(timeout=1_000.0)

    cluster[1].host.spawn(receiver(), "r")
    cluster[0].host.spawn(sender(), "s")
    assert _run_until(cluster,
                      lambda: cluster[0].mcp.hung or bool(state["cb"]))

    if flavor == "gm":
        def recover_and_resend():
            yield from naive_reload(cluster[0].driver)
            yield from sport.send_and_wait(Payload.from_bytes(b"msg-5"),
                                           1, 2)
            state["cb"].append("resent-ok")

        cluster[0].host.spawn(recover_and_resend(), "naive")
    assert _run_until(cluster, lambda: bool(state["cb"]))
    sim.run(until=sim.now + 100_000.0)
    return Fig4Result(flavor, state["recv"].count(b"msg-5"),
                      bool(state["cb"]))


@dataclass
class Fig5Result:
    flavor: str
    sender_told_success: bool
    receiver_got_message: bool

    @property
    def lost(self) -> bool:
        return self.sender_told_success and not self.receiver_got_message


def run_figure5(flavor: str) -> Fig5Result:
    """Receiver crash in the ACK/DMA commit window."""
    cluster = build_cluster(2, flavor=flavor)
    sim = cluster.sim
    sport = _open(cluster, 0, 1)
    rport = _open(cluster, 1, 2)
    state = {"recv": [], "send_ok": None}
    if flavor == "gm":
        cluster[1].mcp.hang_after_ack_before_dma = True
    else:
        cluster[1].mcp.hang_after_dma_before_ack = True

    def receiver():
        yield from rport.provide_receive_buffer(256)
        while True:
            event = yield from rport.receive_message()
            state["recv"].append(event.payload.data)

    def sender():
        try:
            yield from sport.send_and_wait(
                Payload.from_bytes(b"precious"), 1, 2)
            state["send_ok"] = True
        except GmError:
            state["send_ok"] = False

    cluster[1].host.spawn(receiver(), "r")
    cluster[0].host.spawn(sender(), "s")
    assert _run_until(cluster,
                      lambda: cluster[1].mcp.hung or bool(state["recv"]))

    if flavor == "gm":
        def recover():
            yield from naive_reload(cluster[1].driver)

        cluster[1].host.spawn(recover(), "naive")
        sim.run(until=sim.now + 30_000_000.0)
    else:
        _run_until(cluster, lambda: bool(state["recv"])
                   and state["send_ok"] is not None)
    return Fig5Result(flavor, bool(state["send_ok"]), bool(state["recv"]))
