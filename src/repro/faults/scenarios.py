"""The paper's Figure 4 and Figure 5 scenarios as runnable experiments.

Figure 4 (duplicate messages): the sender's NIC crashes with an ACK in
transit; after recovery the resent message must not be accepted twice.
Figure 5 (lost messages): plain GM ACKs before the receive DMA; a crash
in that window loses the message while the sender believes it arrived.

Each runner drives one booted pair (GM or FTGM, from the cluster's
flavor) through its figure's choreography — open, crash, wait, reload,
resend — as one process on the event wheel, and returns a small result
object; the tests assert the bugs REPRODUCE under plain GM + naive
reload and are ABSENT under FTGM.  :func:`resume_figure` is the
registered ``resume`` of ``fig45``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ckpt.pause import drive_run, map_outcome
from ..errors import GmError
from ..exp.spec import ClusterSpec
from ..obs.harvest import harvest_cluster
from ..payload import Payload
from .naive import naive_reload

__all__ = ["FigureConfig", "Fig4Result", "Fig5Result", "run_figure4",
           "run_figure5", "resume_figure"]

#: How often the choreography re-checks a crash it waits for.
_POLL_US = 1.0


@dataclass(frozen=True)
class FigureConfig:
    """One Fig. 4 or Fig. 5 scenario on a GM or FTGM pair."""

    run_id: int
    name: str
    figure: int                 # 4 or 5
    cluster: ClusterSpec
    seed: int = 0


def _until(sim, predicate):
    """Process step: wait until ``predicate()`` holds."""
    while not predicate():
        yield sim.timeout(_POLL_US)


def _drive(cluster, scenario, state, pause_at, name):
    def finish():
        if state["result"] is None:
            raise RuntimeError("%s scenario did not finish" % name)
        return state["result"]

    cluster.sim.spawn(scenario(), name)
    return drive_run(cluster, finish,
                     horizon=cluster.sim.now + 120_000_000.0,
                     slice_us=1_000.0,
                     done=lambda: state["result"] is not None,
                     pause_at=pause_at)


@dataclass
class Fig4Result:
    flavor: str
    deliveries_of_msg5: int
    sender_completed: bool

    @property
    def duplicate(self) -> bool:
        return self.deliveries_of_msg5 > 1


def run_figure4(cluster, pause_at: Optional[float] = None):
    """Sender crash with ACK in transit, then recovery + resend."""
    flavor = cluster.flavor
    sim = cluster.sim
    state = {"recv": [], "cb": [], "result": None}
    completed = sim.event()

    def on_sent(outcome):
        state["cb"].append(outcome)
        if not completed.triggered:
            completed.succeed()

    def receiver(rport):
        for _ in range(10):
            yield from rport.provide_receive_buffer(256)
        while True:
            event = yield from rport.receive_message()
            state["recv"].append(event.payload.data)

    def sender(sport):
        for i in range(5):
            yield from sport.send_and_wait(
                Payload.from_bytes(b"msg-%d" % i), 1, 2)
        cluster[0].mcp.hang_before_ack_processing = True
        yield from sport.send(Payload.from_bytes(b"msg-5"), 1, 2,
                              callback=on_sent)
        while not state["cb"]:
            if flavor == "gm" and cluster[0].mcp.hung:
                return
            yield from sport.receive(timeout=1_000.0)

    def scenario():
        sport = yield from cluster[0].driver.open_port(1)
        rport = yield from cluster[1].driver.open_port(2)
        cluster[1].host.spawn(receiver(rport), "r")
        cluster[0].host.spawn(sender(sport), "s")
        yield from _until(sim, lambda: cluster[0].mcp.hung or state["cb"])
        if flavor == "gm":
            yield from naive_reload(cluster[0].driver)
            yield from sport.send_and_wait(Payload.from_bytes(b"msg-5"),
                                           1, 2)
            state["cb"].append("resent-ok")
        elif not state["cb"]:
            yield completed         # FTGM recovers and completes the send
        yield sim.timeout(100_000.0)
        state["result"] = Fig4Result(flavor, state["recv"].count(b"msg-5"),
                                     bool(state["cb"]))

    return _drive(cluster, scenario, state, pause_at, "figure 4")


@dataclass
class Fig5Result:
    flavor: str
    sender_told_success: bool
    receiver_got_message: bool

    @property
    def lost(self) -> bool:
        return self.sender_told_success and not self.receiver_got_message


def run_figure5(cluster, pause_at: Optional[float] = None):
    """Receiver crash in the ACK/DMA commit window."""
    flavor = cluster.flavor
    sim = cluster.sim
    state = {"recv": [], "send_ok": None, "result": None}

    def receiver(rport):
        yield from rport.provide_receive_buffer(256)
        while True:
            event = yield from rport.receive_message()
            state["recv"].append(event.payload.data)

    def sender(sport):
        try:
            yield from sport.send_and_wait(
                Payload.from_bytes(b"precious"), 1, 2)
            state["send_ok"] = True
        except GmError:
            state["send_ok"] = False

    def scenario():
        sport = yield from cluster[0].driver.open_port(1)
        rport = yield from cluster[1].driver.open_port(2)
        if flavor == "gm":
            cluster[1].mcp.hang_after_ack_before_dma = True
        else:
            cluster[1].mcp.hang_after_dma_before_ack = True
        cluster[1].host.spawn(receiver(rport), "r")
        sending = cluster[0].host.spawn(sender(sport), "s")
        yield from _until(sim, lambda: cluster[1].mcp.hung or state["recv"])
        if flavor == "gm":
            cluster[1].host.spawn(naive_reload(cluster[1].driver), "naive")
            yield sim.timeout(30_000_000.0)
        else:
            yield sending           # FTGM recovers and completes the send
            yield from _until(sim, lambda: state["recv"])
        state["result"] = Fig5Result(flavor, bool(state["send_ok"]),
                                     bool(state["recv"]))

    return _drive(cluster, scenario, state, pause_at, "figure 5")


def resume_figure(cluster, config: FigureConfig, pause_at=None):
    """Run ``config``'s figure on the ``boot_run`` cluster: did the bug
    (a duplicate for Fig. 4, a lost message for Fig. 5) show?"""
    def outcome(result):
        harvest_cluster(cluster)
        bad = result.duplicate if config.figure == 4 else result.lost
        return {"name": config.name, "bad": bad}

    run = run_figure4 if config.figure == 4 else run_figure5
    return map_outcome(run(cluster, pause_at), outcome)
