"""Controlled recovery experiments (Table 3, Figure 9).

Runs light traffic on an FTGM pair, hangs the receiver's LANai at a
chosen moment, and extracts the three recovery-time components the paper
reports: detection (fault -> FATAL interrupt), FTD time (wakeup ->
FAULT_DETECTED posted), and per-process handler time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ckpt.pause import drive_run
from ..exp.spec import ClusterSpec
from ..ftgm.ftd import RecoveryRecord
from ..obs.harvest import harvest_cluster
from ..payload import Payload

__all__ = ["RECOVERY_CLUSTER", "RecoveryConfig", "RecoveryExperiment",
           "run_recovery_experiment"]

#: The recovery testbed: an FTGM pair on one switch.
RECOVERY_CLUSTER = ClusterSpec(n_nodes=2, flavor="ftgm")


@dataclass(frozen=True)
class RecoveryConfig:
    """One controlled recovery run: hang the receiver's LANai
    ``hang_offset_us`` into a ``messages``-long stream, with
    ``open_ports`` ports open on it."""

    run_id: int = 0
    seed: int = 0
    cluster: ClusterSpec = RECOVERY_CLUSTER
    hang_offset_us: float = 650.0
    open_ports: int = 1
    messages: int = 30


@dataclass
class RecoveryExperiment:
    """One instrumented fault-recovery run."""

    fault_at: float
    record: RecoveryRecord
    port_recovery_times: List[float]  # per-handler durations ("took")
    last_port_done_at: float          # absolute time of the final handler
    completed_after_recovery: bool

    @property
    def detection_us(self) -> float:
        return self.record.interrupt_at - self.fault_at

    @property
    def per_port_us(self) -> float:
        """Mean handler duration.  With several open ports the handlers
        serialize on the host CPU, so later handlers' durations include
        queueing — use :attr:`total_us` for end-to-end claims."""
        if not self.port_recovery_times:
            return 0.0
        return sum(self.port_recovery_times) / len(self.port_recovery_times)

    @property
    def total_us(self) -> float:
        """Fault occurrence to the last port fully recovered."""
        return self.last_port_done_at - self.fault_at


def _handlers_done(cluster) -> List[tuple]:
    """``(end instant, duration)`` of every finished port-recovery
    handler, in the order they finished."""
    return sorted((at, took) for node in cluster.nodes
                  for port in node.driver.ports.values()
                  for at, took in zip(port.recovered_at,
                                      port.recovery_times))


def run_recovery_experiment(cluster, config: RecoveryConfig,
                            pause_at: Optional[float] = None):
    """Hang the receiver mid-stream; measure every recovery component.

    The registered ``resume`` of ``table3`` and ``fig9``.  Returns a
    :class:`RecoveryExperiment`, or with ``pause_at`` a
    :class:`~repro.ckpt.pause.PausedRun` that finishes into one.
    """
    sim = cluster.sim
    messages = config.messages
    open_ports = config.open_ports
    horizon = sim.now + 60_000_000.0
    state = {"recv": 0, "sent": 0, "fault_at": None,
             "recv_done_at": None, "sent_done_at": None}

    # Phase 1: open every port up front (port opens go through L_timer;
    # a crash while an open is pending would wedge the application on a
    # request the dead MCP never answers — not the scenario under test).
    # The last open to complete starts phase 2.
    opened = {}

    def opener(node, port_id):
        opened[(node, port_id)] = yield from \
            cluster[node].driver.open_port(port_id)
        if len(opened) == 1 + open_ports:
            start_traffic()

    # Phase 2: traffic + fault.
    def sender():
        port = opened[(0, 1)]
        payload = Payload.phantom(256, tag=3)
        for _ in range(messages):
            yield from port.send_and_wait(payload, 1, 2)
            state["sent"] += 1
            if state["sent"] == messages:
                state["sent_done_at"] = sim.now
            yield sim.timeout(20.0)

    def receiver():
        port = opened[(1, 2)]
        for _ in range(8):
            yield from port.provide_receive_buffer(256)
        while state["recv"] < messages:
            event = yield from port.receive_message()
            state["recv"] += 1
            if state["recv"] <= messages - 8:
                yield from port.provide_receive_buffer(256)
        state["recv_done_at"] = sim.now

    def idler(port):
        """Poll an idle port so its FAULT_DETECTED gets handled."""
        while True:
            yield from port.receive(timeout=5_000.0)

    def crasher():
        yield sim.timeout(config.hang_offset_us)
        state["fault_at"] = sim.now
        cluster[1].mcp.die("recovery-experiment")

    def start_traffic():
        cluster[1].host.spawn(receiver(), "recv")
        cluster[0].host.spawn(sender(), "send")
        for extra in range(open_ports - 1):
            cluster[1].host.spawn(idler(opened[(1, 3 + extra)]),
                                  "idle%d" % extra)
        sim.spawn(crasher())

    cluster[0].host.spawn(opener(0, 1), "open-s")
    cluster[1].host.spawn(opener(1, 2), "open-r")
    for extra in range(open_ports - 1):
        cluster[1].host.spawn(opener(1, 3 + extra), "open-i%d" % extra)

    def finished_at() -> Optional[float]:
        """When the stream had completed and every port recovered."""
        if state["sent_done_at"] is None or state["recv_done_at"] is None:
            return None
        done = _handlers_done(cluster)
        if len(done) < open_ports:
            return None
        return max(state["sent_done_at"], state["recv_done_at"],
                   done[open_ports - 1][0])

    def finish() -> RecoveryExperiment:
        # Settle trailing handler work for 10 ms past the instant the run
        # completed (the drive slice never overshoots that far).
        at = finished_at()
        sim.run(until=max(sim.now, horizon if at is None
                          else min(at + 10_000.0, horizon)))
        ftd = cluster[1].driver.ftd
        if not ftd.recoveries:
            raise RuntimeError("no recovery happened; hang_offset too late?")
        done = _handlers_done(cluster)
        harvest_cluster(cluster, fault_at=state["fault_at"])
        return RecoveryExperiment(
            fault_at=state["fault_at"],
            record=ftd.recoveries[0],
            port_recovery_times=[took for _at, took in done],
            last_port_done_at=max((at for at, _took in done),
                                  default=ftd.recoveries[0].events_posted_at),
            completed_after_recovery=(state["recv"] >= messages),
        )

    return drive_run(cluster, finish, horizon=horizon, slice_us=1_000.0,
                     done=lambda: finished_at() is not None,
                     pause_at=pause_at)
