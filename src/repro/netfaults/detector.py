"""Path-fault detection: NIC-hang vs. path-dead classification.

The paper's watchdog answers one question — *is the local LANai alive?*
— and resets the card when it is not.  A severed link or a dead switch
port produces the same application-visible symptom (sends stop
completing) while the card is perfectly healthy; resetting it would cost
~765 ms and fix nothing.  The :class:`PathDetector` layers on the FTGM
machinery to tell these apart:

1. **per-route send-timeout accounting** — a periodic sweep over the
   MCP's tx streams finds destinations whose Go-Back-N has made no
   forward progress for ``suspect_stall_us`` (well below GM's 7 s send
   failure);
2. **routed liveness probe** — a HEARTBEAT over the installed route; an
   answer proves both path and peer, verdict HEALTHY;
3. **mapper-scout probe** — an unanswered heartbeat escalates to a
   TTL-bounded scout flood (the mapper's own discovery primitive, which
   does not depend on the dead route).  If the suspect answers the
   flood, some path still exists: verdict PATH_DEAD and the FTD is told
   to re-run the mapper (:meth:`FaultToleranceDaemon.notify_path_fault`)
   — the card is *not* reset.  If the suspect is silent even to the
   flood: verdict REMOTE_DEAD — no reset, no reroute, the send-stall
   machinery errors the stream out.

A hung local MCP is recorded as NIC_HANG and left to the §4.2 watchdog —
IT1 and the FTD's magic-word confirmation own that fault domain.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..net.packet import Packet, PacketType
from ..sim import Tracer

__all__ = ["PathDetector", "Verdict", "arm_detectors"]

# Detector heartbeats live in their own sequence space so they never
# collide with a PeerWatchdog's small incrementing probe numbers.
_PROBE_SEQ_BASE = 1_000_000


class Verdict:
    HEALTHY = "healthy"
    NIC_HANG = "nic-hang"
    PATH_DEAD = "path-dead"
    REMOTE_DEAD = "remote-dead"


class PathDetector:
    """Per-node path-fault detector; runs on the node's host."""

    def __init__(self, driver,
                 interval_us: float = 5_000.0,
                 suspect_stall_us: float = 15_000.0,
                 probe_timeout_us: float = 2_000.0,
                 probe_retries: int = 2,
                 scout_settle_us: float = 1_500.0,
                 min_reverdict_us: float = 250_000.0,
                 phase_us: Optional[float] = None,
                 scout_ttl: Optional[int] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = driver.sim
        self.driver = driver
        self.node_id = driver.nic.node_id
        self.name = "netdet%d" % self.node_id
        self.interval_us = interval_us
        self.suspect_stall_us = suspect_stall_us
        self.probe_timeout_us = probe_timeout_us
        self.probe_retries = probe_retries
        self.scout_settle_us = scout_settle_us
        self.min_reverdict_us = min_reverdict_us
        # Hop budget of the escalation scout flood.  The default (the
        # mapper's own TTL) is fine on small fabrics; large multi-tier
        # fabrics cap it to what reaches any host (5 hops on a 3-tier
        # fat-tree) because flood cost grows with path multiplicity.
        self.scout_ttl = scout_ttl
        # Stagger sweeps across nodes so concurrent detectors do not all
        # classify the same fault in the same deterministic instant.
        self.phase_us = phase_us if phase_us is not None \
            else (self.node_id % 8) * interval_us / 10.0
        self.tracer = tracer if tracer is not None else driver.tracer
        self.verdicts: List[Tuple[float, int, str]] = []
        self.probes_sent = 0
        self.scouts_sent = 0
        self._seq = _PROBE_SEQ_BASE + self.node_id * 100_000
        self._replies: Dict[int, bool] = {}   # outstanding probe seq -> answered
        self._chained_fn = None
        self._last_verdict: Dict[int, Tuple[float, str]] = {}
        self._hang_seen = None
        self.running = False
        self._proc = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._proc = self.driver.host.spawn(self._run(), self.name)

    def stop(self) -> None:
        self.running = False

    # -- heartbeat plumbing ---------------------------------------------------

    def _ensure_listener(self) -> None:
        """(Re)chain onto the live MCP's single heartbeat-listener slot.

        Replies to our own probes are consumed; everything else is
        passed through to whatever listener (e.g. a PeerWatchdog) was
        installed before us.  Re-checked before every probe because the
        MCP object is replaced on reload.
        """
        mcp = self.driver.mcp
        if mcp is None or mcp.heartbeat_listener is self._chained_fn:
            return
        prev = mcp.heartbeat_listener

        def chained(pkt, _prev=prev):
            if pkt.seq in self._replies:
                self._replies[pkt.seq] = True
            elif _prev is not None:
                _prev(pkt)

        self._chained_fn = chained
        mcp.heartbeat_listener = chained

    def _record(self, dest: int, verdict: str) -> None:
        now = self.sim.now
        self.verdicts.append((now, dest, verdict))
        self._last_verdict[dest] = (now, verdict)
        self.tracer.emit(now, self.name, "path_verdict",
                         dest=dest, verdict=verdict)

    # -- the sweep loop -------------------------------------------------------

    def _run(self) -> Generator:
        yield self.sim.timeout(self.interval_us + self.phase_us)
        while self.running:
            yield from self._sweep()
            yield self.sim.timeout(self.interval_us)

    def _sweep(self) -> Generator:
        mcp = self.driver.mcp
        if mcp is None or not mcp.running:
            if mcp is not None and mcp.hung and self._hang_seen is not mcp:
                # The card itself is gone: that is the watchdog's fault
                # domain (IT1 + magic word), not ours.  Record the
                # classification and stand down.
                self._hang_seen = mcp
                self._record(-1, Verdict.NIC_HANG)
            return
        ftd = self.driver.ftd
        if ftd.rerouting:
            # The mapper is live on this node: its discovery shares our
            # agent reply store, so probing now would steal its replies.
            return
        now = self.sim.now
        suspects = sorted({
            key[0] for key, stream in mcp.tx_streams.items()
            if key[0] != self.node_id
            and stream.has_unacked()
            and now - stream.last_progress_at > self.suspect_stall_us})
        for dest in suspects:
            last = self._last_verdict.get(dest)
            if last is not None and last[1] != Verdict.HEALTHY \
                    and self.sim.now - last[0] < self.min_reverdict_us:
                continue  # debounce: we already ruled on this path
            verdict = yield from self._classify(dest)
            self._record(dest, verdict)
            if verdict == Verdict.PATH_DEAD:
                ftd.notify_path_fault(dest)
                # One reroute refreshes every route; re-sweep later.
                return
            if verdict == Verdict.NIC_HANG:
                return

    # -- classification -------------------------------------------------------

    def _classify(self, dest: int) -> Generator:
        """The verdict ladder for one suspect destination."""
        mcp = self.driver.mcp
        if mcp is None or not mcp.running or mcp.hung:
            return Verdict.NIC_HANG
        route = mcp.routing_table.get(dest)
        if route is not None:
            answered = yield from self._heartbeat_probe(mcp, dest, route)
            if answered:
                return Verdict.HEALTHY
        # The installed route is dead (or absent): ask the fabric itself.
        alive = yield from self._scout_probe(mcp, dest)
        return Verdict.PATH_DEAD if alive else Verdict.REMOTE_DEAD

    def _heartbeat_probe(self, mcp, dest: int,
                         route: List[int]) -> Generator:
        """Routed HEARTBEAT over the installed route; True if answered."""
        for _attempt in range(self.probe_retries):
            self._ensure_listener()
            self._seq += 1
            seq = self._seq
            self._replies[seq] = False
            probe = Packet(ptype=PacketType.HEARTBEAT,
                           src_node=self.node_id, dest_node=dest,
                           route=list(route), seq=seq)
            mcp._transmit(probe.seal())
            self.probes_sent += 1
            yield self.sim.timeout(self.probe_timeout_us)
            if self._replies.pop(seq, False):
                return True
        return False

    def _scout_probe(self, mcp, dest: int) -> Generator:
        """Scout flood; True if ``dest`` answered (some path exists)."""
        agent = mcp.mapper_agent
        agent.replies.drain()   # discard stale replies from older rounds
        from ..net.mapper import Mapper
        ttl = self.scout_ttl if self.scout_ttl is not None \
            else Mapper.SCOUT_TTL
        scout = Packet(ptype=PacketType.MAPPER_SCOUT,
                       src_node=self.node_id, dest_node=-1,
                       flood=True, ttl=ttl)
        mcp._transmit(scout)
        self.scouts_sent += 1
        yield self.sim.timeout(self.scout_settle_us)
        alive = any(info["node_id"] == dest
                    for info in agent.replies.drain())
        return alive


def arm_detectors(cluster, nodes: Optional[List[int]] = None,
                  **kwargs) -> List[PathDetector]:
    """Start one :class:`PathDetector` per FTGM node of ``cluster``.

    Detection is armed only where recovery follows: a node whose driver
    carries no FTD (plain GM) gets no detector, since nothing would act
    on its verdicts.  ``nodes`` restricts arming to the listed node ids
    — on a hundreds-of-nodes fabric only the workload-active nodes have
    tx streams to sweep, and idle nodes must stay parked (a sweeping
    detector would keep every MCP awake).
    """
    detectors = []
    wanted = None if nodes is None else set(nodes)
    for node in cluster.nodes:
        if wanted is not None and node.node_id not in wanted:
            continue
        if getattr(node.driver, "ftd", None) is None:
            continue
        detector = PathDetector(node.driver, tracer=cluster.tracer,
                                **kwargs)
        detector.start()
        detectors.append(detector)
    return detectors
