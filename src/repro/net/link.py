"""Full-duplex Myrinet links.

A link connects two endpoints (a NIC's packet interface or a switch
port).  Each direction is an independent FIFO wire at Myrinet's 2 Gb/s
(250 bytes/µs) plus a small fixed propagation/SERDES latency.  A packet
holds its direction for its wire time — that is where link-level
contention and therefore backpressure-at-the-edge come from.

Because the wire is FIFO and every delay on it is fixed, both instants
of a packet's crossing are known when it is queued: it starts at
``max(ready, free_at)`` and clears ``wire_size / bandwidth`` later.  Each
direction therefore keeps two :class:`_TimedQueue` deques — transmissions
waiting to clear, and cleared packets in flight to the far end — each
walked by one armed timer instead of a process and a heap entry per
packet.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from ..sim import Simulator, Tracer

__all__ = ["Link", "LINK_BANDWIDTH", "LINK_LATENCY"]

LINK_BANDWIDTH = 250.0  # bytes/us == 2 Gb/s
LINK_LATENCY = 0.4      # us per traversal (cable + SERDES)


def _flight_state(when, packet, duplicate, on_accept) -> dict:
    return {
        "when": when,
        "packet": packet.ckpt_state(),
        "duplicate": duplicate.ckpt_state() if duplicate is not None else None,
        "on_accept": on_accept is not None,
    }


class _TimedQueue:
    """Time-ordered entries of one link direction, one armed timer total.

    Entries are pushed in nondecreasing time order (the wire serializes
    transmissions and every delay on it is constant), so a deque plus a
    single re-armed absolute timer replaces one heap entry per packet —
    and same-instant entries drain in one firing.  ``handler`` receives
    each due entry's fields; the first is the instant it was due.
    """

    __slots__ = ("sim", "handler", "queue", "armed")

    def __init__(self, sim: Simulator, handler):
        self.sim = sim
        self.handler = handler
        self.queue: deque = deque()
        self.armed = None

    def push(self, *entry) -> None:
        self.queue.append(entry)
        if self.armed is None:
            self._arm(entry[0])

    def _arm(self, when: float) -> None:
        timer = self.sim.timeout_at(when)
        timer.callbacks.append(self._fire)
        self.armed = timer

    def _fire(self, _event) -> None:
        self.armed = None
        queue = self.queue
        now = self.sim._now
        handler = self.handler
        while queue and queue[0][0] <= now:
            handler(*queue.popleft())
        if queue:
            self._arm(queue[0][0])


class _Wire:
    """One direction of a link: a FIFO wire in closed form.

    ``clearing`` holds queued transmissions by the instant each clears
    the wire; ``arriving`` holds cleared packets by the instant they
    reach ``receiver``.
    """

    __slots__ = ("link", "receiver", "sim", "bandwidth", "free_at",
                 "bytes_moved", "busy_time", "clearing", "arriving")

    def __init__(self, link: "Link", receiver, sim: Simulator,
                 bandwidth: float):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.link = link
        self.receiver = receiver
        self.sim = sim
        self.bandwidth = bandwidth
        self.free_at = 0.0      # when the last queued packet clears
        self.bytes_moved = 0
        self.busy_time = 0.0    # wire time of the packets cleared so far
        self.clearing = _TimedQueue(sim, self._clear)
        self.arriving = _TimedQueue(sim, self._arrive)

    def transmit(self, packet, delay, on_accept, done) -> None:
        # The exact floats a request -> grant -> hold -> release chain
        # on a rate-limited pipe yields: a waiting packet starts at the
        # instant its predecessor clears.
        start = self.sim._now + delay
        if start < self.free_at:
            start = self.free_at
        nbytes = packet.wire_size
        self.free_at = clear = start + nbytes / self.bandwidth
        self.clearing.push(clear, start, nbytes, packet, on_accept, done)

    def _clear(self, clear, start, nbytes, packet, on_accept, done) -> None:
        """The packet's tail leaves the sender: account, filter, launch."""
        self.bytes_moved += nbytes
        self.busy_time += clear - start
        link = self.link
        ok = True
        duplicate = None
        if not link.up:
            link.tracer.emit(clear, "link", "link_down_drop",
                             packet=packet.describe())
            ok = False
        elif link.fault_filter is not None:
            verdict = link.fault_filter(packet)
            if verdict == "corrupt":
                # Wire bit-rot: the packet arrives but its CRC is stale.
                packet.corrupt_payload(bit=1)
                link.packets_corrupted += 1
            elif verdict == "duplicate":
                # A retransmission artefact / reflection: the far end sees
                # the packet twice.  Clone before delivery because switches
                # consume the route list in place.
                duplicate = packet.clone_for_retransmit()
                duplicate.ingress_ports = list(packet.ingress_ports)
            elif verdict:
                link.packets_dropped += 1
                link.tracer.emit(clear, "link", "fault_drop",
                                 packet=packet.describe())
                ok = False
        if ok:
            self.arriving.push(clear + link.latency, packet, duplicate,
                               on_accept)
        if done is not None:
            done.succeed(ok)

    def _arrive(self, _when, packet, duplicate, on_accept) -> None:
        """Complete one arrival at the far end."""
        link = self.link
        link.packets_carried += 1
        accepted = self.receiver.deliver_packet(packet)
        if duplicate is not None:
            link.packets_duplicated += 1
            link.tracer.emit(self.sim.now, "link",
                             "fault_duplicate", packet=duplicate.describe())
            self.receiver.deliver_packet(duplicate)
        if accepted and on_accept is not None:
            on_accept()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the wire was busy."""
        now = self.sim.now
        busy = self.busy_time
        queue = self.clearing.queue
        if queue and queue[0][1] <= now:    # the head packet is on the wire
            busy += now - queue[0][1]
        span = elapsed if elapsed is not None else now
        return busy / span if span > 0 else 0.0

    def ckpt_state(self) -> dict:
        """Snapshot contract: wire occupancy, queued and in-flight packets."""
        return {
            "bandwidth": self.bandwidth,
            "free_at": self.free_at,
            "bytes_moved": self.bytes_moved,
            "busy_time": self.busy_time,
            "clearing": [
                {"clear": clear, "start": start, "packet": packet.ckpt_state(),
                 "on_accept": on_accept is not None, "done": done is not None}
                for clear, start, _n, packet, on_accept, done
                in self.clearing.queue],
            "arriving": {"armed": self.arriving.armed is not None,
                         "queue": [_flight_state(*entry)
                                   for entry in self.arriving.queue]},
        }


class Link:
    """Two endpoints, one FIFO wire per direction.

    Endpoints must expose ``deliver_packet(packet) -> bool`` (and, for
    tracing, a ``name`` attribute).  The transmitting endpoint calls
    :meth:`transmit`, or :meth:`send` if it waits for the wire to clear.
    """

    def __init__(self, sim: Simulator, end_a, end_b,
                 bandwidth: float = LINK_BANDWIDTH,
                 latency: float = LINK_LATENCY,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.end_a = end_a
        self.end_b = end_b
        self.latency = latency
        # Keyed by sender.
        self._wires = {
            id(end_a): _Wire(self, end_b, sim, bandwidth),
            id(end_b): _Wire(self, end_a, sim, bandwidth),
        }
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.up = True
        self.packets_carried = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.cuts = 0
        # Test/experiment hook: drop (True), corrupt ("corrupt") or
        # duplicate ("duplicate") packets.
        self.fault_filter = None  # callable(packet) -> False|True|"corrupt"|"duplicate"

    def other(self, endpoint):
        if endpoint is self.end_a:
            return self.end_b
        if endpoint is self.end_b:
            return self.end_a
        raise ValueError("%r is not attached to this link" % (endpoint,))

    def transmit(self, sender, packet, delay: float = 0.0,
                 on_accept=None, done=None) -> None:
        """Queue ``packet`` on ``sender``'s wire, ready ``delay`` from now.

        It clears the wire after every packet queued before it (``delay``
        must be one constant per direction, so ready order is queue
        order).  A cut link or a fault-filter drop loses it at that
        instant — the sender's protocol layer must recover, which is
        exactly GM's job.  Delivery completes one wire latency later;
        ``on_accept`` is called then if the far end accepted the packet.
        ``done``, if given, is an event succeeded at wire-clear with
        whether the packet went on toward the far end.
        """
        self._wires[id(sender)].transmit(packet, delay, on_accept, done)

    def send(self, sender, packet, on_accept=None) -> Generator:
        """Process: :meth:`transmit` and wait for the wire to clear."""
        done = self.sim.event()
        self.transmit(sender, packet, 0.0, on_accept, done)
        ok = yield done
        return ok

    def cut(self) -> None:
        """Take the link down (packets in flight are lost)."""
        if self.up:
            self.cuts += 1
            self.tracer.emit(self.sim.now, "link", "link_cut",
                             ends="%s<->%s" % (getattr(self.end_a, "name", "?"),
                                               getattr(self.end_b, "name", "?")))
        self.up = False

    def restore(self) -> None:
        if not self.up:
            self.tracer.emit(self.sim.now, "link", "link_restore",
                             ends="%s<->%s" % (getattr(self.end_a, "name", "?"),
                                               getattr(self.end_b, "name", "?")))
        self.up = True

    def describe_ends(self) -> str:
        """Stable human-readable identity, e.g. 'nic0.port<->sw0.p0'."""
        return "%s<->%s" % (getattr(self.end_a, "name", "?"),
                            getattr(self.end_b, "name", "?"))

    def ckpt_state(self) -> dict:
        """Snapshot contract: both wires and the fault state."""
        wires = [self._wires[id(self.end_a)], self._wires[id(self.end_b)]]
        return {
            "ends": self.describe_ends(),
            "up": self.up,
            "latency": self.latency,
            "carried": self.packets_carried,
            "dropped": self.packets_dropped,
            "duplicated": self.packets_duplicated,
            "corrupted": self.packets_corrupted,
            "cuts": self.cuts,
            "fault_filter": self.fault_filter is not None,
            "wires": [wire.ckpt_state() for wire in wires],
        }
