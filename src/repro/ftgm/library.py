"""The FTGM user library: same API as GM, recovery hidden inside it.

"It is important to see how our design requires no changes to be made to
previously-written GM applications" — an application (or middleware)
linked against this library is byte-for-byte the same code as against
:class:`repro.gm.library.Port`; the fault-tolerance work happens in the
hooks GM already routes through (`gm_send` internals, `gm_receive`
internals, and above all ``gm_unknown()``).

The continuous-backup costs charged here are the measured overheads of
the paper (§5.1): ~0.25 µs extra per send (token copy + sequence
generation) and ~0.4 µs extra per receive (two hash-table updates: the
recv-token copy and the per-stream ACK number).
"""

from __future__ import annotations

from typing import Generator

from ..gm import constants as C
from ..gm.events import EventType, GmEvent
from ..gm.library import Port
from ..gm.tokens import RecvToken, SendToken
from ..sim import Tracer
from .seqgen import PortSequenceStreams
from .shadow import ShadowState

__all__ = ["FtgmPort", "FTGM_SEND_EXTRA_US", "FTGM_RECV_EXTRA_US"]

FTGM_SEND_EXTRA_US = 0.25   # "around 0.25us for the send"
FTGM_RECV_EXTRA_US = 0.40   # "around 0.4us for the receive"


class FtgmPort(Port):
    """A GM port with continuous host-side state backup."""

    def __init__(self, sim, host, driver, mcp, port_id):
        super().__init__(sim, host, driver, mcp, port_id)
        self.shadow = ShadowState(port_id)
        self.seq_streams = PortSequenceStreams(port_id)
        self.recoveries = 0
        self.route_changes = 0
        self.recovery_times: list = []   # per-handler durations (us)
        self.recovered_at: list = []     # ...and their end instants (us)

    # -- event sink ----------------------------------------------------------------

    def _event_sink(self, event: GmEvent) -> None:
        """The LANai's event DMA lands in host memory; the ACK-table and
        recv-token copies update *here*, at post time — "the LANai needs
        to notify the host of the sequence number ... by including the
        sequence number as part of the event posted" — not when the
        application eventually polls.  Recovery therefore never trusts a
        stale copy for anything the LANai already ACKed."""
        if event.etype == EventType.RECEIVED:
            self.shadow.record_delivery(event.sender_node,
                                        event.sender_port, event.seq)
            self.shadow.drop_recv_token(event.recv_token_id)
        super()._event_sink(event)

    # -- continuous backup hooks ----------------------------------------------------

    def _prepare_send(self, token: SendToken) -> Generator:
        """Generate the message's sequence range and copy the token."""
        base = yield from self.seq_streams.alloc(
            token.dest_node, token.fragment_count(C.GM_MTU))
        token.seq_base = base
        self.shadow.save_send_token(token)
        yield from self.host.cpu_execute(FTGM_SEND_EXTRA_US, "send")

    def _prepare_receive(self, token: RecvToken) -> Generator:
        self.shadow.save_recv_token(token)
        return
        yield  # the copy cost is folded into the receive-side 0.4us

    def _on_received(self, event: GmEvent) -> Generator:
        """Charge the two hash updates per receive (ACK table +
        recv-token copy; the updates themselves happen at event-post
        time in :meth:`_event_sink` — the cost is the host's either
        way)."""
        yield from self.host.cpu_execute(FTGM_RECV_EXTRA_US, "recv")

    def _on_sent(self, event: GmEvent) -> Generator:
        """"The copy of the send token is removed just before the
        callback function for that send token is invoked."""
        self.shadow.drop_send_token(event.msg_id)
        return
        yield  # cost folded into the send-side 0.25us

    # -- transparent recovery (§4.4) -----------------------------------------------

    def unknown(self, event: GmEvent) -> Generator:
        if event.etype == EventType.FAULT_DETECTED:
            yield from self._recover_port()
        elif event.etype == EventType.ROUTE_CHANGED:
            yield from self._on_route_changed()

    def _on_route_changed(self) -> Generator:
        """Netfault reroute: fresh routes were installed on a *live* MCP.

        Unlike FAULT_DETECTED, the LANai kept all its protocol state, so
        most of the card-reset recovery is unnecessary.  Two things
        matter: (a) any shadow-tokened send the MCP no longer knows
        about (it errored out while the path was dead) is re-posted with
        its original host-generated sequence numbers — the receiver's
        per-stream ACK state makes the replay exactly-once; (b) streams
        that *are* still queued get a retransmit kick so Go-Back-N
        resumes over the new routes immediately instead of waiting out a
        backed-off timer.
        """
        tracer: Tracer = self.driver.tracer
        source = "port%d@%s" % (self.port_id, self.host.name)
        self.route_changes += 1
        replayed = 0
        for token in self.shadow.outstanding_sends():
            key = self.mcp.tx_stream_key(token)
            stream = self.mcp.tx_streams.get(key)
            if stream is None or token.msg_id not in stream.msgs:
                self.mcp.doorbell_send(token)
                replayed += 1
        self.mcp.host_request(("retx_now", self.port_id))
        yield from self.host.cpu_execute(1.0, "route-change")
        tracer.emit(self.sim.now, source, "port_route_changed",
                    replayed=replayed)

    def _recover_port(self) -> Generator:
        """The FAULT_DETECTED handler: restore this port's LANai state.

        Order per the paper: cursory checks; restore send and receive
        token queues from the backup; update the LANai with the last
        sequence number received on each stream; clear the receive
        queue; notify the LANai to "reopen" the port.
        """
        tracer: Tracer = self.driver.tracer
        started = self.sim.now
        source = "port%d@%s" % (self.port_id, self.host.name)
        tracer.emit(started, source, "port_recovery_start",
                    sends=len(self.shadow.send_tokens),
                    recvs=len(self.shadow.recv_tokens))

        # Restore the LANai's receive-token queue from our copies.
        for token in self.shadow.outstanding_recvs():
            self.mcp.doorbell_recv(token)

        # Tell the LANai the last sequence number the *host* saw per
        # stream, "so the LANai ACKs the right messages and NACKs those
        # that arrive out-of-order".
        for key, last_seq in self.shadow.stream_restore_points().items():
            self.mcp.host_request(("restore_rx", key, last_seq))

        # Re-post the unacknowledged sends (the tokens carry their
        # original host-generated sequence numbers, so the remote side
        # recognises duplicates).
        for token in self.shadow.outstanding_sends():
            self.mcp.doorbell_send(token)

        # Clear the receive queue — but salvage RECEIVED events first:
        # their payload DMA completed before the fault (FTGM only ACKs
        # after the DMA) and the LANai may have ACKed them, so the
        # sender will never resend them.  Dropping them would lose
        # delivered-and-acknowledged data; everything else in the queue
        # is stale per the paper.
        stale = self.recv_queue.drain()
        for event in stale:
            if event.etype == EventType.RECEIVED:
                self.recv_queue.put(event)

        # ...and reopen the port (the MCP starts serving it again only
        # after the restore requests queued above are processed: both go
        # through L_timer's FIFO request queue).
        done = self.sim.event()
        self.mcp.host_request(("reopen", self.port_id, done))
        yield done

        # The handler's measured cost dominates per-process recovery
        # (~900 ms in the paper); charge the calibrated remainder.
        elapsed = self.sim.now - started
        remainder = max(C.PER_PORT_RECOVERY_US - elapsed, 0.0)
        yield from self.host.cpu_execute(remainder, "recovery")
        self.recoveries += 1
        self.recovery_times.append(self.sim.now - started)
        self.recovered_at.append(self.sim.now)
        tracer.emit(self.sim.now, source, "port_recovery_done",
                    took=self.sim.now - started)
