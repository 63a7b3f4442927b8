"""The FTGM control program: GM's MCP with the paper's modifications.

Four deviations from stock GM, all in §4.1 of the paper:

1. **Per-(port, remote node) sequence streams** (Figure 6b) — the host
   generates sequence numbers and passes them through the send token;
   the MCP "simply uses these sequence numbers rather than generating
   its own".
2. **Receiver ACK state per (connection, port)** — the receiver
   acknowledges per-port streams instead of per-connection.
3. **Delayed commit point** — the final fragment of a message is ACKed
   only after its DMA into the user buffer completes; intermediate
   fragments still ACK immediately so multi-packet messages keep the
   pipe full.
4. **Sequence reporting** — events posted to the host carry the last
   ACKed sequence number so the host's ACK-table copy stays current.

Plus §4.2's watchdog support in ``L_timer()``: reset the spare interval
timer IT1 and clear the FTD's magic probe word on every invocation.
"""

from __future__ import annotations

from typing import Optional

from ..gm.mcp import Mcp
from ..gm.streams import RxStream, StreamKey, TxStream
from ..gm.tokens import SendToken
from ..gm import constants as C
from ..lanai.firmware import MAGIC_WORD_ADDR
from ..net.packet import Packet

__all__ = ["FtgmMcp"]


class FtgmMcp(Mcp):
    """GM-1.5.1 MCP with the FTGM modifications applied."""

    name_prefix = "ftgm-mcp"

    # Telemetry counters; class attributes so plain instance increments
    # work without overriding Mcp.__init__.
    watchdog_arms = 0
    seq_rewinds = 0

    # Overridable per instance — the watchdog-interval ablation (A2)
    # sweeps this.
    watchdog_interval_us = C.WATCHDOG_INTERVAL_US
    # Sequence bookkeeping + per-(connection, port) ACK table cost on the
    # LANai (Table 2: LANai util 6.0 -> 6.8us per small message).
    lanai_send_extra_us = 0.40
    lanai_recv_extra_us = 0.40

    def ckpt_state(self) -> dict:
        """Snapshot contract: GM state plus the FTGM watchdog additions."""
        state = super().ckpt_state()
        state["watchdog_arms"] = self.watchdog_arms
        state["seq_rewinds"] = self.seq_rewinds
        state["watchdog_interval_us"] = self.watchdog_interval_us
        return state

    # -- deviation 1 & 2: stream keying ------------------------------------------

    def tx_stream_key(self, token: SendToken) -> StreamKey:
        """Independent stream per (remote node, local port) — Fig. 6b."""
        return (token.dest_node, token.src_port)

    def rx_stream_key(self, pkt: Packet) -> StreamKey:
        return (pkt.src_node, pkt.src_port)

    def ack_stream_key(self, pkt: Packet) -> StreamKey:
        # ACK/NACK packets preserve the data packet's src_port, which is
        # the *sender's* port: exactly our tx-stream discriminator.
        return (pkt.src_node, pkt.src_port)

    def assign_seq_base(self, stream: TxStream, token: SendToken) -> None:
        """The host generated token.seq_base; the MCP keeps it."""
        if token.seq_base is None:
            # A host that failed to stamp the token is a library bug —
            # fall back to MCP numbering (logged) rather than corrupting
            # the stream.
            self.tracer.emit(self.sim.now, self.name, "missing_seq_base",
                             msg_id=token.msg_id)

    # -- deviation 3: the commit point -------------------------------------------------

    def ack_after_dma(self, is_final: bool) -> bool:
        """Delay the ACK past the DMA for final fragments only."""
        return is_final

    # -- deviation 4: sequence reporting ------------------------------------------------

    def event_seq_field(self, stream: RxStream) -> Optional[int]:
        return stream.last_acked

    # -- netfault reroute support -------------------------------------------------

    def _handle_host_request(self, request):
        if request[0] == "retx_now":
            # The library saw ROUTE_CHANGED: kick every stalled stream of
            # that port so Go-Back-N retransmits over the freshly
            # installed routes now instead of waiting out a backed-off
            # deadline from the dead-path era.  Routes are read at
            # packet-build time, so the rewound fragments pick up the new
            # paths automatically.
            _, port_id = request
            now = self.sim.now
            for key, stream in self.tx_streams.items():
                if len(key) > 1 and key[1] != port_id:
                    continue
                if stream.has_unacked():
                    stream.rewind_for_reroute()
                    stream.note_progress(now)
                    self.seq_rewinds += 1
            yield from self._charge(0.5, "retx-now")
            return
        yield from super()._handle_host_request(request)

    # -- watchdog support (§4.2) ----------------------------------------------------

    def _l_timer_extra(self) -> None:
        """Reset IT1 and clear the FTD's magic word.

        "The L_timer() routine is modified to reset IT1 whenever it is
        called.  So, during normal operation, L_timer() resets IT1 just
        in time to avoid an interrupt from being raised."
        """
        self.nic.timers[1].set_us(self.watchdog_interval_us)
        self.watchdog_arms += 1
        if self.nic.sram.read_word(MAGIC_WORD_ADDR) != 0:
            self.nic.sram.write_word(MAGIC_WORD_ADDR, 0)

    # -- lazy parking (watchdog side) ------------------------------------------

    def _replay_windows(self, count: int, end: float) -> None:
        """Each replayed window's L_timer re-armed IT1: bill the arms and
        restore IT1 where the last completed window (ending at ``end``)
        left it; later (live or replayed-tail) windows take over."""
        self.watchdog_arms += count
        self.nic.timers[1].set_deadline(end + self.watchdog_interval_us)

    def sample_stats(self, now: float) -> dict:
        """Add the watchdog track to the read-only projection.

        Whole parked windows re-arm IT1, as the replay bills them; a
        straddled window's arm rides its tail callback.  (The second
        walk resumes at ``now``, so it steps nothing.)
        """
        stats = super().sample_stats(now)
        stats["watchdog_arms"] = self.watchdog_arms \
            + self._parked_windows(now)[0]
        return stats

    # FTGM ticks do observable work even when the dispatch loop is idle:
    # every L_timer re-arms the watchdog (IT1) and clears the FTD's magic
    # probe word, and both the FTD and the peer watchdog may poke that
    # state from outside the event heap (daemon wakeups, test harness
    # calls between sim.run() slices).  Folding idle ticks into
    # arithmetic would let a committed skip outlive such a poke and miss
    # the clears the real cadence guarantees, so FTGM keeps every tick
    # live (the fused callback path still applies).
    _idle_skip = False
