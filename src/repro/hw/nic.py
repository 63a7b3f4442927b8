"""The Myrinet host interface card (NIC) assembly.

One :class:`Nic` bundles what sits on a real LANai9 board: the SRAM, the
LANai's interval timers and status registers, the E-bus DMA engine, and
the packet interface toward the fabric.  The control program (native or
interpreted MCP) and the link are attached by the driver and the fabric
respectively.

The watchdog mechanics of the paper live in the *wiring* here: interval
timers are hardware, so they keep counting when the firmware hangs; a
timer expiry sets its ISR bit, and if the IMR unmasks that bit the board
interrupts the host.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import Simulator, Store, Tracer
from .dma import DmaEngine
from .host import Host
from .pci import PciBus
from .registers import IsrBits, StatusRegister
from .sram import Sram
from .timers import IntervalTimer

__all__ = ["Nic", "RECV_RING_SLOTS"]

# SRAM packet buffering is finite; GM sizes its receive ring to a handful
# of MTU-sized slots.  Arrivals beyond this are dropped (and recovered by
# the Go-Back-N sender), which is Myrinet's backpressure-at-the-edge.
RECV_RING_SLOTS = 32


class Nic:
    """A host interface card plugged into one host and one link."""

    IRQ_LINE = 9  # conventional; any free line would do

    def __init__(self, sim: Simulator, host: Host, node_id: int,
                 sram_size: int = 2 * 1024 * 1024,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.host = host
        self.node_id = node_id
        self.name = "nic%d" % node_id
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)

        self.sram = Sram(sram_size)
        self.status = StatusRegister()
        self.timers = [IntervalTimer(sim, i) for i in range(3)]
        for timer in self.timers:
            timer.on_expire = self._timer_expired
        self.pci = PciBus(sim)
        self.dma = DmaEngine(sim, host, self.pci, self.status, tracer,
                             name="%s.dma" % self.name)

        self.link = None  # set by the fabric when cabled
        self.recv_ring: Store = Store(sim, capacity=RECV_RING_SLOTS)
        self.dropped_arrivals = 0

        self.mcp: Optional[Any] = None     # control program (driver-loaded)
        self.powered = True
        self.resets = 0
        self.timers_functional = True

        # Deliver a host interrupt whenever an unmasked ISR bit is set.
        self.status.add_listener(self._isr_changed)

    # -- interrupt plumbing ------------------------------------------------------

    def _isr_changed(self, set_mask: int) -> None:
        if set_mask & self.status.imr:
            self.raise_host_interrupt(set_mask & self.status.imr)

    def _timer_expired(self, timer: IntervalTimer) -> None:
        if not self.timers_functional:
            return
        bit = (IsrBits.IT0_EXPIRED, IsrBits.IT1_EXPIRED,
               IsrBits.IT2_EXPIRED)[timer.index]
        if self.tracer.enabled:  # hot path: ~2k expiries per simulated ms
            self.tracer.emit(self.sim.now, self.name, "timer_expired",
                             timer=timer.index)
        self.status.set_bits(bit)

    def kill_timers(self) -> None:
        """Model a fault that takes the timer/interrupt logic down too.

        The paper's watchdog "assumes that a network interface hang does
        not affect the timer or the interrupt logic" — this is the case
        where that assumption fails.  A card reset restores the logic.
        """
        self.timers_functional = False
        for timer in self.timers:
            timer.stop()

    def raise_host_interrupt(self, cause: Any) -> None:
        self.host.raise_irq(self.IRQ_LINE, cause)

    # -- packet interface ------------------------------------------------------

    def deliver_packet(self, packet: Any) -> bool:
        """Called by the attached link when a packet arrives off the wire.

        Returns False (and drops) when the SRAM receive ring is full —
        wormhole backpressure ends at the edge; GM recovers via Go-Back-N.
        """
        if not self.powered:
            return False
        if self.recv_ring.full:
            self.dropped_arrivals += 1
            self.tracer.emit(self.sim.now, self.name, "recv_ring_drop")
            return False
        self.recv_ring.put(packet)
        self.status.set_bits(IsrBits.PACKET_ARRIVED)
        return True

    def send_packet(self, packet: Any):
        """Process: push a packet onto the wire (blocks for wire time).

        ``self.link`` is the fabric attachment point (a ``NicPort``);
        returns True once the packet has cleared the wire (delivery
        completes one wire latency later).
        """
        if self.link is None:
            raise RuntimeError("%s is not cabled to a link" % self.name)
        ok = yield from self.link.send(packet)
        return ok

    def ckpt_state(self) -> dict:
        """Snapshot contract: the whole board below the control program.

        The MCP itself is captured separately by the node walker (it is
        firmware, not board hardware); the attached link belongs to the
        fabric section.
        """
        return {
            "name": self.name,
            "powered": self.powered,
            "resets": self.resets,
            "timers_functional": self.timers_functional,
            "dropped_arrivals": self.dropped_arrivals,
            "status": self.status.ckpt_state(),
            "timers": [timer.ckpt_state() for timer in self.timers],
            "sram": self.sram.ckpt_state(),
            "dma": self.dma.ckpt_state(),
            "pci": self.pci.ckpt_state(),
            "recv_ring": self.recv_ring.ckpt_state(),
        }

    # -- lifecycle ------------------------------------------------------------------

    def reset(self) -> None:
        """Card reset: everything on the board returns to power-on state.

        The SRAM content is *not* cleared by reset (SRAM retains data);
        the FTD explicitly clears it before reloading the MCP, as in the
        paper.  The attached link and the host-side page hash table are
        untouched.
        """
        self.resets += 1
        self.status.reset()
        self.timers_functional = True
        for timer in self.timers:
            timer.stop()
        self.dma.reset()
        self.recv_ring.drain()
        self.mcp = None
        self.tracer.emit(self.sim.now, self.name, "card_reset",
                         count=self.resets)
