"""The E-bus DMA engine: moves payloads between host memory and LANai SRAM.

The engine validates host addresses against the pinned-region map.  Three
outcomes are possible for a (possibly firmware-corrupted) descriptor:

* address maps to a pinned region — the transfer proceeds and moves that
  region's content (or a slice of it);
* address is in **kernel space** (below ``USER_DMA_BASE``) — the rogue
  bus-master transaction corrupts the host: :meth:`Host.crash` fires.
  This is the Table 1 "Host Computer Crash" propagation path;
* address is unmapped user space — the transaction master-aborts; the
  engine flags an error and no data moves (the firmware's error path —
  or its hang — takes it from there).

Transfers are processes; they hold the PCI bus for the transfer time and
then set ``HOST_DMA_DONE`` in the ISR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..errors import BusError
from ..payload import Payload
from ..sim import Simulator, Tracer
from .host import Host
from .pci import PciBus
from .registers import IsrBits, StatusRegister

__all__ = ["DmaEngine", "DmaResult"]


@dataclass
class DmaResult:
    """Outcome of one DMA transaction."""

    ok: bool
    error: Optional[str] = None
    payload: Optional[Payload] = None
    moved: int = 0


class DmaEngine:
    """Host <-> SRAM mover, one transaction at a time."""

    def __init__(self, sim: Simulator, host: Host, pci: PciBus,
                 status: StatusRegister, tracer: Optional[Tracer] = None,
                 name: str = "dma"):
        self.sim = sim
        self.host = host
        self.pci = pci
        self.status = status
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.name = name
        self.enabled = True
        self.transactions = 0
        self.errors = 0

    def reset(self) -> None:
        self.enabled = True
        self.transactions = 0
        self.errors = 0

    def ckpt_state(self) -> dict:
        """Snapshot contract: engine flag and transaction accounting."""
        return {"enabled": self.enabled, "transactions": self.transactions,
                "errors": self.errors}

    def _validate(self, host_addr: int, length: int) -> Optional[DmaResult]:
        """Common address checks; returns a failure result or None if OK."""
        if not self.enabled:
            return DmaResult(ok=False, error="dma-disabled")
        if length < 0:
            return DmaResult(ok=False, error="bad-length")
        if self.host.is_kernel_address(host_addr):
            # A bus-master write/read into kernel space takes the host down.
            self.host.crash("rogue DMA at 0x%x from %s" % (host_addr, self.name))
            return DmaResult(ok=False, error="host-crash")
        return None

    def read_from_host(self, host_addr: int, length: int) -> Generator:
        """Process: DMA ``length`` bytes from host memory into SRAM.

        Returns a :class:`DmaResult` whose ``payload`` is the content
        fetched (a slice of the pinned region at ``host_addr``).
        """
        failure = self._validate(host_addr, length)
        if failure is not None:
            self.errors += 1
            return failure
        try:
            region = self.host.region_at(host_addr, max(length, 1))
        except BusError:
            self.errors += 1
            self.tracer.emit(self.sim.now, self.name, "dma_master_abort",
                             addr=host_addr, length=length, dir="read")
            return DmaResult(ok=False, error="master-abort")
        yield from self.pci.transfer(length)
        self.transactions += 1
        offset = host_addr - region.addr
        if region.payload is None:
            payload = Payload.phantom(length, tag=region.region_id)
        else:
            end = min(offset + length, region.payload.size)
            if offset >= region.payload.size:
                payload = Payload.phantom(length, tag=0xBAD)
            else:
                payload = region.payload.slice(offset, end - offset)
        self.status.set_bits(IsrBits.HOST_DMA_DONE)
        return DmaResult(ok=True, payload=payload, moved=length)

    def write_to_host(self, host_addr: int, payload: Payload) -> Generator:
        """Process: DMA ``payload`` from SRAM into host memory."""
        failure = self._validate(host_addr, payload.size)
        if failure is not None:
            self.errors += 1
            return failure
        try:
            region = self.host.region_at(host_addr, max(payload.size, 1))
        except BusError:
            self.errors += 1
            self.tracer.emit(self.sim.now, self.name, "dma_master_abort",
                             addr=host_addr, length=payload.size, dir="write")
            return DmaResult(ok=False, error="master-abort")
        yield from self.pci.transfer(payload.size)
        self.transactions += 1
        offset = host_addr - region.addr
        if offset == 0:
            region.payload = payload
        elif region.payload is not None and region.payload.is_concrete \
                and payload.is_concrete:
            base = bytearray(region.payload.data.ljust(region.size, b"\x00"))
            base[offset:offset + payload.size] = payload.data
            region.payload = Payload.from_bytes(bytes(base))
        else:
            region.payload = payload  # best-effort for phantom partials
        self.status.set_bits(IsrBits.HOST_DMA_DONE)
        return DmaResult(ok=True, payload=payload, moved=payload.size)
