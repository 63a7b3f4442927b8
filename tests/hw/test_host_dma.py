"""Unit tests for the host machine and DMA engine."""

import pytest

from repro.errors import BusError, HostCrashed
from repro.hw import (
    PAGE_SIZE,
    USER_DMA_BASE,
    DmaEngine,
    Host,
    IsrBits,
    Nic,
    PciBus,
    StatusRegister,
)
from repro.payload import Payload
from repro.sim import Simulator


@pytest.fixture
def host():
    return Host(Simulator(), "host0")


class TestHostMemory:
    def test_alloc_registers_pages_in_hash_table(self, host):
        region = host.alloc_dma(2 * PAGE_SIZE, owner_port=3)
        assert region.addr >= USER_DMA_BASE
        page = region.addr // PAGE_SIZE
        assert host.page_hash_table.lookup(3, page) == region.addr
        assert host.page_hash_table.lookup(3, page + 1) == region.addr + PAGE_SIZE

    def test_alloc_distinct_addresses(self, host):
        a = host.alloc_dma(100, owner_port=0)
        b = host.alloc_dma(100, owner_port=0)
        assert a.addr != b.addr
        assert b.addr >= a.addr + PAGE_SIZE  # page-granular spacing

    def test_region_at_resolves_interior_addresses(self, host):
        region = host.alloc_dma(1000, owner_port=0)
        assert host.region_at(region.addr + 500, 100) is region

    def test_region_at_unmapped_raises(self, host):
        with pytest.raises(BusError):
            host.region_at(USER_DMA_BASE + 0x5000_0000)

    def test_free_unmaps(self, host):
        region = host.alloc_dma(100, owner_port=0)
        host.free_dma(region)
        with pytest.raises(BusError):
            host.region_at(region.addr)

    def test_kernel_address_predicate(self, host):
        assert host.is_kernel_address(0x1000)
        assert not host.is_kernel_address(USER_DMA_BASE)

    def test_alloc_invalid_size(self, host):
        with pytest.raises(ValueError):
            host.alloc_dma(0, owner_port=0)

    def test_page_hash_remove_port(self, host):
        host.alloc_dma(PAGE_SIZE, owner_port=1)
        host.alloc_dma(PAGE_SIZE, owner_port=2)
        host.page_hash_table.remove_port(1)
        assert len(host.page_hash_table) == 1


class TestHostCpu:
    def test_cpu_execute_accumulates_by_category(self, host):
        sim = host.sim

        def work():
            yield from host.cpu_execute(2.0, "send")
            yield from host.cpu_execute(3.0, "send")
            yield from host.cpu_execute(1.0, "recv")

        sim.spawn(work())
        sim.run()
        assert host.cpu_time["send"] == pytest.approx(5.0)
        assert host.cpu_time["recv"] == pytest.approx(1.0)

    def test_cpu_serializes_processes(self, host):
        sim = host.sim
        ends = []

        def work(tag):
            yield from host.cpu_execute(10.0, tag)
            ends.append((tag, sim.now))

        sim.spawn(work("a"))
        sim.spawn(work("b"))
        sim.run()
        assert ends == [("a", 10.0), ("b", 20.0)]


class TestHostCrash:
    def test_crash_interrupts_processes(self, host):
        sim = host.sim
        outcome = []

        def app():
            try:
                yield sim.timeout(1000.0)
                outcome.append("finished")
            except HostCrashed:
                outcome.append("killed")

        host.spawn(app(), "app")

        def trigger():
            yield sim.timeout(10.0)
            host.crash("test crash")

        sim.spawn(trigger())
        sim.run()
        assert outcome == ["killed"]
        assert host.crashed

    def test_crashed_host_rejects_new_work(self, host):
        host.crash("dead")
        with pytest.raises(HostCrashed):
            host.alloc_dma(100, owner_port=0)

    def test_crashed_host_ignores_irqs(self, host):
        calls = []
        host.register_irq_handler(9, calls.append)
        host.crash("dead")
        host.raise_irq(9, "cause")
        assert calls == []

    def test_irq_dispatch(self, host):
        calls = []
        host.register_irq_handler(9, calls.append)
        host.raise_irq(9, "hello")
        host.raise_irq(5, "nobody-listens")  # no handler: ignored
        assert calls == ["hello"]


class TestDmaEngine:
    def _engine(self):
        sim = Simulator()
        host = Host(sim, "h")
        status = StatusRegister()
        pci = PciBus(sim, bandwidth=100.0, setup=1.0)
        return sim, host, DmaEngine(sim, host, pci, status), status

    def test_read_from_host_returns_slice(self):
        sim, host, dma, status = self._engine()
        region = host.alloc_dma(1000, owner_port=0)
        region.payload = Payload.from_bytes(b"x" * 400 + b"y" * 600)
        results = []

        def run():
            result = yield from dma.read_from_host(region.addr + 400, 100)
            results.append(result)

        sim.spawn(run())
        sim.run()
        [result] = results
        assert result.ok
        assert result.payload.data == b"y" * 100
        assert status.test(IsrBits.HOST_DMA_DONE)
        assert sim.now == pytest.approx(1.0 + 100 / 100.0)

    def test_write_to_host_deposits_payload(self):
        sim, host, dma, _ = self._engine()
        region = host.alloc_dma(256, owner_port=0)
        payload = Payload.from_bytes(b"abc" * 10)

        def run():
            yield from dma.write_to_host(region.addr, payload)

        sim.spawn(run())
        sim.run()
        assert region.payload == payload

    def test_kernel_address_crashes_host(self):
        sim, host, dma, _ = self._engine()
        results = []

        def run():
            result = yield from dma.write_to_host(
                0x2000, Payload.phantom(64))
            results.append(result)

        sim.spawn(run())
        sim.run()
        assert host.crashed
        assert results[0].error == "host-crash"

    def test_unmapped_user_address_master_aborts(self):
        sim, host, dma, _ = self._engine()
        results = []

        def run():
            result = yield from dma.read_from_host(
                USER_DMA_BASE + 0x100_0000, 64)
            results.append(result)

        sim.spawn(run())
        sim.run()
        assert not host.crashed
        assert results[0].error == "master-abort"
        assert dma.errors == 1

    def test_unmapped_write_master_aborts(self):
        sim, host, dma, _ = self._engine()
        results = []

        def run():
            result = yield from dma.write_to_host(
                USER_DMA_BASE + 0x100_0000, Payload.from_bytes(b"abcd"))
            results.append(result)

        sim.spawn(run())
        sim.run()
        assert (results[0].ok, results[0].error) == (False, "master-abort")
        assert dma.errors == 1 and dma.transactions == 0

    def test_only_a_bus_error_is_a_master_abort(self, monkeypatch):
        """A bug inside ``region_at`` must surface, not be tallied as one."""
        _sim, host, dma, _ = self._engine()
        region = host.alloc_dma(64, owner_port=0)

        def broken(addr, length=1):
            raise RuntimeError("programming error in region_at")

        monkeypatch.setattr(host, "region_at", broken)
        with pytest.raises(RuntimeError):
            next(dma.read_from_host(region.addr, 16))
        with pytest.raises(RuntimeError):
            next(dma.write_to_host(region.addr, Payload.from_bytes(b"abcd")))
        assert dma.errors == 0

    def test_disabled_engine_refuses(self):
        sim, host, dma, _ = self._engine()
        region = host.alloc_dma(64, owner_port=0)
        dma.enabled = False
        results = []

        def run():
            result = yield from dma.read_from_host(region.addr, 16)
            results.append(result)

        sim.spawn(run())
        sim.run()
        assert results[0].error == "dma-disabled"


class TestNic:
    def test_timer_expiry_sets_isr_bit(self):
        sim = Simulator()
        host = Host(sim, "h")
        nic = Nic(sim, host, node_id=0)
        nic.timers[1].set_us(100.0)
        sim.run()
        assert nic.status.test(IsrBits.IT1_EXPIRED)

    def test_unmasked_timer_interrupts_host(self):
        sim = Simulator()
        host = Host(sim, "h")
        nic = Nic(sim, host, node_id=0)
        irqs = []
        host.register_irq_handler(Nic.IRQ_LINE, irqs.append)
        nic.status.enable_interrupt(IsrBits.IT1_EXPIRED)
        nic.timers[1].set_us(100.0)
        sim.run()
        assert irqs == [IsrBits.IT1_EXPIRED]

    def test_masked_timer_does_not_interrupt(self):
        sim = Simulator()
        host = Host(sim, "h")
        nic = Nic(sim, host, node_id=0)
        irqs = []
        host.register_irq_handler(Nic.IRQ_LINE, irqs.append)
        nic.timers[1].set_us(100.0)
        sim.run()
        assert irqs == []

    def test_recv_ring_backpressure_drops(self):
        sim = Simulator()
        host = Host(sim, "h")
        nic = Nic(sim, host, node_id=0)
        from repro.hw import RECV_RING_SLOTS
        for i in range(RECV_RING_SLOTS):
            assert nic.deliver_packet(("pkt", i))
        assert not nic.deliver_packet(("pkt", "overflow"))
        assert nic.dropped_arrivals == 1

    def test_reset_clears_board_state(self):
        sim = Simulator()
        host = Host(sim, "h")
        nic = Nic(sim, host, node_id=0)
        nic.deliver_packet("pkt")
        nic.timers[0].set_us(50.0)
        nic.status.enable_interrupt(IsrBits.FATAL)
        nic.mcp = object()
        nic.reset()
        assert len(nic.recv_ring) == 0
        assert nic.status.imr == 0
        assert not nic.timers[0].armed
        assert nic.mcp is None
        assert nic.resets == 1

    def test_reset_preserves_sram(self):
        """Card reset does NOT clear SRAM; the FTD must do so explicitly."""
        sim = Simulator()
        host = Host(sim, "h")
        nic = Nic(sim, host, node_id=0)
        nic.sram.write_word(0x100, 0xCAFEBABE)
        nic.reset()
        assert nic.sram.read_word(0x100) == 0xCAFEBABE
