"""The closed-form link wire against the process-per-packet pipe it replaced.

``Link.transmit`` computes a packet's start and clear instants when it is
queued.  The reference here is the old formulation, kept in the tests:
one process per packet that sleeps the ready delay and then holds a
:class:`repro.sim.Pipe` for the wire time.
"""

from hypothesis import given, settings, strategies as st

from repro.net import Fabric, Packet, PacketType
from repro.net.link import Link
from repro.sim import Pipe, Simulator

from .test_fabric import data_packet, make_node

BANDWIDTH = 250.0
LATENCY = 0.4


class _Endpoint:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.arrivals = []

    def deliver_packet(self, packet):
        self.arrivals.append((self.sim.now, packet.tag))
        return True


class _Packet:
    def __init__(self, size, tag):
        self.wire_size = size
        self.tag = tag

    def describe(self):
        return "fake%d" % self.tag


def _drive(sim, schedule, submit):
    """Call ``submit(index, size)`` after each cumulative gap."""
    def driver():
        for index, (gap, size) in enumerate(schedule):
            yield sim.timeout(gap)
            submit(index, size)
    sim.spawn(driver())


def _reference(schedule, delay, horizon):
    sim = Simulator()
    pipe = Pipe(sim, BANDWIDTH)
    clears, arrivals = [], []

    def hop(index, size):
        yield sim.timeout(delay)
        yield from pipe.transfer(size)
        clears.append((sim.now, index))
        yield sim.timeout(LATENCY)
        arrivals.append((sim.now, index))

    _drive(sim, schedule, lambda index, size: sim.spawn(hop(index, size)))
    sim.run(until=horizon)
    return clears, arrivals, pipe.bytes_moved, pipe.utilization()


def _closed_form(schedule, delay, horizon):
    sim = Simulator()
    a, b = _Endpoint(sim, "a"), _Endpoint(sim, "b")
    link = Link(sim, a, b, bandwidth=BANDWIDTH, latency=LATENCY)
    clears = []

    def submit(index, size):
        done = sim.event()
        done.callbacks.append(lambda _ev: clears.append((sim.now, index)))
        link.transmit(a, _Packet(size, index), delay, done=done)

    _drive(sim, schedule, submit)
    sim.run(until=horizon)
    wire = link._wires[id(a)]
    return clears, b.arrivals, wire.bytes_moved, wire.utilization()


class TestClosedFormMatchesPipe:
    @settings(max_examples=150, deadline=None)
    @given(schedule=st.lists(
               st.tuples(st.one_of(st.just(0.0),
                                   st.floats(0.0, 40.0, allow_nan=False)),
                         st.integers(1, 5000)),
               min_size=1, max_size=30),
           delay=st.sampled_from([0.0, 0.15]),
           cut_short=st.booleans())
    def test_bit_identical_instants_and_accounting(self, schedule, delay,
                                                   cut_short):
        # cut_short stops mid-burst, so bytes_moved and utilization()
        # are compared with packets still queued and one on the wire.
        total = sum(gap for gap, _ in schedule)
        horizon = total if cut_short else total + 30 * 5000 / BANDWIDTH + 10
        assert _closed_form(schedule, delay, horizon) \
            == _reference(schedule, delay, horizon)


def test_zero_latency_link_delivers_at_wire_clear_in_queue_order():
    # No propagation delay is a legal cable: arrival coincides with the
    # instant the packet's tail clears, and FIFO order still holds.
    sim = Simulator()
    a, b = _Endpoint(sim, "a"), _Endpoint(sim, "b")
    link = Link(sim, a, b, bandwidth=BANDWIDTH, latency=0.0)
    link.transmit(a, _Packet(500, 0))
    link.transmit(a, _Packet(250, 1))
    sim.run()
    assert b.arrivals == [(2.0, 0), (3.0, 1)]


class TestCutWhileQueued:
    def test_packets_clearing_after_cut_drop(self):
        sim = Simulator()
        fabric = Fabric(sim)
        a, b = make_node(sim, 0), make_node(sim, 1)
        link = fabric.connect(fabric.attach_nic(a), fabric.attach_nic(b))
        results = {}

        def send(seq):
            results[seq] = yield from a.send_packet(
                data_packet(0, 1, [], 960, seq=seq))

        for seq in range(3):            # 1000 wire bytes: clear at 4, 8, 12
            sim.spawn(send(seq))

        def cutter():
            yield sim.timeout(6.0)
            link.cut()

        sim.spawn(cutter())
        sim.run()
        assert results == {0: True, 1: False, 2: False}
        assert [pkt.seq for pkt in b.recv_ring.drain()] == [0]
        assert link.packets_carried == 1
        # The wire was held for all three, delivered or not.
        wire = link._wires[id(a.link)]
        assert wire.bytes_moved == 3 * data_packet(0, 1, [], 960).wire_size
        assert wire.free_at == sim.now


class TestFaultFilterOrder:
    def test_filter_draws_in_wire_order_under_contention(self):
        # Three senders converge on one switch output.  The stateful
        # filter drops every second packet it is shown, so which packets
        # survive is decided by the order the wire shows them in: ready
        # order at the switch, not send order.
        sim = Simulator()
        fabric = Fabric(sim)
        nics = [make_node(sim, i) for i in range(4)]
        switch = fabric.star(nics)
        out_link = switch.port(3).link
        drawn = []

        def every_second(packet):
            drawn.append(packet.src_node)
            return len(drawn) % 2 == 0

        out_link.fault_filter = every_second
        # Longer packets reach the switch later: arrival order 2, 1, 0.
        for src, nbytes in ((0, 3000), (1, 2000), (2, 1000)):
            nics[src].link.transmit(data_packet(src, 3, [3], nbytes))
        sim.run()
        assert drawn == [2, 1, 0]
        assert [pkt.src_node for pkt in nics[3].recv_ring.drain()] == [2, 0]
        assert out_link.packets_dropped == 1
        # Acceptance is counted at delivery, so the dropped one is absent.
        assert switch.forwarded == 2


class TestFloodedRing:
    def test_forwarded_counts_every_accepted_switch_hop(self):
        sim = Simulator()
        fabric = Fabric(sim)
        nics = [make_node(sim, i) for i in range(3)]
        switches = fabric.ring(nics, n_switches=3)
        scout = Packet(ptype=PacketType.MAPPER_SCOUT, src_node=0,
                       dest_node=-1, flood=True, ttl=4)
        nics[0].link.transmit(scout)
        sim.run()
        # Every carried packet but the scout itself came out of a switch.
        switch_sent = sum(link.packets_carried for link in fabric.links) - 1
        refused = sum(switch.absorbed + switch.misrouted
                      + switch.dead_port_drops for switch in switches)
        dropped_at_nics = sum(nic.dropped_arrivals for nic in nics)
        assert switch_sent > len(nics)          # the cycle multiplied it
        assert sum(s.forwarded for s in switches) \
            == switch_sent - refused - dropped_at_nics
        # Both directions round the ring reach each far NIC.
        assert len(nics[1].recv_ring) >= 2 and len(nics[2].recv_ring) >= 2
        assert all(not wire.clearing.queue and not wire.arriving.queue
                   for link in fabric.links
                   for wire in link._wires.values())
