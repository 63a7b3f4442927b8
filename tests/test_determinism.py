"""Whole-stack determinism: identical seeds -> identical simulations.

Everything in the reproduction (experiments, campaigns, benchmarks)
relies on runs being exactly replayable from their seeds.  These tests
run non-trivial scenarios twice and require bit-identical observable
histories.
"""


from repro.cluster import build_cluster
from repro.exp.registry import get_experiment
from repro.faults import InjectionConfig
from repro.payload import Payload


def _traffic_trace(seed):
    """A messy scenario: traffic + hang + recovery, traced."""
    cluster = build_cluster(2, flavor="ftgm", seed=seed, trace=True)
    sim = cluster.sim
    events = []
    ports = {}

    def opener(node, pid, key):
        ports[key] = yield from cluster[node].driver.open_port(pid)

    cluster[0].host.spawn(opener(0, 1, "s"), "o1")
    cluster[1].host.spawn(opener(1, 2, "r"), "o2")
    while len(ports) < 2:
        sim.step()

    def sender():
        for i in range(12):
            yield from ports["s"].send_and_wait(
                Payload.from_bytes(b"d%02d" % i), 1, 2)
            yield sim.timeout(35.0)

    def receiver():
        for _ in range(8):
            yield from ports["r"].provide_receive_buffer(64)
        while True:
            event = yield from ports["r"].receive_message(timeout=50_000.0)
            if event is not None:
                events.append((sim.now, event.payload.data))
                yield from ports["r"].provide_receive_buffer(64)

    def crasher():
        yield sim.timeout(250.0)
        cluster[1].mcp.die("det test")

    cluster[1].host.spawn(receiver(), "r")
    cluster[0].host.spawn(sender(), "s")
    sim.spawn(crasher())
    sim.run(until=sim.now + 10_000_000.0)
    trace = [(r.time, r.source, r.kind) for r in cluster.tracer.records]
    return events, trace


def test_recovery_scenario_bit_identical():
    a_events, a_trace = _traffic_trace(seed=77)
    b_events, b_trace = _traffic_trace(seed=77)
    assert a_events == b_events
    assert a_trace == b_trace


def test_different_seeds_still_deliver_identically():
    """Seeds steer randomness (none on this path), not correctness."""
    a_events, _ = _traffic_trace(seed=1)
    b_events, _ = _traffic_trace(seed=2)
    assert [d for _, d in a_events] == [d for _, d in b_events]


def test_injection_campaign_runs_bit_identical():
    config = InjectionConfig(run_id=3, seed=555, messages=8)
    run_one = get_experiment("table1").run_one
    a = run_one(config)
    b = run_one(config)
    assert (a.category, a.bit_offset, a.injected_at,
            a.messages_delivered_ok, a.hang_reason) \
        == (b.category, b.bit_offset, b.injected_at,
            b.messages_delivered_ok, b.hang_reason)


def test_boot_time_bit_identical_across_cluster_sizes():
    for n in (2, 5):
        a = build_cluster(n, flavor="gm", seed=9)
        b = build_cluster(n, flavor="gm", seed=9)
        assert a.sim.now == b.sim.now
        for node_a, node_b in zip(a.nodes, b.nodes):
            assert node_a.mcp.routing_table == node_b.mcp.routing_table
