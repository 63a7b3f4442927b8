"""Tickless idle fast-forward: fewer events, bitwise-equal bookkeeping.

A quiet GM cluster spends its life in L_timer housekeeping ticks.  The
idle-skip fold absorbs provably idle runs of those ticks into arithmetic
and arms IT0 directly at the first tick that could interact with a live
event.  These tests pin both halves of that bargain:

* the simulator processes dramatically fewer heap events across a long
  idle span, and
* every piece of tick bookkeeping (invocation counts, busy time, last
  tick, max gap) lands on the exact floats live ticking produces, so a
  later burst of traffic observes identical MCP state at identical
  times.

The traffic after the quiet span is scheduled *in-sim* (a host process
sleeping on a timeout), which keeps the future send heap-visible — the
contract the skip's event-scan relies on.
"""

import pytest

from repro.cluster import build_cluster
from repro.gm.mcp import Mcp
from repro.payload import Payload

QUIET_US = 500_000.0


def _scenario(monkeypatch, tickless):
    monkeypatch.setattr(Mcp, "_tickless", tickless)
    cluster = build_cluster(2, flavor="gm")
    sim = cluster.sim
    done = {}

    def receiver(port):
        for tag in ("first", "second"):
            yield from port.provide_receive_buffer(1024)
            event = yield from port.receive_message()
            done[tag] = event.payload.data

    def sender(port):
        yield from port.send_and_wait(Payload.from_bytes(b"warm"), 1, 2)
        yield sim.timeout(QUIET_US)
        yield from port.send_and_wait(Payload.from_bytes(b"wake"), 1, 2)
        done["sent"] = sim.now

    def opener():
        sport = yield from cluster[0].driver.open_port(1)
        rport = yield from cluster[1].driver.open_port(2)
        cluster[1].host.spawn(receiver(rport), "receiver")
        cluster[0].host.spawn(sender(sport), "sender")

    cluster[0].host.spawn(opener(), "opener")
    steps = 0
    while not ("second" in done and "sent" in done):
        assert sim.peek() != float("inf"), "deadlocked before completion"
        sim.step()
        steps += 1
    books = [(n.mcp.l_timer_invocations, n.mcp.busy_time,
              n.mcp.l_timer_last, n.mcp.l_timer_max_gap)
             for n in cluster.nodes]
    return {"steps": steps, "now": sim.now, "books": books,
            "payloads": (done["first"], done["second"])}


class TestIdleSkip:
    def test_bookkeeping_bitwise_equals_live_ticking(self, monkeypatch):
        live = _scenario(monkeypatch, tickless=False)
        skip = _scenario(monkeypatch, tickless=True)
        assert skip["payloads"] == live["payloads"] == (b"warm", b"wake")
        assert skip["now"] == live["now"]
        assert skip["books"] == live["books"]

    def test_idle_span_processes_far_fewer_events(self, monkeypatch):
        live = _scenario(monkeypatch, tickless=False)
        skip = _scenario(monkeypatch, tickless=True)
        # ~1245 ticks tick by per MCP across the quiet half-millisecond;
        # live ticking pays heap events for each while the fold pays a
        # handful per host-poll horizon.
        assert skip["steps"] < live["steps"] / 3

    def test_tick_cadence_is_preserved_through_the_fold(self, monkeypatch):
        skip = _scenario(monkeypatch, tickless=True)
        for invocations, busy, last, max_gap in skip["books"]:
            # Every absorbed tick was billed: ~401.5 us apart across the
            # whole run, 1.5 us of housekeeping charge each.
            assert invocations > QUIET_US / 402.0
            assert busy >= 1.5 * invocations
