"""The harvest pass: fold a finished cluster's counters into the registry.

Hot loops never talk to the registry — they keep the plain integer
counters they always had (``mcp.stats``, ``cpu.instructions_retired``,
link/switch totals, ...).  After a run's outcome is classified, the
experiment calls :func:`harvest_cluster` once; when telemetry is off the
call returns immediately, and when it is on the pass walks the cluster
and emits every counter, gauge and latency histogram in one sweep.

Because the harvest runs *after* classification and only reads state,
it cannot perturb the simulation: outcomes are byte-identical with
telemetry on or off.
"""

from __future__ import annotations

from typing import Optional

from ..sim.trace import TraceRecord
from . import runtime
from .spans import emit_recovery_spans

__all__ = ["harvest_cluster", "harvest_load"]

_JSON_SCALARS = (int, float, str, bool, type(None))


def _sanitize_records(records):
    """Copies of ``records`` with non-JSON detail values repr()'d.

    Trace details may hold live simulation objects (events, tuples of
    ports); stashed records cross process boundaries (fork-server pipe,
    pool pickling), so they are flattened to scalars at harvest time —
    the same fallback ``chrome_trace_doc`` applies at export time.
    """
    out = []
    for r in records:
        details = {k: v if isinstance(v, _JSON_SCALARS) else repr(v)
                   for k, v in r.details.items()}
        out.append(TraceRecord(r.time, r.source, r.kind, details))
    return out


def harvest_cluster(cluster, *, fault_at: Optional[float] = None) -> None:
    """Harvest one finished run: metrics into the active registry,
    spans + records into the trace stash.  No-op when telemetry is off.

    ``fault_at`` (absolute simulated time of the injected fault, when
    the experiment knows it) enables the ``recovery.detection_us``
    histogram — fault occurrence to the FATAL interrupt.
    """
    # Lazily-parked MCPs carry whole housekeeping windows as pending
    # arithmetic; settle them so every counter below reads as if the
    # ticks had run live.  This happens before the telemetry check on
    # purpose: the fold is deterministic and identical whether telemetry
    # is on or off, which keeps post-harvest cluster state — and any
    # outcome fields read from it later — byte-identical either way.
    for node in cluster.nodes:
        node.driver.mcp.settle_idle()

    # Continuous plane: the sampler's tracks and the flight recorder's
    # end instant are fixed here, where the run is known finished.  Both
    # handles are None unless their intents armed them at build time.
    sampler = getattr(cluster, "sampler", None)
    if sampler is not None:
        runtime.stash_timeseries(sampler.to_doc())
    flight = getattr(cluster, "flight", None)
    if flight is not None:
        flight.note_end(cluster.sim.now)

    registry = runtime.active_registry()
    tracing = runtime.tracing()
    if registry is None and not tracing:
        return

    if tracing:
        emit_recovery_spans(cluster)
        records = _sanitize_records(cluster.tracer.records)
        if sampler is not None:
            records.extend(sampler.counter_records())
        runtime.stash_trace(records)
    if registry is None:
        return

    inc = registry.inc
    gauge = registry.gauge
    observe = registry.observe

    # -- simulation core -------------------------------------------------------
    sim = cluster.sim
    inc("sim.events_scheduled", next(sim._seq))
    gauge("sim.events_pending", len(sim._queue))
    gauge("sim.events_inert", len(sim.inert))
    gauge("sim.time_us", sim.now)

    # -- per node: LANai, SRAM, MCP, DMA, NIC, driver, ports -------------------
    for node in cluster.nodes:
        nic = node.nic
        mcp = node.driver.mcp        # may be a post-recovery reload
        cpu = mcp.cpu
        if cpu is not None:
            inc("lanai.instructions_retired", cpu.instructions_retired)
            inc("lanai.block_hits", cpu.block_hits)
            inc("lanai.blocks_translated", cpu.blocks_translated)
            inc("lanai.busy_us", cpu.busy_time)
        inc("sram.invalidations", nic.sram.invalidations)
        for key, value in mcp.stats.items():
            inc("mcp.%s" % key, value)
        inc("mcp.busy_us", mcp.busy_time)
        inc("mcp.send_busy_us", mcp.send_busy_time)
        inc("mcp.recv_busy_us", mcp.recv_busy_time)
        inc("mcp.l_timer_invocations", mcp.l_timer_invocations)
        inc("mcp.ticks_absorbed", mcp.ticks_absorbed)
        # Only lazy fabrics ever park; keep the counter out of eager
        # clusters' reports so pre-lazy telemetry stays byte-identical.
        if mcp.ticks_parked:
            inc("mcp.ticks_parked", mcp.ticks_parked)
        watchdog_arms = getattr(mcp, "watchdog_arms", None)
        if watchdog_arms is not None:                 # FTGM firmware only
            inc("mcp.watchdog_arms", watchdog_arms)
            inc("mcp.seq_rewinds", mcp.seq_rewinds)
        inc("dma.transactions", nic.dma.transactions)
        inc("dma.errors", nic.dma.errors)
        inc("pci.bytes_moved", nic.pci.bytes_moved)
        inc("nic.resets", nic.resets)
        inc("nic.dropped_arrivals", nic.dropped_arrivals)
        fatal = getattr(node.driver, "fatal_interrupts", None)
        if fatal is not None:                         # FTGM driver only
            inc("driver.fatal_interrupts", fatal)
        for port in node.driver.ports.values():
            inc("gm.port.sends_completed", port.sends_completed)
            inc("gm.port.sends_errored", port.sends_errored)
            inc("gm.port.messages_received", port.messages_received)
            recoveries = getattr(port, "recoveries", None)
            if recoveries is not None:                # FTGM port only
                inc("ftgm.port.recoveries", recoveries)
                inc("ftgm.port.route_changes", port.route_changes)
                for took in port.recovery_times:
                    observe("recovery.port_recover_us", took)

    # -- fabric ----------------------------------------------------------------
    for link in cluster.fabric.links:
        inc("link.packets_carried", link.packets_carried)
        inc("link.packets_dropped", link.packets_dropped)
        inc("link.packets_duplicated", link.packets_duplicated)
        inc("link.packets_corrupted", link.packets_corrupted)
        inc("link.cuts", link.cuts)
    for switch in cluster.fabric.switches:
        inc("switch.forwarded", switch.forwarded)
        inc("switch.absorbed", switch.absorbed)
        inc("switch.misrouted", switch.misrouted)
        inc("switch.dead_port_drops", switch.dead_port_drops)

    # -- FTD timelines: counters plus Table-3-style latency histograms ---------
    for ftd in cluster.ftds():
        inc("ftd.recoveries", len(ftd.recoveries))
        inc("ftd.reroutes", len(ftd.reroutes))
        inc("ftd.false_alarms", ftd.false_alarms)
        for record in ftd.recoveries:
            for label, start, end in record.segments():
                if 0 < start <= end:
                    observe("recovery.phase.%s" % label, end - start)
            if not record.false_alarm:
                observe("recovery.total_us",
                        record.events_posted_at - record.interrupt_at)
                if fault_at is not None:
                    observe("recovery.detection_us",
                            record.interrupt_at - fault_at)
        for record in ftd.reroutes:
            for label, start, end in record.segments():
                if 0 < start <= end:
                    observe("reroute.phase.%s" % label, end - start)


def harvest_load(result, observations=None) -> None:
    """Harvest one finished load run into the active registry.

    ``result`` is a :class:`repro.load.generator.LoadRunResult`;
    ``observations`` the per-stage fold from
    :func:`repro.load.verdict.observe_stages` (computed here when the
    caller has not already graded the run).  Like
    :func:`harvest_cluster` this runs after grading and only *reads*
    run state, so SLO verdicts are byte-identical telemetry on or off.
    """
    registry = runtime.active_registry()
    if registry is None:
        return
    from ..load.verdict import observe_stages

    if observations is None:
        observations = observe_stages(result)
    inc = registry.inc
    gauge = registry.gauge

    inc("load.sends_ok", result.sends_ok)
    inc("load.sends_errored", result.sends_errored)
    inc("load.rejected", result.rejected)
    inc("load.unknown_deliveries", result.unknown_deliveries)
    inc("load.churn_executed", result.churn_executed)

    gauge("load.horizon_us", result.horizon - result.started_at)
    for obs in observations:
        prefix = "load.stage.%s" % obs.name
        inc("%s.offered" % prefix, obs.offered)
        inc("%s.accepted" % prefix, obs.accepted)
        inc("%s.completed" % prefix, obs.completed)
        inc("%s.lost" % prefix, obs.lost)
        inc("%s.duplicated" % prefix, obs.duplicated)
        gauge("%s.availability" % prefix, obs.availability)
        if obs.latency.n == 0:
            continue
        # The per-message latencies only exist as the verdict engine's
        # local histograms; fold read-only copies straight in (observe()
        # replays values, which we no longer have).
        for name in ("%s.delivery_us" % prefix, "load.delivery_us"):
            hist = registry.histograms.get(name)
            if hist is None:
                registry.histograms[name] = obs.latency.copy()
            else:
                hist.merge(obs.latency)
