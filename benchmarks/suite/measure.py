"""The two kinds of run: end-to-end (everything off) and traced.

End-to-end runs drive ``run_experiment`` exactly as ``repro run <name>``
does — fork-server on, one worker, no shards, telemetry off — and time it
from outside.  The traced run replays the same engine protocol in-process
(``expand`` → per run ``boot`` + ``resume`` → ``aggregate`` → ``render`` →
``encode_outcome``) twice: once bare, once under ``cProfile`` with
telemetry on and a span around every protocol step.  The bare pass gives
the tracing overhead and proves the traced outcomes are the same bytes.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads as wl

#: Packages under ``src/repro`` that are layers of their own; every other
#: file (stdlib, ``cluster.py``, ``payload.py``, ``workloads``, ``analysis``,
#: ``middleware``, ``cli.py``, this suite) folds into ``python``.
LAYERS = ("sim", "lanai", "hw", "gm", "ftgm", "net", "netfaults", "faults",
          "load", "exp", "ckpt", "obs", "python")

#: Set-up is measured this many times per run (fresh interpreter each),
#: some before and some after the timed passes because the box's noise
#: comes in bursts of seconds, and the median reported.
SETUP_PROBES = (2, 3)

#: Per-cell walls and spans are printed for grids of at most this many runs.
GRID_MAX_RUNS = 16


def tail_of(passes: List[List[float]]) -> Tuple[float, float]:
    """``(value, percentile)`` of the run walls, given per pass in
    completion order: the highest percentile with at least ten samples
    beyond it.  Under twenty samples no percentile qualifies and the tail
    is the slowest cell instead: each cell's median over the passes, then
    the maximum (reported as p100)."""
    pooled = sorted(gap for gaps in passes for gap in gaps)
    n = len(pooled)
    if n < 20:
        return max(statistics.median(cell) for cell in zip(*passes)), 100.0
    return pooled[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib() -> float:
    """Largest resident set of this process and of the children it has
    reaped, fork-servers and their per-run forks included (``ru_maxrss``
    is KiB on Linux)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def probe_setup(workload: wl.Workload, seed: int, quick: bool,
                count: int) -> List[float]:
    """Wall of ``count`` fresh processes that set up and exit."""
    command = [sys.executable, os.path.join(wl.SUITE_DIR, "run.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--setup-probe"] + (["--quick"] if quick else [])
    walls = []
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - started)
    return walls


def probe_micro(quick: bool) -> Dict[str, float]:
    """Block D from a fresh process, so a micro-driver reads the same
    whichever workload's traced run asked for it (``fork`` alone costs
    three times more from a process that has just profiled 200 runs)."""
    command = [sys.executable, os.path.join(wl.SUITE_DIR, "run.py"),
               "--micro-probe"] + (["--quick"] if quick else [])
    done = subprocess.run(command, check=True, stdout=subprocess.PIPE)
    return json.loads(done.stdout.decode().splitlines()[-1])


class PartRecord:
    """What one ``run_experiment``/protocol replay of one part produced."""

    def __init__(self, name: str, runs: int):
        self.name = name
        self.runs = runs
        self.failed = runs          # until outcomes prove otherwise
        self.ft_ok = 0
        self.ft_total = 0
        self.digest: Optional[Dict[str, Any]] = None
        self.summary: Any = None
        self.error: Optional[str] = None

    def absorb(self, outcomes: List[Any], rendered: str,
               summary: Any) -> None:
        self.summary = summary
        missing = self.runs - len(outcomes)
        self.failed = missing + sum(1 for o in outcomes if wl.is_failed(o))
        for outcome in outcomes:
            if wl.is_failed(outcome):
                continue
            verdict = wl.ft_verdict(self.name, outcome)
            if verdict is not None:
                self.ft_total += 1
                self.ft_ok += int(verdict)
        self.digest = wl.digest(outcomes, rendered)


def end_to_end(workload: wl.Workload, specs, seconds: float) -> Dict[str, Any]:
    """Timed passes over ``specs`` through the public engine, defaults."""
    from repro.exp.runner import run_experiment

    passes = workload.passes_for(seconds)
    gaps: List[List[float]] = []
    pass_walls: List[float] = []
    records: List[List[PartRecord]] = []
    for _ in range(passes):
        pass_started = time.perf_counter()
        pass_records = []
        pass_gaps: List[float] = []
        for experiment, spec in specs:
            record = PartRecord(experiment.name, spec.runs)
            last = [time.perf_counter()]

            def tick(_done: int) -> None:
                now = time.perf_counter()
                pass_gaps.append(now - last[0])
                last[0] = now

            try:
                result = run_experiment(spec, progress=tick)
            except Exception as exc:    # a failed run fails the part
                record.error = "%s: %s" % (type(exc).__name__, exc)
            else:
                record.absorb(result.outcomes, result.rendered,
                              result.summary)
            pass_records.append(record)
        pass_walls.append(time.perf_counter() - pass_started)
        records.append(pass_records)
        gaps.append(pass_gaps)
    runs_per_pass = sum(spec.runs for _e, spec in specs)
    pooled = [gap for pass_gaps in gaps for gap in pass_gaps]
    tail, tail_pct = tail_of(gaps)
    first = records[0]
    cells = _cell_walls(specs, gaps[0]) \
        if runs_per_pass <= GRID_MAX_RUNS else []
    return {
        "passes": passes,
        "attempted": runs_per_pass * passes,
        "failed": sum(r.failed for pr in records for r in pr),
        "errors": [r.error for pr in records for r in pr if r.error],
        "ft_ok": sum(r.ft_ok for r in first),
        "ft_total": sum(r.ft_total for r in first),
        "deterministic": all(
            [r.digest for r in pr] == [r.digest for r in first]
            for pr in records),
        "digests": {r.name: r.digest for r in first},
        "summaries": {r.name: r.summary for r in first},
        "samples": len(pooled),
        "tail_percentile": tail_pct,
        "run_wall_max_ms": max(pooled) * 1000.0,
        "cells": cells,
        "metrics": {
            "runs_per_s": statistics.median(
                runs_per_pass / wall for wall in pass_walls),
            "run_wall_p50_ms": statistics.median(pooled) * 1000.0,
            "run_wall_tail_ms": tail * 1000.0,
            "peak_rss_mb": peak_rss_mib(),
        },
    }


def _cell_walls(specs, gaps: List[float]) -> List[Tuple[str, float]]:
    """Label one pass's run walls with their scenario cells.

    The fork-server completes runs family by family, in config order
    within a family, so the labels follow from the expanded configs."""
    labels: List[str] = []
    for experiment, spec in specs:
        configs = experiment.expand(spec)
        family = experiment.boot_family or (lambda config: 0)
        if experiment.boot is None:
            ordered = configs
        else:
            groups: Dict[Any, List[Any]] = {}
            for config in configs:
                groups.setdefault(family(config), []).append(config)
            ordered = [c for group in groups.values() for c in group]
        labels.extend(wl.cell_label(c, experiment.name) for c in ordered)
    return list(zip(labels, gaps))


# -- the traced run ------------------------------------------------------------


class SpanLog:
    """Spans kept in memory: ``name, start, end, parent, trace``.

    ``trace`` is the run's index (one identifier per run); protocol steps
    outside any run carry ``None``.  Times are seconds since the pass
    began.  A disabled log records nothing, so the bare pass pays for no
    bookkeeping."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()
        self._stack: List[int] = []

    def open(self, name: str, trace: Optional[int] = None,
             label: Optional[str] = None) -> None:
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        self._stack.append(len(self.spans))
        self.spans.append({"name": name, "parent": parent, "trace": trace,
                           "label": label,
                           "start": time.perf_counter() - self._origin,
                           "end": None})

    def close(self) -> None:
        if self.enabled:
            self.spans[self._stack.pop()]["end"] = \
                time.perf_counter() - self._origin

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


def replay_protocol(specs, traced: bool) -> Dict[str, Any]:
    """One in-process pass over ``specs`` through the engine's public
    protocol; with ``traced`` under cProfile, telemetry on, spans on."""
    from repro.exp.results import encode_outcome
    from repro.obs import MetricsSnapshot, runtime as obs_runtime

    spans = SpanLog(traced)
    profile = cProfile.Profile() if traced else None
    snapshots = []
    records = []
    run_id = 0
    if traced:
        obs_runtime.configure(metrics=True)
        profile.enable()
    started = time.perf_counter()
    try:
        spans.open("pass")
        for experiment, spec in specs:
            record = PartRecord(experiment.name, spec.runs)
            spans.open("exp.expand")
            configs = experiment.expand(spec)
            spans.close()
            split = experiment.boot is not None \
                and experiment.resume is not None
            outcomes = []
            for config in configs:
                spans.open("run", trace=run_id,
                           label=wl.cell_label(config, experiment.name))
                run_id += 1
                if traced:
                    obs_runtime.begin_run()
                if split:
                    spans.open("exp.boot")
                    state = experiment.boot(config)
                    spans.close()
                    spans.open("exp.resume")
                    outcomes.append(experiment.resume(state, config))
                    spans.close()
                else:
                    # No boot/resume split registered: the whole run is
                    # the continuation.
                    spans.open("exp.resume")
                    outcomes.append(experiment.run_one(config))
                    spans.close()
                if traced:
                    snapshots.append(obs_runtime.collect())
                spans.close()
            spans.open("exp.aggregate")
            aggregate = experiment.aggregate(spec, outcomes)
            spans.close()
            spans.open("exp.render")
            rendered = experiment.render(aggregate)
            spans.close()
            spans.open("exp.encode")
            for outcome in outcomes:
                encode_outcome(outcome)
            spans.close()
            record.absorb(outcomes, rendered,
                          experiment.summarize(aggregate)
                          if experiment.summarize is not None else None)
            records.append(record)
        spans.close()
    finally:
        if traced:
            profile.disable()
            obs_runtime.reset()
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "records": records,
        "spans": spans,
        "profile": profile,
        "telemetry": MetricsSnapshot.merged(
            s for s in snapshots if s is not None),
    }


def _layer_of(filename: str) -> str:
    marker = os.sep + os.path.join("src", "repro") + os.sep
    at = filename.rfind(marker)
    if at >= 0:
        package = filename[at + len(marker):].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "python"


def fold_profile(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self time and call count per layer.

    A Python function's self time (cProfile's ``inlinetime``) goes to the
    package of its file.  A C builtin has no file, so its time goes to
    the layer that called it — ``heappush`` from the event wheel is event
    wheel time.  Builtin time reached only through other builtins is the
    remainder and lands in ``python``, which keeps the shares summing to
    the profiled total."""
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    total = 0.0
    for entry in profile.getstats():
        total += entry.inlinetime
        if isinstance(entry.code, str):
            continue
        layer = layers[_layer_of(entry.code.co_filename)]
        layer["self_s"] += entry.inlinetime
        layer["calls"] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                layer["self_s"] += callee.inlinetime
                layer["calls"] += callee.callcount
    layers["python"]["self_s"] += total - sum(
        layer["self_s"] for layer in layers.values())
    return layers


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counts_from_telemetry(snapshot, bare_wall: float) -> Dict[str, float]:
    """Block C: the program's own counters, renamed to the owning layer."""
    c = snapshot.counters.get
    events = c("sim.events_scheduled", 0)
    hits = c("lanai.block_hits", 0)
    translated = c("lanai.blocks_translated", 0)
    ticks = c("mcp.l_timer_invocations", 0)
    sent = c("mcp.packets_sent", 0)
    delivered = c("mcp.messages_delivered", 0)
    carried = c("link.packets_carried", 0)
    return {
        "sim.events_scheduled": events,
        "sim.host_us_per_event": _ratio(bare_wall * 1e6, events),
        "lanai.instructions_retired": c("lanai.instructions_retired", 0),
        "lanai.blocks_translated": translated,
        "lanai.block_hit_ratio": _ratio(hits, hits + translated),
        "hw.dma_transactions": c("dma.transactions", 0),
        "hw.pci_bytes_moved": c("pci.bytes_moved", 0),
        "hw.sram_invalidations": c("sram.invalidations", 0),
        "hw.nic_dropped_arrivals": c("nic.dropped_arrivals", 0),
        "gm.l_timer_invocations": ticks,
        "gm.tick_fold_ratio": _ratio(
            c("mcp.ticks_absorbed", 0) + c("mcp.ticks_parked", 0), ticks),
        "gm.packets_sent": sent,
        "gm.retransmit_ratio": _ratio(c("mcp.retransmit_rounds", 0), sent),
        "gm.messages_delivered": delivered,
        "ftgm.watchdog_arms": c("mcp.watchdog_arms", 0),
        "ftgm.port_recoveries": c("ftgm.port.recoveries", 0),
        "ftgm.ftd_recoveries": c("ftd.recoveries", 0),
        "ftgm.ftd_reroutes": c("ftd.reroutes", 0),
        "net.link_packets_carried": carried,
        "net.link_packets_dropped": c("link.packets_dropped", 0),
        "net.switch_forwarded": c("switch.forwarded", 0),
        "net.switch_dead_port_drops": c("switch.dead_port_drops", 0),
        "net.packets_per_delivery": _ratio(carried, delivered),
        "load.sends_ok": c("load.sends_ok", 0),
        "load.rejected": c("load.rejected", 0),
    }


#: Block C names whose value is an exact count (not a ratio or a time):
#: these are pinned in goldens.json and must repeat run to run.
EXACT_COUNTS = (
    "sim.events_scheduled", "lanai.instructions_retired",
    "lanai.blocks_translated", "hw.dma_transactions", "hw.pci_bytes_moved",
    "hw.sram_invalidations", "hw.nic_dropped_arrivals",
    "gm.l_timer_invocations", "gm.packets_sent", "gm.messages_delivered",
    "ftgm.watchdog_arms", "ftgm.port_recoveries", "ftgm.ftd_recoveries",
    "ftgm.ftd_reroutes", "net.link_packets_carried",
    "net.link_packets_dropped", "net.switch_forwarded",
    "net.switch_dead_port_drops", "load.sends_ok", "load.rejected")


def traced(workload: wl.Workload, seed: int, quick: bool) -> Dict[str, Any]:
    """Bare pass, traced pass, and everything block A/B/C reads off them."""
    parts = workload.quick if quick else (workload.traced or workload.parts)
    specs = wl.build_specs(workload, seed, parts)
    bare = replay_protocol(specs, traced=False)
    hot = replay_protocol(specs, traced=True)
    layers = fold_profile(hot["profile"])
    metrics: Dict[str, float] = {}
    for name, folded in layers.items():
        metrics["%s.self_s" % name] = folded["self_s"]
        metrics["%s.calls" % name] = folded["calls"]
    metrics["trace.overhead_ratio"] = hot["wall"] / bare["wall"]
    spans: SpanLog = hot["spans"]
    for step in ("expand", "boot", "resume", "aggregate", "render",
                 "encode"):
        metrics["exp.%s_s" % step] = spans.total("exp." + step)
    metrics.update(counts_from_telemetry(hot["telemetry"], bare["wall"]))
    records: List[PartRecord] = hot["records"]
    runs = [s for s in spans.spans if s["name"] == "run"]
    cells = []
    if len(runs) <= GRID_MAX_RUNS:
        for run in runs:
            own = [s for s in spans.spans if s["parent"] is not None
                   and spans.spans[s["parent"]] is run]
            cells.append((run["label"],
                          {s["name"]: s["end"] - s["start"] for s in own}))
    return {
        "attempted": sum(r.runs for r in records),
        "failed": sum(r.failed for r in records),
        "ft_ok": sum(r.ft_ok for r in records),
        "ft_total": sum(r.ft_total for r in records),
        # Telemetry and the profiler must not change a single outcome byte.
        "deterministic": [r.digest for r in records]
        == [r.digest for r in bare["records"]],
        "digests": {r.name: r.digest for r in records},
        "summaries": {r.name: r.summary for r in records},
        "traced_wall_s": hot["wall"],
        "bare_wall_s": bare["wall"],
        "profiled_s": sum(f["self_s"] for f in layers.values()),
        "spans": spans.spans,
        "cells": cells,
        "note": "" if quick else workload.traced_note,
        "metrics": metrics,
    }
